"""Run every workload at several seeds and record medians and spreads.

    python3 perfbench/baseline.py --seeds 0-9 [--out FILE]

Each workload runs once per seed with --trace 0 and once with --trace 1 (at
the first seed), for BENCHMARK.json's run_seconds. For each end-to-end metric
it prints the median and the interquartile spread as a share of the median,
next to the metric's bound, and writes every run's result to FILE.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    lines = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.splitlines()
    facts = next(json.loads(line[6:]) for line in lines if line.startswith("facts "))
    return dict(json.loads(lines[-1]), facts=facts)


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9", help="first-last, inclusive")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))
    record = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [run_once(workload, seed, 0) for seed in range(first, last + 1)]
        summary = {}
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            summary[name] = spread([r["metrics"][name]["value"] for r in runs])
            print(f"{workload:12s} {name:12s} median {summary[name]['median']:10.4f} "
                  f"spread {summary[name]['spread']:.4f} bound {metric['bound']}", flush=True)
        failed = sum(r["failed"] for r in runs)
        print(f"{workload:12s} failed {failed} of {sum(r['attempted'] for r in runs)}", flush=True)
        record[workload] = {"end_to_end": summary, "runs": runs,
                            "traced": run_once(workload, first, 1)}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
