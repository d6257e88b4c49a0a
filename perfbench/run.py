"""scramblab benchmark: wall time of registered experiments, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is imported from the
checkout's src/. Load model: a closed loop with one client. Each pass runs
the workload's jobs one after another through ``benchcli.run`` (workers=1,
BLAS at its default thread count) in a fresh process. Passes repeat while
another fits in S seconds, and at least MIN_PASSES run. Before them,
SETUP_PROBES processes only set up, so that set-up time is a median of
several. Every job of every pass goes through the gate in
``workloads.job_problems``.

The last line of standard output is one JSON object with the keys correct,
attempted (job executions), failed (executions the gate rejected) and
metrics. With --trace 0 the metrics are END_TO_END, medians over the passes.
With --trace 1 untraced and traced passes alternate and the metrics are
PER_LAYER; the spans of the last traced pass are kept in
.perfbench/spans-NAME.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import spans  # noqa: E402
from workloads import JOB_METRIC, WORKLOADS, job_problems  # noqa: E402

MIN_PASSES = 3
SETUP_PROBES = 5
DEADLINE_S = 170.0  # the run must end within 180 s: no pass runs past this

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (tuple((name, "s") for name in dict.fromkeys(JOB_METRIC.values()))
             + spans.SPAN_METRICS
             + (("trace.overhead_s", "s"), ("failed_jobs", "share")))


def run_pass(workload: str, seed: int, out: Path, mode: str, timeout: float):
    """One pass in a fresh process: its pass.json, or None if it did not finish.
    ``mode`` is "", "--trace" or "--setup-only"."""
    out.mkdir(parents=True)
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), "--spawned", repr(spawned)]
    if mode:
        cmd.append(mode)
    try:
        # standard output is kept for the result line
        subprocess.run(cmd, stdout=sys.stderr, timeout=timeout, check=True)
    except subprocess.TimeoutExpired:
        print(f"pass timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    except subprocess.CalledProcessError as exc:
        print(f"pass exited with code {exc.returncode}", file=sys.stderr)
        return None
    return json.loads((out / "pass.json").read_text())


def measure(workload: str, seed: int, seconds: float, trace: bool, tmp: Path, started: float):
    """Set-up times of the probes, and the passes as (directory, traced,
    result or None) in the order they ran."""
    setups = []
    for i in range(0 if trace else SETUP_PROBES):
        probe = run_pass(workload, seed, tmp / f"setup{i}", "--setup-only", DEADLINE_S / 10)
        if probe is not None:
            setups.append(probe["setup_s"])
    passes, durations = [], []
    while True:
        now = time.monotonic()
        if len(passes) >= (2 if trace else MIN_PASSES) and (
                now - started + max(durations[-2:]) > seconds):
            break
        timeout = started + DEADLINE_S - now
        if timeout <= 0:
            break
        traced = trace and len(passes) % 2 == 1
        out = tmp / f"pass{len(passes)}"
        result = run_pass(workload, seed, out, "--trace" if traced else "", timeout)
        passes.append((out, traced, result))
        durations.append(time.monotonic() - now)
    return setups, passes


def job_files(job_dir: Path) -> dict:
    """The outputs that must repeat byte for byte: summary.json and every CSV."""
    return {p.name: p.read_text() for p in sorted(job_dir.iterdir())
            if p.name == "summary.json" or p.suffix == ".csv"}


def gate(passes, n_jobs: int):
    """(attempted, failed, problems) over (directory, result) passes; a pass
    that did not finish fails all of its jobs."""
    attempted = failed = 0
    problems = []
    reference = {}
    for index, (out, result) in enumerate(passes):
        attempted += n_jobs
        if result is None:
            failed += n_jobs
            problems.append(f"pass {index} did not finish")
            continue
        for j, record in enumerate(result["jobs"]):
            files = job_files(out / f"job{j}") if record["error"] is None else {}
            found = job_problems(record, files, reference.get(j))
            reference.setdefault(j, files)
            if found:
                failed += 1
                problems += [f"pass {index} job {j} ({record['experiment']}): {p}" for p in found]
    return attempted, failed, problems


def job_seconds(result) -> dict:
    """Wall time of each job in one pass, summed per job metric name."""
    out = dict.fromkeys(JOB_METRIC.values(), 0.0)
    for record in result["jobs"]:
        out[JOB_METRIC[record["experiment"]]] += record["seconds"]
    return out


def _medians(dicts) -> dict:
    return {key: statistics.median(d[key] for d in dicts) for key in dicts[0]}


def end_to_end(untraced, setups) -> dict:
    return {"setup_s": statistics.median(setups + [r["setup_s"] for r in untraced]),
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced)}


def per_layer(untraced, traced, failed_share: float) -> dict:
    """``traced`` holds (directory, result) of the traced passes."""
    values = _medians([job_seconds(r) for r in untraced])
    values.update(_medians([spans.layer_metrics(json.loads((out / "spans.json").read_text()))
                            for out, _ in traced]))
    values["trace.overhead_s"] = (statistics.median(r["wall_s"] for _, r in traced)
                                  - statistics.median(r["wall_s"] for r in untraced))
    values["failed_jobs"] = failed_share
    return values


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "scramblab" / "__init__.py").is_file():
        print(f"error: no scramblab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    n_jobs = len(WORKLOADS[args.workload].jobs)
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        setups, passes = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                 Path(tmp), started)
        attempted, failed, problems = gate([(out, r) for out, _, r in passes], n_jobs)
        untraced = [r for _, t, r in passes if r is not None and not t]
        traced = [(out, r) for out, t, r in passes if r is not None and t]
        if not untraced or (args.trace and not traced):
            print("error: no pass finished", file=sys.stderr)
            return 1
        if args.trace:
            metrics = per_layer(untraced, traced, failed / attempted)
            kept = traced[-1][0] / "spans.json"
            kept.replace(ROOT / ".perfbench" / f"spans-{args.workload}.json")
            units = dict(PER_LAYER)
        else:
            metrics = end_to_end(untraced, setups)
            units = dict(END_TO_END)

    facts = dict(untraced[0]["facts"], workload=args.workload, seed=args.seed,
                 passes=len(passes), traced_passes=len(traced),
                 pass_wall_s=[r["wall_s"] for r in untraced],
                 jobs=[{k: r[k] for k in ("experiment", "seed", "params")}
                       for r in untraced[0]["jobs"]])
    print("facts " + json.dumps(facts))
    if facts["threads"] is not None and facts["threads"] > facts["nproc"]:
        print(f"warning: {facts['threads']} threads on {facts['nproc']} cpus")
    for problem in problems:
        print("FAILED " + problem)
    for name, value in metrics.items():
        print(f"{name:45s} {value:14.6g} {units[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
