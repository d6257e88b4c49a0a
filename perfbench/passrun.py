"""One pass over a workload's jobs, in a fresh process.

run.py starts this once per pass, so no cache of the program (eigensystems,
the Weingarten memo) survives from one pass into the next, as for a user who
runs each experiment from the command line:

    python3 perfbench/passrun.py --workload NAME --seed N --out DIR --spawned T
                                 [--trace | --setup-only]

T is the parent's time.monotonic() just before the start, so set-up time
counts interpreter start, imports and input generation. Writes DIR/pass.json
and, with --trace, DIR/spans.json; job outputs go to DIR/job<i>/. With
--setup-only it stops after set-up and pass.json holds only setup_s.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _proc_threads():
    """Threads of this process, from /proc (None where it does not exist)."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        return None
    return None


def _blas_threads():
    """OpenBLAS thread count, asked of the loaded library itself (None if unknown)."""
    try:
        loaded = {line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines()
                  if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(loaded):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _last_level_cache():
    """Size string of the highest cache level of cpu0, e.g. '32768K' (None if unknown)."""
    best = (0, None)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        best = max(best, (level, size))
    return best[1]


def machine_facts(numpy) -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "threads": _proc_threads(),
        "last_level_cache": _last_level_cache(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scramblab
    from scramblab import benchcli

    import spans
    from workloads import WORKLOADS, job_seeds

    if not Path(scramblab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported scramblab from {scramblab.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    recorder = None
    if args.trace:
        recorder = spans.Recorder()
        spans.instrument(recorder, scramblab)
    jobs = WORKLOADS[args.workload].jobs
    seeds = job_seeds(args.workload, args.seed)
    setup_s = time.monotonic() - args.spawned

    out = Path(args.out)
    if args.setup_only:
        (out / "pass.json").write_text(json.dumps({"setup_s": setup_s}))
        return 0
    records = []
    start = time.perf_counter()
    for index, (job, seed) in enumerate(zip(jobs, seeds)):
        if recorder:
            recorder.job = index
        record = {"experiment": job.experiment, "seed": seed, "params": job.params,
                  "error": None, "failed_checks": []}
        t0 = time.perf_counter()
        try:
            manifest, summary, _ = benchcli.run(job.experiment, dict(job.params), seed,
                                                out / f"job{index}")
            record["params"] = summary["params"]
            record["failed_checks"] = [name for name, ok in manifest.checks if not ok]
        except Exception as exc:  # a raising job is counted as failed; the pass goes on
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["seconds"] = time.perf_counter() - t0
        records.append(record)
    wall_s = time.perf_counter() - start

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": records,
        "facts": machine_facts(numpy),
    }
    if recorder:
        (out / "spans.json").write_text(json.dumps(recorder.spans))
    (out / "pass.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
