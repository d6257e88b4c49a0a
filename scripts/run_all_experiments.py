#!/usr/bin/env python3
"""Run every registered experiment with its default parameters.

Writes one subdirectory per experiment under --out (default ./results) and
prints the runner's summary line for each. Pass --check to stop with a
nonzero exit code if any acceptance threshold fails.
"""

import argparse
import sys

from scramblab import benchcli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)

    failures = []
    for name, _ in benchcli.list_experiments():
        code = benchcli.main([
            "run", "--experiment", name, "--seed", str(args.seed),
            "--out", f"{args.out}/{name}",
        ] + (["--check"] if args.check else []))
        if code != 0:
            failures.append(name)
    if failures:
        print(f"failed: {', '.join(failures)}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
