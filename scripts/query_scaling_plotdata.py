#!/usr/bin/env python3
"""Query-count scaling of the toy-model distinguishers.

Sweeps tree depths for forward enumeration and meet-in-the-middle on a
fixed-width oracle and writes plot-ready CSV (one row per depth and strategy:
mean queries, success rate, and the fitted log2 slope in the header comment).
"""

import argparse
import csv
import math
import sys

from scramblab import benchcli, stats, toyperm


@benchcli.exit_2_on_error
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=16)
    parser.add_argument("--ells", default="4,5,6,7,8,9,10,11,12")
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="query_scaling.csv")
    args = parser.parse_args(argv)
    ells = [int(x) for x in args.ells.split(",")]

    rows = []
    slopes = {}
    for strategy in ("forward_enum", "meet_in_middle"):
        means = []
        for idx, ell in enumerate(ells):
            game = toyperm.run_distinguishing_game(strategy, args.n, ell,
                                                   args.trials, args.seed + 1000 * idx)
            means.append(game.mean_queries)
            rows.append((strategy, ell, f"{game.mean_queries:.17g}",
                         f"{game.success_rate:.17g}"))
        slope, _, _ = stats.linear_fit(ells, [math.log2(m) for m in means])
        slopes[strategy] = slope

    with open(args.out, "w", newline="") as fh:
        fh.write(f"# n={args.n} trials={args.trials} "
                 + " ".join(f"{k}_slope={v:.4f}" for k, v in slopes.items()) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["strategy", "l", "mean_queries", "success_rate"])
        writer.writerows(rows)
    print(f"wrote {args.out}; fitted log2-query slopes: "
          + ", ".join(f"{k}={v:.3f}" for k, v in slopes.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
