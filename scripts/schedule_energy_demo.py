#!/usr/bin/env python3
"""Energy profile of shocked thermofield-double evolutions.

Builds the doubled chain at beta = 1, prepares a few shock schedules (fixed
spacing vs randomized), prints their exact energies next to the scheduled
total evolution time T (the volume proxy used by the ensemble experiments),
and writes the table as CSV.
"""

import argparse
import csv
import sys

from scramblab import benchcli, prslab, qcore
from scramblab.errors import NoScramblingError


@benchcli.exit_2_on_error
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=6, help="half-chain size")
    parser.add_argument("--beta", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="schedule_energies.csv")
    args = parser.parse_args(argv)

    half = qcore.build_hamiltonian(args.n, 1.05, 0.5)
    try:
        t_scr = qcore.scrambling_time(half, 0.1, args.seed)
    except NoScramblingError as exc:
        # short chains have a finite-size OTOC floor above 0.1
        print(f"OTOC floor {exc.final_otoc:.3f} above threshold 0.1; using 0.3")
        t_scr = qcore.scrambling_time(half, 0.3, args.seed)
    doubled = qcore.doubled_hamiltonian(half)
    tfd = qcore.tfd_state(half, args.beta)
    print(f"n = {args.n}+{args.n}, beta = {args.beta}, t_scr = {t_scr}")
    print(f"TFD energy: {qcore.energy_expectation(doubled, tfd):+.4f}")

    schedules = [
        ("fixed l=2 m=2", prslab.fixed_spacing_schedule(2, 2 * t_scr)),
        ("fixed l=4 m=2", prslab.fixed_spacing_schedule(4, 2 * t_scr)),
        ("fixed l=2 m=4", prslab.fixed_spacing_schedule(2, 4 * t_scr)),
        ("randomized A", prslab.randomized_schedule(2 * args.n, 3, 6 * t_scr, args.seed + 1)),
        ("randomized B", prslab.randomized_schedule(2 * args.n, 3, 6 * t_scr, args.seed + 2)),
    ]
    rows = []
    for name, sched in schedules:
        state = prslab.shocked_evolution_state(doubled, sched, tfd)
        energy = qcore.energy_expectation(doubled, state)
        print(f"{name:16s} l={sched.ell} T={sched.total_time:7.2f} E={energy:+.4f}")
        rows.append((name, sched.ell, f"{sched.total_time:.17g}", f"{energy:.17g}"))

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["schedule", "l", "T", "energy"])
        writer.writerows(rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
