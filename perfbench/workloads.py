"""Workload definitions and the per-job correctness gate.

A workload is a fixed list of registered experiments with their parameters.
The master seed is the only input that varies: each job's experiment seed is
drawn from it, so the same seed gives the same jobs. Sizes are reduced from
the experiment defaults only where a default pass would not fit the run
length; README.md lists each reduction.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Job:
    experiment: str
    params: dict  # key -> value as it would be given to ``scramblab run --set``


@dataclass(frozen=True)
class Workload:
    why: str
    jobs: tuple


_T_LIST = "1,2,3,4,5,6,7,8"

WORKLOADS = {
    "haar-mc": Workload(
        "fresh Haar scramblers per trial: haar_unitary dominates; prs-gram reuses one U per tree",
        (Job("appendix-a", {"trials": "500"}),
         Job("prs-distinguish", {"n": "6", "copies": "4", "trials": "1500"}),
         Job("prs-gram", {}))),
    "hamiltonian": Workload(
        "cached eigensystems serve many evolve calls; no Haar unitaries, no tables",
        (Job("prs-energy", {"n": "5", "m": "1", "shots": "50"}),
         Job("scrambling-time", {"n": "10"}))),
    "exact": Workload(
        "pure-Python integer and rational work: permutation tables, enumeration, "
        "Weingarten, rewrites",
        (Job("toy-hybrids", {}),
         Job("toy-distinguish", {"ells": "4,6,8", "trials": "300"}),
         Job("weingarten-verify", {}),
         Job("rewrite-growth", {"n": "10", "steps_per_unit": "8"}),
         Job("switchback", {"n": "10", "steps_per_unit": "8", "t_list": _T_LIST}))),
}

# per-job end-to-end names: <experiment>_s, with both rewrite experiments as rewrite_s
JOB_METRIC = {
    "appendix-a": "appendix-a_s",
    "prs-distinguish": "prs-distinguish_s",
    "prs-gram": "prs-gram_s",
    "prs-energy": "prs-energy_s",
    "scrambling-time": "scrambling-time_s",
    "toy-hybrids": "toy-hybrids_s",
    "toy-distinguish": "toy-distinguish_s",
    "weingarten-verify": "weingarten-verify_s",
    "rewrite-growth": "rewrite_s",
    "switchback": "rewrite_s",
}


def job_seeds(workload: str, seed: int) -> list:
    """One experiment seed per job of the workload, drawn from the master seed."""
    n = len(WORKLOADS[workload].jobs)
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n, np.uint32)]


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

# exact values that no change to the program may move: experiment -> file -> key -> value
ORACLES = {
    "toy-hybrids": {"summary.json": {"tv_CD": "0/1", "tv_AB": "55/56", "tv_DE": "6/7"}},
    "appendix-a": {"summary.json": {"exact_small": "83/420"}},
    "weingarten-verify": {"wg_table.csv": {"1-1-1": "23/2520", "2-1": "-1/504", "3": "1/1260"}},
}


def _oracle_values(name: str, content: str) -> dict:
    if name.endswith(".json"):
        return json.loads(content)
    rows = list(csv.reader(content.splitlines()))
    return {row[0]: row[1] for row in rows[1:]}


def oracle_mismatches(experiment: str, files: dict) -> list:
    """Exact oracle values of ``experiment`` that ``files`` (name -> text) do not reproduce."""
    problems = []
    for name, expected in ORACLES.get(experiment, {}).items():
        if name not in files:
            problems.append(f"{name} missing")
            continue
        got = _oracle_values(name, files[name])
        problems += [f"{name}[{key}] = {got.get(key)!r}, expected {value!r}"
                     for key, value in expected.items() if got.get(key) != value]
    return problems


def job_problems(record: dict, files: dict, reference: dict = None) -> list:
    """Reasons a job counts as failed; empty when it passed.

    ``record`` is the pass's entry for the job (``error``, ``failed_checks``,
    ``experiment``); ``files`` its summary.json and CSV outputs; ``reference``
    the same files from the run's first pass at the same seed.
    """
    problems = []
    if record["error"] is not None:
        problems.append(f"raised {record['error']}")
    problems += [f"check {name} is false" for name in record["failed_checks"]]
    problems += oracle_mismatches(record["experiment"], files)
    if reference is not None and files != reference:
        differ = sorted(n for n in set(files) | set(reference) if files.get(n) != reference.get(n))
        problems.append(f"not byte-identical to the first pass: {', '.join(differ)}")
    return problems
