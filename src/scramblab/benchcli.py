"""Experiment runner and command-line interface.

Ten registered experiments bind the library modules into reproducible runs:
each writes CSV result files plus a JSON summary into --out, prints one
summary line, and records a manifest sufficient to reproduce the run
bit-identically (same config implies byte-identical CSV/JSON on one
platform). Floats are serialized with 17 significant digits; exact rationals
print as "p/q".

CLI:
    scramblab run --experiment NAME [--config FILE] [--set key=value]...
                  [--seed N] [--out DIR] [--workers W] [--check]
    scramblab list
    scramblab pc --input FILE --eps E [--output FILE]

Exit codes: 0 success, 2 validation error, 3 acceptance-threshold failure
under --check.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, prslab, qcore, rewrite, rng, stats, toyperm, weingarten
from .errors import InvalidParameterError, ScramblabError

# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------

def fmt17(x) -> str:
    return f"{float(x):.17g}"


def fmt_fraction(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _to_jsonable(obj):
    if isinstance(obj, Fraction):
        return fmt_fraction(obj)
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def dump_json(obj) -> str:
    """JSON with floats at 17 significant digits, keys sorted."""

    def emit(o, indent):
        pad = "  " * indent
        if isinstance(o, dict):
            if not o:
                return "{}"
            items = [f'{pad}  "{k}": {emit(o[k], indent + 1)}' for k in sorted(o)]
            return "{\n" + ",\n".join(items) + "\n" + pad + "}"
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            items = [f"{pad}  {emit(v, indent + 1)}" for v in o]
            return "[\n" + ",\n".join(items) + "\n" + pad + "]"
        if isinstance(o, bool):
            return "true" if o else "false"
        if o is None:
            return "null"
        if isinstance(o, float):
            return fmt17(o)
        if isinstance(o, int):
            return str(o)
        return json.dumps(o)

    return emit(_to_jsonable(obj), 0) + "\n"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def run_trials(fn, n_trials: int, workers: int = 1) -> list:
    """Map fn over trial indices; results ordered by index regardless of
    scheduling (per-trial seeds must come from the index, not the worker)."""
    if workers <= 1:
        return [fn(t) for t in range(n_trials)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n_trials)))


# ---------------------------------------------------------------------------
# Experiment registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Experiment:
    name: str
    description: str
    params: dict      # name -> (type tag, default)
    fn: object        # (params, seed, workers) -> (summary, files, checks)


_REGISTRY: dict = {}


def _register(name, description, params):
    def deco(fn):
        _REGISTRY[name] = Experiment(name, description, params, fn)
        return fn
    return deco


def list_experiments():
    """Registry as (name, description) rows."""
    return [(e.name, e.description) for e in _REGISTRY.values()]


def _parse_params(exp: Experiment, raw: dict) -> dict:
    out = {k: default for k, (_, default) in exp.params.items()}
    for key, value in raw.items():
        if key not in exp.params:
            raise InvalidParameterError(
                f"unknown parameter {key!r} for {exp.name}; valid: {sorted(exp.params)}")
        tag = exp.params[key][0]
        try:
            if tag == "int":
                out[key] = int(value)
            elif tag == "float":
                out[key] = float(value)
            elif tag == "str":
                out[key] = str(value)
            elif tag == "int_list":
                out[key] = [int(v) for v in str(value).split(",") if v.strip()]
            elif tag == "str_list":
                out[key] = [v.strip() for v in str(value).split(",") if v.strip()]
            else:
                raise InvalidParameterError(f"bad type tag {tag}")
        except ValueError as exc:
            raise InvalidParameterError(f"parameter {key}={value!r}: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# toy-hybrids
# ---------------------------------------------------------------------------

@_register("toy-hybrids",
           "exact hybrid distributions at n=3, ell=2: TV(C,D), TV(A,B), TV(D,E) in rationals",
           {"n": ("int", 3), "l": ("int", 2)})
def _toy_hybrids(params, seed, workers):
    n, ell = params["n"], params["l"]
    table = {label: toyperm.hybrid_table(label, n, ell) for label in toyperm.HYBRID_LABELS}
    s_size = len(toyperm.distinct_tree_set(n, ell))
    n_perms = math.factorial(1 << n)
    pr_not_s = Fraction(n_perms - s_size, n_perms)
    tree_nodes = (1 << (ell + 1)) - 1
    bound = pr_not_s + Fraction(tree_nodes, 1 << n)
    tv_cd = table["C"].tv(table["D"])
    tv_ab = table["A"].tv(table["B"])
    tv_de = table["D"].tv(table["E"])
    summary = {
        "n": n, "l": ell, "s_size": s_size, "n_permutations": n_perms,
        "pr_sigma_not_in_s": pr_not_s,
        "tv_CD": tv_cd, "tv_AB": tv_ab, "tv_DE": tv_de,
        "closeness_bound": bound,
    }
    rows = [("CD", fmt_fraction(tv_cd), fmt_fraction(Fraction(0))),
            ("AB", fmt_fraction(tv_ab), fmt_fraction(bound)),
            ("DE", fmt_fraction(tv_de), fmt_fraction(bound))]
    files = {"tv.csv": _csv_text(["pair", "tv", "bound"], rows)}
    checks = [("tv_CD_is_zero", tv_cd == 0),
              ("tv_AB_within_bound", tv_ab <= bound),
              ("tv_DE_within_bound", tv_de <= bound)]
    return summary, files, checks


# ---------------------------------------------------------------------------
# toy-distinguish
# ---------------------------------------------------------------------------

@_register("toy-distinguish",
           "coin-flip games over ell for each strategy: success rates and query scaling",
           {"n": ("int", 16), "ells": ("int_list", [4, 6, 8, 10]),
            "trials": ("int", 200),
            "strategies": ("str_list", ["zero_query", "forward_enum", "meet_in_middle"])})
def _toy_distinguish(params, seed, workers):
    n, ells, trials = params["n"], params["ells"], params["trials"]
    rows = []
    summary = {"n": n, "ells": ells, "trials": trials, "strategies": {}}
    checks = []
    for s_idx, strategy in enumerate(params["strategies"]):
        per_ell = {}
        mean_queries = []
        for e_idx, ell in enumerate(ells):
            game = toyperm.run_distinguishing_game(strategy, n, ell, trials,
                                                   rng.stream(seed, s_idx, e_idx))
            lo, hi = game.wilson_interval()
            per_ell[str(ell)] = {"success_rate": game.success_rate,
                                 "wilson_low": lo, "wilson_high": hi,
                                 "mean_queries": game.mean_queries}
            mean_queries.append(game.mean_queries)
            for t in range(game.trials):
                rows.append((strategy, ell, t, game.hybrids[t], int(game.decisions[t]),
                             int(game.corrects[t]), game.fwd_queries[t], game.inv_queries[t]))
        entry = {"per_ell": per_ell}
        if strategy != "zero_query":
            slope, _, r2 = stats.linear_fit(ells, [math.log2(q) for q in mean_queries])
            entry["log2_query_slope"] = slope
            entry["slope_r2"] = r2
            target = 0.5 if strategy == "meet_in_middle" else 1.0
            checks.append((f"{strategy}_slope_{target}+-0.1", abs(slope - target) <= 0.1))
            if strategy == "meet_in_middle":
                checks.append(("meet_in_middle_success_ge_0.99",
                               all(v["success_rate"] >= 0.99 for v in per_ell.values())))
        else:
            pooled_success = sum(v["success_rate"] for v in per_ell.values()) / len(per_ell)
            entry["pooled_success"] = pooled_success
            checks.append(("zero_query_rate_0.5+-0.05", abs(pooled_success - 0.5) <= 0.05))
        summary["strategies"][strategy] = entry
    files = {"games.csv": _csv_text(
        ["strategy", "l", "trial", "hybrid", "decision", "correct", "fwd_queries", "inv_queries"],
        rows)}
    return summary, files, checks


# ---------------------------------------------------------------------------
# prs-gram
# ---------------------------------------------------------------------------

@_register("prs-gram",
           "Gram statistics of Haar-backed shock-state trees: near-orthogonality and sibling moment",
           {"n": ("int", 8), "l": ("int", 3), "trials": ("int", 100)})
def _prs_gram(params, seed, workers):
    n, ell, trials = params["n"], params["l"], params["trials"]
    d = 1 << n
    bound = 50.0 / d

    def one_trial(t):
        g = rng.stream(seed, t)
        spec = prslab.PRSEnsembleSpec(ell, qcore.zero_state(n), "haar",
                                      seed=int(g.integers(2**62)))
        tree = prslab.build_state_tree(spec)
        gm = prslab.gram_matrix(tree)
        return prslab.near_orthogonality_stat(gm), prslab.sibling_pair_overlap(tree)

    results = run_trials(one_trial, trials, workers)
    max_off = np.array([r[0] for r in results])
    sib = np.array([r[1] for r in results])
    frac_below = float(np.mean(max_off <= bound))
    sib_mean = float(sib.mean())
    sib_se = float(sib.std(ddof=1) / math.sqrt(trials))
    target = 1.0 / (d + 1)
    summary = {"n": n, "l": ell, "trials": trials, "bound": bound,
               "fraction_below_bound": frac_below,
               "sibling_mean": sib_mean, "sibling_se": sib_se,
               "sibling_target": target}
    rows = [(t, fmt17(results[t][0]), fmt17(results[t][1])) for t in range(trials)]
    files = {"gram.csv": _csv_text(["trial", "max_offdiag", "sibling_overlap"], rows)}
    checks = [("max_offdiag_below_bound_ge_95pct", frac_below >= 0.95),
              ("sibling_mean_within_3se", abs(sib_mean - target) <= 3 * sib_se)]
    return summary, files, checks


# ---------------------------------------------------------------------------
# prs-distinguish
# ---------------------------------------------------------------------------

def _prs_vs_haar_pair(n, ell):
    d = 1 << n

    def make_pair(g):
        spec = prslab.PRSEnsembleSpec(ell, qcore.zero_state(n), "haar",
                                      seed=int(g.integers(2**62)))
        sampler = lambda gg: prslab.prs_state(spec, prslab.random_shock_key(ell, gg))
        desc_a = prslab.EnsembleDescription("shock", sampler, reference_sampler=sampler)
        desc_b = prslab.EnsembleDescription(
            "haar", lambda gg: qcore.haar_state(d, gg),
            reference_sampler=lambda gg: qcore.haar_state(d, gg))
        return desc_a, desc_b

    return make_pair


@_register("prs-distinguish",
           "copy-limited distinguishing bias: shock ensemble vs Haar states",
           {"n": ("int", 8), "l": ("int", 3), "copies": ("int_list", [1, 2, 4]),
            "trials": ("int", 500),
            "strategies": ("str_list", ["swap-test", "overlap-with-reference"])})
def _prs_distinguish(params, seed, workers):
    n, ell, trials = params["n"], params["l"], params["trials"]
    make_pair = _prs_vs_haar_pair(n, ell)
    rows = []
    summary = {"n": n, "l": ell, "trials": trials, "results": {}}
    checks = []
    for s_idx, strategy in enumerate(params["strategies"]):
        for c_idx, copies in enumerate(params["copies"]):
            est = prslab.copy_limited_distinguisher(
                make_pair, copies, strategy, trials, rng.stream(seed, s_idx, c_idx))
            lo, hi = est.bias_interval()
            key = f"{strategy}_c{copies}"
            summary["results"][key] = {"bias": est.bias, "bias_low": lo, "bias_high": hi,
                                       "success_rate": est.success_rate,
                                       "max_copies_used": est.max_copies_used}
            checks.append((f"{key}_abs_bias_le_0.1", abs(est.bias) <= 0.1))
            for t, (ens, guess, correct, used) in enumerate(est.trial_rows):
                rows.append((strategy, copies, t, ens, guess, int(correct), used))
    files = {"distinguish.csv": _csv_text(
        ["strategy", "copies", "trial", "ensemble", "decision", "correct", "copies_used"], rows)}
    return summary, files, checks


# ---------------------------------------------------------------------------
# prs-energy
# ---------------------------------------------------------------------------

@_register("prs-energy",
           "energy-measurement attack: fixed-spacing leak vs randomized-schedule mitigation",
           {"n": ("int", 6), "beta": ("float", 1.0), "m": ("int", 2), "m_alt": ("int", 4),
            "l_short": ("int", 2), "l_long": ("int", 6), "l_fixed": ("int", 3),
            "l_rand": ("int", 4), "T_rand": ("float", 40.0),
            "copies": ("int", 4), "shots": ("int", 100), "max_budget": ("int", 1 << 21)})
def _prs_energy(params, seed, workers):
    n, beta = params["n"], params["beta"]
    half = qcore.build_hamiltonian(n, 1.05, 0.5)
    t_scr = qcore.scrambling_time(half, 0.1, rng.stream(seed, 900))
    hd = qcore.doubled_hamiltonian(half)
    tfd = qcore.tfd_state(half, beta)
    copies, shots = params["copies"], params["shots"]
    base_budget = copies * shots

    vary_l = [prslab.fixed_spacing_schedule(params["l_short"], params["m"] * t_scr),
              prslab.fixed_spacing_schedule(params["l_long"], params["m"] * t_scr)]
    vary_m = [prslab.fixed_spacing_schedule(params["l_fixed"], params["m"] * t_scr),
              prslab.fixed_spacing_schedule(params["l_fixed"], params["m_alt"] * t_scr)]
    randomized = [prslab.randomized_schedule(2 * n, params["l_rand"], params["T_rand"],
                                             rng.stream(seed, 901)),
                  prslab.randomized_schedule(2 * n, params["l_rand"], params["T_rand"],
                                             rng.stream(seed, 902))]

    def resolve_budget(pair, pair_idx):
        budget = base_budget
        while budget <= params["max_budget"]:
            res = prslab.energy_attack_experiment(hd, pair, budget // copies, copies,
                                                  rng.stream(seed, pair_idx), initial=tfd)
            if res.verdicts[(0, 1)].resolved:
                return res, budget
            budget *= 2
        return res, None

    rows = []
    summary = {"n_half": n, "beta": beta, "t_scr": t_scr, "base_budget": base_budget,
               "volume_proxy": "scheduled evolution time T", "pairs": {}}
    checks = []
    for pair_idx, (tag, pair, expect_resolved) in enumerate((
            ("vary_l", vary_l, True),
            ("vary_m", vary_m, None),
            ("randomized_equal", randomized, False))):
        base_res = prslab.energy_attack_experiment(hd, pair, shots, copies,
                                                   rng.stream(seed, pair_idx), initial=tfd)
        entry = {
            "T": [v.schedule.total_time for v in base_res.variants],
            "l": [v.schedule.ell for v in base_res.variants],
            "exact_energy": [v.exact_energy for v in base_res.variants],
            "estimate": [v.estimate for v in base_res.variants],
            "std_error": [v.std_error for v in base_res.variants],
            "resolved_at_base_budget": base_res.verdicts[(0, 1)].resolved,
            "separation": base_res.verdicts[(0, 1)].separation,
            "combined_se": base_res.verdicts[(0, 1)].combined_se,
        }
        if expect_resolved is not False:
            _, budget = resolve_budget(pair, pair_idx)
            entry["resolution_budget"] = budget
        summary["pairs"][tag] = entry
        # the reported proxy is the scheduled evolution time itself
        assert entry["T"] == [v.schedule.total_time for v in base_res.variants]
        for i, v in enumerate(base_res.variants):
            rows.append((tag, i, v.schedule.ell, fmt17(v.schedule.total_time),
                         fmt17(v.exact_energy), fmt17(v.estimate), fmt17(v.std_error),
                         v.measurements))
        if expect_resolved is True:
            checks.append((f"{tag}_resolved_within_cap",
                           summary["pairs"][tag].get("resolution_budget") is not None))
        elif expect_resolved is False:
            checks.append((f"{tag}_unresolved_at_base_budget",
                           not entry["resolved_at_base_budget"]))
    files = {"energy.csv": _csv_text(
        ["pair", "variant", "l", "T", "exact_energy", "estimate", "std_error", "measurements"],
        rows)}
    return summary, files, checks


# ---------------------------------------------------------------------------
# weingarten-verify
# ---------------------------------------------------------------------------

@_register("weingarten-verify",
           "exact Weingarten checks: W*G identity, dimension identities, closed forms; Wg table CSV",
           {"k": ("int", 3), "d": ("int", 5), "k_max_identity": ("int", 4)})
def _weingarten_verify(params, seed, workers):
    k, d = params["k"], params["d"]
    checks = []
    identity_report = {}
    for kk in range(1, params["k_max_identity"] + 1):
        for dd in range(kk, 9):
            rep = weingarten.gram_weingarten_identity(kk, dd)
            identity_report[f"k{kk}_d{dd}"] = rep.ok
            checks.append((f"wg_gram_identity_k{kk}_d{dd}", rep.ok))
    dim_ok = all(
        sum(weingarten.dim_Sk(p)**2 for p in weingarten.partitions(kk)) == math.factorial(kk)
        for kk in range(1, 9))
    checks.append(("sum_dim_sq_is_k_factorial", dim_ok))
    closed_ok = all(
        weingarten.weingarten((1, 1), 2, dd) == Fraction(1, dd * dd - 1)
        and weingarten.weingarten((2,), 2, dd) == Fraction(-1, dd * (dd * dd - 1))
        for dd in range(2, 9))
    checks.append(("k2_closed_forms", closed_ok))
    rows = [("-".join(str(p) for p in ct.parts),
             fmt_fraction(weingarten.weingarten(ct, k, d)))
            for ct in weingarten.partitions(k)]
    summary = {"k": k, "d": d, "identity": identity_report,
               "sum_dim_sq_identity": dim_ok, "k2_closed_forms": closed_ok,
               "wg_values": {r[0]: r[1] for r in rows}}
    files = {"wg_table.csv": _csv_text(["cycle_type", "wg"], rows)}
    return summary, files, checks


# ---------------------------------------------------------------------------
# appendix-a
# ---------------------------------------------------------------------------

@_register("appendix-a",
           "power-overlap moment: exact small-d values, MC large-d decay slope",
           {"K": ("int", 2), "d": ("int", 4), "trials": ("int", 10000),
            "d_list": ("int_list", [16, 32, 64, 128])})
def _appendix_a(params, seed, workers):
    trials = params["trials"]
    exact_k1 = {str(d): weingarten.power_overlap_exact(1, d) for d in range(2, 9)}
    checks = [("exact_K1_equals_1_over_dplus1",
               all(weingarten.power_overlap_exact(1, d) == Fraction(1, d + 1)
                   for d in range(2, 9)))]
    rows = []
    mc_means = []
    for idx, d in enumerate(params["d_list"]):
        est = prslab.moment_power_overlap_mc(d, params["K"], trials, rng.stream(seed, idx))
        mc_means.append(est.mean)
        rows.append((d, fmt17(est.mean), fmt17(est.std_error), ""))
    slope = None
    r2 = None
    if len(params["d_list"]) >= 2:
        slope, _, r2 = stats.linear_fit(np.log([float(d) for d in params["d_list"]]),
                                        np.log(mc_means))
        checks.append((f"K{params['K']}_log_log_slope_-1+-0.15", abs(slope - (-1.0)) <= 0.15))
    exact_small = weingarten.power_overlap_exact(params["K"], params["d"])
    est_small = prslab.moment_power_overlap_mc(params["d"], params["K"], trials,
                                               rng.stream(seed, 99))
    dev = abs(float(exact_small) - est_small.mean)
    checks.append((f"exact_vs_mc_within_5se_K{params['K']}_d{params['d']}",
                   dev <= 5 * est_small.std_error))
    rows.append((params["d"], fmt17(est_small.mean), fmt17(est_small.std_error),
                 fmt_fraction(exact_small)))
    summary = {"K": params["K"], "trials": trials, "exact_K1": exact_k1,
               "mc_slope": slope, "mc_slope_r2": r2,
               "exact_small": exact_small, "mc_small_mean": est_small.mean,
               "mc_small_se": est_small.std_error}
    files = {"appendix_a.csv": _csv_text(["d", "mc_mean", "mc_se", "exact"], rows)}
    return summary, files, checks


# ---------------------------------------------------------------------------
# rewrite-growth
# ---------------------------------------------------------------------------

@_register("rewrite-growth",
           "rewrite length of Trotterized chaotic evolution vs time (linear growth)",
           {"n": ("int", 6), "t_list": ("int_list", [1, 2, 3, 4, 5, 6, 7, 8]),
            "steps_per_unit": ("int", 4), "eps": ("float", 0.0)})
def _rewrite_growth(params, seed, workers):
    h = qcore.build_hamiltonian(params["n"], 1.05, 0.5)
    rows = []
    lengths = []
    firings_total = 0
    for t in params["t_list"]:
        seq = rewrite.trotterize(h, float(t), params["steps_per_unit"] * t)
        pc, trace = rewrite.pseudo_complexity(seq, params["eps"])
        lengths.append(pc)
        firings_total += len(trace)
        rows.append((t, len(seq), pc, len(trace)))
    slope, intercept, r2 = stats.linear_fit(params["t_list"], lengths)
    summary = {"n": params["n"], "eps": params["eps"], "slope": slope,
               "intercept": intercept, "r2": r2, "total_firings": firings_total}
    files = {"growth.csv": _csv_text(["t", "gates", "pc", "firings"], rows)}
    checks = [("linear_growth_r2_ge_0.99", r2 >= 0.99),
              ("no_cancellations", firings_total == 0)]
    return summary, files, checks


# ---------------------------------------------------------------------------
# switchback
# ---------------------------------------------------------------------------

@_register("switchback",
           "forward-back telescoping vs a single shock: partial cancellation counts",
           {"n": ("int", 8), "t_list": ("int_list", [1, 2, 3, 4]),
            "steps_per_unit": ("int", 4), "eps": ("float", 0.0),
            "shock_site": ("int", 0), "shock_label": ("str", "X")})
def _switchback(params, seed, workers):
    h = qcore.build_hamiltonian(params["n"], 1.05, 0.5)
    shock = qcore.PauliTerm.single(params["shock_site"], params["shock_label"])
    rows = []
    ok_zero = True
    ok_partial = True
    for t in params["t_list"]:
        res = rewrite.switchback_experiment(h, float(t), params["steps_per_unit"] * t,
                                            shock, params["eps"])
        ok_zero = ok_zero and res.pc_forward_back == 0
        ok_partial = ok_partial and 0 < res.pc_shocked < res.naive
        rows.append((t, res.pc_forward_back, res.pc_shocked, res.naive))
    summary = {"n": params["n"], "eps": params["eps"],
               "rows": [dict(zip(("t", "pc_forward_back", "pc_shocked", "naive"), r))
                        for r in rows]}
    files = {"switchback.csv": _csv_text(["t", "pc_forward_back", "pc_shocked", "naive"], rows)}
    checks = [("telescoping_zero", ok_zero),
              ("shocked_strictly_between", ok_partial)]
    return summary, files, checks


# ---------------------------------------------------------------------------
# scrambling-time
# ---------------------------------------------------------------------------

@_register("scrambling-time",
           "OTOC decay of the mixed-field Ising chain and the threshold crossing time",
           {"n": ("int", 6), "g": ("float", 1.05), "h": ("float", 0.5),
            "threshold": ("float", 0.1), "trials": ("int", 8),
            "time_step": ("float", 0.25), "extra_points": ("int", 8)})
def _scrambling_time(params, seed, workers):
    ham = qcore.build_hamiltonian(params["n"], params["g"], params["h"])
    t_scr, values = qcore.scrambling_curve(ham, params["threshold"], seed,
                                           trials=params["trials"], time_step=params["time_step"],
                                           extra_points=params["extra_points"])
    rows = [(fmt17(k * params["time_step"]), fmt17(value)) for k, value in enumerate(values)]
    summary = {"n": params["n"], "g": params["g"], "h": params["h"],
               "threshold": params["threshold"], "t_scr": t_scr,
               "grid_step": params["time_step"]}
    files = {"otoc.csv": _csv_text(["t", "mean_abs_otoc"], rows)}
    checks = [("t_scr_found_within_grid", t_scr <= 50.0 * params["n"])]
    return summary, files, checks


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunManifest:
    experiment: str
    params: dict
    seed: int
    version: str
    duration_seconds: float
    trial_stream_rule: str
    checks: tuple

    def to_json(self) -> str:
        return dump_json({
            "experiment": self.experiment,
            "params": self.params,
            "seed": self.seed,
            "version": self.version,
            "duration_seconds": self.duration_seconds,
            "trial_stream_rule": self.trial_stream_rule,
            "checks": {name: ok for name, ok in self.checks},
        })


def run(experiment: str, raw_params: dict, seed: int, out_dir, workers: int = 1):
    """Execute a registered experiment; returns (manifest, summary, all_checks_pass)."""
    if experiment not in _REGISTRY:
        raise KeyError(
            f"unknown experiment {experiment!r}; registered: {sorted(_REGISTRY)}")
    exp = _REGISTRY[experiment]
    params = _parse_params(exp, raw_params)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    summary, files, checks = exp.fn(params, seed, workers)
    duration = time.monotonic() - start
    summary_obj = {"experiment": experiment, "seed": seed, "params": params,
                   "checks": {name: ok for name, ok in checks}, **summary}
    (out / "summary.json").write_text(dump_json(summary_obj))
    for name, content in files.items():
        (out / name).write_text(content)
    manifest = RunManifest(experiment, params, seed, __version__, duration,
                           "numpy Philox(SeedSequence(entropy=seed, spawn_key=path))",
                           tuple(checks))
    (out / "manifest.json").write_text(manifest.to_json())
    ok = all(flag for _, flag in checks)
    return manifest, summary_obj, ok


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _read_input(path) -> str:
    """Text of an input file; an unreadable file is a package error naming it."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise InvalidParameterError(f"cannot read {path}: {reason}") from exc


def _read_config_file(path) -> dict:
    out = {}
    for line in _read_input(path).splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParameterError(f"config lines must be 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _pc(args) -> int:
    text = _read_input(args.input)
    try:
        seq = rewrite.sequence_from_text(text)
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"{args.input}: {exc}") from exc
    gates, trace = rewrite._rewrite_to_fixpoint(seq, args.eps)
    out_seq = rewrite.GateSequence(tuple(gates), seq.n_qubits)
    print(f"gates {len(seq)} -> {len(out_seq)} "
          f"(firings {len(trace)}, total error {fmt17(trace.total_error)})")
    if args.output:
        Path(args.output).write_text(rewrite.sequence_to_text(out_seq))
    return 0


def _run(args) -> int:
    raw = {}
    if args.config:
        raw.update(_read_config_file(args.config))
    for item in args.set:
        if "=" not in item:
            raise InvalidParameterError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        raw[key.strip()] = value.strip()
    manifest, summary, ok = run(args.experiment, raw, args.seed, args.out, args.workers)
    n_checks = len(manifest.checks)
    n_pass = sum(1 for _, flag in manifest.checks if flag)
    print(f"{args.experiment}: {n_pass}/{n_checks} checks passed "
          f"({manifest.duration_seconds:.1f}s) -> {args.out}")
    if args.check and not ok:
        return 3
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="scramblab",
                                     description="experiment runner for the scramblab suite")
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run a registered experiment")
    p_run.add_argument("--experiment", required=True)
    p_run.add_argument("--config", default=None, help="key = value parameter file")
    p_run.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out", default="results")
    p_run.add_argument("--workers", type=int, default=1)
    p_run.add_argument("--check", action="store_true",
                       help="exit 3 if any acceptance threshold fails")

    sub.add_parser("list", help="list registered experiments")

    p_pc = sub.add_parser("pc", help="rewrite length of a gate-sequence file")
    p_pc.add_argument("--input", required=True)
    p_pc.add_argument("--eps", type=float, default=0.0)
    p_pc.add_argument("--output", default=None, help="write the rewritten sequence here")

    args = parser.parse_args(argv)
    if args.command == "list":
        for name, desc in list_experiments():
            print(f"{name:20s} {desc}")
        return 0
    if args.command not in ("pc", "run"):
        parser.print_help()
        return 2
    try:
        return _pc(args) if args.command == "pc" else _run(args)
    except (ScramblabError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
