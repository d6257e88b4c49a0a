"""Experiment runner and command-line interface.

Ten registered experiments bind the library modules into reproducible runs:
each writes CSV result files plus a JSON summary into --out, prints one
summary line, and records a manifest sufficient to reproduce the run
bit-identically (same config implies byte-identical CSV/JSON on one
platform). Floats are serialized with 17 significant digits; exact rationals
print as "p/q".

CLI:
    scramblab run --experiment NAME [--config FILE] [--set key=value]...
                  [--seed N] [--out DIR] [--check]
    scramblab list
    scramblab pc --input FILE --eps E [--output FILE]

Exit codes: 0 success, 2 validation error, 3 acceptance-threshold failure
under --check.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, prslab, qcore, rewrite, rng, stats, toyperm, weingarten
from .errors import InvalidParameterError, ScramblabError, UnknownNameError

# ---------------------------------------------------------------------------
# Serialization helpers
# ---------------------------------------------------------------------------

def fmt17(x) -> str:
    return f"{float(x):.17g}"


def fmt_fraction(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def dump_json(obj) -> str:
    """JSON with floats (numpy's too) at 17 significant digits, rationals as
    "p/q", and keys turned to strings and sorted."""

    def emit(o, indent):
        pad = "  " * indent
        if isinstance(o, dict):
            if not o:
                return "{}"
            keyed = {str(k): v for k, v in o.items()}
            items = [f'{pad}  "{k}": {emit(keyed[k], indent + 1)}' for k in sorted(keyed)]
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
        if isinstance(o, Fraction):
            return json.dumps(fmt_fraction(o))
        if isinstance(o, (float, np.floating)):
            return fmt17(o)
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        return json.dumps(o)

    return emit(obj, 0) + "\n"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Experiment registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Experiment:
    name: str
    description: str
    params: dict      # name -> default; --set parses a value as its default's type
    fn: object        # (params, seed) -> (summary, files, checks)


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
    out = dict(exp.params)
    for key, value in raw.items():
        if key not in exp.params:
            raise InvalidParameterError(
                f"unknown parameter {key!r} for {exp.name}; valid: {sorted(exp.params)}")
        default = exp.params[key]
        try:
            if isinstance(default, list):
                parse = str.strip if isinstance(default[0], str) else type(default[0])
                out[key] = [parse(v) for v in str(value).split(",") if v.strip()]
            else:
                out[key] = type(default)(value)
        except ValueError as exc:
            raise InvalidParameterError(f"parameter {key}={value!r}: {exc}") from exc
        if isinstance(default, list) and not out[key]:
            raise InvalidParameterError(f"parameter {key} needs at least one value")
    return out


# ---------------------------------------------------------------------------
# toy-hybrids
# ---------------------------------------------------------------------------

@_register("toy-hybrids",
           "exact hybrid distributions at n=3, ell=2: TV(C,D), TV(A,B), TV(D,E) in rationals",
           {"n": 3, "l": 2})
def _toy_hybrids(params, seed):
    n, ell = params["n"], params["l"]
    table = {label: toyperm.hybrid_table(label, n, ell) for label in toyperm.HYBRID_LABELS}
    s_size = table["D"].denominator >> ell  # D has one path per (sigma in S, leaf slot)
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
           {"n": 16, "ells": [4, 6, 8, 10], "trials": 200,
            "strategies": ["zero_query", "forward_enum", "meet_in_middle"]})
def _toy_distinguish(params, seed):
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
            lo, hi = stats.wilson_interval(game.successes, game.trials)
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
           {"n": 8, "l": 3, "trials": 100})
def _prs_gram(params, seed):
    n, ell, trials = params["n"], params["l"], params["trials"]
    if trials < 2:
        raise InvalidParameterError(f"prs-gram needs trials >= 2, got {trials}")
    d = 1 << n
    bound = 50.0 / d

    def one_trial(t):
        g = rng.stream(seed, t)
        spec = prslab.PRSEnsembleSpec(ell, qcore.zero_state(n), "haar",
                                      seed=int(g.integers(2**62)))
        tree = prslab.build_state_tree(spec)
        gm = prslab.gram_matrix(tree)
        return prslab.near_orthogonality_stat(gm), prslab.sibling_pair_overlap(tree)

    results = [one_trial(t) for t in range(trials)]
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
        return (prslab.EnsembleDescription("shock", sampler),
                prslab.EnsembleDescription("haar", lambda gg: qcore.haar_state(d, gg)))

    return make_pair


@_register("prs-distinguish",
           "copy-limited distinguishing bias: shock ensemble vs Haar states",
           {"n": 8, "l": 3, "copies": [1, 2, 4], "trials": 500,
            "strategies": ["swap-test", "overlap-with-reference"]})
def _prs_distinguish(params, seed):
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
           {"n": 6, "beta": 1.0, "m": 2, "m_alt": 4, "l_short": 2, "l_long": 6, "l_fixed": 3,
            "l_rand": 4, "T_rand": 40.0, "copies": 4, "shots": 100, "max_budget": 1 << 21})
def _prs_energy(params, seed):
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

    rows = []
    summary = {"n_half": n, "beta": beta, "t_scr": t_scr, "base_budget": base_budget,
               "volume_proxy": "scheduled evolution time T", "pairs": {}}
    checks = []
    for pair_idx, (tag, pair, expect_resolved) in enumerate((
            ("vary_l", vary_l, True),
            ("vary_m", vary_m, None),
            ("randomized_equal", randomized, False))):
        # the randomized pair is judged at the base budget alone
        cap = params["max_budget"] if expect_resolved is not False else 0
        base_res, budget = prslab.energy_resolution_budget(
            hd, pair, shots, copies, cap, rng.stream(seed, pair_idx), initial=tfd)
        entry = {
            "T": [v.schedule.total_time for v in base_res.variants],
            "l": [v.schedule.ell for v in base_res.variants],
            "exact_energy": [v.exact_energy for v in base_res.variants],
            "estimate": [v.estimate for v in base_res.variants],
            "std_error": [v.std_error for v in base_res.variants],
            "resolved_at_base_budget": base_res.resolved,
            "separation": base_res.separation,
            "combined_se": base_res.combined_se,
        }
        if expect_resolved is not False:
            entry["resolution_budget"] = budget
        summary["pairs"][tag] = entry
        for i, v in enumerate(base_res.variants):
            rows.append((tag, i, v.schedule.ell, fmt17(v.schedule.total_time),
                         fmt17(v.exact_energy), fmt17(v.estimate), fmt17(v.std_error),
                         v.measurements))
        if expect_resolved is True:
            checks.append((f"{tag}_resolved_within_cap", budget is not None))
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
           {"k": 3, "d": 5, "k_max_identity": 4})
def _weingarten_verify(params, seed):
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
           {"K": 2, "d": 4, "trials": 10000, "d_list": [16, 32, 64, 128]})
def _appendix_a(params, seed):
    trials = params["trials"]
    exact_small = weingarten.power_overlap_exact(params["K"], params["d"])
    exact_k1 = {str(d): weingarten.power_overlap_exact(1, d) for d in range(2, 9)}
    checks = [("exact_K1_equals_1_over_dplus1",
               all(exact_k1[str(d)] == Fraction(1, d + 1) for d in range(2, 9)))]
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
           {"n": 6, "t_list": [1, 2, 3, 4, 5, 6, 7, 8], "steps_per_unit": 4, "eps": 0.0})
def _rewrite_growth(params, seed):
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
           {"n": 8, "t_list": [1, 2, 3, 4], "steps_per_unit": 4, "eps": 0.0,
            "shock_site": 0, "shock_label": "X"})
def _switchback(params, seed):
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
           {"n": 6, "g": 1.05, "h": 0.5, "threshold": 0.1, "trials": 8,
            "time_step": 0.25, "extra_points": 8})
def _scrambling_time(params, seed):
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


def run(experiment: str, raw_params: dict, seed: int, out_dir):
    """Execute a registered experiment; returns (manifest, summary, all_checks_pass)."""
    if experiment not in _REGISTRY:
        raise UnknownNameError(
            f"unknown experiment {experiment!r}; registered: {sorted(_REGISTRY)}")
    exp = _REGISTRY[experiment]
    params = _parse_params(exp, raw_params)
    start = time.monotonic()
    summary, files, checks = exp.fn(params, seed)
    duration = time.monotonic() - start
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvalidParameterError(f"cannot create output directory {out}: {exc.strerror}") from exc
    summary_obj = {"experiment": experiment, "seed": seed, "params": params,
                   "checks": {name: ok for name, ok in checks}, **summary}
    _write_output(out / "summary.json", dump_json(summary_obj))
    for name, content in files.items():
        _write_output(out / name, content)
    manifest = RunManifest(experiment, params, seed, __version__, duration,
                           "numpy Philox(SeedSequence(entropy=seed, spawn_key=path))",
                           tuple(checks))
    _write_output(out / "manifest.json", manifest.to_json())
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


def _write_output(path, text: str) -> None:
    """Write an output file; an unwritable path is a package error naming it."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InvalidParameterError(f"cannot write {path}: {exc.strerror}") from exc


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
        _write_output(args.output, rewrite.sequence_to_text(out_seq))
    return 0


def _run(args) -> int:
    raw = prslab._parse_keyvals(_read_input(args.config)) if args.config else {}
    raw.update(prslab._parse_keyvals("\n".join(args.set)))
    manifest, summary, ok = run(args.experiment, raw, args.seed, args.out)
    n_checks = len(manifest.checks)
    n_pass = sum(1 for _, flag in manifest.checks if flag)
    print(f"{args.experiment}: {n_pass}/{n_checks} checks passed "
          f"({manifest.duration_seconds:.1f}s) -> {args.out}")
    if args.check and not ok:
        return 3
    return 0


def exit_2_on_error(entry_point):
    """Wrap a command-line ``main``: a package error (an unknown experiment or
    strategy name among them) prints one ``error: ...`` line to stderr and returns
    exit code 2, not a traceback. Any other exception propagates."""
    @functools.wraps(entry_point)
    def guarded(*args, **kwargs) -> int:
        try:
            return entry_point(*args, **kwargs)
        except ScramblabError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return guarded


@exit_2_on_error
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
    return _pc(args) if args.command == "pc" else _run(args)


if __name__ == "__main__":
    sys.exit(main())
