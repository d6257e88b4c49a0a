"""Outside-in tracing of the scramblab layers.

``instrument`` rebinds the public functions of the layer modules (and
``LocalHamiltonian.eigensystem`` on its class) to wrappers that record one
span per call: name, start, end, parent span, job index, and the work counts
taken at that boundary. Modules call one another through module attributes,
so the rebinding also catches calls between layers. Spans stay in memory
until the pass ends; ``layer_metrics`` turns them into the per-layer figures.
Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
import weakref

LAYERS = ("qcore", "toyperm", "prslab", "weingarten", "rewrite")

# Per-element helpers that run inside spans already recorded; one span per call
# would cost more than the call itself.
UNTRACED = {"weingarten.perm_compose", "weingarten.perm_inverse", "weingarten.perm_cycle_type"}

# The exhaustive enumerations of toyperm, reported together as toyperm.enumerate.
ENUMERATE = ("toyperm.enumerate_joint_distribution", "toyperm.enumerate_marginal_distribution",
             "toyperm.distinct_tree_set")


class Recorder:
    """Span store for one process; spans are [name, start, end, parent, job, counts]."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._open = []
        self._hamiltonians = {}   # id -> weakref, for first-seen eigensystem keys
        self._wg_keys = set()     # (cycle type, k, d) already requested

    def wrap(self, name, fn, count=None):
        """``fn`` recording a span per call; ``count(recorder, arguments, result)``
        gives the call's work counts."""
        signature = inspect.signature(fn) if count else None
        spans, opened = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, opened[-1] if opened else -1, self.job, None]
            opened.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                opened.pop()
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = count(self, bound.arguments, result)
            return result

        return traced

    def eigensystem_key(self, h) -> dict:
        ref = self._hamiltonians.get(id(h))
        if ref is not None and ref() is h:
            return {"hits": 1}
        self._hamiltonians[id(h)] = weakref.ref(h)
        return {"misses": 1}

    def weingarten_key(self, c, k, d) -> dict:
        key = (tuple(getattr(c, "parts", c)), k, d)
        if key in self._wg_keys:
            return {}
        self._wg_keys.add(key)
        return {"misses": 1}


def _factorial_entries(rec, a, r):
    return {"entries": math.factorial(1 << a["n"])}


# work counts per traced name, computed from arguments and results
COUNTS = {
    # complex Householder QR with explicit Q: 32/3 d^3 real flops
    "qcore.haar_unitary": lambda rec, a, r: {"gflop_computed": 32 / 3 * a["d"] ** 3 / 1e9},
    # the d x d complex eigenvector matrix is streamed twice per call
    "qcore.evolve": lambda rec, a, r: {"gbytes_computed": 2 * 16 * a["h"].dimension ** 2 / 1e9},
    "qcore.eigensystem": lambda rec, a, r: rec.eigensystem_key(a["self"]),
    "toyperm.random_permutation": lambda rec, a, r: {"entries": 1 << a["n"]},
    "toyperm.run_distinguishing_game": lambda rec, a, r: {
        "queries": sum(r.fwd_queries) + sum(r.inv_queries)},
    "toyperm.enumerate_joint_distribution": _factorial_entries,
    "toyperm.enumerate_marginal_distribution": _factorial_entries,
    "toyperm.distinct_tree_set": _factorial_entries,
    "prslab.moment_power_overlap_mc": lambda rec, a, r: {"trials": a["trials"]},
    "prslab.copy_limited_distinguisher": lambda rec, a, r: {"trials": a["trials"]},
    "weingarten.weingarten": lambda rec, a, r: rec.weingarten_key(a["c"], a["k"], a["d"]),
    "rewrite.trotterize": lambda rec, a, r: {"gates": len(r)},
    "rewrite.pseudo_complexity": lambda rec, a, r: {"gates_in": len(a["seq"]),
                                                    "firings": len(r[1])},
}


def instrument(recorder: Recorder, scramblab_package) -> None:
    """Rebind every public layer function, ``benchcli.run`` and the eigensystem method."""
    for layer in LAYERS:
        module = getattr(scramblab_package, layer)
        for attr, fn in list(vars(module).items()):
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__ or name in UNTRACED):
                continue
            setattr(module, attr, recorder.wrap(name, fn, COUNTS.get(name)))
    hamiltonian = scramblab_package.qcore.LocalHamiltonian
    hamiltonian.eigensystem = recorder.wrap("qcore.eigensystem", hamiltonian.eigensystem,
                                            COUNTS["qcore.eigensystem"])
    benchcli = scramblab_package.benchcli
    benchcli.run = recorder.wrap("benchcli.run", benchcli.run)


# ---------------------------------------------------------------------------
# Self time and per-layer metrics
# ---------------------------------------------------------------------------

def self_times(spans) -> list:
    """Each span's duration minus the part of it covered by its child spans."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


# traced names whose call counts and self times are reported, then (name, work count, unit)
_CALLS = ("qcore.haar_unitary", "qcore.haar_state", "qcore.apply_unitary", "qcore.evolve",
          "qcore.apply_pauli", "qcore.pauli_expectation", "toyperm.random_permutation",
          "prslab.prs_state", "prslab.shocked_evolution_state",
          "weingarten.gram_weingarten_identity", "weingarten.weingarten",
          "rewrite.pseudo_complexity")
_SELF = ("qcore.haar_unitary", "qcore.haar_state", "qcore.apply_unitary", "qcore.eigensystem",
         "qcore.evolve", "qcore.apply_pauli", "qcore.pauli_expectation",
         "toyperm.random_permutation", "toyperm.run_distinguishing_game", "toyperm.tv_distance",
         "prslab.moment_power_overlap_mc", "prslab.copy_limited_distinguisher",
         "prslab.build_state_tree", "prslab.gram_matrix", "prslab.shocked_evolution_state",
         "prslab.energy_attack_experiment", "weingarten.gram_weingarten_identity",
         "weingarten.weingarten", "weingarten.power_overlap_exact", "rewrite.trotterize",
         "rewrite.pseudo_complexity", "benchcli.run")
_WORK = (("qcore.haar_unitary", "gflop_computed", "gflop"),
         ("qcore.eigensystem", "misses", "count"),
         ("qcore.eigensystem", "hits", "count"),
         ("qcore.evolve", "gbytes_computed", "GB"),
         ("toyperm.random_permutation", "entries", "count"),
         ("prslab.moment_power_overlap_mc", "trials", "count"),
         ("prslab.copy_limited_distinguisher", "trials", "count"),
         ("weingarten.weingarten", "misses", "count"),
         ("rewrite.trotterize", "gates", "count"),
         ("rewrite.pseudo_complexity", "gates_in", "count"),
         ("rewrite.pseudo_complexity", "firings", "count"))

SPAN_METRICS = tuple(
    [(f"{n}.calls", "count") for n in _CALLS]
    + [(f"{n}.self_s", "s") for n in _SELF]
    + [(f"{n}.{key}", unit) for n, key, unit in _WORK]
    + [("toyperm.queries", "count"), ("toyperm.queries_per_entry", "ratio"),
       ("toyperm.enumerate.self_s", "s"), ("toyperm.enumerate.entries", "count")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("trace.coverage", "share"), ("trace.spans", "count")])


def layer_metrics(spans) -> dict:
    """Per-layer values of one traced pass, keyed by the names in SPAN_METRICS.

    ``trace.coverage`` is the share of job time (benchcli.run spans) spent in
    layer spans; the rest is ``benchcli.run.self_s``.
    """
    own = self_times(spans)
    calls, self_s, work = {}, {}, {}
    for span, t in zip(spans, own):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + t
        for key, value in (span[5] or {}).items():
            work[(name, key)] = work.get((name, key), 0) + value
    out = {f"{n}.calls": calls.get(n, 0) for n in _CALLS}
    out.update({f"{n}.self_s": self_s.get(n, 0.0) for n in _SELF})
    out.update({f"{n}.{key}": work.get((n, key), 0) for n, key, _ in _WORK})
    queries = work.get(("toyperm.run_distinguishing_game", "queries"), 0)
    entries = work.get(("toyperm.random_permutation", "entries"), 0)
    out["toyperm.queries"] = queries
    out["toyperm.queries_per_entry"] = queries / entries if entries else 0.0
    out["toyperm.enumerate.self_s"] = sum(self_s.get(n, 0.0) for n in ENUMERATE)
    out["toyperm.enumerate.entries"] = sum(work.get((n, "entries"), 0) for n in ENUMERATE)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for n, t in self_s.items() if n.startswith(layer + "."))
    job_time = sum(s[2] - s[1] for s in spans if s[0] == "benchcli.run")
    out["trace.coverage"] = 1.0 - self_s.get("benchcli.run", 0.0) / job_time if job_time else 0.0
    out["trace.spans"] = len(spans)
    return out
