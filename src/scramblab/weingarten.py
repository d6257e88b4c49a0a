"""Exact symmetric-group / unitary-group moment calculus.

Partitions, hook lengths, Murnaghan-Nakayama characters, the Weingarten
function

    Wg(sigma in S_k, d) = (1/k!^2) sum_{lambda |- k}
        dim_Sk(lambda)^2 chi^lambda(sigma) / dim_Ud(lambda, d)

(valid in the k <= d regime; smaller d is rejected), and moment evaluation

    E prod_p U[i_p, j_p] prod_q conj(U)[i'_q, j'_q]
        = sum_{sigma, tau in S_k} delta(i = i' o sigma) delta(j = j' o tau)
          Wg(sigma tau^-1, d)

for Haar-random U. Everything here is exact rational arithmetic
(``fractions.Fraction``); floats appear only in the Monte Carlo estimators,
which exist to cross-check the exact values.

One cached matrix W[a][b] = Wg(p_a p_b^-1, d) per (k, d) over explicit
permutations serves the W * G check and every moment sum.

``power_overlap_exact`` evaluates E_U |<0| (U^dag)^K X U^K |0>|^2 where X maps
basis index v to v + d/2 (mod d): the first-bit flip when d is a power of two,
and its fixed-point-free generalization for other d.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import qcore, rng, stats
from .errors import (
    DegenerateFitError,
    InvalidParameterError,
    ResourceLimitError,
)

MAX_WEIGHT = 8


# ---------------------------------------------------------------------------
# Partitions and representation data
# ---------------------------------------------------------------------------

def _as_parts(p) -> tuple:
    parts = tuple(int(x) for x in (p.parts if isinstance(p, Partition) else p))
    if any(x <= 0 for x in parts):
        raise InvalidParameterError(f"parts must be positive, got {parts}")
    if list(parts) != sorted(parts, reverse=True):
        raise InvalidParameterError(f"parts must be weakly decreasing, got {parts}")
    return parts


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing positive parts; ``weight`` is their sum."""

    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", _as_parts(self.parts))

    @property
    def weight(self) -> int:
        return sum(self.parts)


@dataclass(frozen=True)
class CycleType(Partition):
    """A partition read as cycle lengths of a conjugacy class in S_k."""

    @property
    def class_size(self) -> int:
        """Number of permutations in S_k with this cycle type."""
        k = self.weight
        size = math.factorial(k)
        for length in set(self.parts):
            m = self.parts.count(length)
            size //= (length**m) * math.factorial(m)
        return size


def partitions(k: int) -> list:
    """All partitions of k in lexicographic order of their part tuples."""
    if not 1 <= k <= MAX_WEIGHT:
        raise ResourceLimitError(f"partitions supported for 1 <= k <= {MAX_WEIGHT}, got {k}")

    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(1, min(remaining, cap) + 1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return [Partition(p) for p in sorted(gen(k, k))]


def _conjugate(parts: tuple) -> tuple:
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p > j) for j in range(parts[0]))


def _hooks(parts: tuple):
    """Hook length at each cell (i, j), 1-based, row by row."""
    conj = _conjugate(parts)
    for i, row in enumerate(parts, start=1):
        for j in range(1, row + 1):
            yield i, j, row - j + conj[j - 1] - i + 1


def dim_Sk(lam) -> int:
    """Dimension of the S_k irrep for ``lam``: k! / prod(hook lengths)."""
    parts = _as_parts(lam)
    num = math.factorial(sum(parts))
    for _, _, hook in _hooks(parts):
        num //= hook
    return num


def dim_Ud(lam, d: int) -> Fraction:
    """Dimension of the U(d) irrep for ``lam``:

        prod_{(i,j) in lam} (d - i + j) / hook(i, j)

    Zero when the diagram has more than d rows; an integer whenever d >= the
    number of parts (returned as an exact Fraction either way).
    """
    parts = _as_parts(lam)
    if d < 1:
        raise InvalidParameterError(f"d must be >= 1, got {d}")
    if len(parts) > d:
        return Fraction(0)
    value = Fraction(1)
    for i, j, hook in _hooks(parts):
        value *= Fraction(d - i + j, hook)
    return value


@lru_cache(maxsize=None)
def _chi(lam: tuple, mu: tuple) -> int:
    """Murnaghan-Nakayama recursion over beta-sets (first-column hooks)."""
    if not mu:
        return 1 if not lam else 0
    r, rest = mu[0], mu[1:]
    m = len(lam)
    beta = [lam[i] + (m - 1 - i) for i in range(m)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        if b < r or (b - r) in beta_set:
            continue
        height = sum(1 for x in beta if b - r < x < b)
        new = sorted((beta_set - {b}) | {b - r}, reverse=True)
        new_parts = tuple(x - (m - 1 - i) for i, x in enumerate(new))
        new_parts = tuple(x for x in new_parts if x > 0)
        total += (-1) ** height * _chi(new_parts, rest)
    return total


def character(lam, c) -> int:
    """Exact character chi^lam on the class with cycle type ``c``."""
    lam_parts = _as_parts(lam)
    c_parts = _as_parts(c)
    if sum(lam_parts) != sum(c_parts):
        raise InvalidParameterError(
            f"weights differ: |{lam_parts}| = {sum(lam_parts)} vs |{c_parts}| = {sum(c_parts)}")
    if sum(lam_parts) > MAX_WEIGHT:
        raise ResourceLimitError(f"characters supported up to weight {MAX_WEIGHT}")
    return _chi(lam_parts, c_parts)


# ---------------------------------------------------------------------------
# Weingarten function
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _weingarten_fresh(parts: tuple, k: int, d: int) -> Fraction:
    """The character sum for Wg; ``__wrapped__`` is the uncached computation."""
    if not 1 <= k <= MAX_WEIGHT:
        raise ResourceLimitError(f"Wg supported for 1 <= k <= {MAX_WEIGHT}, got {k}")
    if sum(parts) != k:
        raise InvalidParameterError(f"cycle type {parts} is not a partition of {k}")
    if d < k:
        raise InvalidParameterError(
            f"Wg evaluated only in the k <= d regime, got k = {k}, d = {d}")
    total = Fraction(0)
    for lam in partitions(k):
        dim_s = dim_Sk(lam)
        total += Fraction(dim_s * dim_s * character(lam, parts)) / dim_Ud(lam, d)
    return total / math.factorial(k) ** 2


def weingarten(c, k: int, d: int) -> Fraction:
    """Exact Wg(sigma, d) for sigma of cycle type ``c`` in S_k (requires d >= k);
    each (cycle type, k, d) is computed once per process."""
    return _weingarten_fresh(_as_parts(c), k, d)


# ---------------------------------------------------------------------------
# Explicit permutations
# ---------------------------------------------------------------------------

def perm_compose(p: tuple, q: tuple) -> tuple:
    """(p o q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def perm_inverse(p: tuple) -> tuple:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def perm_cycle_type(p: tuple) -> CycleType:
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        if seen[start]:
            continue
        length, cur = 0, start
        while not seen[cur]:
            seen[cur] = True
            cur = p[cur]
            length += 1
        lengths.append(length)
    return CycleType(tuple(sorted(lengths, reverse=True)))


@lru_cache(maxsize=None)
def _perm_table(k: int) -> tuple:
    """(perms, types): S_k in ``itertools.permutations`` order, and
    types[a][b] = the cycle-type parts of p_a p_b^-1."""
    perms = tuple(itertools.permutations(range(k)))
    inverses = [perm_inverse(p) for p in perms]
    types = tuple(tuple(perm_cycle_type(perm_compose(p, q)).parts for q in inverses)
                  for p in perms)
    return perms, types


@lru_cache(maxsize=None)
def _wg_matrix(k: int, d: int) -> tuple:
    """W[a][b] = Wg(p_a p_b^-1, d) over ``_perm_table(k)``'s permutations."""
    _, types = _perm_table(k)
    by_type = {c.parts: weingarten(c, k, d) for c in partitions(k)}
    return tuple(tuple(by_type[c] for c in row) for row in types)


def _pattern_sum(rows, rows_conj, cols, cols_conj, d: int) -> Fraction:
    """Sum of Wg(sigma tau^-1, d) over the sigma with rows[p] == rows_conj[sigma(p)]
    and the tau with cols[p] == cols_conj[tau(p)] for every p; 0, at any d, if none."""
    k = len(rows)
    perms, _ = _perm_table(k)
    sigmas = [a for a, s in enumerate(perms) if all(rows[p] == rows_conj[s[p]] for p in range(k))]
    taus = [b for b, t in enumerate(perms) if all(cols[p] == cols_conj[t[p]] for p in range(k))]
    if not sigmas or not taus:
        return Fraction(0)
    w = _wg_matrix(k, d)
    return sum((w[a][b] for a in sigmas for b in taus), Fraction(0))


@dataclass(frozen=True)
class GramIdentityReport:
    ok: bool
    max_deviation: Fraction


def gram_weingarten_identity(k: int, d: int) -> GramIdentityReport:
    """Check W * G = identity over explicit permutations, in exact rationals.

    W[a, b] = Wg(p_a p_b^-1, d) and G[a, b] = d^(#cycles(p_a p_b^-1)) are both
    k! x k! class-function matrices; their product being the identity is the
    defining pseudo-inverse property of the Weingarten function.
    """
    if not 1 <= k <= 5:
        raise ResourceLimitError(f"gram identity check supported for k <= 5, got {k}")
    if d < k:
        raise InvalidParameterError(f"need d >= k, got k = {k}, d = {d}")
    _, types = _perm_table(k)
    w = _wg_matrix(k, d)
    g = [[d ** len(c) for c in row] for row in types]
    n = len(types)
    max_dev = Fraction(0)
    for a in range(n):
        for b in range(n):
            entry = sum((w[a][c] * g[c][b] for c in range(n)), Fraction(0))
            dev = abs(entry - (1 if a == b else 0))
            if dev > max_dev:
                max_dev = dev
    return GramIdentityReport(max_dev == 0, max_dev)


# ---------------------------------------------------------------------------
# Haar moments of matrix entries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentSpec:
    """Index data for E prod_p U[i[p], j[p]] * prod_q conj(U)[i_conj[q], j_conj[q]].

    All four tuples share length k; entries are basis indices in {0, ..., d-1}.
    """

    i: tuple
    j: tuple
    i_conj: tuple
    j_conj: tuple

    def __post_init__(self):
        tup = lambda t: tuple(int(x) for x in t)
        object.__setattr__(self, "i", tup(self.i))
        object.__setattr__(self, "j", tup(self.j))
        object.__setattr__(self, "i_conj", tup(self.i_conj))
        object.__setattr__(self, "j_conj", tup(self.j_conj))
        k = len(self.i)
        if not (len(self.j) == len(self.i_conj) == len(self.j_conj) == k) or k < 1:
            raise InvalidParameterError("all four index tuples must share length k >= 1")

    @property
    def order(self) -> int:
        return len(self.i)


def haar_moment_exact(m: MomentSpec, d: int) -> Fraction:
    """Exact mixed moment of Haar matrix entries via the double permutation sum."""
    k = m.order
    if k > 4:
        raise ResourceLimitError(f"exact moments limited to k <= 4, got {k}")
    if d < k:
        raise InvalidParameterError(f"exact moments need d >= k, got k = {k}, d = {d}")
    if max(max(m.i), max(m.j), max(m.i_conj), max(m.j_conj)) >= d:
        raise InvalidParameterError("index exceeds dimension")
    return _pattern_sum(m.i, m.i_conj, m.j, m.j_conj, d)


@dataclass(frozen=True)
class MCEstimate:
    mean: complex
    std_error: float
    trials: int


def haar_moment_mc(m: MomentSpec, d: int, trials: int, seed) -> MCEstimate:
    """Monte Carlo estimate of the same moment over Haar samples from qcore.

    Trial t draws from ``rng.stream(seed, t)``, in stacks of at most
    ``qcore.HAAR_BATCH_ENTRIES`` entries.

    ``std_error`` combines the real and imaginary sample variances, so
    |exact - mean| <= z * std_error is a meaningful two-dimensional check.
    """
    if trials < 100:
        raise InvalidParameterError(f"need at least 100 trials for the SE, got {trials}")
    samples = np.empty(trials, dtype=np.complex128)
    chunk = max(1, qcore.HAAR_BATCH_ENTRIES // (d * d))
    for start in range(0, trials, chunk):
        stop = min(trials, start + chunk)
        u = qcore.haar_unitaries(d, [rng.stream(seed, t) for t in range(start, stop)])
        samples[start:stop] = (np.prod(u[:, m.i, m.j], axis=1)
                               * np.prod(u[:, m.i_conj, m.j_conj].conj(), axis=1))
    mean = complex(samples.mean())
    if trials > 1:
        var = samples.real.var(ddof=1) + samples.imag.var(ddof=1)
    else:
        var = 0.0
    return MCEstimate(mean, math.sqrt(var / trials), trials)


# ---------------------------------------------------------------------------
# The K-fold power-overlap expectation
# ---------------------------------------------------------------------------

def bar_index(v: int, d: int) -> int:
    """First-bit flip on basis indices, generalized to any d >= 2.

    (v + d/2) mod d equals v XOR (d/2) when d is a power of two. For odd d the
    shift by floor(d/2) is still fixed-point-free (it is then a d-cycle rather
    than an involution), which is exactly what the moment computation needs.
    """
    if d < 2:
        raise InvalidParameterError(f"d must be >= 2, got {d}")
    return (v + d // 2) % d


def power_overlap_exact(K: int, d: int) -> Fraction:
    """Exact E_U |<0| (U^dag)^K X U^K |0>|^2 with X: v -> bar_index(v, d).

    Expands the 2K-th moment sum over all free chain indices; the inner
    permutation double sum is evaluated once per index-coincidence pattern.
    """
    if K not in (1, 2):
        raise ResourceLimitError(f"exact power overlap limited to K <= 2, got {K}")
    if not 2 <= d <= 8:
        raise ResourceLimitError(f"exact power overlap limited to 2 <= d <= 8, got {d}")
    k = 2 * K
    if d < k:
        raise InvalidParameterError(
            f"exact power overlap at K = {K} needs d >= 2K = {k}, got d = {d}")
    half = d // 2
    bar = lambda v: (v + half) % d
    n_free = 2 + 4 * (K - 1)
    counts = {}     # coincidence pattern -> number of index assignments
    examples = {}   # coincidence pattern -> one assignment's index tuples
    for assign in itertools.product(range(d), repeat=n_free):
        a, b = assign[0], assign[1]
        chains = assign[2:]
        i = chains[0:K - 1]
        j = chains[K - 1:2 * (K - 1)]
        ip = chains[2 * (K - 1):3 * (K - 1)]
        jp = chains[3 * (K - 1):]
        u_rows = (bar(a),) + j + ip + (b,)
        u_cols = j + (0, 0) + ip
        c_rows = i + (a, bar(b)) + jp
        c_cols = (0,) + i + jp + (0,)
        row_sig = 0
        col_sig = 0
        for p in range(k):
            for q in range(k):
                if u_rows[p] == c_rows[q]:
                    row_sig |= 1 << (p * k + q)
                if u_cols[p] == c_cols[q]:
                    col_sig |= 1 << (p * k + q)
        key = (row_sig, col_sig)
        if key in counts:
            counts[key] += 1
        else:
            counts[key] = 1
            examples[key] = (u_rows, c_rows, u_cols, c_cols)
    return sum((n * _pattern_sum(*examples[key], d) for key, n in counts.items()), Fraction(0))


def wg_asymptotics_check(c, k: int, d_list) -> float:
    """Least-squares slope of log|Wg(c, d)| against log d over ``d_list``."""
    ds = [int(d) for d in d_list]
    if len(ds) < 3:
        raise InvalidParameterError("need at least 3 dimensions for a fit")
    if any(d < k for d in ds):
        raise InvalidParameterError("all dimensions must satisfy d >= k")
    values = [weingarten(c, k, d) for d in ds]
    if any(v == 0 for v in values):
        raise DegenerateFitError(f"Wg vanishes on {c} for some d in {ds}; log fit undefined")
    slope, _, _ = stats.linear_fit(np.log([float(d) for d in ds]),
                                   np.log([abs(float(v)) for v in values]))
    return slope
