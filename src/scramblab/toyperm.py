"""Shocked-permutation toy model.

A fixed permutation sigma on n-bit strings plays the scrambler; the shocked
variant pi flips the first (most significant) bit and then applies sigma.
Walking ell random steps of {sigma, pi} from 0^n induces the distribution
D_sigma, equivalently: a uniformly random leaf of the depth-ell binary tree
whose left/right children are sigma(x) / pi(x).

This module provides query-counted oracles, the tree and its leaf rows, the
five hybrid input distributions (A)-(E), exact hybrid tables at (n=3, ell=2),
total-variation distance in exact rationals, and the
distinguishing strategies (full forward enumeration, bidirectional
meet-in-the-middle, zero-query baseline) together with a coin-flip game
harness that records per-trial query counts.

One class, ``PermutationOracle``, holds sigma and its two query counters.
sigma is either an explicit table (built by a caller, loaded or spliced),
which the constructor checks is a bijection, or, from ``random_permutation``,
sampled lazily, as the query model allows: each new point is uniform over the
values not yet used, so a game that makes a few dozen queries never writes out
its 2^n-entry table. The table is completed uniformly on its first read
(serialization, splices, fresh copies, unmetered trees, exact laws); read
before any query, it is exactly the stream's ``permutation(2**n)``.

The exact hybrid tables enumerate all 8! permutations as one int64 array in
``itertools.permutations`` order and build every depth-2 tree from it with
numpy, once per process, as read-only arrays. Each hybrid is an int64 array
of sampling-path counts indexed by (rank of sigma, y) over one denominator,
the number of paths; the spliced permutations of hybrid C are ranked by their
Lehmer code. TV between two tables is one integer sum, returned as an exact
``Fraction``.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import struct
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import rng
from .errors import InvalidParameterError, ResourceLimitError, SparseSetError, UnknownNameError

MAX_BITS = 26
TREE_DEPTH_LIMIT = 20


# Lazily sampled points draw their candidates from blocks of this many uniform values.
_DRAW_BLOCK = 64


class PermutationOracle:
    """Bijection sigma on n-bit strings with metered queries.

    ``forward``/``inverse`` increment the matching counter by exactly one per
    call; ``lookup`` reads sigma unmetered. sigma is an explicit table, which
    the constructor checks is a bijection, or, from ``random_permutation``,
    sampled lazily from its own generator: ``_points`` maps each input
    assigned so far to its output and ``_preimages`` the reverse. A new
    forward (inverse) point is uniform over the outputs (inputs) not yet used:
    uniform draws over range(2^n), taken in blocks, rejecting the values
    already taken. The tables are exposed read-only for harness construction,
    serialization, and exact enumeration; those paths are not metered. Their
    first read completes a lazy sigma, keeping every point already queried and
    giving the unassigned inputs a uniform permutation of the unassigned
    outputs; untouched, that is exactly ``g.permutation(2**n)``. Either way the
    law is that of a uniform permutation.
    """

    __slots__ = ("n", "size", "forward_queries", "inverse_queries",
                 "_fwd", "_inv", "_g", "_points", "_preimages", "_candidates")

    def __init__(self, n: int, forward_table):
        n = int(n)
        if not 1 <= n <= MAX_BITS:
            raise InvalidParameterError(f"bit-width must satisfy 1 <= n <= {MAX_BITS}, got {n}")
        fwd = np.asarray(forward_table)
        if fwd.dtype.kind not in "iu":
            raise InvalidParameterError(f"oracle table must hold integers, got {fwd.dtype}")
        fwd = fwd.astype(np.int64, copy=False)
        if fwd.shape != (1 << n,):
            raise InvalidParameterError(f"table must have 2^{n} entries")
        lo, hi = int(fwd.min()), int(fwd.max())
        if lo < 0 or hi >= fwd.size:
            bad = lo if lo < 0 else hi
            raise InvalidParameterError(f"oracle entry {bad} is not an {n}-bit string")
        if np.unique(fwd).size != fwd.size:
            raise InvalidParameterError("oracle table is not a bijection: an output repeats")
        fwd.setflags(write=False)
        self._start(n, fwd, None, None)

    def _start(self, n: int, fwd, inv, g) -> "PermutationOracle":
        """Zeroed counters over the read-only tables ``fwd`` and ``inv`` (None
        until first read), or, with ``fwd`` None, a lazy sigma drawn from ``g``."""
        self.n, self.size = n, 1 << n
        self.forward_queries = self.inverse_queries = 0
        self._fwd, self._inv, self._g = fwd, inv, g
        self._points, self._preimages, self._candidates = {}, {}, iter(())
        return self

    @property
    def flip_mask(self) -> int:
        """Bit mask of the first (most significant) bit."""
        return 1 << (self.n - 1)

    @property
    def forward_table(self) -> np.ndarray:
        if self._fwd is None:
            points = self._points
            if points:
                xs = np.fromiter(points.keys(), dtype=np.int64, count=len(points))
                ys = np.fromiter(points.values(), dtype=np.int64, count=len(points))
                table = np.full(self.size, -1, dtype=np.int64)
                table[xs] = ys
                unused = np.ones(self.size, dtype=bool)
                unused[ys] = False
                table[table < 0] = self._g.permutation(np.flatnonzero(unused))
            else:
                table = self._g.permutation(self.size)
            table.setflags(write=False)
            self._fwd = table
            self._g = self._points = self._preimages = self._candidates = None
        return self._fwd

    @property
    def inverse_table(self) -> np.ndarray:
        if self._inv is None:
            fwd = self.forward_table
            inv = np.empty_like(fwd)
            inv[fwd] = np.arange(fwd.size, dtype=np.int64)
            inv.setflags(write=False)
            self._inv = inv
        return self._inv

    @property
    def query_counts(self) -> tuple:
        return (self.forward_queries, self.inverse_queries)

    def _draw(self, taken: dict) -> int:
        while True:
            for v in self._candidates:
                if v not in taken:
                    return v
            self._candidates = iter(self._g.integers(self.size, size=_DRAW_BLOCK).tolist())

    def lookup(self, x: int) -> int:
        """sigma(x) without metering, for harnesses."""
        x = int(x)
        if not 0 <= x < self.size:
            raise InvalidParameterError(f"query {x} is outside 0..{self.size - 1}")
        if self._fwd is not None:
            return int(self._fwd[x])
        y = self._points.get(x)
        if y is None:
            y = self._draw(self._preimages)
            self._points[x] = y
            self._preimages[y] = x
        return y

    def forward(self, x: int) -> int:
        self.forward_queries += 1
        return self.lookup(x)

    def inverse(self, y: int) -> int:
        self.inverse_queries += 1
        y = int(y)
        if not 0 <= y < self.size:
            raise InvalidParameterError(f"query {y} is outside 0..{self.size - 1}")
        if self._fwd is not None:
            return int(self.inverse_table[y])
        x = self._preimages.get(y)
        if x is None:
            x = self._draw(self._points)
            self._points[x] = y
            self._preimages[y] = x
        return x

    def fresh_copy(self) -> "PermutationOracle":
        """An oracle with zeroed counters over this one's tables, shared, not
        copied; a lazy sigma is completed first, keeping every point queried."""
        return PermutationOracle.__new__(PermutationOracle)._start(
            self.n, self.forward_table, self._inv, None)


def random_permutation(n: int, seed) -> PermutationOracle:
    """Uniformly random bijection on n-bit strings, sampled lazily from
    ``rng.stream(seed)`` as it is queried; a table read before any query is
    that stream's ``permutation(2**n)``."""
    if not 1 <= n <= MAX_BITS:
        raise ResourceLimitError(f"bit-width must satisfy 1 <= n <= {MAX_BITS}, got {n}")
    return PermutationOracle.__new__(PermutationOracle)._start(n, None, None, rng.stream(seed))


def _walk(step, mask: int, ell: int, g) -> int:
    """Endpoint of a uniform random word in {sigma, pi}^ell applied to 0^n: each
    step draws one bit from ``g`` and applies ``step`` (a lookup of sigma) to x
    or x ^ mask."""
    x = 0
    for _ in range(ell):
        x = step(x ^ (mask if g.integers(2) else 0))
    return x


def sample_D_sigma(o: PermutationOracle, ell: int, seed) -> int:
    """Apply a uniform random word in {sigma, pi}^ell to 0^n (ell forward queries)."""
    if ell < 0:
        raise InvalidParameterError(f"depth must be >= 0, got {ell}")
    return _walk(o.forward, o.flip_mask, ell, rng.stream(seed))


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SigmaTree:
    """Complete binary tree of the sigma/pi walk from 0^n.

    ``levels[j]`` holds the 2^j labels at depth j, children ordered
    (sigma-child, pi-child); ``leaves`` is the last level and
    ``second_last_row`` the one above it. ``all_distinct`` is the exact
    duplicate scan over every node, i.e. membership of sigma in the
    distinct-tree set S.
    """

    depth: int
    levels: tuple

    @property
    def leaves(self) -> np.ndarray:
        return self.levels[-1]

    @property
    def second_last_row(self) -> np.ndarray:
        if self.depth < 1:
            return np.empty(0, dtype=np.int64)
        return self.levels[-2]

    @property
    def node_count(self) -> int:
        return (1 << (self.depth + 1)) - 1

    @property
    def all_nodes(self) -> np.ndarray:
        return np.concatenate(self.levels)

    @property
    def all_distinct(self) -> bool:
        return np.unique(self.all_nodes).size == self.node_count


def _tree_levels(step, n: int, depth: int, batch_shape: tuple = ()) -> tuple:
    """Levels of the sigma/pi tree from 0^n, each of shape batch_shape + (2^j,).

    ``step`` maps an int64 array of inputs to sigma of each; the children of x
    are step of (x, x ^ mask), in that order, so a metered step queries the
    tree breadth-first, sigma-child before pi-child.
    """
    mask = 1 << (n - 1)
    levels = [np.zeros(batch_shape + (1,), dtype=np.int64)]
    for _ in range(depth):
        cur = levels[-1]
        levels.append(step(np.stack((cur, cur ^ mask), axis=-1).reshape(cur.shape[:-1] + (-1,))))
    return tuple(levels)


def _levels_from_table(fwd: np.ndarray, n: int, depth: int) -> tuple:
    """Tree levels from a forward table; a stack of tables (leading axes) gives a
    stack of trees."""
    return _tree_levels(lambda xs: np.take_along_axis(fwd, xs, axis=-1), n, depth, fwd.shape[:-1])


def _check_tree_size(n: int, depth: int):
    if depth < 0:
        raise InvalidParameterError(f"depth must be >= 0, got {depth}")
    if depth > TREE_DEPTH_LIMIT or (1 << (depth + 1)) > 4 * (1 << n):
        raise ResourceLimitError(f"tree of depth {depth} at n = {n} exceeds the size cap")


def build_tree(o: PermutationOracle, depth: int) -> SigmaTree:
    """Materialize T(sigma) through the metered oracle (< 2^(depth+1) queries)."""
    _check_tree_size(o.n, depth)

    def step(xs):
        return np.array([o.forward(x) for x in xs.tolist()], dtype=np.int64)

    return SigmaTree(depth, _tree_levels(step, o.n, depth))


def tree_unmetered(o: PermutationOracle, depth: int) -> SigmaTree:
    """Same tree from the raw table; used by harnesses and exact enumeration."""
    _check_tree_size(o.n, depth)
    return SigmaTree(depth, _levels_from_table(o.forward_table, o.n, depth))


def exact_distribution_D(o: PermutationOracle, ell: int) -> dict:
    """Exact rational law of D_sigma: leaf multiplicity / 2^ell per string."""
    tree = tree_unmetered(o, ell)
    values, counts = np.unique(tree.leaves, return_counts=True)
    total = 1 << ell
    return {int(v): Fraction(int(c), total) for v, c in zip(values, counts)}


def swap_splice(o: PermutationOracle, x: int, y: int) -> PermutationOracle:
    """Fresh oracle realizing SWAP(x, y) o sigma: the two rows whose outputs
    are x and y exchange outputs. The input oracle is left untouched."""
    if x == y:
        warnings.warn("swap_splice with x == y is a no-op", stacklevel=2)
        return o.fresh_copy()
    fwd = o.forward_table.copy()
    ix = int(o.inverse_table[x])
    iy = int(o.inverse_table[y])
    fwd[ix], fwd[iy] = y, x
    return PermutationOracle(o.n, fwd)


# ---------------------------------------------------------------------------
# Hybrid input distributions
# ---------------------------------------------------------------------------

HYBRID_LABELS = ("A", "B", "C", "D", "E")


@dataclass(frozen=True)
class HybridInstance:
    label: str
    sigma: PermutationOracle
    y: int
    ground_truth: bool  # y in L(sigma)


def _distinct_tree_oracle(n: int, ell: int, g, retry_cap: int):
    attempts = 0
    while attempts < retry_cap:
        attempts += 1
        o = random_permutation(n, g)
        tree = tree_unmetered(o, ell)
        if tree.all_distinct:
            return o, tree, attempts
    raise SparseSetError(
        f"no distinct-tree permutation found in {retry_cap} attempts at n = {n}, ell = {ell}",
        acceptance_rate=0.0 if attempts == 0 else 1.0 / attempts)


def sample_hybrid(label: str, n: int, ell: int, seed, retry_cap: int = 10**4) -> HybridInstance:
    """Draw one instance of hybrid (A)-(E).

    (A) sigma uniform, y uniform and independent.
    (B) sigma from the distinct-tree set S, y uniform outside T(sigma).
    (C) sigma' from S, y outside T(sigma'), x a uniform leaf;
        sigma = SWAP(x, y) o sigma'.
    (D) sigma from S, y a uniform leaf.
    (E) sigma uniform, y a uniform leaf (slot-uniform, so collisions weight).
    """
    if label not in HYBRID_LABELS:
        raise InvalidParameterError(f"label must be one of {HYBRID_LABELS}, got {label!r}")
    g = rng.stream(seed)
    size = 1 << n
    # sigma's table is read before y is drawn, so sigma is g.permutation(2^n)
    if label == "A":
        o = random_permutation(n, g)
        tree = tree_unmetered(o, ell)
        y = int(g.integers(size))
        return HybridInstance("A", o, y, bool(np.any(tree.leaves == y)))
    if label == "E":
        o = random_permutation(n, g)
        fwd = o.forward_table
        y = _walk(lambda x: int(fwd[x]), o.flip_mask, ell, g)
        return HybridInstance("E", o, y, True)
    o, tree, _ = _distinct_tree_oracle(n, ell, g, retry_cap)
    nodes = set(int(v) for v in tree.all_nodes)
    if label == "D":
        y = int(tree.leaves[g.integers(tree.leaves.size)])
        return HybridInstance("D", o, y, True)
    # B and C need y outside the tree
    while True:
        y = int(g.integers(size))
        if y not in nodes:
            break
    if label == "B":
        return HybridInstance("B", o, y, False)
    x = int(tree.leaves[g.integers(tree.leaves.size)])
    spliced = swap_splice(o, x, y)
    return HybridInstance("C", spliced, y, True)


# ---------------------------------------------------------------------------
# Exact enumeration at n = 3, ell = 2
# ---------------------------------------------------------------------------

def _check_exhaustive(n: int, ell: int):
    if (n, ell) != (3, 2):
        raise ResourceLimitError("exhaustive enumeration is fixed at (n, ell) = (3, 2)")


def _all_permutations(size: int) -> np.ndarray:
    """Every permutation of range(size), one per row, in ``itertools.permutations`` order."""
    flat = itertools.chain.from_iterable(itertools.permutations(range(size)))
    count = math.factorial(size) * size
    return np.fromiter(flat, dtype=np.int64, count=count).reshape(-1, size)


def _permutation_rank(perms: np.ndarray) -> np.ndarray:
    """Index of each row (a permutation of range(size)) in ``itertools.permutations``
    order, from its Lehmer code; leading axes are batch axes."""
    size = perms.shape[-1]
    later_smaller = np.triu(perms[..., :, None] > perms[..., None, :], k=1).sum(axis=-1)
    place = np.array([math.factorial(size - 1 - i) for i in range(size)], dtype=np.int64)
    return later_smaller @ place


@lru_cache(maxsize=None)
def _all_trees(n: int, ell: int):
    """(perms, nodes, leaves, in_s) for every sigma in S_{2^n}, one row each in
    ``itertools.permutations`` order; ``in_s`` marks the trees whose nodes are distinct.
    Built once per (n, ell) and shared, so the arrays are read-only."""
    perms = _all_permutations(1 << n)
    levels = _levels_from_table(perms, n, ell)
    nodes = np.concatenate(levels, axis=1)
    ordered = np.sort(nodes, axis=1)
    in_s = np.all(ordered[:, 1:] != ordered[:, :-1], axis=1)
    trees = perms, nodes, levels[-1], in_s
    for array in trees:
        array.setflags(write=False)
    return trees


@dataclass(frozen=True, eq=False)
class HybridTable:
    """Exact joint law of a hybrid over (sigma, y):
    Pr[sigma, y] = weights[rank of sigma, y] / denominator, with sigma ranked in
    ``itertools.permutations`` order. ``weights`` is a read-only int64 array."""

    weights: np.ndarray
    denominator: int

    def tv(self, other: "HybridTable") -> Fraction:
        """Exact total-variation distance as one integer sum over both tables."""
        diff = self.weights * other.denominator - other.weights * self.denominator
        return Fraction(int(np.abs(diff).sum()), 2 * self.denominator * other.denominator)


def hybrid_table(label: str, n: int = 3, ell: int = 2) -> HybridTable:
    """Exact law of hybrid (A)-(E) over (sigma, y) by enumerating all of S_{2^n}.

    Each table counts the equally likely sampling paths of ``sample_hybrid``,
    so its denominator is the number of paths: (A) every (sigma, y); (E) every
    sigma and leaf slot, so colliding leaves weigh more; (D) the leaf slots of
    sigma in S; (B) the off-tree y of sigma in S; (C) for sigma' in S, every
    off-tree y and leaf slot x, giving SWAP(x, y) o sigma' with y.
    """
    if label not in HYBRID_LABELS:
        raise InvalidParameterError(f"label must be one of {HYBRID_LABELS}, got {label!r}")
    _check_exhaustive(n, ell)
    perms, nodes, leaves, in_s = _all_trees(n, ell)
    n_perms, size = perms.shape
    rows = np.arange(n_perms) if label in ("A", "E") else np.flatnonzero(in_s)
    if label == "A":
        ranks, ys = rows[:, None], np.arange(size)
    elif label in ("D", "E"):
        ranks, ys = rows[:, None], leaves[rows]
    else:
        on_tree = np.zeros((rows.size, size), dtype=bool)
        np.put_along_axis(on_tree, nodes[rows], True, axis=1)
        off = np.nonzero(~on_tree)[1].reshape(rows.size, -1)  # N - m per member
        if label == "B":
            ranks, ys = rows[:, None], off
        else:
            sigma = perms[rows][:, None, None, :]
            x = leaves[rows][:, None, :, None]
            y = off[:, :, None, None]
            spliced = np.where(sigma == x, y, np.where(sigma == y, x, sigma))
            ranks, ys = _permutation_rank(spliced), y[..., 0]
    paths = np.ravel(ranks * size + ys)
    weights = np.bincount(paths, minlength=n_perms * size).reshape(n_perms, size)
    weights.setflags(write=False)
    return HybridTable(weights, paths.size)


# ---------------------------------------------------------------------------
# Distinguishers and the coin-flip game
# ---------------------------------------------------------------------------

def distinguisher_forward_enum(o: PermutationOracle, y: int, ell: int) -> bool:
    """Build the full tree (<= 2^(ell+1) forward queries); decide y in L(sigma)."""
    tree = build_tree(o, ell)
    return bool(np.any(tree.leaves == y))


def distinguisher_meet_in_middle(o: PermutationOracle, y: int, ell: int) -> bool:
    """Bidirectional tree welding.

    Grows the forward tree to depth h = floor(ell/2) - 1 (frontier A) and the
    inverse tree from y to depth ell - h - 1 (frontier B, one inverse query
    per node since sigma^-1(c) and pi^-1(c) differ only in the first bit),
    then tests sigma(a) in B or pi(a) in B for each a in A via a hash set.
    """
    if ell > 24:
        raise ResourceLimitError(f"meet-in-the-middle supported for ell <= 24, got {ell}")
    mask = o.flip_mask
    if ell == 0:
        return y == 0
    if ell == 1:
        return o.forward(0) == y or o.forward(mask) == y
    h = ell // 2 - 1
    frontier = build_tree(o, h).leaves.tolist()
    back = [y]
    for _ in range(ell - h - 1):
        nxt = []
        for c in back:
            z = o.inverse(c)
            nxt.append(z)
            nxt.append(z ^ mask)
        back = nxt
    back_set = set(back)
    for a in frontier:
        if o.forward(a) in back_set or o.forward(a ^ mask) in back_set:
            return True
    return False


def distinguisher_zero_query(o: PermutationOracle, y: int, ell: int) -> bool:
    """Baseline: always guess 'uniform' without querying."""
    return False


STRATEGIES = {
    "forward_enum": distinguisher_forward_enum,
    "meet_in_middle": distinguisher_meet_in_middle,
    "zero_query": distinguisher_zero_query,
}


@dataclass(frozen=True)
class GameResult:
    trials: int
    successes: int
    hybrids: tuple      # "A" or "E" per trial
    decisions: tuple    # strategy output per trial
    corrects: tuple
    fwd_queries: tuple
    inv_queries: tuple

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials

    @property
    def mean_queries(self) -> float:
        return float(np.mean(np.array(self.fwd_queries) + np.array(self.inv_queries)))


def run_distinguishing_game(strategy: str, n: int, ell: int, trials: int, seed) -> GameResult:
    """Fair coin between hybrid A (uniform y) and hybrid E (uniform leaf) per
    trial; the named strategy decides which; query counts come from the oracle
    counters' delta, exactly.

    Streams: ``root`` is ``seed`` for an int seed, or one ``integers(2**63)``
    draw from a Generator seed. Trial t draws its coin, then A's y or E's walk
    bits, from ``rng.stream(root, t)``; its lazily sampled sigma draws from
    ``rng.stream(root, t, 1)``, and E's walk reads it unmetered. So each trial
    depends on (root, t) alone, and the coins not at all on the strategy.
    """
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    if strategy not in STRATEGIES:
        raise UnknownNameError(
            f"unknown strategy {strategy!r}; registered: {sorted(STRATEGIES)}")
    strat = STRATEGIES[strategy]
    hybrids, decisions, corrects, fwds, invs = [], [], [], [], []
    successes = 0
    root = int(seed.integers(2**63)) if isinstance(seed, np.random.Generator) else int(seed)
    for t in range(trials):
        g = rng.stream(root, t)
        is_leaf_instance = bool(g.integers(2))
        oracle = random_permutation(n, rng.stream(root, t, 1))
        if is_leaf_instance:
            y = _walk(oracle.lookup, oracle.flip_mask, ell, g)
        else:
            y = int(g.integers(1 << n))
        f0, i0 = oracle.query_counts
        decision = bool(strat(oracle, y, ell))
        f1, i1 = oracle.query_counts
        correct = decision == is_leaf_instance
        successes += correct
        hybrids.append("E" if is_leaf_instance else "A")
        decisions.append(decision)
        corrects.append(correct)
        fwds.append(f1 - f0)
        invs.append(i1 - i0)
    return GameResult(trials, successes, tuple(hybrids), tuple(decisions),
                      tuple(corrects), tuple(fwds), tuple(invs))


# ---------------------------------------------------------------------------
# External formats
# ---------------------------------------------------------------------------

def oracle_to_bytes(o: PermutationOracle) -> bytes:
    """Flat binary: n as 32-bit little-endian, then 2^n entries of ceil(n/8)
    little-endian bytes each (forward table; the inverse is rebuilt on load)."""
    width = (o.n + 7) // 8
    raw = o.forward_table.astype("<u4").tobytes()
    trimmed = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 4)[:, :width]
    return struct.pack("<I", o.n) + trimmed.tobytes()


def oracle_from_bytes(data: bytes) -> PermutationOracle:
    """Inverse of ``oracle_to_bytes``; raises ``InvalidParameterError`` unless the
    bytes hold a bijection on n-bit strings with 1 <= n <= MAX_BITS."""
    if len(data) < 4:
        raise InvalidParameterError(f"oracle data has {len(data)} bytes, shorter than its header")
    (n,) = struct.unpack_from("<I", data, 0)
    if not 1 <= n <= MAX_BITS:
        raise InvalidParameterError(f"oracle header gives n = {n}, outside 1..{MAX_BITS}")
    width = (n + 7) // 8
    if len(data) - 4 != (1 << n) * width:
        raise InvalidParameterError(
            f"oracle body has {len(data) - 4} bytes, expected 2^{n} entries of {width} bytes")
    body = np.frombuffer(data, dtype=np.uint8, offset=4).reshape(-1, width)
    padded = np.zeros((body.shape[0], 4), dtype=np.uint8)
    padded[:, :width] = body
    return PermutationOracle(n, padded.view("<u4").reshape(-1).astype(np.int64))


def save_oracle(o: PermutationOracle, path):
    with open(path, "wb") as fh:
        fh.write(oracle_to_bytes(o))


def load_oracle(path) -> PermutationOracle:
    with open(path, "rb") as fh:
        return oracle_from_bytes(fh.read())


def game_result_to_csv(result: GameResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["trial", "hybrid", "decision", "correct", "fwd_queries", "inv_queries"])
    for t in range(result.trials):
        writer.writerow([t, result.hybrids[t], int(result.decisions[t]),
                         int(result.corrects[t]), result.fwd_queries[t], result.inv_queries[t]])
    return buf.getvalue()
