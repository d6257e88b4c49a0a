"""Shock-key pseudorandom state ensembles and their attackers.

An ensemble state is built by alternating a fixed scrambling unitary U with
secret single-qubit Pauli shocks on the first qubit:

    |Psi_k> = k_ell U k_{ell-1} U ... k_1 U |phi>,   k in {I,X,Y,Z}^ell.

U is either an explicit Haar unitary (the black-box model) or one scrambling
period exp(-i H m t_scr) of a chaotic chain with multiplier m >= 2. The
general insertion schedule (arbitrary times, sites, labels up to total time T)
realizes the perturbed-evolution states used by the energy-measurement
attacks, with the randomized schedule as the mitigation variant.

Also here: the 4-ary state tree and its Gram statistics, the keyed-phase-state
baseline ensemble, Monte Carlo power-overlap moments (cross-checked against
``weingarten.power_overlap_exact``), a copy-budgeted distinguisher harness
with swap-test / reference-overlap / calibrated-energy strategies, the
two-variant energy-measurement attack, and plain-text
round-tripping of ensemble and schedule configurations.

The phase-state key function is a 64-bit avalanche mixer reduced to one bit:
a deterministic fixture, not a cryptographic primitive, and no security is
claimed for it. Key 0 is reserved for the identically-zero function.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from . import qcore, rng, stats
from .errors import (
    BudgetViolationError,
    DimensionMismatchError,
    InvalidParameterError,
    ResourceLimitError,
    ScheduleError,
    ShockKeyError,
)

SHOCK_LABELS = "IXYZ"
SCHEDULE_LABELS = "XYZ"


def random_shock_key(ell: int, seed) -> str:
    g = rng.stream(seed)
    return "".join(SHOCK_LABELS[i] for i in g.integers(4, size=ell))


def validate_shock_key(key: str, ell: int) -> str:
    key = str(key).upper()
    if len(key) != ell:
        raise ShockKeyError(f"key length {len(key)} != ensemble shock count {ell}")
    if any(c not in SHOCK_LABELS for c in key):
        raise ShockKeyError(f"key must be over {SHOCK_LABELS!r}, got {key!r}")
    return key


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShockSchedule:
    """Pauli insertions (time, site, label) at strictly increasing times <= T."""

    entries: tuple
    total_time: float

    def __post_init__(self):
        entries = tuple((float(t), int(q), str(p).upper()) for t, q, p in self.entries)
        total = float(self.total_time)
        if not 0 <= total < math.inf:
            raise ScheduleError(f"total time must be finite and >= 0, got {total}")
        times = [t for t, _, _ in entries]
        if not all(0 <= t < math.inf for t in times):
            raise ScheduleError("shock times must be finite and >= 0")
        if any(q < 0 for _, q, _ in entries):
            raise ScheduleError("shock sites must be >= 0")
        if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
            raise ScheduleError("shock times must be strictly increasing")
        if times and times[-1] > total:
            raise ScheduleError(f"shock at t = {times[-1]} exceeds total time {total}")
        if any(len(p) != 1 or p not in SCHEDULE_LABELS for _, _, p in entries):
            raise ScheduleError(f"shock labels must be over {SCHEDULE_LABELS!r}")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "total_time", total)

    @property
    def ell(self) -> int:
        return len(self.entries)


# Draws of ell sorted times before randomized_schedule gives up. At ordinary T a
# draw fails with probability of order ell^2 * 2^-53; the cap matters only at T
# too small for float64 to hold ell distinct positive times below it.
_SCHEDULE_DRAWS = 100


def randomized_schedule(n: int, ell: int, total_time: float, seed) -> ShockSchedule:
    """ell shocks at sorted uniform times in (0, T), uniform sites and labels.

    ell = 0 yields the empty schedule (pure evolution for time T). T must be
    finite and > 0; a T too small to hold ell distinct positive times raises
    ``InvalidParameterError``.
    """
    if ell < 0:
        raise InvalidParameterError(f"shock count must be >= 0, got {ell}")
    if not 0 < total_time < math.inf:
        raise InvalidParameterError(f"total time must be finite and > 0, got {total_time}")
    g = rng.stream(seed)
    for _ in range(_SCHEDULE_DRAWS):
        times = np.sort(g.random(ell) * total_time)
        if ell == 0 or (np.all(np.diff(times) > 0) and times[0] > 0):
            break
    else:
        raise InvalidParameterError(
            f"no {ell} distinct positive shock times in (0, {total_time}) "
            f"after {_SCHEDULE_DRAWS} draws")
    sites = g.integers(n, size=ell)
    labels = [SCHEDULE_LABELS[i] for i in g.integers(3, size=ell)]
    return ShockSchedule(tuple((float(t), int(q), p) for t, q, p in zip(times, sites, labels)),
                         total_time)


def fixed_spacing_schedule(ell: int, spacing: float) -> ShockSchedule:
    """X shocks on site 0 every ``spacing`` time units: times i*spacing, T = ell*spacing."""
    if ell < 0 or spacing <= 0:
        raise InvalidParameterError("need ell >= 0 and spacing > 0")
    entries = tuple((i * spacing, 0, "X") for i in range(1, ell + 1))
    return ShockSchedule(entries, ell * spacing)


def schedule_to_text(s: ShockSchedule) -> str:
    body = ",".join(f"{t:.17g}:{q}:{p}" for t, q, p in s.entries)
    return f"T = {s.total_time:.17g}\nschedule = {body}\n"


def schedule_from_text(text: str) -> ShockSchedule:
    """Inverse of ``schedule_to_text``; malformed text raises ``ScheduleError``."""
    keys = _parse_keyvals(text)
    if "T" not in keys:
        raise ScheduleError("schedule text is missing the key 'T'")
    body = keys.get("schedule", "")
    entries = []
    try:
        total = float(keys["T"])
        if body:
            for item in body.split(","):
                t, q, p = item.strip().split(":")
                entries.append((float(t), int(q), p))
    except ValueError as exc:
        raise ScheduleError(f"malformed schedule text: {exc}") from exc
    return ShockSchedule(tuple(entries), total)


def _parse_keyvals(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParameterError(f"expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


# ---------------------------------------------------------------------------
# Ensemble specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PRSEnsembleSpec:
    """Scrambler + shock count + initial state.

    ``scrambler_kind`` is "haar" (explicit Haar unitary of the initial state's
    dimension, drawn from ``seed``) or "hamiltonian" (one period
    exp(-i H m t_scr), multiplier m >= 2).
    """

    num_shocks: int
    initial_state: qcore.Statevector
    scrambler_kind: str
    seed: int = None
    hamiltonian: qcore.LocalHamiltonian = None
    multiplier: int = None
    scrambling_time: float = None
    _unitary: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.num_shocks < 1:
            raise InvalidParameterError(f"shock count must be >= 1, got {self.num_shocks}")
        if self.scrambler_kind == "haar":
            if self.seed is None:
                raise InvalidParameterError("haar scrambler requires a seed")
        elif self.scrambler_kind == "hamiltonian":
            if self.hamiltonian is None or self.multiplier is None or self.scrambling_time is None:
                raise InvalidParameterError(
                    "hamiltonian scrambler requires hamiltonian, multiplier, scrambling_time")
            if self.multiplier < 2:
                raise InvalidParameterError(f"multiplier must be >= 2, got {self.multiplier}")
            if not math.isfinite(self.scrambling_time):
                raise InvalidParameterError(
                    f"scrambling time must be finite, got {self.scrambling_time}")
            if self.hamiltonian.dimension != self.initial_state.dimension:
                raise DimensionMismatchError("hamiltonian and initial state dimensions differ")
        else:
            raise InvalidParameterError(f"unknown scrambler kind {self.scrambler_kind!r}")

    @property
    def dimension(self) -> int:
        return self.initial_state.dimension

    @property
    def step_time(self) -> float:
        if self.scrambler_kind != "hamiltonian":
            raise InvalidParameterError("step time defined only for hamiltonian scramblers")
        return self.multiplier * self.scrambling_time

    def scramble(self, amps: np.ndarray) -> np.ndarray:
        """U @ amps for a length-d vector or a (d, k) block: the cached Haar draw, or
        exp(-i H m t_scr) applied in H's cached eigenbasis without being formed."""
        if self.scrambler_kind == "hamiltonian":
            return qcore._evolve_amplitudes(self.hamiltonian, self.step_time, amps)
        if self._unitary is None:
            object.__setattr__(self, "_unitary", qcore.haar_unitary(self.dimension, self.seed))
        return self._unitary.matrix @ amps

    def scrambler_unitary(self) -> qcore.UnitaryMatrix:
        """U as a dense matrix, ``scramble`` of the identity, for callers that read its entries."""
        return qcore.UnitaryMatrix._trusted(self.scramble(np.eye(self.dimension, dtype=complex)))


def _site0_qubits(state: qcore.Statevector) -> int:
    """n of a state to shock on site 0, checked as ``qcore.apply_pauli`` checks it."""
    n = state.n_qubits
    if n < 1:
        raise DimensionMismatchError(f"a shock on site 0 does not fit on {n} qubits")
    return n


def prs_state(spec: PRSEnsembleSpec, key: str) -> qcore.Statevector:
    """k_ell U ... k_1 U |phi>: U then the key's Pauli on site 0, ell times.

    The steps run on raw amplitudes; one Statevector (with its norm check) is
    built at the end.
    """
    key = validate_shock_key(key, spec.num_shocks)
    if key.strip("I"):
        n = _site0_qubits(spec.initial_state)
    amps = spec.initial_state.amplitudes
    for label in key:
        amps = spec.scramble(amps)
        if label != "I":
            amps = qcore._apply_site_pauli(amps, label, 0, n)
    return qcore.Statevector(amps)


def shocked_evolution_state(h: qcore.LocalHamiltonian, sched: ShockSchedule,
                            initial: qcore.Statevector) -> qcore.Statevector:
    """Exact evolution segments interleaved with the scheduled Pauli shocks, on raw amplitudes."""
    if h.dimension != initial.dimension:
        raise DimensionMismatchError("hamiltonian and state dimensions differ")
    for _, q, _ in sched.entries:
        if q >= h.n_qubits:
            raise ScheduleError(f"shock site {q} exceeds {h.n_qubits} qubits")
    amps = initial.amplitudes
    t_prev = 0.0
    for t, q, p in sched.entries:
        amps = qcore._evolve_amplitudes(h, t - t_prev, amps)
        amps = qcore._apply_site_pauli(amps, p, q, h.n_qubits)
        t_prev = t
    return qcore.Statevector(qcore._evolve_amplitudes(h, sched.total_time - t_prev, amps))


# ---------------------------------------------------------------------------
# State trees and Gram statistics
# ---------------------------------------------------------------------------

TREE_AMPLITUDE_CAP = 1 << 23  # total complex entries across all nodes


@dataclass(frozen=True)
class StateTree:
    """4-ary tree: children of |phi> are U|phi>, X1 U|phi>, Y1 U|phi>, Z1 U|phi>.

    ``levels[j]`` is a read-only (d, 4^j) block whose column i is ``prs_state`` of
    the j-letter key spelling i in base 4 over I, X, Y, Z, first shock first.
    """

    depth: int
    levels: tuple

    @property
    def node_count(self) -> int:
        return (4 ** (self.depth + 1) - 1) // 3


def build_state_tree(spec: PRSEnsembleSpec, depth: int = None) -> StateTree:
    """Materialize the full tree to ``depth`` (default: the spec's shock count)."""
    if depth is None:
        depth = spec.num_shocks
    if depth < 0:
        raise InvalidParameterError(f"depth must be >= 0, got {depth}")
    count = (4 ** (depth + 1) - 1) // 3
    if count * spec.dimension > TREE_AMPLITUDE_CAP:
        raise ResourceLimitError(
            f"tree of depth {depth} at dimension {spec.dimension} exceeds the memory cap")
    levels = [spec.initial_state.amplitudes[:, None]]
    n = _site0_qubits(spec.initial_state) if depth else 0
    for _ in range(depth):
        scrambled = spec.scramble(levels[-1])
        children = [qcore._apply_site_pauli(scrambled, c, 0, n) for c in SHOCK_LABELS]
        levels.append(np.stack(children, axis=-1).reshape(spec.dimension, -1))
        levels[-1].setflags(write=False)
    return StateTree(depth, tuple(levels))


def gram_matrix(tree: StateTree) -> np.ndarray:
    """|<a|b>|^2 over every ordered pair of tree nodes."""
    v = np.hstack(tree.levels)
    return np.abs(v.T.conj() @ v) ** 2


def near_orthogonality_stat(gram: np.ndarray) -> float:
    """Max squared overlap over distinct node pairs."""
    if gram.shape[0] < 2:
        return 0.0
    off = gram - np.diag(np.diag(gram))
    return float(off.max())


def sibling_pair_overlap(tree: StateTree) -> float:
    """|<U phi | X_1 U phi>|^2: the first two children of the root."""
    if tree.depth < 1:
        raise InvalidParameterError("tree has no children")
    return float(abs(np.vdot(tree.levels[1][:, 0], tree.levels[1][:, 1])) ** 2)


# ---------------------------------------------------------------------------
# Monte Carlo power-overlap moment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentEstimate:
    mean: float
    std_error: float
    trials: int


def moment_power_overlap_mc(d: int, K: int, trials: int, seed) -> MomentEstimate:
    """Monte Carlo E_U |<0| (U^dag)^K X_1 U^K |0>|^2 over Haar U.

    X_1 maps basis index v to v + d/2 (mod d): the first-bit flip when d is a
    power of two, a fixed-point-free shift otherwise. Exact counterpart:
    ``weingarten.power_overlap_exact``.

    The unitaries come from ``qcore.haar_batches``, Stewart's matrix-free
    exact-Haar sampler: U^K |0> costs O(K d^2) per trial and no d x d matrix
    is formed. Trial t draws from ``rng.stream(seed, t)``, so an int seed
    gives per-trial substreams and a Generator is drawn from sequentially.
    """
    if d < 2:
        raise InvalidParameterError(f"dimension must be >= 2, got {d}")
    if K < 1:
        raise InvalidParameterError(f"power must be >= 1, got {K}")
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    # (X psi)[v] = psi[bar^-1(v)] with bar(v) = v + d//2 mod d
    bar_inv = (np.arange(d) - d // 2) % d
    chunks = []
    for batch in qcore.haar_batches(d, trials, seed):
        psi = batch.first_columns()
        for _ in range(K - 1):
            psi = qcore.apply_haar_batch(batch, psi)
        chunks.append(np.abs(np.einsum("ij,ij->i", psi.conj(), psi[:, bar_inv])) ** 2)
    samples = np.concatenate(chunks)
    se = float(samples.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return MomentEstimate(float(samples.mean()), se, trials)


# ---------------------------------------------------------------------------
# Keyed phase states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseStateKey:
    key: int
    n: int

    def __post_init__(self):
        object.__setattr__(self, "key", int(self.key) & (2**64 - 1))
        object.__setattr__(self, "n", int(self.n))
        if not 1 <= self.n <= qcore.MAX_QUBITS:
            raise ResourceLimitError(f"phase states supported for 1 <= n <= {qcore.MAX_QUBITS}")


def _mix_bits(key: int, xs: np.ndarray) -> np.ndarray:
    """splitmix64-style avalanche of (x, key) reduced to the top bit."""
    z = xs + np.uint64(key)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(63)).astype(np.int64)


def phase_state(key: PhaseStateKey) -> qcore.Statevector:
    """2^{-n/2} sum_x (-1)^{f_key(x)} |x>; key 0 means f == 0."""
    d = 1 << key.n
    xs = np.arange(d, dtype=np.uint64)
    bits = np.zeros(d, dtype=np.int64) if key.key == 0 else _mix_bits(key.key, xs)
    amps = (1 - 2 * bits).astype(np.complex128) / math.sqrt(d)
    return qcore.Statevector(amps)


# ---------------------------------------------------------------------------
# Copy-limited distinguishing
# ---------------------------------------------------------------------------

class CopyBudget:
    """Guards the hidden state: every probe consumes copies; overspend raises.

    Strategies see only measurement outcomes, never amplitudes.
    """

    def __init__(self, state: qcore.Statevector, copies: int, g: np.random.Generator):
        if copies < 1:
            raise InvalidParameterError(f"copies must be >= 1, got {copies}")
        self._state = state
        self.copies = copies
        self.used = 0
        self._g = g

    @property
    def remaining(self) -> int:
        return self.copies - self.used

    def _consume(self, k: int):
        if self.used + k > self.copies:
            raise BudgetViolationError(
                f"strategy requested {k} copies with only {self.remaining} of {self.copies} left")
        self.used += k

    def measure_pauli(self, term: qcore.PauliTerm) -> int:
        """One +-1 measurement of a Pauli string; consumes 1 copy."""
        self._consume(1)
        p_plus = (1.0 + qcore.pauli_expectation(term, self._state)) / 2.0
        return 1 if self._g.random() < p_plus else -1

    def swap_test_with(self, reference: qcore.Statevector) -> int:
        """Swap-test outcome (0/1) against a known reference; consumes 1 copy."""
        self._consume(1)
        p_zero = (1.0 + self._state.overlap_sq(reference)) / 2.0
        return 0 if self._g.random() < p_zero else 1

    def swap_test_pair(self) -> int:
        """Swap test between two copies of the hidden state; consumes 2 copies.

        For a pure state the two copies are identical, so the outcome is 0
        with certainty; shipped as the honest baseline probe.
        """
        self._consume(2)
        p_zero = (1.0 + self._state.overlap_sq(self._state)) / 2.0
        return 0 if self._g.random() < p_zero else 1


@dataclass(frozen=True)
class EnsembleDescription:
    """Public face of an ensemble: its name and its sampler of fresh keyed
    states. The construction is public, so an attacker may draw from it too."""

    name: str
    sample: object  # callable(g) -> Statevector


def strategy_swap_test(budget: CopyBudget, desc_a, g) -> bool:
    """Pairwise swap tests between copies; guess 'b' on any outcome 1."""
    outcomes = [budget.swap_test_pair() for _ in range(budget.copies // 2)]
    return not any(outcomes)


def strategy_reference_overlap(budget: CopyBudget, desc_a, g) -> bool:
    """Swap-test each copy against a fresh public reference ``desc_a.sample(g)``;
    guess 'a' only if every test accepts."""
    outcomes = [budget.swap_test_with(desc_a.sample(g)) for _ in range(budget.copies)]
    return sum(outcomes) == 0


def make_energy_strategy(term: qcore.PauliTerm, expected: float):
    """Measure one calibrated Pauli term per copy; guess 'a' when the sample
    mean lands on ensemble a's side of the midpoint between ``expected`` (the
    calibrated ensemble-a value) and 0 (the Haar value)."""
    if expected == 0.0:
        raise InvalidParameterError("calibrated expectation must be nonzero")
    sign = 1.0 if expected > 0 else -1.0

    def strategy(budget: CopyBudget, desc_a, g) -> bool:
        outcomes = [budget.measure_pauli(term) for _ in range(budget.copies)]
        return sign * float(np.mean(outcomes)) > abs(expected) / 2.0

    return strategy


DISTINGUISHER_STRATEGIES = {
    "swap-test": strategy_swap_test,
    "overlap-with-reference": strategy_reference_overlap,
}


def calibrate_energy_strategy(desc: EnsembleDescription, h: qcore.LocalHamiltonian, seed,
                              calibration_draws: int = 32):
    """(strategy, term, mean): the Pauli term of ``h`` with the largest mean |<P>|
    over public calibration draws of ``desc``, and the ``make_energy_strategy``
    built on it; classical side computation, no copy budget involved."""
    g = rng.stream(seed)
    states = [desc.sample(g) for _ in range(calibration_draws)]
    best_term, best_mu = None, 0.0
    for term in h.terms:
        mu = float(np.mean([qcore.pauli_expectation(term, s) for s in states]))
        if abs(mu) > abs(best_mu):
            best_term, best_mu = term, mu
    return make_energy_strategy(best_term, best_mu), best_term, best_mu


@dataclass(frozen=True)
class BiasEstimate:
    successes: int
    trials: int
    copies: int
    max_copies_used: int
    trial_rows: tuple = ()  # (hidden ensemble name, guessed name, correct, copies used)

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials

    @property
    def bias(self) -> float:
        return 2.0 * self.success_rate - 1.0

    def bias_interval(self, z: float = 1.96) -> tuple:
        lo, hi = stats.wilson_interval(self.successes, self.trials, z)
        return (2 * lo - 1, 2 * hi - 1)


def copy_limited_distinguisher(make_pair, copies: int, strategy, trials: int, seed) -> BiasEstimate:
    """Coin-flip game: per trial ``make_pair(g)`` yields the two public
    ensemble descriptions, the coin picks one, the strategy gets exactly
    ``copies`` simulated copies of one secret draw and guesses which ensemble.

    ``strategy`` is a name in DISTINGUISHER_STRATEGIES or a callable
    ``(budget, desc_a, g) -> guess_a``, such as the one
    ``calibrate_energy_strategy`` returns. Reports the bias 2 * success_rate - 1.
    """
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    if isinstance(strategy, str):
        if strategy not in DISTINGUISHER_STRATEGIES:
            raise KeyError(
                f"unknown strategy {strategy!r}; registered: {sorted(DISTINGUISHER_STRATEGIES)}")
        strategy = DISTINGUISHER_STRATEGIES[strategy]
    successes = 0
    max_used = 0
    rows = []
    for t in range(trials):
        g = rng.stream(seed, t)
        desc_a, desc_b = make_pair(g)
        pick_a = bool(g.integers(2))
        hidden = (desc_a if pick_a else desc_b).sample(g)
        budget = CopyBudget(hidden, copies, g)
        guess_a = bool(strategy(budget, desc_a, g))
        correct = guess_a == pick_a
        successes += correct
        max_used = max(max_used, budget.used)
        rows.append(((desc_a if pick_a else desc_b).name,
                     (desc_a if guess_a else desc_b).name, correct, budget.used))
    return BiasEstimate(successes, trials, copies, max_used, tuple(rows))


# ---------------------------------------------------------------------------
# Energy-measurement attack
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VariantEnergy:
    schedule: ShockSchedule
    exact_energy: float
    estimate: float
    std_error: float
    measurements: int


@dataclass(frozen=True)
class PairVerdict:
    resolved: bool
    separation: float
    combined_se: float


@dataclass(frozen=True)
class EnergyAttackResult:
    variants: tuple  # the pair's two VariantEnergy values
    verdict: PairVerdict


def energy_resolution_budget(h: qcore.LocalHamiltonian, pair, shots_per_copy: int,
                             copies: int, max_budget: int, seed, *,
                             initial: qcore.Statevector) -> tuple:
    """Energy-measurement attack on a pair of schedules: (result at the base
    budget copies * shots_per_copy, the smallest doubled budget up to
    ``max_budget`` that resolves the pair, or None).

    At each budget, each variant's state is measured term by term, the budget
    of single-term measurements spread round-robin over the terms; the pair is
    resolved when the estimates differ by more than 3 combined standard errors.
    ``max_budget = 0`` runs the base budget alone. Each budget restarts from
    ``seed`` (a Generator is copied, not advanced); each variant's state, term
    expectations and exact energy are computed once for all budgets.
    """
    if copies < 1 or shots_per_copy < 1 or len(pair) != 2:
        raise InvalidParameterError("need copies >= 1, shots_per_copy >= 1 and two variants")
    prepared = _prepared_variants(h, pair, initial)
    budget = copies * shots_per_copy
    base = res = _energy_attack(h, prepared, budget, copy.deepcopy(seed))
    while not res.verdict.resolved and budget <= max_budget:
        budget *= 2
        if budget <= max_budget:
            res = _energy_attack(h, prepared, budget, copy.deepcopy(seed))
    return base, (budget if budget <= max_budget else None)


def _prepared_variants(h, variants, initial) -> list:
    """(schedule, term expectations <P_i>, exact energy) of each variant; the exact
    energy sums coeff_i <P_i> in ``qcore.energy_expectation``'s order."""
    states = [shocked_evolution_state(h, sched, initial) for sched in variants]
    values = [[qcore.pauli_expectation(t, s) for t in h.terms] for s in states]
    return [(sched, e, sum(t.coefficient * x for t, x in zip(h.terms, e)))
            for sched, e in zip(variants, values)]


def _energy_attack(h, prepared, budget: int, seed) -> EnergyAttackResult:
    n_terms = len(h.terms)
    base, rem = divmod(budget, n_terms)
    shots = [base + (1 if t_idx < rem else 0) for t_idx in range(n_terms)]
    results = []
    for idx, (sched, expectations, exact) in enumerate(prepared):
        est, se = qcore._term_by_term_estimate(h, expectations, shots, rng.stream(seed, idx))
        results.append(VariantEnergy(sched, exact, est, se, budget))
    a, b = results
    sep = abs(a.estimate - b.estimate)
    comb = math.hypot(a.std_error, b.std_error)
    return EnergyAttackResult((a, b), PairVerdict(sep > 3 * comb, sep, comb))


# ---------------------------------------------------------------------------
# Plain-text ensemble configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnsembleConfig:
    """Generating parameters behind a PRSEnsembleSpec, round-trippable as text.

    Documented keys: scrambler (haar|hamiltonian), n, l, m, beta, seed,
    plus g, h (chain couplings), t_scr, initial (zeros|tfd). For initial=tfd,
    ``n`` is the half-chain size and the ensemble lives on 2n qubits.
    """

    scrambler: str
    n: int
    l: int
    seed: int
    m: int = None
    beta: float = None
    g: float = 1.05
    h: float = 0.5
    t_scr: float = None
    initial: str = "zeros"


_CONFIG_FIELDS = ("scrambler", "n", "l", "seed", "m", "beta", "g", "h", "t_scr", "initial")
_REQUIRED_CONFIG_FIELDS = ("scrambler", "n", "l", "seed")


def ensemble_config_to_text(cfg: EnsembleConfig) -> str:
    lines = []
    for name in _CONFIG_FIELDS:
        value = getattr(cfg, name)
        if value is None:
            continue
        if isinstance(value, float):
            lines.append(f"{name} = {value:.17g}")
        else:
            lines.append(f"{name} = {value}")
    return "\n".join(lines) + "\n"


def ensemble_config_from_text(text: str) -> EnsembleConfig:
    keys = _parse_keyvals(text)
    known = set(_CONFIG_FIELDS)
    unknown = set(keys) - known
    if unknown:
        raise InvalidParameterError(f"unknown ensemble config keys: {sorted(unknown)}")
    missing = [name for name in _REQUIRED_CONFIG_FIELDS if name not in keys]
    if missing:
        raise InvalidParameterError(f"ensemble config is missing keys: {missing}")
    kwargs = {}
    for name in ("scrambler", "initial"):
        if name in keys:
            kwargs[name] = keys[name]
    for names, parse in ((("n", "l", "seed", "m"), int), (("beta", "g", "h", "t_scr"), float)):
        for name in names:
            if name in keys:
                try:
                    kwargs[name] = parse(keys[name])
                except ValueError as exc:
                    raise InvalidParameterError(
                        f"ensemble config key {name} = {keys[name]!r} is not {parse.__name__}"
                    ) from exc
    return EnsembleConfig(**kwargs)


def build_ensemble_spec(cfg: EnsembleConfig) -> PRSEnsembleSpec:
    """Materialize the spec described by a configuration."""
    if cfg.initial not in ("zeros", "tfd"):
        raise InvalidParameterError(f"initial must be zeros or tfd, got {cfg.initial!r}")
    if cfg.scrambler == "haar":
        if cfg.initial != "zeros":
            raise InvalidParameterError("haar scrambler supports initial = zeros")
        return PRSEnsembleSpec(cfg.l, qcore.zero_state(cfg.n), "haar", seed=cfg.seed)
    if cfg.scrambler != "hamiltonian":
        raise InvalidParameterError(f"unknown scrambler {cfg.scrambler!r}")
    half = qcore.build_hamiltonian(cfg.n, cfg.g, cfg.h)
    t_scr = cfg.t_scr
    if t_scr is None:
        t_scr = qcore.scrambling_time(half, 0.1, cfg.seed)
    if cfg.initial == "tfd":
        if cfg.beta is None:
            raise InvalidParameterError("initial = tfd requires beta")
        ham = qcore.doubled_hamiltonian(half)
        initial = qcore.tfd_state(half, cfg.beta)
    else:
        ham = half
        initial = qcore.zero_state(cfg.n)
    m = cfg.m if cfg.m is not None else 2
    return PRSEnsembleSpec(cfg.l, initial, "hamiltonian",
                           hamiltonian=ham, multiplier=m, scrambling_time=t_scr)
