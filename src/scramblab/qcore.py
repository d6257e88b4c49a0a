"""Dense statevector and operator algebra.

Haar sampling, Pauli-string action, mixed-field Ising chains, exact time
evolution by eigendecomposition, thermofield-double construction, energy
estimation, and out-of-time-order correlators, all at desk scale (n <= 12
qubits, dimension <= 4096).

Conventions
-----------
- Site 0 is the *first* qubit and corresponds to the most significant bit of
  a computational-basis index, so applying X at site 0 to |00...0> yields
  |10...0>.
- Evolution is exact: ``evolve(h, t, s)`` returns exp(-i*H*t)|s>, using a
  per-Hamiltonian cached eigendecomposition (single-writer fill; safe for
  concurrent reads afterwards). The basis change evecs^dag @ s is taken as
  (s^dag @ evecs)^dag, so no conjugated d x d copy of the eigenvectors is
  built per call; nothing beyond the eigensystem itself is cached.
- OTOCs are trial-batched: the Haar states and their V-shocked copies form
  the columns of one d x 2k block, moved into the eigenbasis once, and each
  grid time costs three block products with the eigenvectors.
  ``scrambling_curve`` walks the grid once and returns both the scrambling
  time and the averaged |OTOC| curve.
- All values are immutable after construction; operations are pure given
  their ``seed`` argument (an int or a numpy Generator, see ``rng.stream``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import (
    DimensionMismatchError,
    InvalidDimensionError,
    InvalidParameterError,
    NoScramblingError,
    ResourceLimitError,
)

NORM_ATOL = 1e-10
MAX_QUBITS = 12

PAULI_LABELS = "IXYZ"


@dataclass(frozen=True)
class Statevector:
    """Unit-norm dense state. ``amplitudes`` is read-only after construction."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128, copy=True)
        if amps.ndim != 1 or amps.size < 1:
            raise InvalidDimensionError("statevector must be a non-empty 1-d array")
        sq = float(np.sum(np.abs(amps) ** 2))
        if abs(sq - 1.0) > NORM_ATOL:
            raise InvalidParameterError(f"statevector norm^2 = {sq!r}, not 1 within {NORM_ATOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dimension(self) -> int:
        return self.amplitudes.size

    @property
    def n_qubits(self) -> int:
        n = self.dimension.bit_length() - 1
        if 1 << n != self.dimension:
            raise InvalidDimensionError(f"dimension {self.dimension} is not a power of two")
        return n

    def overlap_sq(self, other: "Statevector") -> float:
        return float(abs(inner_product(self, other)) ** 2)


@dataclass(frozen=True)
class UnitaryMatrix:
    """Dense d x d unitary; unitarity is verified for d <= 512 (O(d^3) check)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise InvalidDimensionError("unitary must be a square matrix")
        if m.shape[0] <= 512:
            dev = np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0])))
            if dev > NORM_ATOL:
                raise InvalidParameterError(f"matrix is not unitary: max |UU^dag - I| = {dev:g}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class PauliTerm:
    """A weighted Pauli string: ``coefficient`` * prod_i label_i(site_i).

    Identity labels are stripped at construction; an empty support represents
    the identity term. ``apply_pauli`` applies only the string (unit weight);
    the coefficient is used by Hamiltonian-level operations.
    """

    sites: tuple
    labels: str
    coefficient: float = 1.0

    def __post_init__(self):
        sites = tuple(int(q) for q in self.sites)
        labels = str(self.labels).upper()
        if len(sites) != len(labels):
            raise InvalidParameterError("sites and labels must have equal length")
        if any(c not in PAULI_LABELS for c in labels):
            raise InvalidParameterError(f"labels must be over {PAULI_LABELS!r}, got {labels!r}")
        if len(set(sites)) != len(sites):
            raise InvalidParameterError("sites must be distinct")
        kept = [(q, c) for q, c in zip(sites, labels) if c != "I"]
        kept.sort()
        object.__setattr__(self, "sites", tuple(q for q, _ in kept))
        object.__setattr__(self, "labels", "".join(c for _, c in kept))
        object.__setattr__(self, "coefficient", float(self.coefficient))

    @classmethod
    def single(cls, site: int, label: str, coefficient: float = 1.0) -> "PauliTerm":
        return cls((site,), label, coefficient)

    @property
    def weight(self) -> int:
        return len(self.sites)

    def is_identity(self) -> bool:
        return self.weight == 0

    def shifted(self, offset: int) -> "PauliTerm":
        return PauliTerm(tuple(q + offset for q in self.sites), self.labels, self.coefficient)


@dataclass(eq=False)
class LocalHamiltonian:
    """Sum of 1- and 2-local Pauli terms on a line of ``n_qubits`` sites.

    Hermitian by construction (real coefficients); 2-site terms must act on
    contiguous sites. The eigendecomposition is computed lazily once and
    cached on the instance.
    """

    n_qubits: int
    terms: tuple
    _eig: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.n_qubits = int(self.n_qubits)
        self.terms = tuple(self.terms)
        if self.n_qubits < 1:
            raise InvalidParameterError("need at least one site")
        for t in self.terms:
            if not isinstance(t, PauliTerm):
                raise InvalidParameterError("terms must be PauliTerm instances")
            if t.weight > 2:
                raise InvalidParameterError(f"term {t} has support > 2 sites")
            if t.weight == 2 and abs(t.sites[0] - t.sites[1]) != 1:
                raise InvalidParameterError(f"2-site term {t} is not contiguous")
            if t.sites and max(t.sites) >= self.n_qubits:
                raise InvalidParameterError(f"term {t} exceeds {self.n_qubits} sites")

    @property
    def dimension(self) -> int:
        return 1 << self.n_qubits

    def dense_matrix(self) -> np.ndarray:
        """Dense matrix of the Hamiltonian (real when no Y labels appear)."""
        d = self.dimension
        has_y = any("Y" in t.labels for t in self.terms)
        h = np.zeros((d, d), dtype=np.complex128 if has_y else np.float64)
        x = np.arange(d)
        for t in self.terms:
            flip = 0
            phase = np.full(d, t.coefficient, dtype=h.dtype)
            for q, c in zip(t.sites, t.labels):
                bit = (x >> (self.n_qubits - 1 - q)) & 1
                if c == "X":
                    flip ^= 1 << (self.n_qubits - 1 - q)
                elif c == "Z":
                    phase = phase * (1 - 2 * bit)
                elif c == "Y":
                    flip ^= 1 << (self.n_qubits - 1 - q)
                    phase = phase * 1j * (1 - 2 * bit)
            h[x ^ flip, x] += phase
        return h

    def eigensystem(self):
        """(eigenvalues, eigenvectors) of the dense matrix, cached."""
        if self._eig is None:
            if self.n_qubits > MAX_QUBITS:
                raise ResourceLimitError(
                    f"eigendecomposition limited to {MAX_QUBITS} qubits, got {self.n_qubits}")
            evals, evecs = np.linalg.eigh(self.dense_matrix())
            evecs = np.ascontiguousarray(evecs.astype(np.complex128))
            self._eig = (evals, evecs)
        return self._eig


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------

def haar_unitary(d: int, seed) -> UnitaryMatrix:
    """Exactly Haar-distributed d x d unitary.

    Complex Ginibre matrix followed by QR, with the R diagonal's phases folded
    back into Q so the distribution is exactly Haar rather than merely
    approximately so.
    """
    if d < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {d}")
    g = rng.stream(seed)
    z = (g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    q = q * (diag / np.abs(diag))
    return UnitaryMatrix(q)


def haar_state(d: int, seed) -> Statevector:
    """Haar-random unit vector: normalized complex Gaussian."""
    if d < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {d}")
    g = rng.stream(seed)
    z = g.standard_normal(d) + 1j * g.standard_normal(d)
    return Statevector(z / np.linalg.norm(z))


# ---------------------------------------------------------------------------
# Linear-algebra primitives
# ---------------------------------------------------------------------------

def apply_unitary(u: UnitaryMatrix, s: Statevector) -> Statevector:
    if u.dimension != s.dimension:
        raise DimensionMismatchError(f"unitary dim {u.dimension} != state dim {s.dimension}")
    return Statevector(u.matrix @ s.amplitudes)


def _apply_site_pauli(amps: np.ndarray, label: str, site: int, n: int) -> np.ndarray:
    """Single-site Pauli on the rows of a length-d vector or a (d, k) column block."""
    view = amps.reshape(1 << site, 2, -1)
    out = np.empty_like(view)
    if label == "X":
        out[:, 0, :] = view[:, 1, :]
        out[:, 1, :] = view[:, 0, :]
    elif label == "Y":
        out[:, 0, :] = -1j * view[:, 1, :]
        out[:, 1, :] = 1j * view[:, 0, :]
    elif label == "Z":
        out[:, 0, :] = view[:, 0, :]
        out[:, 1, :] = -view[:, 1, :]
    else:
        out[:] = view
    return out.reshape(amps.shape)


def apply_pauli(p: PauliTerm, s: Statevector) -> Statevector:
    """Apply the Pauli string of ``p`` (unit weight; coefficient ignored)."""
    n = s.n_qubits
    if p.sites and max(p.sites) >= n:
        raise DimensionMismatchError(f"term {p} does not fit on {n} qubits")
    amps = np.array(s.amplitudes, copy=True)
    for q, c in zip(p.sites, p.labels):
        amps = _apply_site_pauli(amps, c, q, n)
    return Statevector(amps)


def inner_product(a: Statevector, b: Statevector) -> complex:
    """<a|b> (conjugate-linear in the first argument)."""
    if a.dimension != b.dimension:
        raise DimensionMismatchError(f"dims {a.dimension} != {b.dimension}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def zero_state(n: int) -> Statevector:
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = 1.0
    return Statevector(amps)


# ---------------------------------------------------------------------------
# Hamiltonians and evolution
# ---------------------------------------------------------------------------

def build_hamiltonian(n: int, g: float, h: float) -> LocalHamiltonian:
    """Mixed-field Ising chain, open boundary:

        H = sum_i Z_i Z_{i+1} + g * sum_i X_i + h * sum_i Z_i

    The chaotic reference point used throughout is (g, h) = (1.05, 0.5);
    g = h = 0 gives the classical (diagonal, integrable) chain. Zero-weight
    field terms are omitted.
    """
    if n < 2:
        raise InvalidParameterError(f"chain needs n >= 2 sites, got {n}")
    terms = [PauliTerm((i, i + 1), "ZZ", 1.0) for i in range(n - 1)]
    if g != 0.0:
        terms += [PauliTerm.single(i, "X", g) for i in range(n)]
    if h != 0.0:
        terms += [PauliTerm.single(i, "Z", h) for i in range(n)]
    return LocalHamiltonian(n, tuple(terms))


def doubled_hamiltonian(h_half: LocalHamiltonian) -> LocalHamiltonian:
    """Two commuting copies H (x) I + I (x) H on 2n sites (left block first)."""
    n = h_half.n_qubits
    terms = tuple(h_half.terms) + tuple(t.shifted(n) for t in h_half.terms)
    return LocalHamiltonian(2 * n, terms)


def evolve(h: LocalHamiltonian, t: float, s: Statevector) -> Statevector:
    """exp(-i*H*t)|s> via the cached eigendecomposition of H."""
    if h.dimension != s.dimension:
        raise DimensionMismatchError(f"hamiltonian dim {h.dimension} != state dim {s.dimension}")
    evals, evecs = h.eigensystem()
    phases = np.exp(-1j * evals * t)
    return Statevector(evecs @ (phases * _to_eigenbasis(evecs, s.amplitudes)))


def _to_eigenbasis(evecs: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """evecs^dag @ amps for a vector or a (d, k) block, without a conjugated d x d copy."""
    return (amps.T.conj() @ evecs).conj().T


def evolution_unitary(h: LocalHamiltonian, t: float) -> UnitaryMatrix:
    """Dense exp(-i*H*t)."""
    evals, evecs = h.eigensystem()
    return UnitaryMatrix(evecs @ (np.exp(-1j * evals * t)[:, None] * evecs.conj().T))


def tfd_state(h_half: LocalHamiltonian, beta: float) -> Statevector:
    """Thermofield double of two copies of ``h_half``.

    Normalized sum_i w(E_i) |i>_L |i*>_R with weights w(E_i) = exp(-beta*E_i/2),
    so the left reduced state is the Gibbs state of ``h_half`` at ``beta``.
    The left block occupies the first (most significant) n sites. Weights are
    shifted by the ground energy before exponentiation, so large beta is safe.
    """
    if beta < 0:
        raise InvalidParameterError(f"beta must be >= 0, got {beta}")
    if h_half.n_qubits > MAX_QUBITS // 2:
        raise ResourceLimitError(
            f"tfd output lives on 2n = {2 * h_half.n_qubits} > {MAX_QUBITS} qubits")
    evals, evecs = h_half.eigensystem()
    w = np.exp(-beta * (evals - evals.min()) / 2.0)
    w /= np.linalg.norm(w)
    m = (evecs * w) @ evecs.conj().T
    return Statevector(m.reshape(-1))


# ---------------------------------------------------------------------------
# Energy measurement
# ---------------------------------------------------------------------------

def pauli_expectation(p: PauliTerm, s: Statevector) -> float:
    """<s| string(p) |s> (real; coefficient not applied)."""
    return float(np.real(inner_product(s, apply_pauli(p, s))))


def energy_expectation(h: LocalHamiltonian, s: Statevector) -> float:
    """Exact <s|H|s>."""
    if h.dimension != s.dimension:
        raise DimensionMismatchError(f"hamiltonian dim {h.dimension} != state dim {s.dimension}")
    return sum(t.coefficient * pauli_expectation(t, s) for t in h.terms)


@dataclass(frozen=True)
class EnergyEstimate:
    estimate: float
    std_error: float
    shots: int
    copies_used: int


def sample_energy_measurement(h: LocalHamiltonian, s: Statevector, shots: int, seed) -> EnergyEstimate:
    """Simulated term-by-term energy estimate.

    Each shot measures every Pauli term once, consuming one fresh state copy
    per term (copies_used = shots * #terms). Outcomes are +-1 samples with the
    exact term expectations; the standard error combines per-term sample
    variances (a shot count of 1 falls back to the worst-case variance 1).
    """
    if shots < 1:
        raise InvalidParameterError(f"shots must be >= 1, got {shots}")
    g = rng.stream(seed)
    est = 0.0
    var = 0.0
    for t in h.terms:
        p_plus = (1.0 + pauli_expectation(t, s)) / 2.0
        outcomes = np.where(g.random(shots) < p_plus, 1.0, -1.0)
        mean = float(outcomes.mean())
        est += t.coefficient * mean
        v = float(outcomes.var(ddof=1)) if shots > 1 else 1.0
        var += t.coefficient**2 * v / shots
    return EnergyEstimate(est, math.sqrt(var), shots, shots * len(h.terms))


# ---------------------------------------------------------------------------
# Scrambling diagnostics
# ---------------------------------------------------------------------------

def _otoc_kernel(h: LocalHamiltonian, w: PauliTerm, v: PauliTerm, states):
    """F(t) = <s| W(t)^dag V^dag W(t) V |s> of every state, as a function of t.

    The states and their V-shocked copies are the 2k columns of one block,
    moved into the eigenbasis once. Each call evolves the block forward,
    applies W, evolves it back and applies V to the unshocked half:
    F_j = <V W(t) s_j | W(t) V s_j>. No d x d array beyond the cached
    eigenvectors is built.
    """
    if w.weight != 1 or v.weight != 1:
        raise InvalidParameterError("otoc expects single-qubit Paulis")
    n = h.n_qubits
    if max(w.sites[0], v.sites[0]) >= n:
        raise DimensionMismatchError(f"probes {w}, {v} do not fit on {n} qubits")
    evals, evecs = h.eigensystem()
    block = np.stack([s.amplitudes for s in states], axis=1)
    k = block.shape[1]
    shocked = _apply_site_pauli(block, v.labels, v.sites[0], n)
    coeffs = _to_eigenbasis(evecs, np.hstack([block, shocked]))

    def at(t: float) -> np.ndarray:
        phases = np.exp(-1j * evals * t)[:, None]
        y = _apply_site_pauli(evecs @ (phases * coeffs), w.labels, w.sites[0], n)
        y = evecs @ (phases.conj() * _to_eigenbasis(evecs, y))
        vw = _apply_site_pauli(y[:, :k], v.labels, v.sites[0], n)
        return np.einsum("ij,ij->j", vw.conj(), y[:, k:])

    return at


def otoc(h: LocalHamiltonian, t: float, w: PauliTerm, v: PauliTerm, s: Statevector) -> complex:
    """<s| W(t)^dag V^dag W(t) V |s> for single-qubit Paulis W, V."""
    if h.dimension != s.dimension:
        raise DimensionMismatchError(f"hamiltonian dim {h.dimension} != state dim {s.dimension}")
    return complex(_otoc_kernel(h, w, v, [s])(t)[0])


def scrambling_curve(h: LocalHamiltonian, threshold: float, seed, *,
                     w: PauliTerm = None, v: PauliTerm = None,
                     trials: int = 8, time_step: float = 0.25,
                     extra_points: int = 0) -> tuple:
    """(t_scr, values): the scrambling time and the trial-averaged |OTOC| on its grid.

    t_scr is the smallest grid time where the trial-averaged |OTOC| at
    infinite temperature drops below threshold * (initial value). The
    infinite-temperature average is estimated over ``trials`` Haar states;
    the grid runs in steps of ``time_step`` up to 50*n. Defaults probe
    W = X on site 0 against V = Z on site n-1. ``values[k]`` is the average
    at t = k * time_step for k = 0 .. round(t_scr / time_step) + extra_points.
    Exhausting the grid raises ``NoScramblingError`` carrying the final
    averaged |OTOC|.
    """
    if not 0.0 < threshold < 1.0:
        raise InvalidParameterError(f"threshold must be in (0, 1), got {threshold}")
    if extra_points < 0:
        raise InvalidParameterError(f"extra_points must be >= 0, got {extra_points}")
    n = h.n_qubits
    if w is None:
        w = PauliTerm.single(0, "X")
    if v is None:
        v = PauliTerm.single(n - 1, "Z")
    states = [haar_state(h.dimension, rng.stream(seed, i)) for i in range(trials)]
    kernel = _otoc_kernel(h, w, v, states)

    def averaged(t):
        return float(np.mean(np.abs(kernel(t))))

    values = [averaged(0.0)]
    t_max = 50.0 * n
    steps = int(round(t_max / time_step))
    for k in range(1, steps + 1):
        values.append(averaged(k * time_step))
        if values[-1] < threshold * values[0]:
            values += [averaged(j * time_step) for j in range(k + 1, k + extra_points + 1)]
            return k * time_step, values
    raise NoScramblingError(
        f"|OTOC| never fell below {threshold} * {values[0]:g} by t = {t_max:g}", values[-1])


def scrambling_time(h: LocalHamiltonian, threshold: float, seed, *,
                    w: PauliTerm = None, v: PauliTerm = None,
                    trials: int = 8, time_step: float = 0.25) -> float:
    """The scrambling time of ``scrambling_curve`` (same arguments and defaults)."""
    return scrambling_curve(h, threshold, seed, w=w, v=v, trials=trials, time_step=time_step)[0]
