"""Dense statevector and operator algebra.

Haar sampling, Pauli-string action, mixed-field Ising chains, exact time
evolution by eigendecomposition, thermofield-double construction, energy
estimation, and out-of-time-order correlators, all at desk scale: dense
eigensystems up to n = 12 qubits (dimension 4096), and thermofield doubles
up to 2 x 10 qubits, which are evolved through their half chain.

Conventions
-----------
- Site 0 is the *first* qubit and corresponds to the most significant bit of
  a computational-basis index, so applying X at site 0 to |00...0> yields
  |10...0>.
- Evolution is exact: ``evolve(h, t, s)`` returns exp(-i*H*t)|s>, using a
  per-Hamiltonian cached eigendecomposition (single-writer fill; safe for
  concurrent reads afterwards). The basis change evecs^dag @ s is taken as
  (s^dag @ evecs)^dag, so no conjugated d x d copy of the eigenvectors is
  built per call; nothing beyond the eigensystem itself is cached. No dense
  exp(-i*H*t) is formed: ``prslab``'s shock walks take the same eigenbasis
  step on raw vectors and (d, k) blocks. A chain without Y terms keeps the
  real eigenvectors ``eigh`` returns, and a real basis multiplies complex
  amplitudes as one real product on their interleaved (re, im) columns.
- A doubled chain H (x) I + I (x) H from ``doubled_hamiltonian`` records its
  half chain. States on it stay flat 4^n vectors in the L (x) R layout that
  ``tfd_state`` builds; evolution reshapes each to a (d_half, d_half) matrix M
  and returns U M U^T with U = exp(-i*H_half*t) from the half chain's
  eigensystem. The doubled chain's own ``eigensystem()`` is still the dense
  one, for callers that read it.
- OTOCs are trial-batched: the Haar states and their V-shocked copies form
  the columns of one d x 2k block, moved into the eigenbasis once, and each
  grid time costs three block products with the eigenvectors.
  ``scrambling_curve`` walks the grid once with fixed probes, W = X on site 0
  and V = Z on site n-1, and returns both the scrambling time and the
  averaged |OTOC| curve; ``otoc`` takes any single-qubit probes.
- Haar unitaries come two ways. ``haar_unitary`` forms a dense U (Ginibre +
  QR + phase fix), for a U that is reused or whose entries are read;
  ``haar_unitaries`` draws a stack of them with one stacked QR, bit for bit
  the same matrices.
  ``haar_batches`` yields trial batches in Stewart's factored form, applied
  to vectors in O(d^2) without forming U. ``stream_batches`` is the one trial
  batcher: it cuts trials into lists of per-trial streams, for this sampler
  and for ``weingarten.haar_moment_mc``'s dense stacks. Unitaries the
  package builds skip ``UnitaryMatrix``'s O(d^3) unitarity check;
  user-supplied matrices keep it.
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
    as_index,
)

NORM_ATOL = 1e-10
MAX_QUBITS = 12      # dense eigensystems
MAX_TFD_QUBITS = 20  # thermofield doubles: 4^10 amplitudes, 16 MB
MAX_GRID_POINTS = 10**6  # scrambling_curve's grid; the default has 200 n points

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
        if not abs(sq - 1.0) <= NORM_ATOL:
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
    """Dense d x d unitary, read-only after construction.

    A matrix given to the constructor is copied, checked to be finite and, for
    d <= 512, checked for unitarity (an O(d^3) product). Unitaries the package
    builds itself (``haar_unitary``, ``scrambler_unitary``) are unitary by
    construction and skip the checks through the private ``_trusted`` path.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise InvalidDimensionError("unitary must be a square matrix")
        if not np.isfinite(m).all():
            raise InvalidParameterError("matrix has non-finite entries")
        if m.shape[0] <= 512:
            dev = np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0])))
            if not dev <= NORM_ATOL:
                raise InvalidParameterError(f"matrix is not unitary: max |UU^dag - I| = {dev:g}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _trusted(cls, m: np.ndarray) -> "UnitaryMatrix":
        """Wrap a fresh complex128 unitary this package computed, without copy or check."""
        u = object.__new__(cls)
        m.setflags(write=False)
        object.__setattr__(u, "matrix", m)
        return u

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
        sites = tuple(as_index(q) for q in self.sites)
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
        coefficient = float(self.coefficient)
        if not math.isfinite(coefficient):
            raise InvalidParameterError(f"coefficient must be finite, got {coefficient}")
        object.__setattr__(self, "coefficient", coefficient)

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
    cached on the instance. A chain built by ``doubled_hamiltonian`` records
    its half chain, through which it is evolved.
    """

    n_qubits: int
    terms: tuple
    _eig: object = field(default=None, init=False, repr=False, compare=False)
    _half: object = field(default=None, init=False, repr=False, compare=False)

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
        """(eigenvalues, eigenvectors) of the dense matrix, cached.

        The eigenvectors are real (float64) when no term has a Y label, as
        ``eigh`` returns them for the real symmetric matrix, and complex
        otherwise. A doubled chain's eigensystem is dense too; evolution does
        not read it.
        """
        if self._eig is None:
            if self.n_qubits > MAX_QUBITS:
                raise ResourceLimitError(
                    f"eigendecomposition limited to {MAX_QUBITS} qubits, got {self.n_qubits}")
            evals, evecs = np.linalg.eigh(self.dense_matrix())
            self._eig = (evals, np.ascontiguousarray(evecs))
        return self._eig


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------

def haar_unitaries(d: int, streams) -> np.ndarray:
    """(B, d, d) stack of exactly Haar-distributed unitaries, one per generator.

    Each generator draws a complex Ginibre matrix (real parts, then imaginary
    parts); one stacked QR factors them all, and the R diagonal's phases are
    folded back into Q so the distribution is exactly Haar rather than merely
    approximately so. Row b equals ``haar_unitary(d, streams[b])`` bit for bit.
    """
    if d < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {d}")
    z = np.empty((len(streams), d, d), dtype=np.complex128)
    for zb, g in zip(z, streams):
        zb[...] = (g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def haar_unitary(d: int, seed) -> UnitaryMatrix:
    """Exactly Haar-distributed d x d unitary: ``haar_unitaries`` on one stream."""
    return UnitaryMatrix._trusted(haar_unitaries(d, [rng.stream(seed)])[0])


HAAR_BATCH_ENTRIES = 1 << 16  # packed reflector entries per HaarBatch (about 1 MB)


@dataclass(frozen=True)
class HaarBatch:
    """B exactly Haar d x d unitaries in Stewart's factored form, never formed densely.

    U = H_0 (1 (+) H_1) ... (I_{d-1} (+) H_{d-1}) diag(phases), where
    H_k = I - scales[k] u_k u_k^dag acts on C^(d-k) and u_k is stored packed:
    its d - k entries start at column k*d - k*(k-1)/2 of ``vectors``.
    """

    vectors: np.ndarray   # (B, d(d+1)/2) complex
    scales: np.ndarray    # (B, d) real
    phases: np.ndarray    # (B, d) unit complex

    @property
    def size(self) -> int:
        return self.phases.shape[0]

    @property
    def dimension(self) -> int:
        return self.phases.shape[1]

    def first_columns(self) -> np.ndarray:
        """(B, d): U e_0 of every unitary; only the first reflector touches e_0."""
        d = self.dimension
        u0 = self.vectors[:, :d]
        coef = self.phases[:, 0] * self.scales[:, 0] * u0[:, 0].conj()
        col = -coef[:, None] * u0
        col[:, 0] += self.phases[:, 0]
        return col


def _reflector_offsets(d: int) -> np.ndarray:
    k = np.arange(d)
    return k * d - k * (k - 1) // 2


def haar_batch(d: int, streams) -> HaarBatch:
    """One exactly Haar d x d unitary per generator in ``streams``, in Stewart's form.

    Stewart's sequential-Householder construction (G. W. Stewart, SIAM J.
    Numer. Anal. 17, 1980; F. Mezzadri, arXiv:math-ph/0609050): step k takes a
    fresh complex Gaussian x_k in C^(d-k) and the reflector H_k that maps x_k
    to -e^{i theta_k} |x_k| e_0, where theta_k is the phase of x_k's first
    entry; the diagonal phase is -e^{i theta_k}. This is the law of Ginibre +
    QR + phase fix (``haar_unitary``): after k reflections the trailing
    Ginibre columns are fresh Gaussians independent of the earlier steps. It
    draws d(d+1)/2 complex Gaussians per unitary, half of Ginibre's d^2, and
    each generator's draws are taken in one call, in batch order.
    """
    if d < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {d}")
    offsets = _reflector_offsets(d)
    vectors = np.empty((len(streams), d * (d + 1) // 2), dtype=np.complex128)
    flat = vectors.view(np.float64)
    for row, g in zip(flat, streams):
        g.standard_normal(out=row)
    norms = np.sqrt(np.add.reduceat(flat * flat, 2 * offsets, axis=1))
    heads = vectors[:, offsets]
    head_abs = np.abs(heads)
    phases = heads / head_abs
    vectors[:, offsets] = heads + phases * norms
    return HaarBatch(vectors, 1.0 / (norms * (norms + head_abs)), -phases)


def stream_batches(trials: int, seed, entries: int):
    """Yield ``rng.stream(seed, t)`` for trials t = 0 .. trials-1 in order, in lists of
    about HAAR_BATCH_ENTRIES // ``entries`` trials for a sampler of ``entries`` numbers
    per trial. An int seed gives each trial its own substream; a Generator is drawn
    from sequentially. So no draw depends on where the lists split."""
    size = max(1, HAAR_BATCH_ENTRIES // entries)
    for start in range(0, trials, size):
        yield [rng.stream(seed, t) for t in range(start, min(trials, start + size))]


def haar_batches(d: int, trials: int, seed):
    """HaarBatch objects covering trials 0 .. trials-1 in order, one per
    ``stream_batches`` list of about HAAR_BATCH_ENTRIES packed reflector entries."""
    if d < 1:
        raise InvalidDimensionError(f"dimension must be >= 1, got {d}")
    return (haar_batch(d, streams) for streams in stream_batches(trials, seed, d * (d + 1) // 2))


def apply_haar_batch(batch: HaarBatch, block: np.ndarray) -> np.ndarray:
    """(B, d) block whose row b is U_b @ block[b], in O(d^2) per row."""
    d = batch.dimension
    if block.shape != (batch.size, d):
        raise DimensionMismatchError(
            f"block shape {block.shape} != ({batch.size}, {d}) for this batch")
    v = batch.phases * block
    lengths = np.arange(d, 0, -1)
    scaled_conj = batch.vectors.conj() * np.repeat(batch.scales, lengths, axis=1)
    for k, lo in zip(range(d - 1, -1, -1), _reflector_offsets(d)[::-1].tolist()):
        seg = slice(lo, lo + d - k)
        w = v[:, k:]
        c = scaled_conj[:, None, seg] @ w[:, :, None]
        w -= batch.vectors[:, seg] * c[:, 0]
    return v


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


def _apply_site_pauli(amps: np.ndarray, label: str, site: int) -> np.ndarray:
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
        amps = _apply_site_pauli(amps, c, q)
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
    """Two commuting copies H (x) I + I (x) H on 2n sites (left block first).

    The result records ``h_half``, so evolving it needs only the half chain's
    eigensystem (see ``_evolve_amplitudes``).
    """
    n = h_half.n_qubits
    terms = tuple(h_half.terms) + tuple(t.shifted(n) for t in h_half.terms)
    doubled = LocalHamiltonian(2 * n, terms)
    doubled._half = h_half
    return doubled


def evolve(h: LocalHamiltonian, t: float, s: Statevector) -> Statevector:
    """exp(-i*H*t)|s> via the cached eigendecomposition of H."""
    if h.dimension != s.dimension:
        raise DimensionMismatchError(f"hamiltonian dim {h.dimension} != state dim {s.dimension}")
    return Statevector(_evolve_amplitudes(h, t, s.amplitudes))


def _evolve_amplitudes(h: LocalHamiltonian, t: float, amps: np.ndarray) -> np.ndarray:
    """exp(-i*H*t) on a length-d vector or a (d, k) column block, in the cached eigenbasis.

    A doubled chain is evolved through its half chain: each column, reshaped
    to the (d_half, d_half) matrix M of its L (x) R layout, becomes U M U^T with
    U = exp(-i*H_half*t). That is two left products by U, each followed by a
    transpose of M, so no 2n-qubit eigensystem is built.
    """
    half = h._half
    if half is not None:
        d = half.dimension
        m = amps.reshape(d, d, -1)
        for _ in range(2):
            m = _evolve_amplitudes(half, t, m.reshape(d, -1)).reshape(d, d, -1).transpose(1, 0, 2)
        return m.reshape(amps.shape)
    evals, evecs = h.eigensystem()
    phases = np.exp(-1j * evals * t).reshape((-1,) + (1,) * (amps.ndim - 1))
    return _basis_product(evecs, phases * _to_eigenbasis(evecs, amps))


def _basis_product(basis: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """basis @ amps for complex amplitudes (a vector or a (d, k) block).

    A real basis multiplies the amplitudes' interleaved (re, im) columns as one
    real product, at half the cost of a complex one.
    """
    if np.iscomplexobj(basis):
        return basis @ amps
    amps = np.ascontiguousarray(amps, dtype=np.complex128)
    re_im = amps.view(np.float64).reshape(amps.shape[0], -1)
    return (basis @ re_im).view(np.complex128).reshape(amps.shape)


def _to_eigenbasis(evecs: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """evecs^dag @ amps for a vector or a (d, k) block, without a conjugated d x d copy."""
    if np.iscomplexobj(evecs):
        return (amps.T.conj() @ evecs).conj().T
    return _basis_product(evecs.T, amps)


def tfd_state(h_half: LocalHamiltonian, beta: float) -> Statevector:
    """Thermofield double of two copies of ``h_half``.

    Normalized sum_i w(E_i) |i>_L |i*>_R with weights w(E_i) = exp(-beta*E_i/2),
    so the left reduced state is the Gibbs state of ``h_half`` at ``beta``.
    The left block occupies the first (most significant) n sites. Weights are
    shifted by the ground energy before exponentiation, so large beta is safe.
    Only the half chain's eigensystem is built, so n may reach
    MAX_TFD_QUBITS / 2 = 10, a limit on the state's memory; the doubled chain
    evolves the state through the same half eigensystem.
    """
    if not 0 <= beta < math.inf:
        raise InvalidParameterError(f"beta must be finite and >= 0, got {beta}")
    if 2 * h_half.n_qubits > MAX_TFD_QUBITS:
        raise ResourceLimitError(
            f"tfd output lives on 2n = {2 * h_half.n_qubits} > {MAX_TFD_QUBITS} qubits")
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
    expectations = [pauli_expectation(t, s) for t in h.terms]
    est, se = _term_by_term_estimate(h, expectations, [shots] * len(h.terms), rng.stream(seed))
    return EnergyEstimate(est, se, shots, shots * len(h.terms))


def _term_by_term_estimate(h: LocalHamiltonian, expectations, shots, g) -> tuple:
    """(estimate, std_error) of <H> from +-1 outcomes of mean ``expectations[i]``, ``shots[i]``
    for term i; terms with zero shots are skipped, one shot counts the worst-case variance 1."""
    est = 0.0
    var = 0.0
    for t, e, m in zip(h.terms, expectations, shots):
        if m == 0:
            continue
        p_plus = (1.0 + e) / 2.0
        outcomes = np.where(g.random(m) < p_plus, 1.0, -1.0)
        est += t.coefficient * float(outcomes.mean())
        v = float(outcomes.var(ddof=1)) if m > 1 else 1.0
        var += t.coefficient**2 * v / m
    return est, math.sqrt(var)


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
    shocked = _apply_site_pauli(block, v.labels, v.sites[0])
    coeffs = _to_eigenbasis(evecs, np.hstack([block, shocked]))

    def at(t: float) -> np.ndarray:
        phases = np.exp(-1j * evals * t)[:, None]
        y = _apply_site_pauli(_basis_product(evecs, phases * coeffs), w.labels, w.sites[0])
        y = _basis_product(evecs, phases.conj() * _to_eigenbasis(evecs, y))
        vw = _apply_site_pauli(y[:, :k], v.labels, v.sites[0])
        return np.einsum("ij,ij->j", vw.conj(), y[:, k:])

    return at


def otoc(h: LocalHamiltonian, t: float, w: PauliTerm, v: PauliTerm, s: Statevector) -> complex:
    """<s| W(t)^dag V^dag W(t) V |s> for single-qubit Paulis W, V."""
    if h.dimension != s.dimension:
        raise DimensionMismatchError(f"hamiltonian dim {h.dimension} != state dim {s.dimension}")
    return complex(_otoc_kernel(h, w, v, [s])(t)[0])


def scrambling_curve(h: LocalHamiltonian, threshold: float, seed, *,
                     trials: int = 8, time_step: float = 0.25, extra_points: int = 0) -> tuple:
    """(t_scr, values): the scrambling time and the trial-averaged |OTOC| on its grid.

    t_scr is the smallest grid time where the trial-averaged |OTOC| at
    infinite temperature drops below threshold * (initial value). The
    infinite-temperature average is estimated over ``trials`` Haar states;
    the grid runs in steps of ``time_step`` up to 50*n. The probes are fixed:
    W = X on site 0 against V = Z on site n-1. ``values[k]`` is the average
    at t = k * time_step for k = 0 .. round(t_scr / time_step) + extra_points.
    Exhausting the grid raises ``NoScramblingError`` carrying the final
    averaged |OTOC|; a grid of more than ``MAX_GRID_POINTS`` points raises
    ``ResourceLimitError``.
    """
    if not 0.0 < threshold < 1.0:
        raise InvalidParameterError(f"threshold must be in (0, 1), got {threshold}")
    if extra_points < 0:
        raise InvalidParameterError(f"extra_points must be >= 0, got {extra_points}")
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    if not 0.0 < time_step < math.inf:
        raise InvalidParameterError(f"time_step must be finite and > 0, got {time_step}")
    n = h.n_qubits
    t_max = 50.0 * n
    if t_max / time_step > MAX_GRID_POINTS:
        raise ResourceLimitError(
            f"a grid of step {time_step:g} up to t = {t_max:g} exceeds {MAX_GRID_POINTS} points")
    states = [haar_state(h.dimension, rng.stream(seed, i)) for i in range(trials)]
    kernel = _otoc_kernel(h, PauliTerm.single(0, "X"), PauliTerm.single(n - 1, "Z"), states)

    def averaged(t):
        return float(np.mean(np.abs(kernel(t))))

    values = [averaged(0.0)]
    steps = int(round(t_max / time_step))
    for k in range(1, steps + 1):
        values.append(averaged(k * time_step))
        if values[-1] < threshold * values[0]:
            values += [averaged(j * time_step) for j in range(k + 1, k + extra_points + 1)]
            return k * time_step, values
    raise NoScramblingError(
        f"|OTOC| never fell below {threshold} * {values[0]:g} by t = {t_max:g}", values[-1])


def scrambling_time(h: LocalHamiltonian, threshold: float, seed, *, trials: int = 8) -> float:
    """The scrambling time of ``scrambling_curve`` on its default grid."""
    return scrambling_curve(h, threshold, seed, trials=trials)[0]
