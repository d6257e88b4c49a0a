"""Gate-sequence IR, greedy local rewriting, and toy-scale complexity oracles.

The rewrite length of a circuit ("pseudo-complexity") is what remains after a
stack-based left-to-right greedy pass, repeated to a fixpoint, where each
incoming gate is tested against the stack top with the rules below in fixed
priority order. A rule fires only when its analytic operator-norm error bound
is <= the per-rewrite budget eps; the full trace (rule, position, error,
window before/after) is recorded.

The rules, in their fixed priority order:
    1. inverse_cancel   [G, G^-1] -> []                      (exact)
    2. merge_rotation   RZ(a) RZ(b) -> RZ(a+b), same for RX  (exact)
    3. zero_angle       RZ(t)/RX(t) -> [], error 2|sin(t/2)| (fires iff <= eps)
    4. pauli_commute    tableau conjugation enabling an immediate
                        cancellation inside a 3-gate window   (exact)

Rotation convention: RZ(t) = exp(-i t Z), RX(t) = exp(-i t X) (full angle,
so RZ(a) RZ(b) = RZ(a+b) and || RZ(t) - I || = 2 |sin(t/2)| hold exactly).

The text format is one gate per line: "KIND q0 [q1] [angle]".

The exact complexity oracle ``exact_circuit_complexity`` is a breadth-first
search over placements of {H, S, CNOT} only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections import deque

import numpy as np

from . import qcore
from .errors import (
    InvalidParameterError,
    ResourceLimitError,
    SearchInconclusiveError,
)

GATE_ARITY = {"X": 1, "Y": 1, "Z": 1, "H": 1, "S": 1, "SDG": 1,
              "CZ": 2, "CNOT": 2, "RZ": 1, "RX": 1}
PARAMETRIC = {"RZ", "RX"}
PAULI_KINDS = {"X", "Y", "Z"}
UNITARY_QUBIT_LIMIT = 10
BFS_FRONTIER_CAP = 10**7


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple
    angle: float = None

    def __post_init__(self):
        kind = str(self.kind).upper()
        qubits = tuple(int(q) for q in (self.qubits if isinstance(self.qubits, (tuple, list))
                                        else (self.qubits,)))
        if kind not in GATE_ARITY:
            raise InvalidParameterError(f"unknown gate kind {kind!r}")
        if len(qubits) != GATE_ARITY[kind]:
            raise InvalidParameterError(f"{kind} takes {GATE_ARITY[kind]} qubits, got {qubits}")
        if len(set(qubits)) != len(qubits):
            raise InvalidParameterError(f"qubits must be distinct, got {qubits}")
        if min(qubits) < 0:
            raise InvalidParameterError(f"qubits must be >= 0, got {qubits}")
        if (self.angle is not None) != (kind in PARAMETRIC):
            raise InvalidParameterError(f"{kind} {'requires' if kind in PARAMETRIC else 'rejects'} an angle")
        angle = None if self.angle is None else float(self.angle)
        if angle is not None and not math.isfinite(angle):
            raise InvalidParameterError(f"{kind} angle must be finite, got {angle}")
        if kind == "CZ":
            qubits = tuple(sorted(qubits))  # CZ is symmetric
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "angle", angle)

    def inverse(self) -> "Gate":
        if self.kind == "S":
            return Gate("SDG", self.qubits)
        if self.kind == "SDG":
            return Gate("S", self.qubits)
        if self.kind in PARAMETRIC:
            return Gate(self.kind, self.qubits, -self.angle)
        return self  # X, Y, Z, H, CZ, CNOT are self-inverse

    @property
    def is_pauli(self) -> bool:
        return self.kind in PAULI_KINDS


@dataclass(frozen=True)
class GateSequence:
    gates: tuple
    n_qubits: int

    def __post_init__(self):
        gates = tuple(self.gates)
        n = int(self.n_qubits)
        for g in gates:
            if not isinstance(g, Gate):
                raise InvalidParameterError("gates must be Gate instances")
            if max(g.qubits) >= n:
                raise InvalidParameterError(f"gate {g} exceeds {n} qubits")
        object.__setattr__(self, "gates", gates)
        object.__setattr__(self, "n_qubits", n)

    def __len__(self) -> int:
        return len(self.gates)

    def reversed_inverse(self) -> "GateSequence":
        return GateSequence(tuple(g.inverse() for g in reversed(self.gates)), self.n_qubits)

    def concat(self, other: "GateSequence") -> "GateSequence":
        if other.n_qubits != self.n_qubits:
            raise InvalidParameterError("qubit counts differ")
        return GateSequence(self.gates + other.gates, self.n_qubits)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def sequence_to_text(seq: GateSequence) -> str:
    lines = [f"# qubits {seq.n_qubits}"]
    for g in seq.gates:
        parts = [g.kind] + [str(q) for q in g.qubits]
        if g.angle is not None:
            parts.append(f"{g.angle:.17g}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def sequence_from_text(text: str) -> GateSequence:
    """Parse the text format; any malformed line raises ``InvalidParameterError``."""
    n_qubits = None
    gates = []
    max_site = -1
    for line in text.splitlines():
        fields = line.split()
        if fields[:2] == ["#", "qubits"]:
            try:
                if len(fields) != 3 or not fields[2].isdecimal():
                    raise ValueError
                n_qubits = int(fields[2])
            except ValueError as exc:
                raise InvalidParameterError(f"header must be '# qubits N', got {line!r}") from exc
            continue
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = stripped.split()
        kind = parts[0].upper()
        arity = GATE_ARITY.get(kind)
        if arity is None:
            raise InvalidParameterError(f"unknown gate kind {kind!r} in line {line!r}")
        n_fields = 1 + arity + (kind in PARAMETRIC)
        if len(parts) != n_fields:
            raise InvalidParameterError(
                f"{kind} takes {n_fields - 1} fields (sites, then an angle for RZ/RX), "
                f"got line {line!r}")
        try:
            qubits = tuple(int(x) for x in parts[1:1 + arity])
            angle = float(parts[1 + arity]) if kind in PARAMETRIC else None
        except ValueError as exc:
            raise InvalidParameterError(f"non-numeric field in line {line!r}") from exc
        gates.append(Gate(kind, qubits, angle))
        max_site = max(max_site, max(qubits))
    if n_qubits is None:
        n_qubits = max_site + 1
    return GateSequence(tuple(gates), n_qubits)


# ---------------------------------------------------------------------------
# Dense unitaries and exact error
# ---------------------------------------------------------------------------

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_S = np.diag([1, 1j]).astype(complex)
_FIXED_1Q = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1, -1]).astype(complex),
    "H": _H,
    "S": _S,
    "SDG": _S.conj(),
}


def gate_matrix_1q(g: Gate) -> np.ndarray:
    if g.kind in _FIXED_1Q:
        return _FIXED_1Q[g.kind]
    t = g.angle
    if g.kind == "RZ":
        return np.diag([np.exp(-1j * t), np.exp(1j * t)])
    if g.kind == "RX":
        return np.array([[math.cos(t), -1j * math.sin(t)],
                         [-1j * math.sin(t), math.cos(t)]], dtype=complex)
    raise InvalidParameterError(f"{g.kind} is not single-qubit")


def _apply_gate_matrix(block: np.ndarray, g: Gate, n: int) -> np.ndarray:
    """Apply g to the row index of a (2^n, m) block of column states."""
    d, m = block.shape
    if GATE_ARITY[g.kind] == 1:
        q = g.qubits[0]
        view = block.reshape(1 << q, 2, -1)
        mat = gate_matrix_1q(g)
        return np.einsum("ab,ibj->iaj", mat, view).reshape(d, m)
    x = np.arange(d)
    shift0 = n - 1 - g.qubits[0]
    shift1 = n - 1 - g.qubits[1]
    b0 = (x >> shift0) & 1
    b1 = (x >> shift1) & 1
    out = block.copy()
    if g.kind == "CZ":
        out[(b0 & b1).astype(bool)] *= -1
        return out
    # CNOT: control qubits[0], target qubits[1]
    src = np.where(b0 == 1, x ^ (1 << shift1), x)
    return out[src]


def sequence_unitary(seq: GateSequence) -> np.ndarray:
    """Dense unitary of the whole sequence (first gate acts first)."""
    if seq.n_qubits > UNITARY_QUBIT_LIMIT:
        raise ResourceLimitError(
            f"dense unitaries limited to {UNITARY_QUBIT_LIMIT} qubits, got {seq.n_qubits}")
    d = 1 << seq.n_qubits
    u = np.eye(d, dtype=complex)
    for g in seq.gates:
        u = _apply_gate_matrix(u, g, seq.n_qubits)
    return u


def apply_sequence(seq: GateSequence, state: qcore.Statevector) -> qcore.Statevector:
    amps = np.array(state.amplitudes, copy=True).reshape(-1, 1)
    for g in seq.gates:
        amps = _apply_gate_matrix(amps, g, seq.n_qubits)
    return qcore.Statevector(amps.reshape(-1))


def operator_norm_error(a: GateSequence, b: GateSequence) -> float:
    """Exact spectral norm || U(a) - U(b) ||_2 via dense SVD."""
    if a.n_qubits != b.n_qubits:
        raise InvalidParameterError("sequences act on different qubit counts")
    diff = sequence_unitary(a) - sequence_unitary(b)
    return float(np.linalg.svd(diff, compute_uv=False)[0])


# ---------------------------------------------------------------------------
# Rewrite rules
# ---------------------------------------------------------------------------

def _match_inverse_cancel(window):
    # rotation pairs are the merge rule's job, per the fixed priority order
    a, b = window
    if a.kind not in PARAMETRIC and b == a.inverse():
        return ((), 0.0)
    return None


def _match_merge_rotation(window):
    a, b = window
    if a.kind in PARAMETRIC and a.kind == b.kind and a.qubits == b.qubits:
        return ((Gate(a.kind, a.qubits, a.angle + b.angle),), 0.0)
    return None


def _match_zero_angle(window):
    (g,) = window
    if g.kind in PARAMETRIC:
        return ((), 2.0 * abs(math.sin(g.angle / 2.0)))
    return None


# Tableau action B P B^dag for single-qubit Pauli P and Clifford B, as
# (sign, ((kind, qubit), ...)). Only +1 results are usable as exact rewrites.
def conjugate_pauli(b: Gate, p: Gate):
    """B P B^dag for single-qubit Pauli gate p; None if not a signed Pauli string."""
    q = p.qubits[0]
    if q not in b.qubits:
        return (1, ((p.kind, q),))
    if b.kind == "H":
        table = {"X": (1, "Z"), "Z": (1, "X"), "Y": (-1, "Y")}
        sign, kind = table[p.kind]
        return (sign, ((kind, q),))
    if b.kind == "S":
        table = {"X": (1, "Y"), "Y": (-1, "X"), "Z": (1, "Z")}
        sign, kind = table[p.kind]
        return (sign, ((kind, q),))
    if b.kind == "SDG":
        table = {"X": (-1, "Y"), "Y": (1, "X"), "Z": (1, "Z")}
        sign, kind = table[p.kind]
        return (sign, ((kind, q),))
    if b.kind in PAULI_KINDS:
        sign = 1 if b.kind == p.kind else -1
        return (sign, ((p.kind, q),))
    if b.kind == "CZ":
        other = b.qubits[0] if b.qubits[1] == q else b.qubits[1]
        if p.kind == "Z":
            return (1, (("Z", q),))
        return (1, tuple(sorted(((p.kind, q), ("Z", other)))))
    if b.kind == "CNOT":
        control, target = b.qubits
        table = {
            ("X", control): (1, (("X", control), ("X", target))),
            ("Y", control): (1, (("Y", control), ("X", target))),
            ("Z", control): (1, (("Z", control),)),
            ("X", target): (1, (("X", target),)),
            ("Y", target): (1, (("Z", control), ("Y", target))),
            ("Z", target): (1, (("Z", control), ("Z", target))),
        }
        sign, paulis = table[(p.kind, q)]
        return (sign, tuple(sorted(paulis, key=lambda kp: kp[1])))
    # A rotation commutes exactly with its own axis Pauli.
    if (b.kind, p.kind) in (("RZ", "Z"), ("RX", "X")):
        return (1, ((p.kind, q),))
    return None  # off-axis rotation: not a Pauli conjugation


def _match_pauli_commute(window):
    a, b, c = window
    # [P, B, Q]: Q cancels the Pauli pushed through B when B P B^dag == Q.
    if a.is_pauli and c.is_pauli:
        res = conjugate_pauli(b, a)
        if res is not None:
            sign, paulis = res
            if sign == 1 and paulis == ((c.kind, c.qubits[0]),):
                return ((b,), 0.0)
    # [B, P, B^-1]: the conjugated Pauli survives alone when the sign is +1.
    if b.is_pauli and c == a.inverse():
        res = conjugate_pauli(a.inverse(), b)
        if res is not None:
            sign, paulis = res
            if sign == 1:
                return (tuple(Gate(kind, (q,)) for kind, q in paulis), 0.0)
    return None


# The rules as (name, window, match) in their fixed priority order.
# ``match(window)`` returns (replacement, error) or None. The replacement is
# strictly shorter than the window, or equal-length with strictly fewer
# parameters; the pass enforces this and fires a rule only when error <= eps.
_RULES = (
    ("inverse_cancel", 2, _match_inverse_cancel),
    ("merge_rotation", 2, _match_merge_rotation),
    ("zero_angle", 1, _match_zero_angle),
    ("pauli_commute", 3, _match_pauli_commute),
)


# ---------------------------------------------------------------------------
# The greedy pass
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RewriteStep:
    rule: str
    position: int
    error: float
    removed: tuple
    inserted: tuple


@dataclass(frozen=True)
class RewriteTrace:
    steps: tuple

    @property
    def total_error(self) -> float:
        return sum(s.error for s in self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)


def _one_pass(gates, eps, steps):
    stack = []
    fired = False
    for incoming in gates:
        stack.append(incoming)
        settled = False
        while not settled:
            settled = True
            for name, w, match in _RULES:
                if len(stack) < w:
                    continue
                window = tuple(stack[-w:])
                res = match(window)
                if res is None:
                    continue
                replacement, error = res
                if error > eps:
                    continue
                n_params = sum(g.angle is not None for g in window)
                r_params = sum(g.angle is not None for g in replacement)
                assert len(replacement) < w or (len(replacement) == w and r_params < n_params)
                steps.append(RewriteStep(name, len(stack) - w, float(error),
                                         window, tuple(replacement)))
                del stack[-w:]
                stack.extend(replacement)
                fired = True
                settled = False
                break
    return stack, fired


def _rewrite_to_fixpoint(seq: GateSequence, eps: float):
    """Greedy stack passes until one fires nothing: (surviving gate list, RewriteTrace)."""
    if not eps >= 0:  # also rejects NaN
        raise InvalidParameterError(f"eps must be >= 0, got {eps}")
    gates = list(seq.gates)
    steps = []
    fired = True
    while fired:
        gates, fired = _one_pass(gates, eps, steps)
    return gates, RewriteTrace(tuple(steps))


def pseudo_complexity(seq: GateSequence, eps: float):
    """Greedy stack-based rewriting to a fixpoint.

    Returns (final length, RewriteTrace). Monotone (never grows the circuit)
    and idempotent: running it on its own output changes nothing.
    """
    gates, trace = _rewrite_to_fixpoint(seq, eps)
    return len(gates), trace


def rewritten_sequence(seq: GateSequence, eps: float) -> GateSequence:
    """The surviving gates themselves (same pass as ``pseudo_complexity``)."""
    gates, _ = _rewrite_to_fixpoint(seq, eps)
    return GateSequence(tuple(gates), seq.n_qubits)


# ---------------------------------------------------------------------------
# Trotterization
# ---------------------------------------------------------------------------

def trotterize(h: qcore.LocalHamiltonian, t: float, steps: int) -> GateSequence:
    """First-order product formula, one slice per step, terms left to right.

    Each ZZ term becomes CNOT - RZ(c*t/steps) - CNOT on its pair; each field
    term becomes a single RX or RZ with angle c*t/steps (rotations are the
    full-angle convention exp(-i*angle*P)).
    """
    if steps < 1:
        raise InvalidParameterError(f"steps must be >= 1, got {steps}")
    tau = t / steps
    gates = []
    for _ in range(steps):
        for term in h.terms:
            theta = term.coefficient * tau
            if term.labels == "ZZ":
                a, b = term.sites
                gates.append(Gate("CNOT", (a, b)))
                gates.append(Gate("RZ", (b,), theta))
                gates.append(Gate("CNOT", (a, b)))
            elif term.labels == "X":
                gates.append(Gate("RX", term.sites, theta))
            elif term.labels == "Z":
                gates.append(Gate("RZ", term.sites, theta))
            else:
                raise InvalidParameterError(f"trotterize supports ZZ/X/Z terms, got {term.labels}")
    return GateSequence(tuple(gates), h.n_qubits)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SwitchbackResult:
    pc_forward_back: int
    pc_shocked: int
    naive: int


def switchback_experiment(h: qcore.LocalHamiltonian, t: float, steps: int,
                          shock: qcore.PauliTerm, eps: float) -> SwitchbackResult:
    """Rewrite length of V V^-1 (expect 0) versus V shock V^-1.

    V = trotterize(h, t, steps); naive = 2|V| + 1. An identity shock reduces
    the shocked circuit to the forward-back case.
    """
    if shock.weight > 1:
        raise InvalidParameterError("shock must be a single-qubit Pauli or identity")
    v = trotterize(h, t, steps)
    back = v.reversed_inverse()
    pc_fb, _ = pseudo_complexity(v.concat(back), eps)
    if shock.is_identity():
        pc_shocked = pc_fb
    else:
        mid = GateSequence((Gate(shock.labels, shock.sites),), h.n_qubits)
        pc_shocked, _ = pseudo_complexity(v.concat(mid).concat(back), eps)
    return SwitchbackResult(pc_fb, pc_shocked, 2 * len(v) + 1)


def asymmetry_check(seq: GateSequence, eps: float) -> tuple:
    """(rewrite length of seq, rewrite length of its reversed inverse)."""
    fwd, _ = pseudo_complexity(seq, eps)
    rev, _ = pseudo_complexity(seq.reversed_inverse(), eps)
    return fwd, rev


# ---------------------------------------------------------------------------
# Exact complexity by breadth-first search
# ---------------------------------------------------------------------------

def default_gate_moves(n: int) -> tuple:
    """All placements of {H, S, CNOT} on n qubits."""
    moves = [Gate("H", (q,)) for q in range(n)]
    moves += [Gate("S", (q,)) for q in range(n)]
    moves += [Gate("CNOT", (a, b)) for a in range(n) for b in range(n) if a != b]
    return tuple(moves)


def _phase_canonical_key(amps: np.ndarray) -> bytes:
    idx = int(np.argmax(np.abs(amps)))
    ref = amps[idx]
    canon = amps * (abs(ref) / ref)
    return np.round(canon, 6).tobytes()


def _distance_up_to_phase(a: np.ndarray, b: np.ndarray) -> float:
    ov = abs(np.vdot(a, b))
    return math.sqrt(max(0.0, 2.0 - 2.0 * ov))


def exact_circuit_complexity(target: qcore.Statevector, start: qcore.Statevector,
                             eps: float = 1e-6) -> int:
    """Minimal count of {H, S, CNOT} gates (``default_gate_moves``) from ``start``
    to within ``eps`` of ``target`` (Euclidean distance up to global phase), by
    breadth-first search with phase-invariant state deduplication.

    Exhausting the reachable set or the frontier cap raises
    ``SearchInconclusiveError`` carrying the best distance found.
    """
    n = start.n_qubits
    if n > 3:
        raise ResourceLimitError(f"exact search limited to 3 qubits, got {n}")
    if target.dimension != start.dimension:
        raise InvalidParameterError("target and start dimensions differ")
    moves = default_gate_moves(n)
    tgt = np.asarray(target.amplitudes)
    best = _distance_up_to_phase(tgt, np.asarray(start.amplitudes))
    if best <= eps:
        return 0
    visited = {_phase_canonical_key(np.asarray(start.amplitudes))}
    frontier = deque([(np.asarray(start.amplitudes), 0)])
    while frontier:
        amps, depth = frontier.popleft()
        block = amps.reshape(-1, 1)
        for g in moves:
            new = _apply_gate_matrix(block, g, n).reshape(-1)
            dist = _distance_up_to_phase(tgt, new)
            if dist <= eps:
                return depth + 1
            best = min(best, dist)
            key = _phase_canonical_key(new)
            if key not in visited:
                if len(visited) >= BFS_FRONTIER_CAP:
                    raise SearchInconclusiveError(
                        f"frontier cap {BFS_FRONTIER_CAP} reached", best_distance=best)
                visited.add(key)
                frontier.append((new, depth + 1))
    raise SearchInconclusiveError(
        f"search exhausted without reaching the target (best distance {best:g})",
        best_distance=best)


# Exact expansions of the extra gate kinds over {H, S, CNOT}: Z = S S,
# X = H Z H, Y = S X SDG with SDG = S S S (all equalities hold with no
# residual phase; expansions are in circuit order, SDG applied first for Y).
_TRANSPILE = {
    "Z": ("S", "S"),
    "X": ("H", "S", "S", "H"),
    "SDG": ("S", "S", "S"),
    "Y": ("S", "S", "S", "H", "S", "S", "H", "S"),
}


def transpile_to_hsc(seq: GateSequence) -> GateSequence:
    """Rewrite X/Y/Z/SDG into {H, S, CNOT} exactly; other kinds must already
    be in the target set."""
    out = []
    for g in seq.gates:
        if g.kind in ("H", "S", "CNOT"):
            out.append(g)
        elif g.kind in _TRANSPILE:
            out.extend(Gate(k, g.qubits) for k in _TRANSPILE[g.kind])
        else:
            raise InvalidParameterError(f"cannot transpile {g.kind} to {{H, S, CNOT}}")
    return GateSequence(tuple(out), seq.n_qubits)
