import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scramblab import qcore, rewrite as rw, rng
from scramblab.errors import (
    InvalidParameterError,
    ResourceLimitError,
    SearchInconclusiveError,
)


def random_sequence(g, n=4, length=40, kinds=("H", "S", "SDG", "X", "Y", "Z",
                                              "CNOT", "CZ", "RZ", "RX")):
    gates = []
    for _ in range(length):
        kind = kinds[int(g.integers(len(kinds)))]
        if kind in ("CNOT", "CZ"):
            a, b = g.choice(n, size=2, replace=False)
            gates.append(rw.Gate(kind, (int(a), int(b))))
        elif kind in ("RZ", "RX"):
            gates.append(rw.Gate(kind, (int(g.integers(n)),), float(g.normal() * 0.5)))
        else:
            gates.append(rw.Gate(kind, (int(g.integers(n)),)))
    return rw.GateSequence(tuple(gates), n)


class TestGateIR:
    def test_cz_symmetric(self):
        assert rw.Gate("CZ", (3, 1)).qubits == (1, 3)

    def test_angle_discipline(self):
        with pytest.raises(InvalidParameterError):
            rw.Gate("H", (0,), 0.5)
        with pytest.raises(InvalidParameterError):
            rw.Gate("RZ", (0,))

    def test_inverse_pairs(self):
        for kind in ("X", "Y", "Z", "H", "CZ", "CNOT"):
            qubits = (0, 1) if kind in ("CZ", "CNOT") else (0,)
            g = rw.Gate(kind, qubits)
            assert g.inverse() == g
        assert rw.Gate("S", (0,)).inverse() == rw.Gate("SDG", (0,))
        assert rw.Gate("RZ", (0,), 0.3).inverse() == rw.Gate("RZ", (0,), -0.3)

    def test_text_roundtrip(self):
        g = rng.stream(1)
        seq = random_sequence(g, n=3, length=25)
        text = rw.sequence_to_text(seq)
        back = rw.sequence_from_text(text)
        assert back == seq
        assert rw.sequence_to_text(back) == text

    def test_sequence_site_bound(self):
        with pytest.raises(InvalidParameterError):
            rw.GateSequence((rw.Gate("H", (5,)),), 3)

    @pytest.mark.parametrize("text", [
        "RZ 0\n",                # missing angle
        "H\n",                   # missing site
        "CNOT 0\n",              # missing second site
        "RX 0 0.5 1\n",          # extra field
        "X a\n",                 # non-numeric site
        "RZ 0 half\n",           # non-numeric angle
        "X -1\n",                # negative site
        "# qubits\nX 0\n",      # header without a count
        "# qubits two\nX 0\n",  # non-numeric count
        "# qubits 3 4\nX 0\n",  # trailing header field
        "RZ 0 nan\n",            # non-finite angles
        "RX 0 inf\n",
        "RZ 0 -inf\n",
    ])
    def test_malformed_text_rejected(self, text):
        with pytest.raises(InvalidParameterError):
            rw.sequence_from_text(text)

    def test_header_needs_its_own_qubits_token(self):
        assert rw.sequence_from_text("# qubitsfoo 3\nX 0\n").n_qubits == 1


class TestUnitaries:
    def test_reversed_inverse_is_exact_inverse(self):
        g = rng.stream(2)
        seq = random_sequence(g, n=3, length=30)
        u = rw.sequence_unitary(seq)
        v = rw.sequence_unitary(seq.reversed_inverse())
        assert np.max(np.abs(u @ v - np.eye(8))) < 1e-10

    def test_identity_error_zero(self):
        g = rng.stream(3)
        seq = random_sequence(g, n=2, length=15)
        assert rw.operator_norm_error(seq, seq) < 1e-10

    def test_rz_vs_identity_closed_form(self):
        for theta in (0.1, 0.7, 2.0):
            a = rw.GateSequence((rw.Gate("RZ", (0,), theta),), 1)
            b = rw.GateSequence((), 1)
            assert abs(rw.operator_norm_error(a, b) - 2 * abs(math.sin(theta / 2))) < 1e-8

    def test_rx_vs_identity_closed_form(self):
        a = rw.GateSequence((rw.Gate("RX", (0,), 0.9),), 1)
        b = rw.GateSequence((), 1)
        assert abs(rw.operator_norm_error(a, b) - 2 * abs(math.sin(0.45))) < 1e-8

    def test_qubit_cap(self):
        seq = rw.GateSequence((rw.Gate("H", (0,)),), 11)
        with pytest.raises(ResourceLimitError):
            rw.sequence_unitary(seq)

    def test_apply_matches_unitary(self):
        g = rng.stream(4)
        seq = random_sequence(g, n=3, length=20)
        s = qcore.haar_state(8, seed=5)
        via_apply = rw.apply_sequence(seq, s).amplitudes
        via_unitary = rw.sequence_unitary(seq) @ s.amplitudes
        assert np.max(np.abs(via_apply - via_unitary)) < 1e-10


class TestDefaultRules:
    def test_rz_pair_removed_by_merge_then_zero_angle(self):
        seq = rw.GateSequence((rw.Gate("RZ", (0,), 0.4), rw.Gate("RZ", (0,), -0.4)), 1)
        pc, trace = rw.pseudo_complexity(seq, 0.0)
        assert pc == 0
        assert [s.rule for s in trace] == ["merge_rotation", "zero_angle"]
        assert trace.total_error == 0.0

    def test_x_conjugates_through_h(self):
        seq = rw.GateSequence((rw.Gate("X", (0,)), rw.Gate("H", (0,)),
                               rw.Gate("Z", (0,)), rw.Gate("H", (0,))), 1)
        pc, _ = rw.pseudo_complexity(seq, 0.0)
        assert pc == 0
        assert np.max(np.abs(rw.sequence_unitary(seq) - np.eye(2))) < 1e-10

    def test_zero_angle_never_fires_at_eps_zero_on_nonzero_angle(self):
        seq = rw.GateSequence((rw.Gate("RZ", (0,), 0.3),), 1)
        pc, trace = rw.pseudo_complexity(seq, 0.0)
        assert pc == 1 and len(trace) == 0

    def test_pauli_commute_disjoint(self):
        seq = rw.GateSequence((rw.Gate("X", (0,)), rw.Gate("CZ", (1, 2)),
                               rw.Gate("X", (0,))), 3)
        pc, trace = rw.pseudo_complexity(seq, 0.0)
        assert pc == 1
        assert trace.steps[0].rule == "pauli_commute"

    def test_minus_sign_conjugations_do_not_fire(self):
        # H Y H = -Y: dropping the sign would be a norm-2 error, so the rule
        # must not fire at eps = 0
        seq = rw.GateSequence((rw.Gate("Y", (0,)), rw.Gate("H", (0,)),
                               rw.Gate("Y", (0,))), 1)
        pc, trace = rw.pseudo_complexity(seq, 0.0)
        assert pc == 3 and len(trace) == 0

    def test_tableau_table_is_exact(self):
        # every +1 entry of the conjugation table must satisfy B P B^dag = P'
        paulis = {"X": rw._FIXED_1Q["X"], "Y": rw._FIXED_1Q["Y"], "Z": rw._FIXED_1Q["Z"]}
        cliffords = [rw.Gate("H", (0,)), rw.Gate("S", (0,)), rw.Gate("SDG", (0,)),
                     rw.Gate("X", (0,)), rw.Gate("Y", (0,)), rw.Gate("Z", (0,)),
                     rw.Gate("CZ", (0, 1)), rw.Gate("CNOT", (0, 1)), rw.Gate("CNOT", (1, 0))]
        for b in cliffords:
            for kind in "XYZ":
                for q in (0, 1):
                    res = rw.conjugate_pauli(b, rw.Gate(kind, (q,)))
                    if res is None:
                        continue
                    sign, paulis_out = res
                    n = 2
                    bm = rw.sequence_unitary(rw.GateSequence((b,), n))
                    pm = rw.sequence_unitary(rw.GateSequence((rw.Gate(kind, (q,)),), n))
                    rhs = rw.sequence_unitary(rw.GateSequence(
                        tuple(rw.Gate(k, (s,)) for k, s in paulis_out), n))
                    assert np.max(np.abs(bm @ pm @ bm.conj().T - sign * rhs)) < 1e-10


class TestPseudoComplexity:
    def test_monotone_and_fixpoint(self):
        g = rng.stream(6)
        for trial in range(15):
            seq = random_sequence(g, n=4, length=50)
            eps = float(g.random() * 0.2)
            pc, trace = rw.pseudo_complexity(seq, eps)
            assert pc <= len(seq)
            out = rw.rewritten_sequence(seq, eps)
            assert len(out) == pc
            pc2, trace2 = rw.pseudo_complexity(out, eps)
            assert pc2 == pc and len(trace2) == 0

    def test_every_fired_rewrite_within_declared_bound(self):
        g = rng.stream(7)
        checked = 0
        for trial in range(20):
            seq = random_sequence(g, n=4, length=50)
            eps = float(g.random() * 0.2)
            _, trace = rw.pseudo_complexity(seq, eps)
            for step in trace:
                measured = rw.operator_norm_error(
                    rw.GateSequence(step.removed, 4), rw.GateSequence(step.inserted, 4))
                assert measured <= step.error + 1e-8
                checked += 1
        assert checked > 50

    def test_whole_rewrite_soundness(self):
        # n <= 8: final unitary within (#inexact firings) * eps of the original
        g = rng.stream(8)
        for trial in range(8):
            seq = random_sequence(g, n=6, length=60)
            eps = 0.1
            out = rw.rewritten_sequence(seq, eps)
            _, trace = rw.pseudo_complexity(seq, eps)
            inexact = sum(1 for s in trace if s.error > 0)
            assert rw.operator_norm_error(seq, out) <= inexact * eps + 1e-8

    def test_negative_eps_rejected(self):
        with pytest.raises(InvalidParameterError):
            rw.pseudo_complexity(rw.GateSequence((), 1), -0.1)
        with pytest.raises(InvalidParameterError):
            rw.pseudo_complexity(rw.GateSequence((), 1), math.nan)

    def test_infinite_eps_removes_every_rotation(self):
        seq = rw.GateSequence((rw.Gate("RZ", (0,), 0.3), rw.Gate("H", (0,))), 1)
        assert rw.pseudo_complexity(seq, math.inf)[0] == 1

    def test_merge_overflowing_to_inf_rejected(self):
        seq = rw.GateSequence((rw.Gate("RZ", (0,), 1e308), rw.Gate("RZ", (0,), 1e308)), 1)
        with pytest.raises(InvalidParameterError, match="finite"):
            rw.pseudo_complexity(seq, 0.0)


class TestTrotterize:
    def test_gate_count(self):
        h = qcore.build_hamiltonian(8, 1.05, 0.5)
        steps = 7
        seq = rw.trotterize(h, 2.0, steps)
        assert len(seq) == steps * (7 * 3 + 8 + 8)

    def test_zero_time_collapses_to_nothing(self):
        h = qcore.build_hamiltonian(4, 1.05, 0.5)
        seq = rw.trotterize(h, 0.0, 3)
        pc, _ = rw.pseudo_complexity(seq, 0.0)
        assert pc == 0

    def test_fidelity_against_exact_evolution(self):
        h = qcore.build_hamiltonian(4, 1.05, 0.5)
        seq = rw.trotterize(h, 1.0, 100)
        for seed in (1, 2):
            s = qcore.haar_state(16, seed=seed)
            approx = rw.apply_sequence(seq, s)
            exact = qcore.evolve(h, 1.0, s)
            assert abs(qcore.inner_product(exact, approx)) ** 2 >= 0.999


class TestSwitchback:
    def test_full_telescoping(self):
        h = qcore.build_hamiltonian(6, 1.05, 0.5)
        res = rw.switchback_experiment(h, 2.0, 8, qcore.PauliTerm.single(0, "X"), 0.0)
        assert res.pc_forward_back == 0

    def test_shock_partial_cancellation_n8(self):
        h = qcore.build_hamiltonian(8, 1.05, 0.5)
        prev = 0
        for t in (1, 2, 3):
            res = rw.switchback_experiment(h, float(t), 4 * t,
                                           qcore.PauliTerm.single(0, "X"), 0.0)
            assert 0 < res.pc_shocked < res.naive
            assert res.pc_shocked > prev  # surviving region grows with t
            prev = res.pc_shocked

    def test_identity_shock_reduces_to_no_shock(self):
        h = qcore.build_hamiltonian(4, 1.05, 0.5)
        res = rw.switchback_experiment(h, 1.0, 4, qcore.PauliTerm((), ""), 0.0)
        assert res.pc_shocked == res.pc_forward_back == 0

    def test_telescoping_for_random_sequences(self):
        g = rng.stream(9)
        for trial in range(10):
            seq = random_sequence(g, n=4, length=30)
            pc, _ = rw.pseudo_complexity(seq.concat(seq.reversed_inverse()), 0.0)
            assert pc == 0


class TestAsymmetry:
    def test_palindrome_symmetric(self):
        gates = (rw.Gate("H", (0,)), rw.Gate("X", (1,)), rw.Gate("H", (0,)))
        seq = rw.GateSequence(gates, 2)
        fwd, rev = rw.asymmetry_check(seq, 0.0)
        assert fwd == rev

    def test_empty(self):
        assert rw.asymmetry_check(rw.GateSequence((), 1), 0.0) == (0, 0)

    def test_frozen_asymmetric_fixture(self):
        # found by randomized search over greedy orders: at eps = 0.1 the
        # forward pass removes the two small rotations one by one and strands
        # RZ(-0.2); the reversed pass merges before removing and reaches 0
        fix = rw.GateSequence((rw.Gate("RZ", (0,), 0.1), rw.Gate("RZ", (0,), 0.1),
                               rw.Gate("RZ", (0,), -0.2)), 1)
        fwd, rev = rw.asymmetry_check(fix, 0.1)
        assert (fwd, rev) == (1, 0)
        assert fwd != rev


class TestExactComplexity:
    def test_start_is_target(self):
        s = qcore.zero_state(2)
        assert rw.exact_circuit_complexity(s, s) == 0

    def test_bell_state(self):
        bell = qcore.Statevector(np.array([1, 0, 0, 1]) / math.sqrt(2))
        assert rw.exact_circuit_complexity(bell, qcore.zero_state(2)) == 2

    def test_ghz_state(self):
        ghz = np.zeros(8)
        ghz[0] = ghz[7] = 1 / math.sqrt(2)
        assert rw.exact_circuit_complexity(qcore.Statevector(ghz), qcore.zero_state(3)) == 3

    def test_unreachable_raises_with_best_distance(self):
        # a non-stabilizer state is unreachable over {H, S, CNOT}
        amps = np.array([math.cos(0.3), math.sin(0.3) * np.exp(0.4j)])
        target = qcore.Statevector(amps)
        with pytest.raises(SearchInconclusiveError) as err:
            rw.exact_circuit_complexity(target, qcore.zero_state(1))
        assert 0 < err.value.best_distance < 2

    def test_size_cap(self):
        with pytest.raises(ResourceLimitError):
            rw.exact_circuit_complexity(qcore.zero_state(4), qcore.zero_state(4))

    def test_oracle_lower_bounds_rewrite_length(self):
        # BFS complexity of the prepared state never exceeds the rewrite
        # length, counted in {H, S, CNOT} after exact transpilation
        g = rng.stream(10)
        for trial in range(50):
            seq = random_sequence(g, n=2, length=int(g.integers(1, 9)),
                                  kinds=("H", "S", "CNOT"))
            final = rw.apply_sequence(seq, qcore.zero_state(2))
            transpiled = rw.transpile_to_hsc(rw.rewritten_sequence(seq, 0.0))
            bfs = rw.exact_circuit_complexity(final, qcore.zero_state(2))
            assert bfs <= len(transpiled)

    def test_transpile_exactness(self):
        g = rng.stream(11)
        seq = random_sequence(g, n=2, length=20,
                              kinds=("H", "S", "SDG", "X", "Y", "Z", "CNOT"))
        out = rw.transpile_to_hsc(seq)
        assert np.max(np.abs(rw.sequence_unitary(seq) - rw.sequence_unitary(out))) < 1e-10
        assert all(gate.kind in ("H", "S", "CNOT") for gate in out.gates)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_rewrite_never_grows(seed):
    seq = random_sequence(rng.stream(seed), n=3, length=25)
    pc, _ = rw.pseudo_complexity(seq, 0.05)
    assert pc <= len(seq)
