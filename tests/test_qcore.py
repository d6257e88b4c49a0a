import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scramblab import qcore, rng, weingarten as wg
from scramblab.errors import (
    DimensionMismatchError,
    InvalidDimensionError,
    InvalidParameterError,
    NoScramblingError,
    ResourceLimitError,
)


class TestHaarSampling:
    def test_unitarity(self):
        u = qcore.haar_unitary(4, seed=1)
        dev = np.max(np.abs(u.matrix @ u.matrix.conj().T - np.eye(4)))
        assert dev < 1e-10

    def test_dimension_one_is_a_phase(self):
        u = qcore.haar_unitary(1, seed=2)
        assert u.matrix.shape == (1, 1)
        assert abs(abs(u.matrix[0, 0]) - 1) < 1e-12

    def test_zero_dimension_rejected(self):
        with pytest.raises(InvalidDimensionError):
            qcore.haar_unitary(0, seed=0)
        with pytest.raises(InvalidDimensionError):
            qcore.haar_state(0, seed=0)

    def test_first_entry_second_moment(self):
        # E|U_00|^2 = 1/d at d = 4
        trials = 10**4
        vals = np.array([abs(qcore.haar_unitary(4, rng.stream(3, t)).matrix[0, 0]) ** 2
                         for t in range(trials)])
        se = vals.std(ddof=1) / math.sqrt(trials)
        assert abs(vals.mean() - 0.25) <= 3 * se

    def test_state_normalized(self):
        s = qcore.haar_state(2, seed=5)
        assert abs(np.sum(np.abs(s.amplitudes) ** 2) - 1) < 1e-10

    def test_state_first_component_moment(self):
        trials = 10**4
        vals = np.array([abs(qcore.haar_state(8, rng.stream(7, t)).amplitudes[0]) ** 2
                         for t in range(trials)])
        se = vals.std(ddof=1) / math.sqrt(trials)
        assert abs(vals.mean() - 1 / 8) <= 3 * se

    def test_independent_states_nearly_orthogonal(self):
        hits = 0
        for t in range(100):
            a = qcore.haar_state(256, rng.stream(11, t, 0))
            b = qcore.haar_state(256, rng.stream(11, t, 1))
            hits += a.overlap_sq(b) < 0.1
        assert hits >= 99

    def test_determinism(self):
        a = qcore.haar_unitary(8, seed=123).matrix
        b = qcore.haar_unitary(8, seed=123).matrix
        assert np.array_equal(a, b)


def dense_from_batch(batch):
    """(B, d, d) stack of the batch's unitaries, from their action on identity columns."""
    d = batch.dimension
    cols = [qcore.apply_haar_batch(batch, np.tile(np.eye(d)[j], (batch.size, 1)))
            for j in range(d)]
    return np.stack(cols, axis=2)


def stewart_columns(d, trials, seed, budget, monkeypatch, power=2):
    """U^power e_0 for every trial, with batches of at most ``budget`` reflector entries."""
    monkeypatch.setattr(qcore, "HAAR_BATCH_ENTRIES", budget)
    out = []
    for batch in qcore.haar_batches(d, trials, seed):
        psi = batch.first_columns()
        for _ in range(power - 1):
            psi = qcore.apply_haar_batch(batch, psi)
        out.append(psi)
    return np.concatenate(out)


class TestStewartSampler:
    def test_d4_moments_match_exact(self):
        trials = 40000
        u = dense_from_batch(qcore.haar_batch(4, [rng.stream(21, t) for t in range(trials)]))
        cases = [
            (np.abs(u[:, 1, 0]) ** 2, wg.MomentSpec((1,), (0,), (1,), (0,))),
            (np.abs(u[:, 1, 0]) ** 4, wg.MomentSpec((1, 1), (0, 0), (1, 1), (0, 0))),
            (np.abs(u[:, 0, 0] * u[:, 1, 1]) ** 2, wg.MomentSpec((0, 1), (0, 1), (0, 1), (0, 1))),
        ]
        for vals, spec in cases:
            exact = float(wg.haar_moment_exact(spec, 4))
            se = vals.std(ddof=1) / math.sqrt(trials)
            assert abs(vals.mean() - exact) <= 5 * se

    @pytest.mark.parametrize("d", [1, 2, 5, 16])
    def test_dense_form_is_unitary(self, d):
        batch = qcore.haar_batch(d, [rng.stream(22, t) for t in range(5)])
        u = dense_from_batch(batch)
        eye = np.eye(d)
        for m in u:
            assert np.max(np.abs(m @ m.conj().T - eye)) < 1e-12
        assert np.max(np.abs(batch.first_columns() - u[:, :, 0])) < 1e-14

    def test_dimension_one_is_a_phase(self):
        batch = qcore.haar_batch(1, [rng.stream(23, t) for t in range(4)])
        col = batch.first_columns()
        assert col.shape == (4, 1)
        assert np.max(np.abs(np.abs(col) - 1)) < 1e-12

    @pytest.mark.parametrize("d", [2, 5, 33])
    def test_samples_independent_of_batch_budget(self, d, monkeypatch):
        m = d * (d + 1) // 2
        for make_seed in (lambda: 7, lambda: rng.stream(7)):
            ref = stewart_columns(d, 40, make_seed(), 1, monkeypatch)
            for budget in (3 * m, 5 * m + 1, 1 << 16):
                assert np.array_equal(
                    stewart_columns(d, 40, make_seed(), budget, monkeypatch), ref)

    def test_determinism(self, monkeypatch):
        a = stewart_columns(8, 30, 123, 1 << 16, monkeypatch)
        b = stewart_columns(8, 30, 123, 1 << 16, monkeypatch)
        assert np.array_equal(a, b)

    def test_int_seed_gives_per_trial_substreams(self, monkeypatch):
        cols = stewart_columns(4, 6, 9, 1 << 16, monkeypatch, power=1)
        for t in range(6):
            alone = qcore.haar_batch(4, [rng.stream(9, t)]).first_columns()[0]
            assert np.array_equal(cols[t], alone)

    def test_generator_seed_draws_sequentially(self, monkeypatch):
        cols = stewart_columns(4, 6, rng.stream(9), 1 << 16, monkeypatch, power=1)
        g = rng.stream(9)
        one_by_one = [qcore.haar_batch(4, [g]).first_columns()[0] for _ in range(6)]
        assert np.array_equal(cols, np.array(one_by_one))
        assert not np.array_equal(cols, stewart_columns(4, 6, 9, 1 << 16, monkeypatch, power=1))

    def test_block_shape_checked(self):
        batch = qcore.haar_batch(4, [rng.stream(1, t) for t in range(3)])
        with pytest.raises(DimensionMismatchError):
            qcore.apply_haar_batch(batch, np.zeros((2, 4), dtype=complex))
        with pytest.raises(InvalidDimensionError):
            qcore.haar_batch(0, [])


class TestTrustedUnitaries:
    def test_supplied_matrix_still_checked(self):
        with pytest.raises(InvalidParameterError):
            qcore.UnitaryMatrix(np.ones((4, 4)))

    def test_nan_matrix_rejected(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = np.nan
        with pytest.raises(InvalidParameterError):
            qcore.UnitaryMatrix(m)

    def test_nan_matrix_rejected_above_the_unitarity_check_size(self):
        with pytest.raises(InvalidParameterError, match="non-finite"):
            qcore.UnitaryMatrix(np.full((513, 513), np.nan))

    def test_haar_unitary_bits_match_ginibre_qr_formula(self):
        g = rng.stream(123)
        z = (g.standard_normal((8, 8)) + 1j * g.standard_normal((8, 8))) / math.sqrt(2)
        q, r = np.linalg.qr(z)
        diag = np.diagonal(r)
        expected = q * (diag / np.abs(diag))
        u = qcore.haar_unitary(8, seed=123).matrix
        assert np.array_equal(u, expected)
        assert not u.flags.writeable

    @pytest.mark.parametrize("d", [4, 8, 64])
    def test_stacked_draws_match_one_at_a_time(self, d):
        streams = [rng.stream(31, t) for t in range(5)]
        stack = qcore.haar_unitaries(d, streams)
        assert stack.shape == (5, d, d)
        for t in range(5):
            assert np.array_equal(stack[t], qcore.haar_unitary(d, rng.stream(31, t)).matrix)


class TestPrimitives:
    def test_nan_state_rejected(self):
        with pytest.raises(InvalidParameterError):
            qcore.Statevector([np.nan, 0.0])

    def test_apply_pauli_flips_first_qubit(self):
        s = qcore.zero_state(4)
        out = qcore.apply_pauli(qcore.PauliTerm.single(0, "X"), s)
        assert abs(out.amplitudes[0b1000] - 1) < 1e-12

    def test_inner_product_self(self):
        s = qcore.haar_state(16, seed=3)
        assert abs(qcore.inner_product(s, s) - 1) < 1e-10

    def test_identity_unitary(self):
        s = qcore.haar_state(8, seed=4)
        u = qcore.UnitaryMatrix(np.eye(8))
        assert np.array_equal(qcore.apply_unitary(u, s).amplitudes, s.amplitudes)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            qcore.apply_unitary(qcore.UnitaryMatrix(np.eye(4)), qcore.zero_state(3))
        with pytest.raises(DimensionMismatchError):
            qcore.inner_product(qcore.zero_state(2), qcore.zero_state(3))

    def test_pauli_norm_preserved(self):
        s = qcore.haar_state(16, seed=9)
        for labels, sites in (("X", (1,)), ("Y", (2,)), ("Z", (3,)), ("ZZ", (0, 1))):
            out = qcore.apply_pauli(qcore.PauliTerm(sites, labels), s)
            assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1) < 1e-10

    def test_pauli_y_action(self):
        s = qcore.zero_state(1)
        out = qcore.apply_pauli(qcore.PauliTerm.single(0, "Y"), s)
        assert abs(out.amplitudes[1] - 1j) < 1e-12


class TestHamiltonian:
    def test_pure_ising_spectrum(self):
        h = qcore.build_hamiltonian(2, 0.0, 0.0)
        assert len(h.terms) == 1
        evals = np.linalg.eigvalsh(h.dense_matrix())
        assert np.allclose(sorted(evals), [-1, -1, 1, 1])

    def test_transverse_field_matches_direct_diagonalization(self):
        h = qcore.build_hamiltonian(2, 1.0, 0.0)
        z = np.diag([1.0, -1.0])
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        eye = np.eye(2)
        direct = np.kron(z, z) + np.kron(x, eye) + np.kron(eye, x)
        assert np.allclose(np.linalg.eigvalsh(h.dense_matrix()), np.linalg.eigvalsh(direct))

    def test_term_count(self):
        h = qcore.build_hamiltonian(8, 1.05, 0.5)
        assert len(h.terms) == 8 + 8 + 7

    def test_small_chain_rejected(self):
        with pytest.raises(InvalidParameterError):
            qcore.build_hamiltonian(1, 1.0, 0.5)

    @pytest.mark.parametrize("coefficient", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_rejected(self, coefficient):
        with pytest.raises(InvalidParameterError, match="coefficient must be finite"):
            qcore.PauliTerm.single(0, "X", coefficient)
        with pytest.raises(InvalidParameterError):
            qcore.build_hamiltonian(4, coefficient, 0.5)

    def test_doubled_hamiltonian_blocks(self, chaotic_chain_6, doubled_chain_12):
        assert doubled_chain_12.n_qubits == 12
        assert len(doubled_chain_12.terms) == 2 * len(chaotic_chain_6.terms)

    def test_real_chain_has_real_eigenvectors(self):
        h = qcore.build_hamiltonian(4, 1.05, 0.5)
        evals, evecs = h.eigensystem()
        assert evecs.dtype == np.float64
        s = qcore.haar_state(16, seed=6)
        for t in (-2.0, 0.0, 0.3, 7.5):
            ref = evecs @ (np.exp(-1j * evals * t) * (evecs.T @ s.amplitudes))
            assert np.max(np.abs(qcore.evolve(h, t, s).amplitudes - ref)) < 1e-12


class TestEvolution:
    def test_zero_time(self):
        h = qcore.build_hamiltonian(4, 1.05, 0.5)
        s = qcore.haar_state(16, seed=1)
        out = qcore.evolve(h, 0.0, s)
        assert np.max(np.abs(out.amplitudes - s.amplitudes)) < 1e-10

    def test_group_property(self):
        h = qcore.build_hamiltonian(4, 1.05, 0.5)
        s = qcore.haar_state(16, seed=2)
        out = qcore.evolve(h, -1.7, qcore.evolve(h, 1.7, s))
        assert np.max(np.abs(out.amplitudes - s.amplitudes)) < 1e-8

    def test_energy_conservation(self):
        h = qcore.build_hamiltonian(4, 1.05, 0.5)
        s = qcore.haar_state(16, seed=3)
        before = qcore.energy_expectation(h, s)
        after = qcore.energy_expectation(h, qcore.evolve(h, 2.5, s))
        assert abs(before - after) < 1e-8

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.floats(min_value=-5, max_value=5, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_norm_preserved(self, seed, t):
        h = qcore.build_hamiltonian(3, 1.05, 0.5)
        s = qcore.haar_state(8, seed=seed)
        out = qcore.evolve(h, t, s)
        assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1) < 1e-10

    def test_matches_dense_eigenbasis_formula(self):
        # a Y coupling makes the eigenvectors genuinely complex, so a missing
        # conjugation in the basis change would show
        h = qcore.LocalHamiltonian(4, (qcore.PauliTerm((0, 1), "XY", 0.7),
                                       qcore.PauliTerm((2, 3), "ZZ", 1.0),
                                       qcore.PauliTerm.single(1, "Y", 0.4),
                                       qcore.PauliTerm.single(3, "X", 1.1)))
        evals, evecs = h.eigensystem()
        assert np.max(np.abs(evecs.imag)) > 0.1
        s = qcore.haar_state(16, seed=4)
        for t in (-2.0, 0.3, 7.5):
            phases = np.exp(-1j * evals * t)
            ref = evecs @ (phases * (evecs.conj().T @ s.amplitudes))
            assert np.max(np.abs(qcore.evolve(h, t, s).amplitudes - ref)) < 1e-12


def _dense_twin(h):
    """The same terms as ``h`` in a chain that records no half, so it evolves densely."""
    return qcore.LocalHamiltonian(h.n_qubits, h.terms)


class TestFactoredDoubledEvolution:
    @pytest.mark.parametrize("n_half", [2, 3, 4, 5])
    def test_matches_dense_path(self, n_half):
        hd = qcore.doubled_hamiltonian(qcore.build_hamiltonian(n_half, 1.05, 0.5))
        dense = _dense_twin(hd)
        d = hd.dimension
        vec = qcore.haar_state(d, seed=n_half).amplitudes
        block = np.stack([qcore.haar_state(d, rng.stream(n_half, j)).amplitudes
                          for j in range(3)], axis=1)
        for t in (-3.1, 0.0, 0.7, 40.0):
            for amps in (vec, block):
                got = qcore._evolve_amplitudes(hd, t, amps)
                assert got.shape == amps.shape
                assert np.max(np.abs(got - qcore._evolve_amplitudes(dense, t, amps))) < 1e-12

    def test_complex_half_chain_matches_dense_path(self):
        half = qcore.LocalHamiltonian(3, (qcore.PauliTerm((0, 1), "XY", 0.7),
                                          qcore.PauliTerm((1, 2), "ZZ", 1.0),
                                          qcore.PauliTerm.single(2, "Y", 0.4),
                                          qcore.PauliTerm.single(0, "X", 1.1)))
        assert np.max(np.abs(half.eigensystem()[1].imag)) > 0.1
        hd = qcore.doubled_hamiltonian(half)
        s = qcore.haar_state(hd.dimension, seed=8)
        for t in (-2.0, 0.0, 5.3):
            got = qcore.evolve(hd, t, s).amplitudes
            ref = qcore.evolve(_dense_twin(hd), t, s).amplitudes
            assert np.max(np.abs(got - ref)) < 1e-12

    def test_tfd_past_the_dense_limit(self):
        half = qcore.build_hamiltonian(7, 1.05, 0.5)
        hd = qcore.doubled_hamiltonian(half)
        assert hd.n_qubits > qcore.MAX_QUBITS
        tfd = qcore.tfd_state(half, 1.0)
        before = qcore.energy_expectation(hd, tfd)
        for t in (-1.3, 13.7):
            out = qcore.evolve(hd, t, tfd)
            assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-10
            assert abs(qcore.energy_expectation(hd, out) - before) < 1e-10
        assert hd._eig is None


class TestThermofieldDouble:
    def test_infinite_temperature_is_maximally_entangled(self):
        h = qcore.build_hamiltonian(3, 1.05, 0.5)
        tfd = qcore.tfd_state(h, 0.0)
        sv = np.linalg.svd(tfd.amplitudes.reshape(8, 8), compute_uv=False)
        assert np.allclose(sv, 1 / math.sqrt(8))

    def test_zero_temperature_is_ground_product(self):
        h = qcore.build_hamiltonian(3, 1.05, 0.5)
        tfd = qcore.tfd_state(h, 1000.0)
        evals, evecs = h.eigensystem()
        gs = qcore.Statevector(np.kron(evecs[:, 0], evecs[:, 0].conj()))
        assert tfd.overlap_sq(gs) >= 1 - 1e-6

    def test_schmidt_spectrum_is_gibbs(self):
        h = qcore.build_hamiltonian(2, 1.05, 0.5)
        beta = 1.0
        tfd = qcore.tfd_state(h, beta)
        sv = np.linalg.svd(tfd.amplitudes.reshape(4, 4), compute_uv=False)
        evals = np.linalg.eigvalsh(h.dense_matrix())
        gibbs = np.exp(-beta * evals)
        gibbs /= gibbs.sum()
        assert np.max(np.abs(np.sort(sv**2) - np.sort(gibbs))) < 1e-8

    def test_negative_beta_rejected(self):
        h = qcore.build_hamiltonian(2, 1.0, 0.5)
        with pytest.raises(InvalidParameterError):
            qcore.tfd_state(h, -1.0)

    @pytest.mark.parametrize("beta", [math.nan, math.inf])
    def test_non_finite_beta_rejected(self, beta):
        h = qcore.build_hamiltonian(2, 1.0, 0.5)
        with pytest.raises(InvalidParameterError):
            qcore.tfd_state(h, beta)

    def test_half_chain_size_limit(self):
        h = qcore.LocalHamiltonian(qcore.MAX_TFD_QUBITS // 2 + 1, ())
        with pytest.raises(ResourceLimitError):
            qcore.tfd_state(h, 1.0)


class TestEnergyMeasurement:
    def test_eigenstate_energy(self):
        h = qcore.build_hamiltonian(3, 1.05, 0.5)
        evals, evecs = h.eigensystem()
        for i in (0, 3, 7):
            s = qcore.Statevector(evecs[:, i])
            assert abs(qcore.energy_expectation(h, s) - evals[i]) < 1e-8

    def test_haar_mean_energy_of_traceless_hamiltonian(self):
        h = qcore.build_hamiltonian(6, 1.05, 0.5)  # every Pauli term is traceless
        vals = np.array([qcore.energy_expectation(h, qcore.haar_state(64, rng.stream(13, t)))
                         for t in range(1000)])
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean()) <= 3 * se

    def test_sampled_estimate_consistency(self):
        h = qcore.build_hamiltonian(3, 1.05, 0.5)
        s = qcore.haar_state(8, seed=21)
        exact = qcore.energy_expectation(h, s)
        est = qcore.sample_energy_measurement(h, s, shots=10**5, seed=22)
        assert abs(est.estimate - exact) <= 3 * est.std_error
        assert est.copies_used == 10**5 * len(h.terms)

    def test_zero_shots_rejected(self):
        h = qcore.build_hamiltonian(2, 1.0, 0.5)
        with pytest.raises(InvalidParameterError):
            qcore.sample_energy_measurement(h, qcore.zero_state(2), shots=0, seed=0)


class TestScrambling:
    def test_otoc_t0_disjoint_is_one(self):
        h = qcore.build_hamiltonian(5, 1.05, 0.5)
        s = qcore.haar_state(32, seed=31)
        f = qcore.otoc(h, 0.0, qcore.PauliTerm.single(0, "X"),
                       qcore.PauliTerm.single(4, "Z"), s)
        assert abs(f - 1) < 1e-10

    def test_classical_chain_never_scrambles(self):
        # diagonal H commutes with the probe Z, so |OTOC| stays exactly 1
        h = qcore.build_hamiltonian(4, 0.0, 0.0)
        s = qcore.haar_state(16, seed=32)
        for t in (1.0, 5.0, 20.0):
            f = qcore.otoc(h, t, qcore.PauliTerm.single(0, "X"),
                           qcore.PauliTerm.single(3, "Z"), s)
            assert abs(abs(f) - 1) < 1e-10
        with pytest.raises(NoScramblingError) as err:
            qcore.scrambling_time(h, 0.1, seed=33, trials=2)
        assert abs(err.value.final_otoc - 1.0) < 1e-8

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_batched_kernel_matches_per_state_formula(self, n):
        h = qcore.build_hamiltonian(n, 1.05, 0.5)
        states = [qcore.haar_state(1 << n, rng.stream(34, i)) for i in range(3)]

        def heisenberg(t, w, s):  # W(t)|s> = exp(iHt) W exp(-iHt)|s>
            return qcore.evolve(h, -t, qcore.apply_pauli(w, qcore.evolve(h, t, s)))

        for label_w, label_v in (("X", "Z"), ("Y", "X"), ("Z", "Y")):
            w = qcore.PauliTerm.single(0, label_w)
            v = qcore.PauliTerm.single(n - 1, label_v)
            kernel = qcore._otoc_kernel(h, w, v, states)
            for t in (0.0, 0.6, 2.25, 9.0):
                ref = [qcore.inner_product(qcore.apply_pauli(v, heisenberg(t, w, s)),
                                           heisenberg(t, w, qcore.apply_pauli(v, s)))
                       for s in states]
                assert np.max(np.abs(kernel(t) - ref)) < 1e-12
                assert abs(qcore.otoc(h, t, w, v, states[1]) - ref[1]) < 1e-12

    def test_scrambling_curve_grid(self, chaotic_chain_6):
        t_scr, values = qcore.scrambling_curve(chaotic_chain_6, 0.1, seed=42, extra_points=3)
        assert t_scr == qcore.scrambling_time(chaotic_chain_6, 0.1, seed=42)
        crossing = int(round(t_scr / 0.25))
        assert len(values) == crossing + 3 + 1
        assert values[crossing] < 0.1 * values[0]
        assert all(value >= 0.1 * values[0] for value in values[:crossing])
        with pytest.raises(InvalidParameterError):
            qcore.scrambling_curve(chaotic_chain_6, 0.1, seed=42, extra_points=-1)

    def test_chaotic_chain_scrambles(self, chaotic_chain_6):
        t_scr = qcore.scrambling_time(chaotic_chain_6, 0.1, seed=42)
        assert 0 < t_scr <= 50 * 6
        assert t_scr == 4.5  # frozen from this seed

    def test_threshold_validation(self, chaotic_chain_6):
        with pytest.raises(InvalidParameterError):
            qcore.scrambling_time(chaotic_chain_6, 1.5, seed=0)

    @pytest.mark.parametrize("time_step", [5e-324, 1e-300, 300 / (qcore.MAX_GRID_POINTS + 1)])
    def test_grid_size_capped(self, chaotic_chain_6, time_step):
        with pytest.raises(ResourceLimitError, match="exceeds"):
            qcore.scrambling_curve(chaotic_chain_6, 0.1, seed=0, time_step=time_step)


class TestHaarFirstMomentInvariant:
    def test_pauli_overlap_moment_small_n(self):
        # mean |<0|U^dag X_1 U|0>|^2 = 1/(2^n + 1) for n = 2
        d = 4
        trials = 2000
        bar = (np.arange(d) + d // 2) % d
        vals = np.empty(trials)
        for t in range(trials):
            u = qcore.haar_unitary(d, rng.stream(71, t)).matrix
            psi = u[:, 0]
            vals[t] = abs(np.vdot(psi, psi[bar])) ** 2
        se = vals.std(ddof=1) / math.sqrt(trials)
        assert abs(vals.mean() - 1 / (d + 1)) <= 3 * se
