import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scramblab import prslab as pl, qcore, rng, weingarten as wg
from scramblab.errors import (
    BudgetViolationError,
    InvalidParameterError,
    ResourceLimitError,
    ScheduleError,
    ShockKeyError,
)


def haar_spec(n=8, ell=3, seed=11):
    return pl.PRSEnsembleSpec(ell, qcore.zero_state(n), "haar", seed=seed)


class TestEnsembleSpec:
    def test_identity_key_is_pure_scrambling(self):
        spec = haar_spec()
        u = spec.scrambler_unitary().matrix
        amps = qcore.zero_state(8).amplitudes
        for _ in range(3):
            amps = u @ amps
        out = pl.prs_state(spec, "III")
        assert np.max(np.abs(out.amplitudes - amps)) < 1e-12

    def test_all_keys_normalized(self):
        spec = haar_spec(n=4, ell=2)
        for key in ("II", "XZ", "YY", "ZX"):
            s = pl.prs_state(spec, key)
            assert abs(np.sum(np.abs(s.amplitudes) ** 2) - 1) < 1e-10

    def test_key_validation(self):
        spec = haar_spec(ell=3)
        with pytest.raises(ShockKeyError):
            pl.prs_state(spec, "XY")
        with pytest.raises(ShockKeyError):
            pl.prs_state(spec, "XQZ")
        with pytest.raises(ShockKeyError, match=">= 0"):
            pl.random_shock_key(-1, 0)

    def test_cached_unitary_is_not_an_argument(self):
        with pytest.raises(TypeError):
            pl.PRSEnsembleSpec(1, qcore.zero_state(2), "haar", seed=0, _unitary=None)

    def test_multiplier_floor(self):
        h = qcore.build_hamiltonian(3, 1.05, 0.5)
        with pytest.raises(InvalidParameterError):
            pl.PRSEnsembleSpec(2, qcore.zero_state(3), "hamiltonian",
                               hamiltonian=h, multiplier=1, scrambling_time=3.0)

    @pytest.mark.parametrize("t_scr", [math.nan, math.inf, -math.inf])
    def test_non_finite_scrambling_time(self, t_scr):
        h = qcore.build_hamiltonian(3, 1.05, 0.5)
        with pytest.raises(InvalidParameterError, match="scrambling time"):
            pl.PRSEnsembleSpec(2, qcore.zero_state(3), "hamiltonian",
                               hamiltonian=h, multiplier=2, scrambling_time=t_scr)

    def test_non_finite_scrambling_time_from_config_text(self):
        cfg = pl.ensemble_config_from_text(
            "scrambler = hamiltonian\nn = 3\nl = 1\nseed = 0\nt_scr = nan\n")
        with pytest.raises(InvalidParameterError, match="scrambling time"):
            pl.build_ensemble_spec(cfg)

    def test_hamiltonian_backed_state(self):
        h = qcore.build_hamiltonian(3, 1.05, 0.5)
        spec = pl.PRSEnsembleSpec(2, qcore.zero_state(3), "hamiltonian",
                                  hamiltonian=h, multiplier=2, scrambling_time=3.0)
        direct = qcore.evolve(h, 6.0, qcore.zero_state(3))
        via_u = qcore.apply_unitary(spec.scrambler_unitary(), qcore.zero_state(3))
        assert np.max(np.abs(direct.amplitudes - via_u.amplitudes)) < 1e-9

    def test_distinct_keys_nearly_orthogonal(self):
        hits = 0
        trials = 100
        for t in range(trials):
            g = rng.stream(31, t)
            spec = haar_spec(seed=int(g.integers(2**62)))
            key = pl.random_shock_key(3, g)
            slot = int(g.integers(3))
            labels = [c for c in "IXYZ" if c != key[slot]]
            other = key[:slot] + labels[int(g.integers(3))] + key[slot + 1:]
            ov = pl.prs_state(spec, key).overlap_sq(pl.prs_state(spec, other))
            hits += ov <= 50 / 2**8
        assert hits >= 95

    def test_hamiltonian_scrambler_unitary_is_the_eigen_formula(self):
        h = qcore.build_hamiltonian(4, 1.05, 0.5)
        spec = pl.PRSEnsembleSpec(2, qcore.zero_state(4), "hamiltonian",
                                  hamiltonian=h, multiplier=3, scrambling_time=1.5)
        evals, evecs = h.eigensystem()
        u = evecs @ np.diag(np.exp(-1j * evals * 4.5)) @ evecs.conj().T
        assert np.max(np.abs(spec.scrambler_unitary().matrix - u)) < 1e-12

    def test_matches_apply_chain_bitwise_for_every_key(self):
        spec = haar_spec(n=6, ell=2)
        u = spec.scrambler_unitary()
        for key in ("".join(k) for k in itertools.product("IXYZ", repeat=2)):
            state = spec.initial_state
            for label in key:
                state = qcore.apply_unitary(u, state)
                if label != "I":
                    state = qcore.apply_pauli(qcore.PauliTerm.single(0, label), state)
            assert np.array_equal(pl.prs_state(spec, key).amplitudes, state.amplitudes)


class TestSchedules:
    def test_randomized_schedule_shape(self):
        sched = pl.randomized_schedule(10, 5, 20.0, seed=1)
        times = [t for t, _, _ in sched.entries]
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))
        assert times[-1] <= 20.0
        assert sched.ell == 5

    def test_empty_schedule(self):
        sched = pl.randomized_schedule(4, 0, 5.0, seed=2)
        assert sched.ell == 0

    def test_site_histogram_uniform(self):
        n = 6
        counts = np.zeros(n)
        draws = 10**4
        for t in range(draws):
            sched = pl.randomized_schedule(n, 1, 1.0, rng.stream(3, t))
            counts[sched.entries[0][1]] += 1
        p = counts / draws
        se = math.sqrt((1 / n) * (1 - 1 / n) / draws)
        assert np.all(np.abs(p - 1 / n) <= 3.5 * se)

    def test_schedule_validation(self):
        with pytest.raises(InvalidParameterError, match="n >= 1"):
            pl.randomized_schedule(0, 2, 1.0, 0)
        with pytest.raises(ScheduleError):
            pl.ShockSchedule(((1.0, 0, "X"), (1.0, 1, "Y")), 2.0)  # equal times
        with pytest.raises(ScheduleError):
            pl.ShockSchedule(((3.0, 0, "X"),), 2.0)  # beyond T
        with pytest.raises(ScheduleError):
            pl.ShockSchedule(((1.0, 0, "W"),), 2.0)  # bad label

    def test_non_integral_site_rejected(self):
        with pytest.raises(InvalidParameterError, match="integer"):
            pl.ShockSchedule(((1.0, 0.9, "X"),), 2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_times_rejected(self, bad):
        with pytest.raises(ScheduleError):
            pl.ShockSchedule(((bad, 0, "X"),), 2.0)
        with pytest.raises(ScheduleError):
            pl.ShockSchedule(((1.0, 0, "X"),), bad)
        with pytest.raises(ScheduleError):
            pl.ShockSchedule((), bad)
        with pytest.raises(ScheduleError):
            pl.fixed_spacing_schedule(2, bad)

    @pytest.mark.parametrize("total", [math.nan, math.inf, 0.0, 5e-324])
    def test_randomized_schedule_needs_room_for_its_times(self, total):
        with pytest.raises(InvalidParameterError):
            pl.randomized_schedule(4, 4, total, 0)

    def test_text_roundtrip(self):
        sched = pl.randomized_schedule(8, 4, 12.5, seed=4)
        text = pl.schedule_to_text(sched)
        back = pl.schedule_from_text(text)
        assert back == sched
        assert pl.schedule_to_text(back) == text

    @pytest.mark.parametrize("text, match", [
        ("schedule = 1.0:0:X\n", "'T'"),       # missing T
        ("T = soon\n", None),                  # non-numeric T
        ("T = 4\nschedule = 1.0:0\n", None),  # entry without a label
        ("T = 4\nschedule = 1.0:0:X,\n", None),  # empty entry
        ("T = 4\nschedule = a:0:X\n", None),  # non-numeric time
        ("T = nan\nschedule = nan:0:X\n", "finite"),
        ("T = inf\n", "finite"),
        ("T = 4\nschedule = nan:0:X\n", "finite"),
    ])
    def test_malformed_text_rejected(self, text, match):
        with pytest.raises(ScheduleError, match=match):
            pl.schedule_from_text(text)


class TestShockedEvolution:
    def test_empty_schedule_is_pure_evolution(self):
        h = qcore.build_hamiltonian(4, 1.05, 0.5)
        s = qcore.haar_state(16, seed=5)
        out = pl.shocked_evolution_state(h, pl.ShockSchedule((), 2.5), s)
        direct = qcore.evolve(h, 2.5, s)
        assert np.max(np.abs(out.amplitudes - direct.amplitudes)) < 1e-10

    def test_shock_energy_kick_bound(self):
        # each shock moves <H> by at most 2 * sum |coeff| over terms touching
        # the shocked site
        h = qcore.build_hamiltonian(5, 1.05, 0.5)
        s0 = qcore.tfd_state(qcore.build_hamiltonian(2, 1.0, 0.3), 1.0)
        s0 = qcore.haar_state(32, seed=6)
        for t in range(100):
            g = rng.stream(7, t)
            site = int(g.integers(5))
            label = "XYZ"[int(g.integers(3))]
            t_evolve = float(g.random() * 3)
            state = qcore.evolve(h, t_evolve, s0)
            shocked = qcore.apply_pauli(qcore.PauliTerm.single(site, label), state)
            kick = abs(qcore.energy_expectation(h, shocked) - qcore.energy_expectation(h, state))
            bound = 2 * sum(abs(term.coefficient) for term in h.terms if site in term.sites)
            assert kick <= bound + 1e-9

    def test_butterfly_divergence(self):
        # Schedules differing in one Pauli label: once they re-align, unitarity
        # pins the overlap at |<P^dag Q>| evaluated in the pre-shock state, so
        # divergence reflects how small that local expectation is for the
        # Gibbs-weighted reference. X vs Y differing gives |<Z_site>|, which is
        # small at beta = 1.
        half = qcore.build_hamiltonian(5, 1.05, 0.5)
        h = qcore.doubled_hamiltonian(half)
        s0 = qcore.tfd_state(half, 1.0)
        t_scr = 4.5
        hits = 0
        trials = 50
        for t in range(trials):
            g = rng.stream(8, t)
            times = (1.0 * t_scr, 2.0 * t_scr)
            site = int(g.integers(10))
            a = pl.ShockSchedule(((times[0], site, "X"), (times[1], site, "Z")), 3 * t_scr)
            b = pl.ShockSchedule(((times[0], site, "Y"), (times[1], site, "Z")), 3 * t_scr)
            ov = pl.shocked_evolution_state(h, a, s0).overlap_sq(
                pl.shocked_evolution_state(h, b, s0))
            hits += ov <= 0.5
        assert hits >= 45

    def test_matches_evolve_apply_pauli_chain_bitwise(self):
        half = qcore.build_hamiltonian(3, 1.05, 0.5)
        h = qcore.doubled_hamiltonian(half)
        s0 = qcore.tfd_state(half, 1.0)
        for t in range(5):
            sched = pl.randomized_schedule(6, t, 9.0, rng.stream(12, t))
            state, t_prev = s0, 0.0
            for when, site, label in sched.entries:
                state = qcore.evolve(h, when - t_prev, state)
                state = qcore.apply_pauli(qcore.PauliTerm.single(site, label), state)
                t_prev = when
            state = qcore.evolve(h, sched.total_time - t_prev, state)
            out = pl.shocked_evolution_state(h, sched, s0)
            assert np.array_equal(out.amplitudes, state.amplitudes)

    def test_schedule_site_bound(self):
        h = qcore.build_hamiltonian(3, 1.0, 0.5)
        with pytest.raises(ScheduleError):
            pl.shocked_evolution_state(h, pl.ShockSchedule(((1.0, 7, "X"),), 2.0),
                                       qcore.zero_state(3))


class TestStateTree:
    def test_depth_zero_tree(self):
        tree = pl.build_state_tree(haar_spec(n=4, ell=1), depth=0)
        assert tree.node_count == 1
        assert pl.gram_matrix(tree).shape == (1, 1)

    def test_node_count_and_unit_diagonal(self):
        tree = pl.build_state_tree(haar_spec(n=6, ell=2))
        assert tree.node_count == (4**3 - 1) // 3
        gm = pl.gram_matrix(tree)
        assert np.max(np.abs(np.diag(gm) - 1)) < 1e-10

    def test_sibling_moment_matches_first_moment_formula(self):
        # mean |<U phi|X_1 U phi>|^2 over Haar U equals 1/(2^n + 1)
        n, trials = 8, 100
        vals = np.empty(trials)
        for t in range(trials):
            spec = haar_spec(n=n, ell=1, seed=int(rng.stream(9, t).integers(2**62)))
            vals[t] = pl.sibling_pair_overlap(pl.build_state_tree(spec))
        se = vals.std(ddof=1) / math.sqrt(trials)
        assert abs(vals.mean() - 1 / (2**n + 1)) <= 3 * se

    def test_overlap_decays_exponentially_in_n(self):
        # slope of log2(mean sibling overlap) against n over n = 6..10 is -1
        trials = 60
        means = []
        ns = range(6, 11)
        for n in ns:
            vals = [pl.sibling_pair_overlap(pl.build_state_tree(
                        haar_spec(n=n, ell=1, seed=int(rng.stream(10, n, t).integers(2**62)))))
                    for t in range(trials)]
            means.append(float(np.mean(vals)))
        slope = np.polyfit(list(ns), np.log2(means), 1)[0]
        assert abs(slope - (-1.0)) <= 0.2

    def test_memory_cap(self):
        with pytest.raises(ResourceLimitError):
            pl.build_state_tree(haar_spec(n=10, ell=7))

    @pytest.mark.parametrize("kind", ["haar", "hamiltonian"])
    def test_level_columns_are_the_prs_states_of_their_keys(self, kind):
        h = qcore.build_hamiltonian(4, 1.05, 0.5)

        def spec(ell):
            if kind == "haar":
                return pl.PRSEnsembleSpec(ell, qcore.zero_state(4), "haar", seed=13)
            return pl.PRSEnsembleSpec(ell, qcore.zero_state(4), "hamiltonian",
                                      hamiltonian=h, multiplier=2, scrambling_time=2.0)

        tree = pl.build_state_tree(spec(3))
        assert [level.shape for level in tree.levels] == [(16, 4**j) for j in range(4)]
        assert not any(level.flags.writeable for level in tree.levels)
        for j in range(1, 4):
            for i, key in enumerate(itertools.product("IXYZ", repeat=j)):
                state = pl.prs_state(spec(j), "".join(key))
                assert np.max(np.abs(tree.levels[j][:, i] - state.amplitudes)) < 1e-12


class TestMomentMC:
    def test_k1_matches_formula(self):
        est = pl.moment_power_overlap_mc(4, 1, 4000, seed=10)
        assert abs(est.mean - 0.2) <= 3 * est.std_error

    def test_k2_matches_exact(self):
        est = pl.moment_power_overlap_mc(4, 2, 10**4, seed=11)
        exact = float(wg.power_overlap_exact(2, 4))
        assert abs(est.mean - exact) <= 5 * est.std_error

    def test_zero_trials_rejected(self):
        with pytest.raises(InvalidParameterError):
            pl.moment_power_overlap_mc(4, 1, 0, seed=0)

    def test_odd_dimension_matches_shift_generalization(self):
        # at odd d the flip is the floor(d/2) shift; closed form still 1/(d+1)
        est = pl.moment_power_overlap_mc(5, 1, 4000, seed=12)
        assert abs(est.mean - 1 / 6) <= 3 * est.std_error


class TestPhaseStates:
    def test_flat_magnitudes(self):
        s = pl.phase_state(pl.PhaseStateKey(987654321, 8))
        assert np.allclose(np.abs(s.amplitudes), 2 ** (-4))

    def test_zero_key_uniform(self):
        s = pl.phase_state(pl.PhaseStateKey(0, 5))
        assert np.allclose(s.amplitudes, 2 ** (-2.5))

    def test_distinct_keys_nearly_orthogonal(self):
        hits = 0
        for t in range(100):
            g = rng.stream(12, t)
            k1, k2 = (int(g.integers(1, 2**63)) for _ in range(2))
            ov = pl.phase_state(pl.PhaseStateKey(k1, 10)).overlap_sq(
                pl.phase_state(pl.PhaseStateKey(k2, 10)))
            hits += ov <= 0.05
        assert hits >= 95

    def test_same_key_reproducible(self):
        a = pl.phase_state(pl.PhaseStateKey(42, 6))
        b = pl.phase_state(pl.PhaseStateKey(42, 6))
        assert np.array_equal(a.amplitudes, b.amplitudes)


class TestCopyBudget:
    def test_budget_enforced(self):
        budget = pl.CopyBudget(qcore.zero_state(3), 2, rng.stream(13))
        budget.measure_pauli(qcore.PauliTerm.single(0, "Z"))
        budget.measure_pauli(qcore.PauliTerm.single(1, "Z"))
        with pytest.raises(BudgetViolationError):
            budget.measure_pauli(qcore.PauliTerm.single(2, "Z"))

    def test_pair_test_needs_two(self):
        budget = pl.CopyBudget(qcore.zero_state(3), 1, rng.stream(14))
        with pytest.raises(BudgetViolationError):
            budget.swap_test_pair()

    def test_pair_test_on_pure_state_accepts(self):
        budget = pl.CopyBudget(qcore.haar_state(8, seed=15), 10, rng.stream(16))
        assert all(budget.swap_test_pair() == 0 for _ in range(5))

    def test_measurement_is_plus_minus_one(self):
        budget = pl.CopyBudget(qcore.haar_state(8, seed=17), 4, rng.stream(18))
        for _ in range(4):
            assert budget.measure_pauli(qcore.PauliTerm.single(0, "X")) in (-1, 1)


class TestDistinguisher:
    def test_identical_ensembles_no_bias(self):
        d = 32
        desc = pl.EnsembleDescription("haar", lambda g: qcore.haar_state(d, g))
        est = pl.copy_limited_distinguisher(lambda g: (desc, desc), 2,
                                            "overlap-with-reference", 400, seed=19)
        se = 1 / math.sqrt(400)
        assert abs(est.bias) <= 3 * se

    def test_swap_test_bias_small(self):
        make_pair = _shock_vs_haar_pair()
        est = pl.copy_limited_distinguisher(make_pair, 2, "swap-test", 300, seed=20)
        assert abs(est.bias) <= 0.15
        assert est.max_copies_used <= 2

    def test_unknown_strategy(self):
        make_pair = _shock_vs_haar_pair()
        with pytest.raises(KeyError):
            pl.copy_limited_distinguisher(make_pair, 1, "grover", 10, seed=0)

    def test_trial_rows_recorded(self):
        make_pair = _shock_vs_haar_pair()
        est = pl.copy_limited_distinguisher(make_pair, 1, "overlap-with-reference", 25, seed=21)
        assert len(est.trial_rows) == 25
        assert all(row[0] in ("shock", "haar") for row in est.trial_rows)

    def test_references_come_from_ensemble_a(self):
        # overlap-with-reference draws each copy's public reference from desc_a.sample
        d, copies, trials = 8, 3, 20
        calls = {"a": 0, "b": 0}

        def counting(name):
            def sample(g):
                calls[name] += 1
                return qcore.haar_state(d, g)
            return sample

        pair = (pl.EnsembleDescription("a", counting("a")),
                pl.EnsembleDescription("b", counting("b")))
        est = pl.copy_limited_distinguisher(lambda g: pair, copies, "overlap-with-reference",
                                            trials, seed=8)
        hidden_a = sum(row[0] == "a" for row in est.trial_rows)
        assert 0 < hidden_a < trials
        assert calls == {"a": hidden_a + copies * trials, "b": trials - hidden_a}

    def test_different_evolution_lengths_mutually_indistinguishable(self):
        # two shock ensembles whose scheduled evolution lengths differ are as
        # hard to tell apart for these strategies as either is from random
        n, d = 6, 64

        def make_pair(g):
            seed_u = int(g.integers(2**62))
            spec2 = pl.PRSEnsembleSpec(2, qcore.zero_state(n), "haar", seed=seed_u)
            spec3 = pl.PRSEnsembleSpec(3, qcore.zero_state(n), "haar", seed=seed_u)
            samp2 = lambda gg: pl.prs_state(spec2, pl.random_shock_key(2, gg))
            samp3 = lambda gg: pl.prs_state(spec3, pl.random_shock_key(3, gg))
            return pl.EnsembleDescription("short", samp2), pl.EnsembleDescription("long", samp3)

        for strategy in ("swap-test", "overlap-with-reference"):
            est = pl.copy_limited_distinguisher(make_pair, 2, strategy, 300, seed=60)
            assert abs(est.bias) <= 0.12


def _shock_vs_haar_pair(n=6, ell=2):
    d = 1 << n

    def make_pair(g):
        spec = pl.PRSEnsembleSpec(ell, qcore.zero_state(n), "haar",
                                  seed=int(g.integers(2**62)))
        sampler = lambda gg: pl.prs_state(spec, pl.random_shock_key(ell, gg))
        return (pl.EnsembleDescription("shock", sampler),
                pl.EnsembleDescription("haar", lambda gg: qcore.haar_state(d, gg)))

    return make_pair


class TestEnergyAttack:
    def test_identical_schedules_unresolved(self, doubled_chain_12, tfd_beta1):
        sched = pl.fixed_spacing_schedule(2, 9.0)
        res, _ = pl.energy_resolution_budget(doubled_chain_12, [sched, sched], 50, 4, 0,
                                             seed=22, initial=tfd_beta1)
        assert not res.resolved
        assert res.variants[0].exact_energy == res.variants[1].exact_energy

    def test_energy_strategy_bias_at_one_copy(self, doubled_chain_12, tfd_beta1):
        # Gibbs-weighted shock states against Haar states: a single calibrated
        # term measurement per copy separates them well beyond bias 0.2
        hd, tfd = doubled_chain_12, tfd_beta1

        def shock_sample(g):
            sched = pl.randomized_schedule(12, 2, 20.0, g)
            return pl.shocked_evolution_state(hd, sched, tfd)

        desc_a = pl.EnsembleDescription("tfd-shock", shock_sample)
        desc_b = pl.EnsembleDescription("haar", lambda g: qcore.haar_state(4096, g))
        strategy, term, mu = pl.calibrate_energy_strategy(desc_a, hd, seed=9,
                                                          calibration_draws=64)
        assert abs(mu) >= 0.4
        est = pl.copy_limited_distinguisher(lambda g: (desc_a, desc_b), 1, strategy,
                                            300, seed=123)
        assert est.bias >= 0.2

    def test_budget_accounting(self, doubled_chain_12, tfd_beta1):
        sched = pl.randomized_schedule(12, 3, 30.0, seed=23)
        res, _ = pl.energy_resolution_budget(doubled_chain_12, [sched, sched], 100, 4, 0,
                                             seed=24, initial=tfd_beta1)
        assert [v.measurements for v in res.variants] == [400, 400]

    def test_round_robin_budget_matches_fixed_shots_per_term(self):
        half = qcore.build_hamiltonian(3, 1.05, 0.5)
        hd = qcore.doubled_hamiltonian(half)
        tfd = qcore.tfd_state(half, 1.0)
        sched = pl.fixed_spacing_schedule(2, 3.0)
        k = 7
        res, _ = pl.energy_resolution_budget(hd, [sched, sched], k * len(hd.terms), 1, 0,
                                             seed=31, initial=tfd)
        state = pl.shocked_evolution_state(hd, sched, tfd)
        for idx, v in enumerate(res.variants):
            est = qcore.sample_energy_measurement(hd, state, k, rng.stream(31, idx))
            assert v.estimate == est.estimate
            assert v.std_error == est.std_error

    def test_resolution_budget_steps_equal_single_experiments(self):
        half = qcore.build_hamiltonian(3, 1.05, 0.5)
        hd = qcore.doubled_hamiltonian(half)
        tfd = qcore.tfd_state(half, 1.0)
        pair = [pl.fixed_spacing_schedule(1, 3.0), pl.fixed_spacing_schedule(3, 3.0)]
        g = rng.stream(32)
        base, budget = pl.energy_resolution_budget(hd, pair, 5, 2, 1 << 16, g, initial=tfd)
        assert g.random() == rng.stream(32).random()  # the caller's stream is not advanced
        steps = {}
        b = 10
        while b <= 1 << 16:
            # max_budget = 0: the single run at budget b
            steps[b] = pl.energy_resolution_budget(hd, pair, b // 2, 2, 0, rng.stream(32),
                                                   initial=tfd)[0]
            b *= 2
        assert base == steps[10]
        resolving = [b for b, r in steps.items() if r.resolved]
        assert budget == min(resolving)
        assert pl.energy_resolution_budget(hd, pair, 5, 2, 5, 32, initial=tfd)[1] is None
        for wrong in (pair[:1], pair + pair[:1]):
            with pytest.raises(InvalidParameterError):
                pl.energy_resolution_budget(hd, wrong, 5, 2, 1 << 16, 32, initial=tfd)

    def test_energy_strategy_registered_by_name(self):
        # calibrated on the stream the former "energy" strategy name used
        half = qcore.build_hamiltonian(3, 1.05, 0.5)
        hd = qcore.doubled_hamiltonian(half)
        tfd = qcore.tfd_state(half, 1.0)

        def shock_sample(g):
            return pl.shocked_evolution_state(hd, pl.randomized_schedule(6, 1, 8.0, g), tfd)

        desc_a = pl.EnsembleDescription("tfd-shock", shock_sample)
        desc_b = pl.EnsembleDescription("haar", lambda g: qcore.haar_state(64, g))
        strategy, _, _ = pl.calibrate_energy_strategy(desc_a, hd, rng.stream(55, 2**31 + 1))
        est = pl.copy_limited_distinguisher(lambda g: (desc_a, desc_b), 1, strategy,
                                            120, seed=55)
        assert est.bias > 0.1


class TestEnsembleConfig:
    def test_text_roundtrip(self):
        cfg = pl.EnsembleConfig(scrambler="hamiltonian", n=3, l=2, seed=7, m=2,
                                beta=1.0, t_scr=3.5, initial="tfd")
        text = pl.ensemble_config_to_text(cfg)
        back = pl.ensemble_config_from_text(text)
        assert back == cfg
        assert pl.ensemble_config_to_text(back) == text

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidParameterError):
            pl.ensemble_config_from_text("scrambler = haar\nn = 4\nl = 1\nseed = 0\nbogus = 3\n")

    @pytest.mark.parametrize("missing", ["scrambler", "n", "l", "seed"])
    def test_missing_key_rejected(self, missing):
        keys = {"scrambler": "haar", "n": "4", "l": "1", "seed": "0"}
        del keys[missing]
        text = "".join(f"{k} = {v}\n" for k, v in keys.items())
        with pytest.raises(InvalidParameterError, match=missing):
            pl.ensemble_config_from_text(text)

    def test_non_numeric_value_rejected(self):
        with pytest.raises(InvalidParameterError, match="beta"):
            pl.ensemble_config_from_text("scrambler = haar\nn = 4\nl = 1\nseed = 0\nbeta = hot\n")

    def test_build_haar_spec(self):
        cfg = pl.EnsembleConfig(scrambler="haar", n=5, l=2, seed=3)
        spec = pl.build_ensemble_spec(cfg)
        assert spec.dimension == 32
        assert spec.scrambler_kind == "haar"

    def test_build_tfd_spec(self):
        cfg = pl.EnsembleConfig(scrambler="hamiltonian", n=3, l=1, seed=3, m=2,
                                beta=0.5, t_scr=4.0, initial="tfd")
        spec = pl.build_ensemble_spec(cfg)
        assert spec.dimension == 64  # doubled system
        assert spec.hamiltonian.n_qubits == 6
        assert spec.step_time == 8.0


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_random_key_length_and_alphabet(ell, seed):
    key = pl.random_shock_key(ell, seed)
    assert len(key) == ell
    assert set(key) <= set("IXYZ")


def test_key_space_size():
    # the ensemble has exactly 4^ell keys and the sampler covers them
    ell = 2
    seen = {pl.random_shock_key(ell, rng.stream(44, t)) for t in range(600)}
    assert len(seen) == 4**ell
