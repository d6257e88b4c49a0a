import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scramblab import qcore, rng, weingarten as wg
from scramblab.errors import (
    DegenerateFitError,
    InvalidDimensionError,
    InvalidParameterError,
    ResourceLimitError,
)


class TestPartitions:
    def test_k1(self):
        assert [p.parts for p in wg.partitions(1)] == [(1,)]

    def test_counts(self):
        assert len(wg.partitions(4)) == 5
        assert len(wg.partitions(8)) == 22

    def test_count_matches_direct_enumeration(self):
        # oracle: count weakly-decreasing positive tuples summing to k
        def brute(k):
            found = set()

            def rec(remaining, cap, acc):
                if remaining == 0:
                    found.add(tuple(acc))
                    return
                for part in range(1, min(remaining, cap) + 1):
                    rec(remaining - part, part, acc + [part])

            rec(k, k, [])
            return found

        for k in range(1, 9):
            assert {p.parts for p in wg.partitions(k)} == brute(k)

    def test_out_of_range(self):
        with pytest.raises(ResourceLimitError):
            wg.partitions(9)


class TestDimensions:
    def test_trivial_rep(self):
        for k in range(1, 9):
            assert wg.dim_Sk((k,)) == 1

    def test_standard_rep(self):
        assert wg.dim_Sk((2, 1)) == 2  # 3!/(3*1*1)

    def test_dim_squared_sum_is_group_order(self):
        for k in range(1, 9):
            assert sum(wg.dim_Sk(p) ** 2 for p in wg.partitions(k)) == math.factorial(k)

    def test_defining_u_rep(self):
        for d in (1, 2, 5, 9):
            assert wg.dim_Ud((1,), d) == d

    def test_qubit_squares(self):
        assert wg.dim_Ud((2,), 2) == 3   # symmetric square
        assert wg.dim_Ud((1, 1), 2) == 1  # antisymmetric square

    def test_too_many_rows_gives_zero(self):
        assert wg.dim_Ud((1, 1, 1), 2) == 0

    def test_dim_lower_bound(self):
        # dim_Ud(lam, d) >= (d-k)^k / (2k)^k for d > k, exactly in rationals
        for k in range(1, 7):
            for d in (k + 1, 2 * k, 64):
                bound = Fraction((d - k) ** k, (2 * k) ** k)
                for lam in wg.partitions(k):
                    assert wg.dim_Ud(lam, d) >= bound


class TestCharacters:
    def test_trivial_rep_all_ones(self):
        for c in wg.partitions(5):
            assert wg.character((5,), c) == 1

    def test_sign_rep_on_transposition(self):
        assert wg.character((1, 1), (2,)) == -1

    def test_weight_mismatch(self):
        with pytest.raises(InvalidParameterError):
            wg.character((2, 1), (2,))

    def test_column_orthogonality(self):
        # sum_lam chi(c) chi(c') = [c = c'] * k!/|class c| for k <= 6
        for k in range(2, 7):
            parts = wg.partitions(k)
            for c1 in parts:
                for c2 in parts:
                    total = sum(wg.character(lam, c1) * wg.character(lam, c2)
                                for lam in parts)
                    if c1 == c2:
                        assert total == math.factorial(k) // wg.CycleType(c1.parts).class_size
                    else:
                        assert total == 0

    def test_class_sizes_against_explicit_permutations(self):
        # brute-force oracle over explicit permutations at k <= 4
        for k in range(1, 5):
            counts = {}
            for p in itertools.permutations(range(k)):
                ct = wg.perm_cycle_type(p).parts
                counts[ct] = counts.get(ct, 0) + 1
            for c in wg.partitions(k):
                assert counts[c.parts] == wg.CycleType(c.parts).class_size


class TestWeingartenFunction:
    def test_k1(self):
        for d in range(1, 9):
            assert wg.weingarten((1,), 1, d) == Fraction(1, d)

    def test_k2_closed_forms(self):
        for d in range(2, 9):
            assert wg.weingarten((1, 1), 2, d) == Fraction(1, d * d - 1)
            assert wg.weingarten((2,), 2, d) == Fraction(-1, d * (d * d - 1))

    def test_small_d_rejected(self):
        with pytest.raises(InvalidParameterError):
            wg.weingarten((1, 1, 1), 3, 2)

    def test_cache_matches_fresh(self):
        for c in wg.partitions(4):
            # __wrapped__ is the uncached computation behind the memo
            assert wg.weingarten(c, 4, 6) == wg._weingarten_fresh.__wrapped__(c.parts, 4, 6)
            assert wg.weingarten(c, 4, 6) == wg.weingarten(c.parts, 4, 6)

    def test_identity_upper_bound(self):
        # Wg(Id_k, d) <= (1/k!) max_lam dim_Sk/dim_Ud, exactly, d >= 2k, k <= 6
        for k in range(1, 7):
            for d in (2 * k, 2 * k + 3):
                bound = max(Fraction(wg.dim_Sk(lam)) / wg.dim_Ud(lam, d)
                            for lam in wg.partitions(k)) / math.factorial(k)
                assert wg.weingarten((1,) * k, k, d) <= bound


class TestGramIdentity:
    def test_k1(self):
        report = wg.gram_weingarten_identity(1, 3)
        assert report.ok and report.max_deviation == 0

    @pytest.mark.parametrize("k,d", [(2, 2), (2, 3), (3, 3), (3, 5), (4, 4), (4, 5)])
    def test_exact_identity(self, k, d):
        report = wg.gram_weingarten_identity(k, d)
        assert report.ok and report.max_deviation == 0

    def test_k5(self):
        assert wg.gram_weingarten_identity(5, 5).ok

    def test_k_cap(self):
        with pytest.raises(ResourceLimitError):
            wg.gram_weingarten_identity(6, 7)


MOMENT_PATHS = [wg.haar_moment_exact, lambda m, d: wg.haar_moment_mc(m, d, 100, seed=0)]


class TestMoments:
    def test_k1_entry_moment(self):
        m = wg.MomentSpec((0,), (0,), (0,), (0,))
        for d in (2, 4, 7):
            assert wg.haar_moment_exact(m, d) == Fraction(1, d)

    def test_abs_fourth_moment(self):
        m = wg.MomentSpec((0, 0), (0, 0), (0, 0), (0, 0))
        for d in (2, 3, 4, 8):
            assert wg.haar_moment_exact(m, d) == Fraction(2, d * (d + 1))

    def test_distinct_rows_and_columns(self):
        # E U00 U11 conj(U00) conj(U11) = E|U00|^2|U11|^2 = 1/(d^2 - 1):
        # with both row and column tuples distinct only sigma = tau = id
        # survives, leaving Wg(id) alone. (MC-verified below.)
        m = wg.MomentSpec((0, 1), (0, 1), (0, 1), (0, 1))
        for d in (2, 4, 8):
            assert wg.haar_moment_exact(m, d) == Fraction(1, d * d - 1)

    def test_same_column_pair(self):
        # E|U00|^2 |U10|^2 = 1/(d(d+1)): tau ranges over both permutations
        m = wg.MomentSpec((0, 1), (0, 0), (0, 1), (0, 0))
        for d in (2, 4, 8):
            assert wg.haar_moment_exact(m, d) == Fraction(1, d * (d + 1))

    def test_row_sum_normalization(self):
        # sum_{j,l} E|U0j|^2|U1l|^2 = 1 exactly
        d = 4
        total = sum(wg.haar_moment_exact(wg.MomentSpec((0, 1), (j, l), (0, 1), (j, l)), d)
                    for j in range(d) for l in range(d))
        assert total == 1

    def test_mc_agrees_k1(self):
        m = wg.MomentSpec((0,), (0,), (0,), (0,))
        est = wg.haar_moment_mc(m, 4, 10**4, seed=5)
        assert abs(est.mean.real - 0.25) <= 3 * est.std_error

    def test_mc_agrees_abs_fourth(self):
        m = wg.MomentSpec((0, 0), (0, 0), (0, 0), (0, 0))
        est = wg.haar_moment_mc(m, 2, 10**4, seed=6)
        assert abs(est.mean.real - 1 / 3) <= 3 * est.std_error

    def test_mc_agrees_on_random_specs(self):
        g = rng.stream(77)
        for i in range(20):
            m = wg.MomentSpec(tuple(g.integers(4, size=2)), tuple(g.integers(4, size=2)),
                              tuple(g.integers(4, size=2)), tuple(g.integers(4, size=2)))
            exact = float(wg.haar_moment_exact(m, 4))
            est = wg.haar_moment_mc(m, 4, 10**4, rng.stream(78, i))
            assert abs(exact - est.mean) <= 5 * max(est.std_error, 1e-12)

    def test_matches_brute_force_double_sum(self):
        # the moment formula summed directly: every (sigma, tau) in S_k x S_k,
        # each cycle type of sigma tau^-1 computed afresh
        def brute(m, d):
            k = m.order
            total = Fraction(0)
            for sigma in itertools.permutations(range(k)):
                for tau in itertools.permutations(range(k)):
                    if all(m.i[p] == m.i_conj[sigma[p]] and m.j[p] == m.j_conj[tau[p]]
                           for p in range(k)):
                        ct = wg.perm_cycle_type(wg.perm_compose(sigma, wg.perm_inverse(tau)))
                        total += wg.weingarten(ct, k, d)
            return total

        g = rng.stream(79)
        for _ in range(40):
            k = int(g.integers(1, 4))
            d = int(g.integers(3, 7))
            span = int(g.integers(1, d + 1))  # small spans make indices coincide
            m = wg.MomentSpec(*(tuple(g.integers(span, size=k)) for _ in range(4)))
            assert wg.haar_moment_exact(m, d) == brute(m, d)

    def test_order_cap(self):
        m = wg.MomentSpec((0,) * 5, (0,) * 5, (0,) * 5, (0,) * 5)
        with pytest.raises(ResourceLimitError):
            wg.haar_moment_exact(m, 8)

    @pytest.mark.parametrize("m", [
        wg.MomentSpec((0, 0, 0), (0, 0, 0), (1, 1, 1), (0, 0, 0)),  # no sigma allowed
        wg.MomentSpec((0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0)),  # E|U00|^6
    ])
    def test_below_the_wg_regime_rejected_for_every_pattern(self, m):
        with pytest.raises(InvalidParameterError, match="k = 3, d = 2"):
            wg.haar_moment_exact(m, 2)

    @pytest.mark.parametrize("slot", range(4))
    def test_negative_index_rejected(self, slot):
        tuples = [(0,), (0,), (0,), (0,)]
        tuples[slot] = (-1,)
        with pytest.raises(InvalidParameterError, match=">= 0"):
            wg.MomentSpec(*tuples)

    def test_non_integral_index_rejected(self):
        with pytest.raises(InvalidParameterError, match="integer"):
            wg.MomentSpec((1.5,), (0,), (1.9,), (0,))

    @pytest.mark.parametrize("moment", MOMENT_PATHS, ids=["exact", "mc"])
    def test_zero_dimension_rejected(self, moment):
        with pytest.raises(InvalidDimensionError):
            moment(wg.MomentSpec((0,), (0,), (0,), (0,)), 0)

    @pytest.mark.parametrize("moment", MOMENT_PATHS, ids=["exact", "mc"])
    def test_index_at_the_dimension_rejected(self, moment):
        with pytest.raises(InvalidParameterError, match="index exceeds dimension 4"):
            moment(wg.MomentSpec((0, 1), (0, 4), (0, 1), (0, 1)), 4)

    def test_mc_samples_independent_of_batch_budget(self, monkeypatch):
        # the dense path's batches split as the Stewart path's do; no trial moves
        m = wg.MomentSpec((0, 1), (1, 0), (0, 1), (1, 0))
        seeds = (lambda: 8, lambda: rng.stream(8))
        refs = [wg.haar_moment_mc(m, 4, 150, make_seed()) for make_seed in seeds]
        for budget in (1, 7 * 16 + 3):  # one trial per stack; seven, the last stack short
            monkeypatch.setattr(qcore, "HAAR_BATCH_ENTRIES", budget)
            assert [wg.haar_moment_mc(m, 4, 150, make_seed()) for make_seed in seeds] == refs


class TestPowerOverlap:
    def test_k1_closed_form(self):
        for d in range(2, 9):
            assert wg.power_overlap_exact(1, d) == Fraction(1, d + 1)

    def test_k2_halves_with_dimension(self):
        v4 = wg.power_overlap_exact(2, 4)
        v8 = wg.power_overlap_exact(2, 8)
        ratio = float(v4) / float(v8)
        assert abs(ratio - 2.0) <= 0.5  # O(1/d): d=8 is about half of d=4

    def test_frozen_k2_values(self):
        # frozen from this implementation, MC cross-checked in test_prslab
        assert wg.power_overlap_exact(2, 4) == Fraction(83, 420)
        assert wg.power_overlap_exact(2, 8) == Fraction(1231, 11088)

    def test_frozen_k2_values_odd_and_mid_dimensions(self):
        assert wg.power_overlap_exact(2, 5) == Fraction(199, 1200)
        assert wg.power_overlap_exact(2, 6) == Fraction(404, 2835)
        assert wg.power_overlap_exact(2, 7) == Fraction(367, 2940)

    def test_dimension_below_moment_order_rejected(self):
        # K = 2 is a moment of order 4, and Wg needs d >= 4
        for d in (2, 3):
            with pytest.raises(InvalidParameterError, match="K = 2"):
                wg.power_overlap_exact(2, d)

    def test_range_cap(self):
        with pytest.raises(ResourceLimitError):
            wg.power_overlap_exact(3, 4)
        with pytest.raises(ResourceLimitError):
            wg.power_overlap_exact(1, 9)

    def test_bar_index_fixed_point_free(self):
        for d in range(2, 9):
            assert all(wg.bar_index(v, d) != v for v in range(d))
            assert wg.bar_index(0, d) != 0


class TestAsymptotics:
    def test_k1_slope_exact(self):
        slope = wg.wg_asymptotics_check((1,), 1, [2, 4, 8, 16])
        assert abs(slope - (-1.0)) < 1e-12

    def test_k2_identity_slope(self):
        slope = wg.wg_asymptotics_check((1, 1), 2, [4, 8, 16, 32])
        assert abs(slope - (-2.0)) <= 0.1

    def test_k2_transposition_slope(self):
        slope = wg.wg_asymptotics_check((2,), 2, [4, 8, 16, 32])
        assert abs(slope - (-3.0)) <= 0.1

    def test_short_list_rejected(self):
        with pytest.raises(InvalidParameterError):
            wg.wg_asymptotics_check((1,), 1, [2, 4])


@given(st.integers(min_value=1, max_value=6))
@settings(max_examples=6, deadline=None)
def test_wg_class_function_consistency(k):
    # Wg through explicit permutations depends only on the cycle type
    d = k + 2
    perms = list(itertools.permutations(range(k)))
    by_type = {}
    for p in perms[:24]:
        ct = wg.perm_cycle_type(p)
        value = wg.weingarten(ct, k, d)
        by_type.setdefault(ct.parts, set()).add(value)
    assert all(len(v) == 1 for v in by_type.values())
