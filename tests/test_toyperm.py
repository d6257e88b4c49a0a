import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from scramblab import benchcli, rng, toyperm as tp
from scramblab.errors import InvalidParameterError, ResourceLimitError


class TestOracle:
    def test_forward_inverse_roundtrip(self):
        o = tp.random_permutation(6, seed=1)
        for x in (0, 17, 63):
            assert o.inverse(o.forward(x)) == x

    def test_counters_increment_exactly(self):
        o = tp.random_permutation(4, seed=2)
        for q in range(5):
            o.forward(q)
        for q in range(3):
            o.inverse(q)
        assert o.query_counts == (5, 3)

    def test_bijection_invariant_exhaustive(self):
        for n in (1, 4, 10, 16):
            o = tp.random_permutation(n, seed=n)
            fwd = o.forward_table
            inv = o.inverse_table
            idx = np.arange(1 << n)
            assert np.array_equal(inv[fwd], idx)
            assert np.array_equal(fwd[inv], idx)

    def test_n1_uniform(self):
        hits = sum(tp.random_permutation(1, rng.stream(3, t)).forward_table[0]
                   for t in range(10**4))
        # identity permutation has fwd[0] = 0, the swap has fwd[0] = 1
        p = hits / 10**4
        se = 0.5 / math.sqrt(10**4)
        assert abs(p - 0.5) <= 3 * se

    def test_shock_convention_flip_then_apply(self):
        o = tp.random_permutation(5, seed=4)
        x = 7
        pi_x = o.forward_table[x ^ o.flip_mask]
        assert o.forward(x ^ (1 << 4)) == pi_x

    def test_width_out_of_range(self):
        with pytest.raises(ResourceLimitError):
            tp.random_permutation(0, seed=0)
        with pytest.raises(ResourceLimitError):
            tp.random_permutation(27, seed=0)

    def test_chi_square_uniformity_n3(self):
        # 10^6 samples over all 40320 permutations of 8 elements
        g = rng.stream(99)
        samples = 10**6
        counts = {}
        for _ in range(samples):
            key = tp.random_permutation(3, g).forward_table.tobytes()
            counts[key] = counts.get(key, 0) + 1
        n_perms = math.factorial(8)
        observed = np.zeros(n_perms)
        observed[: len(counts)] = sorted(counts.values())
        expected = samples / n_perms
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        p_value = float(sps.chi2.sf(chi2, df=n_perms - 1))
        assert p_value > 0.001


class TestWalkAndTree:
    def test_walk_depth_zero(self):
        o = tp.random_permutation(4, seed=5)
        assert tp.sample_D_sigma(o, 0, seed=0) == 0

    def test_walk_consumes_exactly_ell_queries(self):
        o = tp.random_permutation(8, seed=6)
        tp.sample_D_sigma(o, 13, seed=1)
        assert o.query_counts == (13, 0)

    def test_support_bound(self):
        o = tp.random_permutation(6, seed=7)
        ell = 4
        seen = {tp.sample_D_sigma(o.fresh_copy(), ell, rng.stream(8, t)) for t in range(2000)}
        assert len(seen) <= 1 << ell

    def test_empirical_matches_exact_distribution(self):
        o = tp.random_permutation(3, seed=9)
        ell = 2
        exact = tp.exact_distribution_D(o, ell)
        counts = {}
        samples = 10**5
        g = rng.stream(10)
        for _ in range(samples):
            y = tp.sample_D_sigma(o.fresh_copy(), ell, g)
            counts[y] = counts.get(y, 0) + 1
        for y, p in exact.items():
            p = float(p)
            se = math.sqrt(p * (1 - p) / samples)
            assert abs(counts.get(y, 0) / samples - p) <= max(3 * se, 1e-3)

    def test_tree_shape_depth1(self):
        o = tp.random_permutation(5, seed=11)
        tree = tp.build_tree(o, 1)
        assert tree.node_count == 3
        assert tree.levels[1][0] == o.forward_table[0]
        assert tree.levels[1][1] == o.forward_table[o.flip_mask]

    def test_tree_row_sizes_when_distinct(self):
        o = tp.random_permutation(16, seed=12)
        tree = tp.build_tree(o, 6)
        assert tree.all_distinct
        assert len(set(int(v) for v in tree.leaves)) == 2**6
        assert len(set(int(v) for v in tree.second_last_row)) == 2**5

    def test_distinct_fraction(self):
        # Collisions at n=16, ell=6 run near 4%, dominated by sibling pairs
        # {x, x^mask} sharing their child set; the >= 99% regime needs n >= 18
        # at this depth. Counts frozen at these seeds.
        hits16 = sum(tp.tree_unmetered(tp.random_permutation(16, rng.stream(13, t)), 6).all_distinct
                     for t in range(200))
        assert hits16 == 193
        hits18 = sum(tp.tree_unmetered(tp.random_permutation(18, rng.stream(13, t)), 6).all_distinct
                     for t in range(200))
        assert hits18 >= 198

    def test_tree_query_budget(self):
        o = tp.random_permutation(10, seed=14)
        tp.build_tree(o, 5)
        assert o.query_counts[0] <= 2**6

    def test_oversize_tree_rejected(self):
        o = tp.random_permutation(3, seed=15)
        with pytest.raises(ResourceLimitError):
            tp.build_tree(o, 6)

    def test_exact_distribution_basics(self):
        o = tp.random_permutation(4, seed=16)
        assert tp.exact_distribution_D(o, 0) == {0: Fraction(1)}
        dist = tp.exact_distribution_D(o, 3)
        assert sum(dist.values()) == 1
        tree = tp.tree_unmetered(o, 3)
        if tree.all_distinct:
            assert all(p == Fraction(1, 8) for p in dist.values())

    def test_colliding_tree_multiplicities(self):
        # n=3, ell=2: 7 nodes in an 8-point space; find a colliding sigma
        for t in range(200):
            o = tp.random_permutation(3, rng.stream(17, t))
            tree = tp.tree_unmetered(o, 2)
            if not tree.all_distinct:
                dist = tp.exact_distribution_D(o, 2)
                assert sum(p.numerator for p in dist.values()) <= 4
                assert sum(dist.values()) == 1
                return
        pytest.fail("no colliding tree found in 200 draws")


class TestSwapSplice:
    def test_involution(self):
        o = tp.random_permutation(6, seed=18)
        spliced = tp.swap_splice(tp.swap_splice(o, 5, 40), 5, 40)
        assert np.array_equal(spliced.forward_table, o.forward_table)

    def test_preimage_maps_to_swapped_value(self):
        o = tp.random_permutation(6, seed=19)
        x, y = 3, 50
        pre_x = int(o.inverse_table[x])
        spliced = tp.swap_splice(o, x, y)
        assert spliced.forward_table[pre_x] == y

    def test_noop_warns(self):
        o = tp.random_permutation(4, seed=20)
        with pytest.warns(UserWarning):
            same = tp.swap_splice(o, 2, 2)
        assert np.array_equal(same.forward_table, o.forward_table)

    def test_splice_moves_outside_string_into_leaves(self):
        # x in L(sigma'), y outside T(sigma') implies y in L(spliced)
        found = 0
        for t in range(50):
            o = tp.random_permutation(8, rng.stream(21, t))
            tree = tp.tree_unmetered(o, 3)
            if not tree.all_distinct:
                continue
            nodes = set(int(v) for v in tree.all_nodes)
            outside = next(v for v in range(256) if v not in nodes)
            x = int(tree.leaves[0])
            spliced = tp.swap_splice(o, x, outside)
            new_tree = tp.tree_unmetered(spliced, 3)
            assert outside in set(int(v) for v in new_tree.leaves)
            found += 1
        assert found >= 40


class TestHybrids:
    @pytest.mark.parametrize("label,expected", [("B", False), ("C", True), ("D", True), ("E", True)])
    def test_ground_truth_by_construction(self, label, expected):
        for t in range(20):
            inst = tp.sample_hybrid(label, 8, 3, rng.stream(22, t))
            assert inst.ground_truth is expected
            tree = tp.tree_unmetered(inst.sigma, 3)
            assert (inst.y in set(int(v) for v in tree.leaves)) == expected

    def test_hybrid_a_mostly_off_tree(self):
        trials = 400
        hits = sum(tp.sample_hybrid("A", 16, 4, rng.stream(23, t)).ground_truth
                   for t in range(trials))
        # Pr[y in L] <= 2^4 / 2^16; 400 trials make even one hit unlikely
        assert hits <= 2

    def test_unknown_label(self):
        with pytest.raises(InvalidParameterError):
            tp.sample_hybrid("F", 4, 2, seed=0)

    def test_sparse_set_error_reports_acceptance_rate(self):
        # at n=1 a depth-2 tree has 7 slots in a 2-string space: S is empty
        from scramblab.errors import SparseSetError
        with pytest.raises(SparseSetError) as err:
            tp.sample_hybrid("D", 1, 2, seed=0, retry_cap=50)
        assert 0 <= err.value.acceptance_rate < 1

    def test_two_sample_equality_ab_and_de(self):
        # n=16: A vs B and D vs E should be statistically indistinguishable;
        # chi-square homogeneity on a (y, sigma-fingerprint) hash at alpha=0.01
        n, ell, samples, bins = 16, 4, 10**4, 64

        def fingerprint(inst):
            raw = (inst.y * 1000003 + int(inst.sigma.forward_table[0]) * 31
                   + int(inst.sigma.forward_table[inst.y]))
            return raw % bins

        for pair_idx, (la, lb) in enumerate((("A", "B"), ("D", "E"))):
            ha = np.zeros(bins)
            hb = np.zeros(bins)
            for t in range(samples):
                ha[fingerprint(tp.sample_hybrid(la, n, ell, rng.stream(24, pair_idx, t, 0)))] += 1
                hb[fingerprint(tp.sample_hybrid(lb, n, ell, rng.stream(24, pair_idx, t, 1)))] += 1
            table = np.stack([ha, hb])
            keep = table.sum(axis=0) > 0
            _, p_value, _, _ = sps.chi2_contingency(table[:, keep])
            assert p_value > 0.01


@pytest.fixture(scope="module")
def tables():
    return {label: tp.hybrid_table(label) for label in tp.HYBRID_LABELS}


class TestExactEnumeration:
    def test_d_is_uniform_over_s_and_leaves(self, tables):
        d = tables["D"]
        in_s = tp._all_trees(3, 2)[3]
        assert d.denominator == 4 * int(in_s.sum())
        assert set(np.unique(d.weights).tolist()) == {0, 1}
        # each sigma in S carries its 4 distinct leaves once; no other sigma appears
        assert np.array_equal(d.weights.sum(axis=1), 4 * in_s)

    def test_ab_and_de_closeness(self, tables):
        s_size = tables["D"].denominator >> 2
        pr_not_s = Fraction(40320 - s_size, 40320)
        bound = pr_not_s + Fraction(7, 8)
        tv_ab = tables["A"].tv(tables["B"])
        tv_de = tables["D"].tv(tables["E"])
        assert tv_ab <= bound
        assert tv_de <= pr_not_s
        # frozen exact values from the enumeration (small-n finding: the
        # asymptotic closeness does not hold at n = 3, only the bound does)
        assert s_size == 5760
        assert tv_ab == Fraction(55, 56)
        assert tv_de == Fraction(6, 7)


class TestHybridTable:
    def test_weights_sum_to_denominator(self, tables):
        for table in tables.values():
            assert table.weights.dtype == np.int64
            assert table.weights.shape == (math.factorial(8), 8)
            assert int(table.weights.sum()) == table.denominator

    def test_ranks_follow_itertools_order(self):
        import itertools

        perms = tp._all_permutations(8)
        assert perms.tolist() == [list(p) for p in itertools.permutations(range(8))]
        assert np.array_equal(tp._permutation_rank(perms), np.arange(math.factorial(8)))

    def test_closed_forms(self, tables):
        size, nodes = 8, 7
        p_s = Fraction(tables["D"].denominator >> 2, math.factorial(size))
        tv_de = tables["D"].tv(tables["E"])
        tv_ab = tables["A"].tv(tables["B"])
        assert isinstance(tv_de, Fraction) and isinstance(tv_ab, Fraction)
        assert tv_de == 1 - p_s
        assert tv_ab == 1 - p_s * Fraction(size - nodes, size)
        assert tables["C"].tv(tables["D"]) == 0

    def test_tv_is_symmetric_and_zero_on_self(self, tables):
        for a in tp.HYBRID_LABELS:
            assert tables[a].tv(tables[a]) == 0
            for b in tp.HYBRID_LABELS:
                tv = tables[a].tv(tables[b])
                assert 0 <= tv <= 1
                assert tv == tables[b].tv(tables[a])

    def test_weights_are_read_only(self, tables):
        with pytest.raises(ValueError):
            tables["A"].weights[0, 0] = 2

    def test_toy_hybrids_enumerates_s8_once(self, tmp_path, monkeypatch):
        builds = []

        def counted(size):
            builds.append(size)
            return all_permutations(size)

        all_permutations = tp._all_permutations
        monkeypatch.setattr(tp, "_all_permutations", counted)
        tp._all_trees.cache_clear()
        try:
            _, summary, ok = benchcli.run("toy-hybrids", {}, 0, tmp_path)
        finally:
            tp._all_trees.cache_clear()
        assert ok and summary["s_size"] == 5760
        assert builds == [8]

    def test_shared_tree_arrays_are_read_only(self):
        for array in tp._all_trees(3, 2):
            assert not array.flags.writeable

    def test_unsupported_size_and_label(self):
        with pytest.raises(ResourceLimitError):
            tp.hybrid_table("C", 4, 2)
        with pytest.raises(InvalidParameterError):
            tp.hybrid_table("F")


def _law(weights) -> tp.HybridTable:
    """A one-row table over len(weights) outcomes."""
    return tp.HybridTable(np.array([weights], dtype=np.int64), sum(weights))


class TestTvDistance:
    def test_self_distance(self):
        p = _law([1, 1])
        assert p.tv(p) == 0

    def test_disjoint_supports(self):
        assert _law([1, 0]).tv(_law([0, 1])) == 1

    @given(st.lists(st.integers(min_value=0, max_value=20), min_size=6, max_size=6),
           st.lists(st.integers(min_value=0, max_value=20), min_size=6, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_metric_properties(self, ws_p, ws_q):
        if not sum(ws_p) or not sum(ws_q):
            return
        p, q = _law(ws_p), _law(ws_q)
        tv = p.tv(q)
        assert 0 <= tv <= 1
        assert tv == q.tv(p)
        # the definition, (1/2) sum |p - q| in exact rationals
        assert tv == sum(abs(Fraction(a, sum(ws_p)) - Fraction(b, sum(ws_q)))
                         for a, b in zip(ws_p, ws_q)) / 2


class TestDistinguishers:
    def test_forward_enum_complete_on_leaf_instances(self):
        for t in range(25):
            inst = tp.sample_hybrid("E", 12, 5, rng.stream(25, t))
            assert tp.distinguisher_forward_enum(inst.sigma.fresh_copy(), inst.y, 5)

    def test_meet_in_middle_complete_on_leaf_instances(self):
        for ell in (2, 3, 5, 8):
            for t in range(25):
                inst = tp.sample_hybrid("E", 14, ell, rng.stream(26, ell, t))
                assert tp.distinguisher_meet_in_middle(inst.sigma.fresh_copy(), inst.y, ell)

    def test_forward_enum_query_budget(self):
        o = tp.random_permutation(16, seed=27)
        tp.distinguisher_forward_enum(o, 123, 8)
        assert o.query_counts[0] <= 2**9
        assert o.query_counts[1] == 0

    def test_meet_in_middle_query_budget(self):
        for ell in (4, 6, 8, 10):
            o = tp.random_permutation(20, seed=28 + ell)
            tp.distinguisher_meet_in_middle(o, 999, ell)
            h = ell // 2 - 1
            fwd, inv = o.query_counts
            assert fwd + inv <= 2 ** (h + 1) + 2 ** (ell - h) + 2 * 2**h

    def test_meet_in_middle_sound_on_uniform_y(self):
        false_positives = 0
        for t in range(200):
            o = tp.random_permutation(24, rng.stream(29, t))
            y = int(rng.stream(30, t).integers(1 << 24))
            false_positives += tp.distinguisher_meet_in_middle(o, y, 10)
        assert false_positives == 0

    def test_fewer_queries_than_forward_enum(self):
        ell = 8
        o1 = tp.random_permutation(16, seed=31)
        o2 = o1.fresh_copy()
        tp.distinguisher_forward_enum(o1, 3, ell)
        tp.distinguisher_meet_in_middle(o2, 3, ell)
        assert sum(o2.query_counts) * 4 <= sum(o1.query_counts)


class TestGame:
    def test_zero_query_baseline(self):
        res = tp.run_distinguishing_game("zero_query", 10, 4, 800, seed=32)
        assert all(q == 0 for q in res.fwd_queries)
        se = 0.5 / math.sqrt(800)
        assert abs(res.success_rate - 0.5) <= 3 * se

    def test_forward_enum_reliable(self):
        res = tp.run_distinguishing_game("forward_enum", 16, 8, 200, seed=33)
        assert res.success_rate >= 0.99

    def test_query_accounting_matches_counters(self):
        res = tp.run_distinguishing_game("meet_in_middle", 12, 6, 50, seed=34)
        assert len(res.fwd_queries) == 50
        assert all(f + i > 0 for f, i in zip(res.fwd_queries, res.inv_queries))

    def test_mitm_query_advantage_in_game(self):
        fwd = tp.run_distinguishing_game("forward_enum", 16, 8, 50, seed=36)
        mitm = tp.run_distinguishing_game("meet_in_middle", 16, 8, 50, seed=36)
        assert mitm.success_rate >= 0.99
        assert fwd.mean_queries / mitm.mean_queries >= 6

    def test_unknown_strategy(self):
        with pytest.raises(KeyError):
            tp.run_distinguishing_game("grover", 8, 4, 10, seed=0)

    def test_csv_shape(self):
        res = tp.run_distinguishing_game("zero_query", 8, 3, 5, seed=35)
        text = tp.game_result_to_csv(res)
        lines = text.strip().splitlines()
        assert lines[0] == "trial,hybrid,decision,correct,fwd_queries,inv_queries"
        assert len(lines) == 6


class TestSerialization:
    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, n, seed):
        o = tp.random_permutation(n, seed)
        restored = tp.oracle_from_bytes(tp.oracle_to_bytes(o))
        assert restored.n == n
        assert np.array_equal(restored.forward_table, o.forward_table)
        assert np.array_equal(restored.inverse_table, o.inverse_table)

    def test_header_layout(self):
        o = tp.random_permutation(9, seed=36)
        blob = tp.oracle_to_bytes(o)
        assert blob[:4] == (9).to_bytes(4, "little")
        assert len(blob) == 4 + (1 << 9) * 2  # ceil(9/8) = 2 bytes per entry

    @pytest.mark.parametrize("blob", [
        b"\x02\x00\x00\x00" + bytes([0, 0, 1, 2]),   # not a bijection
        b"\x02\x00\x00\x00" + bytes([0, 1, 2]),      # 3 entries for 2^2
        b"\x02\x00\x00\x00" + bytes([0, 1, 2, 3, 0]),  # trailing byte
        b"\x02\x00\x00\x00" + bytes([0, 1, 2, 4]),   # entry >= 2^n
        b"\x00\x00\x00\x00",                         # n = 0
        b"\xff\xff\xff\xff",                         # n far beyond MAX_BITS
        b"\x02\x00",                                   # truncated header
    ])
    def test_malformed_bytes_rejected(self, blob):
        with pytest.raises(InvalidParameterError):
            tp.oracle_from_bytes(blob)

    @pytest.mark.parametrize("n,table", [
        (2, [0, 0, 1, 2]),   # an output repeats
        (2, [0, 1, 2, 7]),   # entry >= 2^n
        (2, [0, 1, 2, -1]),  # negative entry
        (0, [0]),            # n = 0, which no header may hold
        (1, [0.5, 1.2]),     # not integers
    ])
    def test_constructor_rejects_a_table_that_is_not_a_bijection(self, n, table):
        with pytest.raises(InvalidParameterError):
            tp.PermutationOracle(n, table)

    @given(st.integers(0, 4), st.data())
    @settings(max_examples=200, deadline=None)
    def test_every_accepted_table_roundtrips_through_bytes(self, n, data):
        size = 1 << n
        table = data.draw(st.permutations(range(size))
                          | st.lists(st.integers(-1, size), min_size=size, max_size=size))
        try:
            o = tp.PermutationOracle(n, table)
        except InvalidParameterError:
            assert n == 0 or sorted(table) != list(range(1 << n))
            return
        restored = tp.oracle_from_bytes(tp.oracle_to_bytes(o))
        assert np.array_equal(restored.forward_table, o.forward_table)

    def test_file_roundtrip(self, tmp_path):
        o = tp.random_permutation(7, seed=37)
        path = tmp_path / "oracle.bin"
        tp.save_oracle(o, path)
        assert np.array_equal(tp.load_oracle(path).forward_table, o.forward_table)


class TestLazyOracle:
    def test_untouched_table_is_one_permutation_draw(self):
        for n, seed in ((1, 0), (5, 41), (16, 42)):
            expected = rng.stream(seed).permutation(1 << n)
            assert np.array_equal(tp.random_permutation(n, seed).forward_table, expected)
            from_generator = tp.random_permutation(n, rng.stream(seed))
            assert np.array_equal(from_generator.forward_table, expected)

    def test_completion_uniform_after_mixed_transcript_n3(self):
        # forward(0), inverse(7), forward(5) assign k = 3 points unless sigma(0) = 7
        # or sigma(5) = 7; given the answers, the table must be uniform over the
        # (8 - 3)! completions
        g = rng.stream(43)
        samples, counts = 24000, {}
        for _ in range(samples):
            o = tp.random_permutation(3, g)
            a, b, c = o.forward(0), o.inverse(7), o.forward(5)
            fwd = o.forward_table
            assert (fwd[0], fwd[b], fwd[5]) == (a, 7, c)
            if 7 in (a, c):
                continue
            free_in = [x for x in range(8) if x not in (0, b, 5)]
            free_out = sorted(set(range(8)) - {a, 7, c})
            key = tuple(free_out.index(int(fwd[x])) for x in free_in)
            counts[key] = counts.get(key, 0) + 1
        observed = np.zeros(math.factorial(5))
        observed[: len(counts)] = list(counts.values())
        expected = observed.sum() / observed.size
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert sps.chi2.sf(chi2, df=observed.size - 1) > 0.001

    def test_inverse_first_points_are_consistent(self):
        o = tp.random_permutation(6, seed=44)
        for y in (9, 0, 63, 9, 31):
            assert o.forward(o.inverse(y)) == y
        for x in (1, 2, 40):
            assert o.inverse(o.forward(x)) == x
        assert o.query_counts == (8, 8)

    def test_queried_points_survive_materialization_and_bytes(self):
        o = tp.random_permutation(10, seed=45)
        answers = {x: o.forward(x) for x in (0, 3, 512, 1023)}
        answers.update({o.inverse(y): y for y in (7, 700)})
        restored = tp.oracle_from_bytes(tp.oracle_to_bytes(o))
        for x, y in answers.items():
            assert o.forward_table[x] == y
            assert restored.forward(x) == y

    def test_fresh_copy_is_a_view_of_the_same_sigma(self):
        o = tp.random_permutation(12, seed=46)
        before = o.forward(5)
        copy = o.fresh_copy()
        assert copy.query_counts == (0, 0)
        assert copy.forward(5) == before
        assert o.inverse(copy.forward(77)) == 77
        assert np.array_equal(copy.forward_table, o.forward_table)
        assert o.query_counts == (1, 1) and copy.query_counts == (2, 0)

    def test_fresh_copy_of_an_unqueried_oracle_is_one_permutation_draw(self):
        for n, seed in ((1, 0), (5, 41), (16, 42)):
            copy = tp.random_permutation(n, seed).fresh_copy()
            assert np.array_equal(copy.forward_table, rng.stream(seed).permutation(1 << n))

    def test_fresh_copy_keeps_queried_points_and_zeroes_counters(self):
        o = tp.random_permutation(10, seed=52)
        answers = {x: o.forward(x) for x in (0, 3, 512, 1023)}
        answers.update({o.inverse(y): y for y in (7, 700)})
        copy = o.fresh_copy()
        assert copy.query_counts == (0, 0)
        for x, y in answers.items():
            assert copy.lookup(x) == y and copy.inverse_table[y] == x

    def test_out_of_range_query_rejected(self):
        o = tp.random_permutation(4, seed=47)
        with pytest.raises(InvalidParameterError):
            o.forward(16)
        with pytest.raises(InvalidParameterError):
            o.inverse(-1)

    def test_metered_tree_matches_table_tree(self):
        o = tp.random_permutation(9, seed=48)
        tree = tp.build_tree(o, 5)
        assert o.query_counts == (2**6 - 2, 0)
        for a, b in zip(tree.levels, tp.tree_unmetered(o, 5).levels):
            assert np.array_equal(a, b)


class TestGameStreams:
    def test_generator_seed_prefix_equals_shorter_game(self):
        long = tp.run_distinguishing_game("meet_in_middle", 10, 4, 8, rng.stream(49))
        short = tp.run_distinguishing_game("meet_in_middle", 10, 4, 3, rng.stream(49))
        for field in ("hybrids", "decisions", "fwd_queries", "inv_queries"):
            assert getattr(long, field)[:3] == getattr(short, field)

    def test_generator_seed_is_one_root_draw(self):
        g = rng.stream(50)
        res = tp.run_distinguishing_game("forward_enum", 10, 4, 6, g)
        probe = rng.stream(50)
        root = int(probe.integers(2**63))
        assert g.integers(2**63) == probe.integers(2**63)  # the game took one draw
        assert res == tp.run_distinguishing_game("forward_enum", 10, 4, 6, root)

    def test_coins_do_not_depend_on_the_strategy(self):
        seed = 51
        coins = tuple("E" if rng.stream(seed, t).integers(2) else "A" for t in range(40))
        for strategy in tp.STRATEGIES:
            assert tp.run_distinguishing_game(strategy, 12, 6, 40, seed).hybrids == coins
        zero = tp.run_distinguishing_game("zero_query", 12, 6, 40, seed)
        assert zero.successes == coins.count("A")
