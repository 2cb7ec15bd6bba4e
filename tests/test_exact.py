import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import exact_reference
import mapping_reference
from itermap import exact, mapping


def dumb_enumeration(n):
    """Independent pure-Python pass over all n^n mappings (reference analyze, lcm and product)."""
    sum_T = sum_B = conn = conn_cycles = 0
    z = [0] * (n + 1)
    for tgt in itertools.product(range(1, n + 1), repeat=n):
        cs = mapping_reference.analyze(mapping.Mapping(n, tgt))
        sum_T += math.lcm(*cs.cycle_lengths)
        sum_B += math.prod(cs.cycle_lengths)
        z[cs.num_cyclic] += 1
        if cs.component_profile == {n: 1}:
            conn += 1
            conn_cycles += sum(cs.cycle_lengths)
    return sum_T, sum_B, conn, conn_cycles, tuple(z)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerator_matches_pure_python(n):
    s = exact_reference.enumerate_summary(n)
    assert (
        s.sum_T,
        s.sum_B,
        s.connected_count,
        s.connected_cycle_total,
        s.z_counts,
    ) == dumb_enumeration(n)


def test_chunk_boundaries():
    # 1000 divides no power of 6 and 100000 no power of 7, so the last chunk
    # is a partial one, and the key counts merge across chunks
    enumerate_summary = exact_reference.enumerate_summary
    assert enumerate_summary(6, chunk=1000) == enumerate_summary(6)
    assert enumerate_summary(7, chunk=100_000) == enumerate_summary(7)


@pytest.mark.parametrize(
    "n, pins",
    [
        (6, (96817, 100657, 21576, (0, 7776, 12960, 12960, 8640, 3600, 720))),
        # connected_count is OEIS A001865
        (7, (1862890, 1965160, 355081, (0, 117649, 201684, 216090, 164640, 88200, 30240, 5040))),
    ],
)
def test_enumeration_pinned(n, pins):
    # recorded from the int64 tally of each word, before the tally of cycle types
    s = exact_reference.enumerate_summary(n)
    assert (s.sum_T, s.sum_B, s.connected_count, s.z_counts) == pins
    assert s.count == s.connected_cycle_total == n**n


def test_packed_word_guard():
    # the one ceiling check also guards the packing: 3-bit fields hold targets 0..7
    assert exact_reference.BRUTE_FORCE_MAX_N <= 8
    with pytest.raises(mapping.CeilingError, match="enumeration too large"):
        exact_reference.enumerate_summary(exact_reference.BRUTE_FORCE_MAX_N + 1)


class TestBruteForce:
    def test_n1(self):
        assert exact_reference.brute_force_expectations(1) == (Fraction(1), Fraction(1))

    def test_n2(self):
        # the 4 mappings (1,1),(1,2),(2,1),(2,2) have T = 1,1,2,1
        assert exact_reference.brute_force_expectations(2) == (Fraction(5, 4), Fraction(5, 4))

    def test_n3_golden(self):
        # frozen from the enumeration, cross-checked by the pure-Python pass
        assert exact_reference.brute_force_expectations(3) == (Fraction(40, 27), Fraction(40, 27))

    def test_n4_golden(self):
        assert exact_reference.brute_force_expectations(4) == (
            Fraction(431, 256),
            Fraction(437, 256),
        )

    def test_ceiling(self):
        with pytest.raises(mapping.CeilingError, match="enumeration too large"):
            exact_reference.brute_force_expectations(9)

    def test_recorded_sums(self):
        # the sums the CLI's cross-check reads, regenerated by enumeration
        sums = (exact_reference.enumerate_summary(k) for k in range(1, 8))
        assert exact.BRUTE_FORCE_SUMS == tuple((s.sum_T, s.sum_B) for s in sums)


class TestZDistribution:
    def test_n1(self):
        assert exact_reference.z_pmf(1) == (Fraction(1),)

    def test_n2(self):
        assert exact_reference.z_pmf(2) == (Fraction(1, 2), Fraction(1, 2))

    def test_sums_to_one(self):
        for n in (1, 2, 3, 10, 100):
            assert sum(exact_reference.z_pmf(n)) == 1
            assert exact_reference.z_pmf_sums_to_one(n)

    def test_matches_enumeration(self):
        for n in (2, 3, 4, 5):
            s = exact_reference.enumerate_summary(n)
            pmf = exact_reference.z_pmf(n)
            for m in range(1, n + 1):
                assert pmf[m - 1] == Fraction(s.z_counts[m], n**n)

    def test_nonnegative(self):
        assert all(p >= 0 for p in exact_reference.z_pmf(30))


def order_row(m):
    """{L: number of permutations of [m] with order L}, read off exact's order-count table."""
    exact._order_counts(m)
    at = exact._OWNER == m
    scale = math.factorial(exact.M_MAX_DEFAULT) // math.factorial(m)
    assert all(c % scale == 0 for c in exact._COUNTS[at])
    return {L: c // scale for L, c in zip(exact._KEYS[at].tolist(), exact._COUNTS[at])}


class TestPermutationMeans:
    def test_M_small(self):
        assert exact.perm_order_mean(1) == 1
        assert exact.perm_order_mean(2) == Fraction(3, 2)
        assert exact.perm_order_mean(4) == Fraction(67, 24)

    def test_b_small(self):
        assert exact.perm_B_mean(0) == 1
        assert exact.perm_B_mean(2) == Fraction(3, 2)
        assert exact.perm_B_mean(4) == Fraction(73, 24)

    def test_b_matches_partition_route(self):
        for m in range(21):
            assert exact.perm_B_mean(m) == exact_reference.perm_B_mean(m)

    def test_b_numerators_match_convolution(self):
        # the three-term recurrence against the O(m^2) convolution it replaced
        assert list(exact._perm_B_numerators(500)) == exact_reference.perm_B_numerators(500)

    def test_b_numerators_grown_once(self, monkeypatch):
        # one table grown on demand: a call below its length reads a prefix and adds nothing
        monkeypatch.setattr(exact, "_BETA", [1, 1])
        small = exact._perm_B_numerators(7)
        assert exact._perm_B_numerators(40)[:8] == small
        assert len(exact._BETA) == 41
        assert exact._perm_B_numerators(3) == small[:4] and len(exact._BETA) == 41

    def test_M_matches_partition_route(self):
        for m in range(1, 26):
            assert exact.perm_order_mean(m) == exact_reference.perm_order_mean(m)

    def test_M_le_b_with_equality_iff_small(self):
        for m in range(1, 31):
            M, b = exact.perm_order_mean(m), exact.perm_B_mean(m)
            assert M <= b
            assert (M == b) == (m <= 3)

    def test_monotone(self):
        Ms = [exact.perm_order_mean(m) for m in range(1, 31)]
        bs = [exact.perm_B_mean(m) for m in range(1, 31)]
        assert all(x <= y for x, y in zip(Ms, Ms[1:]))
        assert all(x <= y for x, y in zip(bs, bs[1:]))

    def test_partition_counts(self):
        assert exact_reference.partition_count(4) == 5
        assert exact_reference.partition_count(10) == 42

    def test_ceiling(self):
        with pytest.raises(mapping.CeilingError, match="order-count table too large"):
            exact.perm_order_mean(61)

    def test_cycle_type_counts_sum_to_factorial(self):
        for m in (5, 9, 12):
            assert sum(c for _, _, c in exact_reference.iter_cycle_types(m)) == math.factorial(m)

    def test_order_count_rows_sum_to_factorial(self):
        for m in range(61):
            assert sum(order_row(m).values()) == math.factorial(m)

    def test_order_table_matches_dict_recurrence(self):
        for m in range(exact.M_MAX_DEFAULT + 1):
            row = exact_reference.order_counts(m)
            assert order_row(m) == row
            assert exact._ORDER_TOTALS[m] == sum(L * c for L, c in row.items())

    def test_order_table_matches_cycle_types(self):
        for m in range(21):
            tally = {}
            for L, _, c in exact_reference.iter_cycle_types(m):
                tally[L] = tally.get(L, 0) + c
            assert order_row(m) == tally

    def test_order_table_layout(self):
        # rows in turn, each row's keys strictly ascending, one total per row
        exact._order_counts(exact.M_MAX_DEFAULT)
        owner, keys = exact._OWNER, exact._KEYS
        assert owner.dtype == keys.dtype == np.int64 and exact._COUNTS.dtype == object
        assert np.all(np.diff(owner) >= 0) and owner[-1] == exact.M_MAX_DEFAULT
        assert np.all(np.diff(keys)[np.diff(owner) == 0] > 0)
        assert len(exact._ORDER_TOTALS) == exact.M_MAX_DEFAULT + 1
        assert keys.max() == 1021020  # Landau's g(60), the largest order in S_60


class TestConditionalExpectations:
    def test_E_T_n2_by_hand(self):
        assert exact.exact_E_T(2) == Fraction(1, 2) * 1 + Fraction(1, 2) * Fraction(3, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_equals_brute_force(self, n):
        bt, bb = exact_reference.brute_force_expectations(n)
        assert exact.exact_E_T(n) == bt
        assert exact.exact_E_B_conditional(n) == bb

    def test_n1(self):
        assert exact.exact_E_T(1) == 1
        assert exact.exact_E_B_conditional(1) == 1

    def test_equal_term_by_term_sums(self):
        # one integer sum over n^(n+1) n! against one Fraction per term
        for n in range(1, 61):
            assert exact.exact_E_T(n) == exact_reference.exact_E_T(n)
        for n in range(1, 201):
            assert exact.exact_E_B_conditional(n) == exact_reference.exact_E_B_conditional(n)

    def test_ceilings_and_domain(self):
        with pytest.raises(mapping.CeilingError, match="order-count table too large"):
            exact.exact_E_T(exact.M_MAX_DEFAULT + 1)
        for route in (exact.exact_E_T, exact.exact_E_B_conditional):
            with pytest.raises(ValueError, match="n must be positive"):
                route(0)

    def test_conditional_ceiling(self):
        # the sum enumerates no mapping, so its ceiling has a message of its own
        with pytest.raises(mapping.CeilingError, match="^conditional sum too large$"):
            exact.exact_E_B_conditional(exact.CONDITIONAL_MAX_N + 1)
