import itertools
import math
from fractions import Fraction

import pytest

import exact_reference
import mapping_reference
from itermap import exact, mapping


def dumb_enumeration(n):
    """Independent pure-Python pass over all n^n mappings (reference analyze)."""
    sum_T = sum_B = conn = conn_cycles = 0
    z = [0] * (n + 1)
    for tgt in itertools.product(range(1, n + 1), repeat=n):
        cs = mapping_reference.analyze(mapping.Mapping(n, tgt))
        ps = mapping.period_stats(cs)
        sum_T += ps.T
        sum_B += ps.B
        z[cs.num_cyclic] += 1
        if cs.component_profile == {n: 1}:
            conn += 1
            conn_cycles += sum(cs.cycle_lengths)
    return sum_T, sum_B, conn, conn_cycles, tuple(z)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerator_matches_pure_python(n):
    s = exact.enumerate_summary(n)
    assert (
        s.sum_T,
        s.sum_B,
        s.connected_count,
        s.connected_cycle_total,
        s.z_counts,
    ) == dumb_enumeration(n)


def test_chunk_boundaries():
    # 1000 divides no power of 6, so the last chunk is a partial one
    assert exact.enumerate_summary(6, chunk=1000) == exact.enumerate_summary(6)


def test_packed_word_guard(monkeypatch):
    monkeypatch.setattr(exact, "BRUTE_FORCE_MAX_N", 9)
    with pytest.raises(mapping.CeilingError, match="n <= 8"):
        exact.enumerate_summary(9)


class TestBruteForce:
    def test_n1(self):
        assert exact.brute_force_expectations(1) == (Fraction(1), Fraction(1))

    def test_n2(self):
        # the 4 mappings (1,1),(1,2),(2,1),(2,2) have T = 1,1,2,1
        assert exact.brute_force_expectations(2) == (Fraction(5, 4), Fraction(5, 4))

    def test_n3_golden(self):
        # frozen from the enumeration, cross-checked by the pure-Python pass
        assert exact.brute_force_expectations(3) == (Fraction(40, 27), Fraction(40, 27))

    def test_n4_golden(self):
        assert exact.brute_force_expectations(4) == (
            Fraction(431, 256),
            Fraction(437, 256),
        )

    def test_ceiling(self):
        with pytest.raises(mapping.CeilingError, match="enumeration too large"):
            exact.brute_force_expectations(9)


class TestZDistribution:
    def test_n1(self):
        assert exact.z_pmf(1).pmf == (Fraction(1),)

    def test_n2(self):
        assert exact.z_pmf(2).pmf == (Fraction(1, 2), Fraction(1, 2))

    def test_sums_to_one(self):
        for n in (1, 2, 3, 10, 100):
            assert sum(exact.z_pmf(n).pmf) == 1
            assert exact.z_pmf_sums_to_one(n)

    def test_matches_enumeration(self):
        for n in (2, 3, 4, 5):
            s = exact.enumerate_summary(n)
            pmf = exact.z_pmf(n).pmf
            for m in range(1, n + 1):
                assert pmf[m - 1] == Fraction(s.z_counts[m], n**n)

    def test_nonnegative(self):
        assert all(p >= 0 for p in exact.z_pmf(30).pmf)


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
        for m in range(1, 61):
            assert sum(exact._order_counts(m).values()) == math.factorial(m)


class TestConditionalExpectations:
    def test_E_T_n2_by_hand(self):
        assert exact.exact_E_T(2) == Fraction(1, 2) * 1 + Fraction(1, 2) * Fraction(3, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_equals_brute_force(self, n):
        bt, bb = exact.brute_force_expectations(n)
        assert exact.exact_E_T(n) == bt
        assert exact.exact_E_B_conditional(n) == bb

    def test_n1(self):
        assert exact.exact_E_T(1) == 1
        assert exact.exact_E_B_conditional(1) == 1
