import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mapping_reference
from itermap import mapping


def mk(n, *targets):
    return mapping.Mapping(n, tuple(targets))


class TestParse:
    def test_identity(self):
        f = mapping.parse_mapping("2 1 2")
        assert f.n == 2 and f.targets == (1, 2)

    def test_swap(self):
        f = mapping.parse_mapping("2 2 1")
        assert f.targets == (2, 1)

    def test_invalid_target(self):
        with pytest.raises(mapping.MappingError, match="invalid target"):
            mapping.parse_mapping("1 0")

    def test_length_mismatch(self):
        with pytest.raises(mapping.MappingError, match="length mismatch"):
            mapping.parse_mapping("3 1 2")

    def test_empty_domain(self):
        with pytest.raises(mapping.MappingError, match="empty domain"):
            mapping.parse_mapping("0")

    def test_bytes_input(self):
        assert mapping.parse_mapping(b"2 2 1").targets == (2, 1)


class TestAnalyze:
    def test_identity_three(self):
        cs = mapping.analyze(mk(3, 1, 2, 3))
        assert cs.cycle_lengths == (1, 1, 1)
        assert cs.tail_heights == (0, 0, 0)
        assert cs.component_profile == {1: 3}

    def test_transposition(self):
        cs = mapping.analyze(mk(2, 2, 1))
        assert cs.cycle_lengths == (2,)
        assert cs.component_profile == {2: 1}

    def test_tail_chain(self):
        # 3 -> 2 -> 1 -> 1
        cs = mapping.analyze(mk(3, 1, 1, 2))
        assert cs.cyclic_vertices == frozenset({1})
        assert cs.cycle_lengths == (1,)
        assert cs.tail_heights == (0, 1, 2)
        assert cs.component_profile == {3: 1}


class TestInvariantErrors:
    def test_cycle_lengths_checked(self, monkeypatch):
        monkeypatch.setattr(mapping, "_cycles", lambda f, cyclic: ([1], [0] * len(cyclic)))
        with pytest.raises(mapping.InvariantError, match="cycle lengths sum to 1, not to 3"):
            mapping.analyze(mk(3, 2, 3, 1))

    def test_component_sizes_checked(self, monkeypatch):
        # a bincount over all n vertices sums to n, so only a broken one trips this check
        monkeypatch.setattr(mapping.np, "bincount", lambda ids: np.array([1]))
        with pytest.raises(mapping.InvariantError, match="component sizes"):
            mapping.analyze(mk(3, 2, 3, 1))

    def test_T_divides_B_checked(self, monkeypatch):
        monkeypatch.setattr(mapping, "factorize", lambda m: {2: 5})
        with pytest.raises(mapping.InvariantError, match="T does not divide B"):
            mapping.period_stats(mapping.analyze(mk(2, 2, 1)))


class TestPeriodStats:
    def test_coprime_cycles(self):
        # 2-cycle and 3-cycle: permutation of [5]
        cs = mapping.analyze(mk(5, 2, 1, 4, 5, 3))
        ps = mapping.period_stats(cs)
        assert (ps.T, ps.B, ps.O) == (6, 6, 6)

    def test_constant_pair(self):
        cs = mapping.analyze(mk(2, 1, 1))
        ps = mapping.period_stats(cs)
        assert (ps.T, ps.B, ps.O) == (1, 1, 1)

    def test_chain(self):
        cs = mapping.analyze(mk(3, 1, 1, 2))
        ps = mapping.period_stats(cs)
        assert (ps.T, ps.B, ps.O) == (1, 1, 2)

    def test_prime_exponents(self):
        # cycles of lengths 4 and 6: T = 12 = 2^2 * 3
        targets = (2, 3, 4, 1, 6, 7, 8, 9, 10, 5)
        ps = mapping.period_stats(mapping.analyze(mk(10, *targets)))
        assert ps.T == 12 and ps.B == 24
        assert ps.prime_exponents_T == {2: 2, 3: 1}
        assert math.isclose(ps.log_T, math.log(12), rel_tol=1e-12)


def all_mappings(n):
    for tgt in itertools.product(range(1, n + 1), repeat=n):
        yield mapping.Mapping(n, tgt)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_analyze_matches_reference(n):
    for f in all_mappings(n):
        assert mapping.analyze(f) == mapping_reference.analyze(f)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_O_matches_explicit_composition(n):
    for f in all_mappings(n):
        ps = mapping.period_stats(mapping.analyze(f))
        assert ps.O == mapping_reference.distinct_iterate_count(f)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_invariants_random(data):
    n = data.draw(st.integers(1, 40))
    targets = data.draw(st.lists(st.integers(1, n), min_size=n, max_size=n))
    f = mapping.Mapping(n, tuple(targets))
    cs = mapping.analyze(f)
    ps = mapping.period_stats(cs)
    assert ps.B % ps.T == 0
    assert abs(ps.O - ps.T) < n
    assert sum(cs.cycle_lengths) == cs.num_cyclic
    for v in range(1, n + 1):
        assert (cs.tail_heights[v - 1] == 0) == (v in cs.cyclic_vertices)
    assert sum(d * a for d, a in cs.component_profile.items()) == n
    # permutations: O = T
    if cs.num_cyclic == n:
        assert ps.O == ps.T
    # pure and deterministic, and equal to the pure-Python reference
    assert mapping.analyze(f) == cs
    assert mapping_reference.analyze(f) == cs


def test_log_values_match_integers():
    f = mk(6, 2, 1, 4, 3, 6, 5)
    ps = mapping.period_stats(mapping.analyze(f))
    assert math.isclose(ps.log_T, math.log(ps.T), rel_tol=1e-12)
    assert math.isclose(ps.log_B, math.log(ps.B), rel_tol=1e-12)
