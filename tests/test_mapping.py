import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mapping_faults
import mapping_reference
from itermap import mapping


def mk(n, *targets):
    return mapping.Mapping(n, tuple(targets))


class TestParse:
    def test_identity(self):
        f = mapping.parse_mapping("2 1 2")
        assert f.n == 2 and f.targets.tolist() == [1, 2]

    def test_swap(self):
        f = mapping.parse_mapping("2 2 1")
        assert f.targets.tolist() == [2, 1]

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
        assert mapping.parse_mapping(b"2 2 1").targets.tolist() == [2, 1]

    @pytest.mark.parametrize(
        "text", [b"2 2 \xc3\xa9", b"2 2 1.5", b"2 2 0x1", "2 2 x", "2 2 99999999999999999999"]
    )
    def test_bad_token(self, text):
        with pytest.raises(mapping.MappingError, match="invalid token"):
            mapping.parse_mapping(text)

    def test_target_beyond_n(self):
        with pytest.raises(mapping.MappingError, match="invalid target"):
            mapping.parse_mapping("2 2 3")


class TestMapping:
    def test_targets_are_a_read_only_copy(self):
        src = np.array([2, 1], dtype=np.int64)
        f = mapping.Mapping(2, src)
        src[0] = 1
        assert f.targets.dtype == np.int64 and f.targets.tolist() == [2, 1]
        with pytest.raises(ValueError):
            f.targets[0] = 1

    @pytest.mark.parametrize("targets", [(0, 1), (1, 3), (1, -1), (1, 2**70)])
    def test_range_checked(self, targets):
        with pytest.raises(mapping.MappingError, match="invalid target"):
            mapping.Mapping(2, targets)

    def test_length_checked(self):
        with pytest.raises(mapping.MappingError, match="length mismatch"):
            mapping.Mapping(3, (1, 1))


class TestAnalyze:
    def test_identity_three(self):
        cs = mapping.analyze(mk(3, 1, 2, 3))
        assert cs == mapping.CycleStructure(cycle_lengths=(1, 1, 1), num_cyclic=3, max_tail_height=0)

    def test_transposition(self):
        cs = mapping.analyze(mk(2, 2, 1))
        assert cs == mapping.CycleStructure(cycle_lengths=(2,), num_cyclic=2, max_tail_height=0)

    def test_tail_chain(self):
        # 3 -> 2 -> 1 -> 1
        cs = mapping.analyze(mk(3, 1, 1, 2))
        assert cs == mapping.CycleStructure(cycle_lengths=(1,), num_cyclic=1, max_tail_height=2)

    def test_lengths_ascending(self):
        # cycles by smallest vertex: (1 2 3), (4), (5 6); cycle_lengths sorts them
        cs = mapping.analyze(mk(6, 2, 3, 1, 4, 6, 5))
        assert cs.cycle_lengths == (1, 2, 3)


class TestInvariantErrors:
    """Each check in analyze fires on a kernel broken to trip it."""

    def _raises(self, monkeypatch, fault):
        text, message = mapping_faults.install(fault, monkeypatch.setattr)
        with pytest.raises(mapping.InvariantError, match=f"^{message}$"):
            mapping.period_stats(mapping.analyze(mapping.parse_mapping(text)))

    def test_mask_with_tail_vertex_checked(self, monkeypatch):
        self._raises(monkeypatch, "tail_vertex_added")

    def test_mask_missing_cyclic_vertex_checked(self, monkeypatch):
        self._raises(monkeypatch, "cyclic_vertex_missing")

    def test_mask_missing_cycle_checked(self, monkeypatch):
        self._raises(monkeypatch, "fixed_point_missing")


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
        assert math.isclose(ps.log_T, math.log(12), rel_tol=1e-12)


def all_mappings(n):
    for tgt in itertools.product(range(1, n + 1), repeat=n):
        yield mapping.Mapping(n, tgt)


def reference_structure(f):
    """The reference decomposition cut down to the fields the library keeps."""
    ref = mapping_reference.analyze(f)
    return mapping.CycleStructure(ref.cycle_lengths, ref.num_cyclic, ref.max_tail_height)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_analyze_matches_reference(n):
    for f in all_mappings(n):
        assert mapping.analyze(f) == reference_structure(f)


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
    # permutations, and only they, have no tails; for them O = T
    assert (cs.max_tail_height == 0) == (cs.num_cyclic == n)
    if cs.num_cyclic == n:
        assert ps.O == ps.T
    # pure and deterministic, equal to the pure-Python reference, and the
    # same from the parsed text
    assert mapping.analyze(f) == cs
    assert reference_structure(f) == cs
    assert mapping.analyze(mapping.parse_mapping(" ".join(map(str, [n, *targets])))) == cs


def _primes(count):
    primes = []
    p = 2
    while len(primes) < count:
        if all(p % q for q in primes if q * q <= p):
            primes.append(p)
        p += 1
    return primes


def test_log_T_within_one_ulp():
    # log T against 200-bit mpmath: random mappings, and a permutation of
    # n = 997,661 whose 546 cycles have the first 546 primes as lengths
    # (T = their product, 5595 bits)
    structures = [
        mapping.analyze(mapping.Mapping(n, np.random.default_rng(n).integers(1, n + 1, size=n)))
        for n in (10, 100, 1000, 10**4, 10**5)
    ]
    primes = _primes(546)
    structures.append(mapping.CycleStructure(tuple(primes), sum(primes), 0))
    for cs in structures:
        ps = mapping.period_stats(cs)
        with mpmath.workprec(200):
            assert abs(mpmath.mpf(ps.log_T) - mpmath.log(ps.T)) <= math.ulp(ps.log_T)
    assert ps.T.bit_length() == 5595


def test_log_values_match_integers():
    f = mk(6, 2, 1, 4, 3, 6, 5)
    ps = mapping.period_stats(mapping.analyze(f))
    assert math.isclose(ps.log_T, math.log(ps.T), rel_tol=1e-12)
    assert math.isclose(ps.log_B, math.log(ps.B), rel_tol=1e-12)
