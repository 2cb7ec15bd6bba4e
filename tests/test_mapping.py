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
        "text",
        [
            b"2 2 \xc3\xa9", b"2 2 1.5", b"2 2 0x1", "2 2 x", "2 2 99999999999999999999",
            # np.fromstring alone would read a sign apart from its digits, or a lone sign as 0
            b"2 1 + 2", b"+ 2 1 2", b"2 1 2 -", b"2 1-2", b"2 1 --2",
            b"2 1 \x00", b"2 1 \xff", b"2 1 -99999999999999999999",
            # accepted before through int(): a digit separator, non-ASCII digits and whitespace
            b"2 1 1_0", "2 1 \uff11", "2\xa01 1", "2\x1c1 1",
        ],
    )
    def test_bad_token(self, text):
        with pytest.raises(mapping.MappingError, match="^invalid token: "):
            mapping.parse_mapping(text)

    def test_sign_scan_only_with_signs(self, monkeypatch):
        calls = []
        real = mapping._signs_open_tokens
        monkeypatch.setattr(
            mapping, "_signs_open_tokens", lambda data: calls.append(data) or real(data)
        )
        assert mapping.parse_mapping(b"3 1 2 3").targets.tolist() == [1, 2, 3]
        assert calls == []
        assert mapping.parse_mapping(b"3 +1 2 3").targets.tolist() == [1, 2, 3]
        assert calls == [b"3 +1 2 3"]

    @pytest.mark.parametrize("text", [b"", b"   ", " \t\n\r\x0b\x0c", b"0", b"-3 1"])
    def test_empty(self, text):
        with pytest.raises(mapping.MappingError, match="^empty domain$"):
            mapping.parse_mapping(text)

    @pytest.mark.parametrize(
        "text, targets",
        [
            (b"\x0b2\x0c2\t\r1\n", [2, 1]),
            (b"+2 +01 002", [1, 2]),
            (b"1 -0 ", None),  # 0 is out of range
            (b"2 9223372036854775807 1", None),  # the int64 bound itself is a valid token
        ],
    )
    def test_grammar_edges(self, text, targets):
        if targets is None:
            with pytest.raises(mapping.MappingError, match="^invalid target$"):
                mapping.parse_mapping(text)
        else:
            assert mapping.parse_mapping(text).targets.tolist() == targets

    def test_target_beyond_n(self):
        with pytest.raises(mapping.MappingError, match="invalid target"):
            mapping.parse_mapping("2 2 3")


def old_route(data: bytes):
    """parse_mapping's outcome by the route it replaced: bytes.split, then numpy's int() per token."""
    tokens = data.split()
    if not tokens:
        return "empty domain"
    try:
        values = np.array(tokens, dtype=np.int64)
    except (ValueError, OverflowError):
        return "invalid token"
    n, targets = int(values[0]), values[1:]
    if n < 1:
        return "empty domain"
    if len(targets) != n:
        return "length mismatch"
    if targets.min() < 1 or targets.max() > n:
        return "invalid target"
    return targets.tolist()


def parse_outcome(data: bytes):
    try:
        return mapping.parse_mapping(data).targets.tolist()
    except mapping.MappingError as exc:
        return str(exc).split(":")[0]


SPACE = b" \t\n\r\x0b\x0c"
_soup = st.lists(st.sampled_from([bytes([c]) for c in b"0123456789+-" + SPACE]), max_size=8)
_gap = st.lists(st.sampled_from([bytes([c]) for c in SPACE]), min_size=1, max_size=3).map(b"".join)


def _number(values, signs=(b"", b"", b"+")):
    """Decimal tokens of the values, with an optional sign and leading zeros."""
    return st.builds(
        lambda sign, zeros, v: (sign if v >= 0 else b"") + b"0" * zeros + str(v).encode(),
        st.sampled_from(signs), st.integers(0, 2), values,
    )


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_parse_matches_old_route(data):
    # token soups of digits, signs and every ASCII whitespace byte, mostly shaped like a mapping
    n = data.draw(st.integers(1, 4))
    odd = st.one_of(
        _number(st.integers(-2, 6) | st.integers(2**63 - 2, 2**63 + 1), (b"", b"+", b"-")),
        _soup.map(b"".join),
    )

    def token(good):
        return data.draw(odd if data.draw(st.integers(0, 5)) == 0 else good)

    count = n + data.draw(st.sampled_from([0, 0, 0, -1, 1]))
    tokens = [token(st.just(str(n).encode()))] + [token(_number(st.integers(1, n))) for _ in range(count)]
    text = data.draw(_gap | st.just(b"")) + b"".join(t + data.draw(_gap) for t in tokens)
    assert parse_outcome(text) == old_route(text)


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


def structure(ps):
    """The fields of a PeriodStats that T, B and O are made of."""
    return ps.cycle_lengths, ps.num_cyclic, ps.max_tail_height


class TestAnalyze:
    def test_identity_three(self):
        assert structure(mapping.analyze(mk(3, 1, 2, 3))) == ((1, 1, 1), 3, 0)

    def test_transposition(self):
        assert structure(mapping.analyze(mk(2, 2, 1))) == ((2,), 2, 0)

    def test_tail_chain(self):
        # 3 -> 2 -> 1 -> 1
        assert structure(mapping.analyze(mk(3, 1, 1, 2))) == ((1,), 1, 2)

    def test_lengths_ascending(self):
        # cycles by smallest vertex: (1 2 3), (4), (5 6); cycle_lengths sorts them
        assert mapping.analyze(mk(6, 2, 3, 1, 4, 6, 5)).cycle_lengths == (1, 2, 3)


class TestInvariantErrors:
    """The cycle walk in analyze fires on each image-loop bug of `mapping_faults`."""

    def _raises(self, monkeypatch, fault):
        text, message = mapping_faults.install(fault, monkeypatch.setattr)
        with pytest.raises(mapping.InvariantError, match=f"^{message}$"):
            mapping.analyze(mapping.parse_mapping(text))

    def test_loop_tail_vertex_added_checked(self, monkeypatch):
        self._raises(monkeypatch, "tail_vertex_added")

    def test_loop_cyclic_vertex_missing_checked(self, monkeypatch):
        self._raises(monkeypatch, "cyclic_vertex_missing")

    def test_loop_one_round_short_checked(self, monkeypatch):
        self._raises(monkeypatch, "one_round_short")


def _rho(n, tail, cycle):
    """0-based row: the cycle 0 -> 1 -> ... -> 0 of the given length, a tail of that
    height into vertex 0, and fixed points for the rest."""
    f = np.arange(n)
    f[:cycle] = np.roll(np.arange(cycle), -1)
    t = np.arange(cycle, cycle + tail)
    f[t] = t - 1
    f[t[:1]] = 0
    return f


E_R = (8, 72, 584, 4680)  # e_r = e_(r-1) + 2^(3r) for r = 1..4, SQUARINGS = 3


def kernel_sets(f):
    """The (e_r, S_r) of one 0-based row, after checking the kernel's results against the reference."""
    ref = mapping_reference.analyze(mapping.Mapping(len(f), f + 1))
    [lengths] = mapping._cycle_rows(f)  # first, so that a wrong last set fails in the walk
    assert tuple(sorted(lengths)) == ref.cycle_lengths
    R, e, prev, cyclic = mapping._last_sets(f)
    assert set((cyclic + 1).tolist()) == ref.cyclic_vertices
    assert mapping._max_tail_height(f, R, e, prev, cyclic) == ref.max_tail_height
    assert len(list(mapping._images(f, 0))) == ref.max_tail_height  # one f step per round
    sets = list(mapping._images(f, mapping.SQUARINGS))
    assert mapping.SQUARINGS == 3 and [e_r for e_r, _ in sets] == list(E_R[: len(sets)])
    # S_r = f^(e_r)(V), from steps of f on every vertex
    x, steps = np.arange(len(f)), 0
    for e_r, S in sets:
        for _ in range(e_r - steps):
            x = f[x]
        steps = e_r
        assert np.array_equal(S, np.unique(x))
    # _last_sets hands over the round count and the last two sets of the same run
    assert R == len(sets) and (R == 0 or np.array_equal(cyclic, sets[-1][1]))
    if R <= 1:
        assert (e, prev) == (0, None)
    else:
        assert e == sets[-2][0] and np.array_equal(prev, sets[-2][1])
    return sets


class TestKernel:
    """`_images` and the kernels on it, at the edges of its round count."""

    # the chain n-1 -> ... -> 1 -> 0 -> 0 has tail n - 1, so S_r = {0, ..., n - 1 - e_r}
    # until the first e_r >= n - 1, where the set is {0} and the next image repeats it
    @pytest.mark.parametrize(
        "n",
        sorted(
            {2**k + extra for k in range(1, 8) for extra in (0, 1)}
            | {e + d for e in E_R for d in (0, 1, 2) if e + d <= E_R[-1] + 1}  # heights e - 1, e, e + 1
        ),
    )
    def test_longest_tail_ends_at_round_cap(self, n):
        sets = kernel_sets(_rho(n, n - 1, 1))
        R = next(r for r, e in enumerate(E_R, 1) if e >= n - 1)
        assert [len(S) for _, S in sets] == [max(n - e, 1) for e in E_R[:R]]

    def test_permutation_stops_after_one_round(self):
        # the first image is the whole set: no S_r is made
        f = np.random.default_rng(3).permutation(1000)
        assert kernel_sets(f) == [] and mapping._last_sets(f)[0] == 0

    def test_single_vertex(self):
        f = np.zeros(1, dtype=np.int64)
        assert kernel_sets(f) == [] and mapping._last_sets(f)[3].tolist() == [0]

    def test_block_rows_stabilise_in_different_rounds(self):
        # tail heights 0, 1, 8, 9, 72 and 73 reach the cyclic set after 0, 1, 1, 2, 2 and 3 rounds
        n = 128
        rows = [(0, 5), (1, 2), (8, 7), (9, 3), (72, 1), (73, 2)]
        block = np.stack([_rho(n, h, c) for h, c in rows])
        assert [len(kernel_sets(row)) for row in block] == [0, 1, 1, 2, 2, 3]
        assert len(list(mapping._images(block, mapping.SQUARINGS))) == 3
        assert mapping._cycle_rows(block) == [mapping._cycle_rows(row)[0] for row in block]

    # around each e_r, where the restart on S_(R-1) starts and the R = 1 rerun takes over
    @pytest.mark.parametrize("height", [0, 1, 7, 8, 9, 71, 72, 73, 583, 584, 585])
    @pytest.mark.parametrize("cycle", [1, 3], ids=["fixed-point", "3-cycle"])
    def test_tail_heights(self, height, cycle):
        f = _rho(height + cycle + 2, height, cycle)
        kernel_sets(f)
        assert mapping.analyze(mapping.Mapping(len(f), f + 1)).max_tail_height == height


class TestCyclicSetOracle:
    """The kernel against f^(2^J - 1)(V) by repeated squaring, which sees a whole cycle missing.

    The kernel is the last set of `_last_sets`, which `analyze` and the
    sampler's `_cycle_rows` both read.
    """

    @staticmethod
    def _matches(f):
        cyclic = mapping._last_sets(f)[3]  # looked up at each call, so that an installed fault is met
        assert np.array_equal(cyclic, mapping_reference.cyclic_set(f)), mapping_faults.KERNEL

    # 2**17 + 1: a row, and a block of three, whose first image round is the largest
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1000, 10**5, 2**17 + 1])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_random_blocks(self, n, rows):
        f = np.random.default_rng(n + rows).integers(0, n, size=(rows, n))
        self._matches(f[0] if rows == 1 else f)

    def test_long_chain_and_permutation(self):
        # the chain's tail 2^10 lies in (e_3, e_4] = (584, 4680], so it takes four rounds;
        # on a permutation the first image is the whole set
        self._matches(_rho(2**10 + 1, 2**10, 1))
        self._matches(np.random.default_rng(4).permutation(1000))
        self._matches(mapping.parse_mapping(mapping_faults.RHO_64).targets - 1)

    def test_shrink_then_double_past_a_long_tail(self):
        # 2**18 vertices: a tail of 2**14 spliced into a random row, so the rounds go on
        # past e_4 = 4680 on a small set, after the random part has reached its cycles
        f = np.random.default_rng(5).integers(0, 2**18, size=2**18)
        f[1 : 2**14 + 1] = np.arange(2**14)  # vertex v + 1 -> v: the tail 2^14 -> ... -> 1 -> 0
        self._matches(f)
        self._matches(_rho(2**18, 2**18 - 1, 1))  # image rounds to the end of a chain
        self._matches(np.random.default_rng(6).permutation(2**17 + 1))  # no image round shrinks it

    def test_sees_cycle_missing_behind_tail(self, monkeypatch):
        f = mapping.parse_mapping(mapping_faults.RHO_64)
        t = f.targets - 1
        mapping_faults.install("cycle_missing_behind_tail", monkeypatch.setattr)
        # the walk sees nothing wrong: `analyze` and the sampler both lose the 3-cycle
        assert mapping.analyze(f).cycle_lengths == (2,)
        assert mapping._cycle_rows(t) == [[2]]
        for block in (t, np.stack([t, t])):
            with pytest.raises(AssertionError, match=mapping_faults.KERNEL):
                self._matches(block)


class TestSinglePass:
    """`analyze` runs `_images` over the full row once; the height restarts run on smaller sets.

    An input whose height is at most 2^SQUARINGS takes R = 1 round; the
    rerun for its height, one f step per round, runs on its tail
    vertices and one fixed point for the cyclic set, not on the full row.
    """

    @staticmethod
    def _sizes(monkeypatch, f):
        """The size of the row each `_images` run of `analyze(f)` starts on, and its squarings."""
        real = mapping._images
        runs = []

        def counted(g, squarings):
            runs.append((g.size, squarings))
            return real(g, squarings)

        monkeypatch.setattr(mapping, "_images", counted)
        n = len(f)
        ref = mapping_reference.analyze(mapping.Mapping(n, f + 1))
        assert mapping.analyze(mapping.Mapping(n, f + 1)).max_tail_height == ref.max_tail_height
        return runs

    @pytest.mark.parametrize(
        "f",
        [np.random.default_rng(8).integers(0, 10**4, size=10**4), _rho(2**10, 2**10 - 1, 1)],
        ids=["random-1e4", "chain-2^10"],
    )
    def test_one_pass_on_the_full_row(self, monkeypatch, f):
        sizes = [size for size, _ in self._sizes(monkeypatch, f)]
        n = len(f)
        assert sizes[0] == n and all(size < n for size in sizes[1:])
        assert len(sizes) > 1  # both rows need at least one restart

    def test_short_tail_reruns_on_its_tail(self, monkeypatch):
        # height 8 = 2^SQUARINGS: R = 1, so the 8 tail vertices and the merged cyclic
        # set rerun with squarings = 0; the 991 fixed points are merged too
        assert self._sizes(monkeypatch, _rho(1000, 8, 1)) == [(1000, mapping.SQUARINGS), (9, 0)]


class TestPeriodStats:
    def test_coprime_cycles(self):
        # 2-cycle and 3-cycle: permutation of [5]
        ps = mapping.analyze(mk(5, 2, 1, 4, 5, 3))
        assert (ps.n, ps.T, ps.B, ps.O) == (5, 6, 6, 6)

    def test_constant_pair(self):
        ps = mapping.analyze(mk(2, 1, 1))
        assert (ps.T, ps.B, ps.O) == (1, 1, 1)

    def test_chain(self):
        ps = mapping.analyze(mk(3, 1, 1, 2))
        assert (ps.T, ps.B, ps.O) == (1, 1, 2)

    def test_prime_exponents(self):
        # cycles of lengths 4 and 6: T = 12 = 2^2 * 3
        targets = (2, 3, 4, 1, 6, 7, 8, 9, 10, 5)
        ps = mapping.analyze(mk(10, *targets))
        assert ps.T == 12 and ps.B == 24
        assert math.isclose(ps.log_T, math.log(12), rel_tol=1e-12)


def all_mappings(n):
    for tgt in itertools.product(range(1, n + 1), repeat=n):
        yield mapping.Mapping(n, tgt)


def reference_structure(f):
    """The reference decomposition cut down to the fields `structure` reads."""
    return structure(mapping_reference.analyze(f))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_analyze_matches_reference(n):
    for f in all_mappings(n):
        assert structure(mapping.analyze(f)) == reference_structure(f)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_O_matches_explicit_composition(n):
    for f in all_mappings(n):
        ps = mapping.analyze(f)
        assert ps.O == mapping_reference.distinct_iterate_count(f)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_invariants_random(data):
    n = data.draw(st.integers(1, 40))
    targets = data.draw(st.lists(st.integers(1, n), min_size=n, max_size=n))
    f = mapping.Mapping(n, tuple(targets))
    ps = mapping.analyze(f)
    assert ps.n == n
    assert ps.B % ps.T == 0
    assert abs(ps.O - ps.T) < n
    assert sum(ps.cycle_lengths) == ps.num_cyclic
    # permutations, and only they, have no tails; for them O = T
    assert (ps.max_tail_height == 0) == (ps.num_cyclic == n)
    if ps.num_cyclic == n:
        assert ps.O == ps.T
    # pure and deterministic, equal to the pure-Python reference, and the
    # same from the parsed text
    assert mapping.analyze(f) == ps
    assert reference_structure(f) == structure(ps)
    assert mapping.analyze(mapping.parse_mapping(" ".join(map(str, [n, *targets])))) == ps


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
    pairs = []
    for n in (10, 100, 1000, 10**4, 10**5):
        ps = mapping.analyze(mapping.Mapping(n, np.random.default_rng(n).integers(1, n + 1, size=n)))
        pairs.append((ps.T, ps.log_T))
    T, log_T, _ = mapping.period_logs(_primes(546))
    pairs.append((T, log_T))
    for T, log_T in pairs:
        with mpmath.workprec(200):
            assert abs(mpmath.mpf(log_T) - mpmath.log(T)) <= math.ulp(log_T)
    assert T.bit_length() == 5595


def test_log_values_match_integers():
    f = mk(6, 2, 1, 4, 3, 6, 5)
    ps = mapping.analyze(f)
    assert math.isclose(ps.log_T, math.log(ps.T), rel_tol=1e-12)
    assert math.isclose(ps.log_B, math.log(ps.B), rel_tol=1e-12)
