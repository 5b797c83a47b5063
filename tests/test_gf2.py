"""GF(2) affine maps: probing, powers, doubling orbits and orbits in
blocks."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tentbits import core, gf2
from tentbits import netlist as nl
from tentbits.gf2 import AffineMap


def _apply(m, w):
    """m(w) one column at a time: the plain definition of an affine map."""
    x = m.constant
    for j, col in enumerate(m.columns):
        if w >> j & 1:
            x ^= col
    return x


def _sequential(m, w, n):
    words = [w]
    for _ in range(n):
        words.append(_apply(m, words[-1]))
    return words


def _identity(k):
    return AffineMap(k, tuple(1 << j for j in range(k)))


def _random_map(k, rnd):
    return AffineMap(
        k, tuple(rnd.getrandbits(k) for _ in range(k)), rnd.getrandbits(k)
    )


# n + 1 words just below, at and just above a power of two: the last
# doubling round is one word short of full, full, or a single word.  The
# other lengths end a round part way; 10 007 words is a prime count.
EDGE_STEPS = sorted(
    {1, 2, 999, 1000, 1001, 9999, 10000, 10006, 10023}
    | {(1 << j) + d for j in (10, 13) for d in (-2, -1, 0)}
)


class TestAffineMap:
    def test_from_probe_reads_columns_and_constant(self):
        # rotate left by 3 and flip two bits: affine on 12-bit words
        def f(w):
            return ((w << 3 | w >> 9) & 0xFFF) ^ 0x801

        m = AffineMap.from_probe(lambda words: [f(w) for w in words], 12)
        assert m.constant == 0x801
        assert m.columns[0] == 0b1000
        assert m.columns[11] == 0b100
        rnd = random.Random(5)
        for w in (rnd.getrandbits(12) for _ in range(200)):
            assert _apply(m, w) == f(w)

    @pytest.mark.parametrize("k", (1, 12, 64))
    def test_from_probe_is_one_call(self, k):
        # one call with every probed word, so a bit-parallel clock can
        # take them all in one pass: 0, then 1 << j in order of j
        calls = []

        def f(words):
            calls.append(list(words))
            return words

        assert AffineMap.from_probe(f, k) == _identity(k)
        assert calls == [[0, *(1 << j for j in range(k))]]

    def test_identity_and_validation(self):
        assert _sequential(_identity(5), 0b10110, 3) == [0b10110] * 4
        with pytest.raises(ValueError):
            AffineMap(3, (1, 2))
        with pytest.raises(ValueError):
            AffineMap(65, tuple(1 << j for j in range(65)))
        with pytest.raises(ValueError):
            AffineMap(3, (1, 2, 8))
        with pytest.raises(ValueError):
            AffineMap(3, (1, 2, 4), -1)

    @pytest.mark.parametrize("k", (3, 8, 13, 64))
    def test_power_laws(self, k):
        rnd = random.Random(k)
        m = _random_map(k, rnd)
        assert m.power(0) == _identity(k)
        assert m.power(1) == m
        for a, b in ((0, 5), (1, 1), (3, 4), (17, 40), (100, 155)):
            # affine maps that agree on 0 and every 1 << j are equal
            for w in (0, *(1 << j for j in range(k))):
                assert _apply(m.power(a + b), w) == _apply(m.power(a), _apply(m.power(b), w))
        w = rnd.getrandbits(k)
        assert _apply(m.power(77), w) == _sequential(m, w, 77)[-1]
        with pytest.raises(ValueError):
            m.power(-1)

    @pytest.mark.parametrize("k", (3, 13, 64))
    def test_power_is_the_sequential_map(self, k):
        # the probe words 0 and 1 << j, each stepped one at a time by the
        # plain definition: after n steps they read off f^n's constant and
        # columns, for every n up to 300 (every set-bit pattern below 2^8)
        m = _random_map(k, random.Random(k + 1))
        words = [0, *(1 << j for j in range(k))]
        for n in range(301):
            constant, *images = words
            assert m.power(n) == AffineMap(k, tuple(x ^ constant for x in images), constant)
            words = [_apply(m, x) for x in words]


class TestOrbit:
    @pytest.mark.parametrize("k", (5, 64))
    def test_every_short_orbit(self, k):
        # lengths 1 to 301: a last doubling round of every size up to 128
        m = _random_map(k, random.Random(k))
        w = (1 << k) - 1
        reference = _sequential(m, w, 300)
        for n in range(301):
            assert m.orbit_array(w, n).tolist() == reference[: n + 1]

    @pytest.mark.parametrize("k", (13, 64))
    @pytest.mark.parametrize("n", EDGE_STEPS)
    def test_block_edges(self, k, n):
        rnd = random.Random(n)
        m = _random_map(k, rnd)
        w = rnd.getrandbits(k)
        assert m.orbit_array(w, n).tolist() == _sequential(m, w, n)

    @given(st.integers(2, 64).filter(lambda k: k % 8), st.integers(0, 3000), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_random_maps_at_odd_widths(self, k, n, rnd):
        m = _random_map(k, rnd)
        w = rnd.getrandbits(k)
        words = m.orbit_array(w, n).tolist()
        assert words == _sequential(m, w, n)
        assert all(type(x) is int for x in words)

    def test_bad_arguments(self):
        m = _identity(4)
        with pytest.raises(ValueError):
            m.orbit_array(16, 3)
        with pytest.raises(ValueError):
            m.orbit_array(-1, 3)
        with pytest.raises(ValueError):
            m.orbit_array(3, -1)

    @pytest.mark.parametrize("k", (13, 64))
    def test_orbit_array_is_the_orbit(self, k):
        rnd = random.Random(k)
        m = _random_map(k, rnd)
        w = rnd.getrandbits(k)
        for n in (0, 1, 2, 1000, 1023, 1024):
            words = m.orbit_array(w, n)
            assert words.dtype == np.dtype("<u8")
            assert words.shape == (n + 1,)
            assert words.tolist() == _sequential(m, w, n)

    @pytest.mark.parametrize("n", (0, *EDGE_STEPS))
    def test_one_table_build_per_round(self, n, monkeypatch):
        # the known run doubles from one word until it holds n + 1, which
        # takes n.bit_length() rounds; round i builds the tables of power
        # i of the squaring sequence once, for its block and for squaring
        # it into power i + 1, and the last round does not square
        calls = _count_calls(monkeypatch, "_tables", "_linear")
        m = _random_map(64, random.Random(n))
        words = m.orbit_array(1, n)
        rounds = n.bit_length()
        assert calls == {"_tables": rounds, "_linear": rounds + max(rounds - 1, 0)}
        monkeypatch.undo()
        assert words.tolist() == _sequential(m, 1, n)


class TestTables:
    @given(st.sampled_from((1, 7, 8, 9, 63, 64)), st.randoms())
    @settings(max_examples=30, deadline=None)
    def test_entries_are_their_definition(self, k, rnd):
        # entry [j][x]: the XOR of column 8j + i over the set bits i of x,
        # with the columns past k counting as zero
        columns = [rnd.getrandbits(k) for _ in range(k)] + [0] * 7
        tables = gf2._tables(np.array(columns[:k], "<u8"))
        assert tables.dtype == np.dtype("<u8")
        assert tables.shape == (-(-k // 8), 256)
        for j, row in enumerate(tables.tolist()):
            for x in range(256):
                expected = 0
                for i in range(8):
                    if x >> i & 1:
                        expected ^= columns[8 * j + i]
                assert row[x] == expected, (j, x)


def _count_calls(monkeypatch, *names):
    """Count the calls of the named gf2 functions until monkeypatch.undo()."""
    calls = dict.fromkeys(names, 0)

    def counted(name):
        function = getattr(gf2, name)

        def wrapper(*args):
            calls[name] += 1
            return function(*args)

        monkeypatch.setattr(gf2, name, wrapper)

    for name in names:
        counted(name)
    return calls


def _record_doublings(monkeypatch):
    """The length of each orbit_array call's orbit, until monkeypatch.undo()."""
    lengths = []
    real = AffineMap.orbit_array

    def recorded(self, w, n):
        lengths.append(n + 1)
        return real(self, w, n)

    monkeypatch.setattr(AffineMap, "orbit_array", recorded)
    return lengths


def _tapped(m, w, n, bit):
    """Bit `bit` of each orbit word, from orbit_array."""
    return (m.orbit_array(w, n) >> np.uint64(bit) & np.uint64(1)).astype(np.uint8)


class TestBitBlocks:
    @pytest.mark.parametrize("rows", (1, 7, 8, 64))
    @pytest.mark.parametrize("k", (1, 2, 7, 8, 33, 63, 64))
    def test_blocks_are_the_tapped_orbit(self, k, rows):
        # lengths inside the first block, at its end, one past it, and a
        # few blocks on; the random maps have a constant, so the flip bit
        # of each later block is exercised
        rnd = random.Random(k * 100 + rows)
        for states in sorted({1, rows - 1, rows, rows + 1, 3 * rows + 5} - {0}):
            for bit in sorted({0, k - 1, rnd.randrange(k)}):
                m = _random_map(k, rnd)
                w = rnd.getrandbits(k)
                blocks = list(m.bit_blocks(w, states - 1, bit, rows))
                assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
                assert 1 <= len(blocks[-1]) <= rows
                assert all(b.dtype == np.uint8 for b in blocks)
                assert np.concatenate(blocks).tolist() == _tapped(m, w, states - 1, bit).tolist()

    def test_words_past_the_first_block_are_not_made(self, monkeypatch):
        # one doubling of rows words, however many blocks follow
        m = _random_map(64, random.Random(3))
        lengths = _record_doublings(monkeypatch)
        bits = np.concatenate(list(m.bit_blocks(5, 10_000, 63, 64)))
        assert lengths == [64]
        monkeypatch.undo()
        assert bits.tolist() == _tapped(m, 5, 10_000, 63).tolist()

    @pytest.mark.parametrize("m", (0, 3, 6, 13))
    def test_jump_is_the_next_square(self, m, monkeypatch):
        # at rows = 2^m the first block's doubling builds the tables of
        # powers 0..m-1, and f^rows is power m, one squaring on: no other
        # table build, no power() call; 13 builds at rows = 8 192
        rows = 1 << m
        f = _random_map(64, random.Random(m))
        calls = _count_calls(monkeypatch, "_tables")
        monkeypatch.setattr(AffineMap, "power", None)
        bits = np.concatenate(list(f.bit_blocks(7, 3 * rows + 5, 63, rows)))
        assert calls == {"_tables": m}
        monkeypatch.undo()
        assert bits.tolist() == _tapped(f, 7, 3 * rows + 5, 63).tolist()

    def test_bad_arguments(self):
        # each raises on the call, before a block is asked for
        m = _identity(4)
        cases = [
            ((16, 3, 0, 8), "does not fit in 4 bits"),
            ((-1, 3, 0, 8), "does not fit in 4 bits"),
            ((3, -1, 0, 8), "need n >= 0"),
            ((3, 3, 4, 8), "need a bit in 0..3"),
            ((3, 3, -1, 8), "need a bit in 0..3"),
            ((3, 3, 0, 0), "need rows >= 1"),
        ]
        for args, message in cases:
            with pytest.raises(ValueError, match=message):
                m.bit_blocks(*args)


class TestWordBlocks:
    @pytest.mark.parametrize("rows", (1, 7, 8, 64))
    @pytest.mark.parametrize("k", (1, 13, 64))
    def test_blocks_are_the_orbit(self, k, rows):
        # n + 1 words shorter than one block, one short of its end, at
        # it, one past it, and a few blocks on
        rnd = random.Random(k * 100 + rows)
        for states in sorted({1, 3, rows - 1, rows, rows + 1, 3 * rows + 5} - {0}):
            m = _random_map(k, rnd)
            w = rnd.getrandbits(k)
            blocks = list(m.word_blocks(w, states - 1, rows))
            assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
            assert 1 <= len(blocks[-1]) <= rows
            assert all(b.dtype == np.dtype("<u8") for b in blocks)
            assert np.concatenate(blocks).tolist() == _sequential(m, w, states - 1)

    @pytest.mark.parametrize("m", (0, 3, 13))
    def test_one_doubling_then_the_next_square(self, m, monkeypatch):
        # one doubling of rows words, then f^rows is power m of the same
        # squaring sequence: m + 1 table builds, the last for f^rows
        rows = 1 << m
        f = _random_map(64, random.Random(m))
        lengths = _record_doublings(monkeypatch)
        calls = _count_calls(monkeypatch, "_tables")
        words = np.concatenate(list(f.word_blocks(9, 3 * rows + 5, rows)))
        assert lengths == [rows]
        assert calls == {"_tables": m + 1}
        monkeypatch.undo()
        assert words.tolist() == f.orbit_array(9, 3 * rows + 5).tolist()

    def test_bad_arguments(self):
        # each raises on the call, before a block is asked for
        m = _identity(4)
        cases = [
            ((16, 3, 8), "does not fit in 4 bits"),
            ((-1, 3, 8), "does not fit in 4 bits"),
            ((3, -1, 8), "need n >= 0"),
            ((3, 3, 0), "need rows >= 1"),
        ]
        for args, message in cases:
            with pytest.raises(ValueError, match=message):
                m.word_blocks(*args)


def _joined(blocks):
    return np.concatenate(list(blocks)).tolist()


class TestOneSequencePerMap:
    # each map holds one squaring sequence, built on its first use: a
    # later call on the same map reuses its powers and tables
    @pytest.mark.parametrize("rows", (64, 100))
    @pytest.mark.parametrize(
        "call",
        (
            lambda m, rows: m.orbit_array(5, 3 * rows + 5).tolist(),
            lambda m, rows: _joined(m.word_blocks(5, 3 * rows + 5, rows)),
            lambda m, rows: _joined(m.bit_blocks(5, 3 * rows + 5, 63, rows)),
            lambda m, rows: m.power(3 * rows + 5),
        ),
        ids=("orbit_array", "word_blocks", "bit_blocks", "power"),
    )
    def test_second_call_builds_no_tables(self, call, rows, monkeypatch):
        m = _random_map(64, random.Random(rows))
        first = call(m, rows)
        calls = _count_calls(monkeypatch, "_tables")
        assert call(m, rows) == first
        assert calls == {"_tables": 0}
        monkeypatch.undo()
        assert first == call(_random_map(64, random.Random(rows)), rows)

    def test_calls_share_the_sequence(self, monkeypatch):
        # orbit_array(w, 1023) builds the tables of powers 0..9; the
        # blocks of 1 024 and the 1 024th power then take power 10, one
        # more build between them
        m = _random_map(64, random.Random(4))
        calls = _count_calls(monkeypatch, "_tables")
        m.orbit_array(3, 1023)
        assert calls == {"_tables": 10}
        list(m.word_blocks(3, 5000, 1024))
        list(m.bit_blocks(3, 5000, 0, 1024))
        m.power(1024)
        assert calls == {"_tables": 11}

    def test_sequence_is_not_a_field(self):
        # ==, hash and repr see only k, the columns and the constant
        m = _random_map(40, random.Random(6))
        m.orbit_array(1, 1000)
        fresh = AffineMap(m.k, m.columns, m.constant)
        assert "_squares" in vars(m) and "_squares" not in vars(fresh)
        assert m == fresh
        assert hash(m) == hash(fresh)
        assert repr(m) == repr(fresh)

    def test_no_cache_of_maps(self):
        # a map and its sequence live as long as the caller keeps the map
        config = core.MapConfig(width=16)
        assert core.affine_map(config) == core.affine_map(config)
        assert core.affine_map(config) is not core.affine_map(config)
        netlist = nl.build_tent_netlist(config)
        assert nl.run_map(netlist, 5) == nl.run_map(netlist, 5)
        assert nl.run_map(netlist, 5)[1] is not nl.run_map(netlist, 5)[1]
