"""GF(2) affine maps: probing, composition, powers and doubling orbits."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

        m = AffineMap.from_probe(f, 12)
        assert m.constant == 0x801
        assert m.columns[0] == 0b1000
        assert m.columns[11] == 0b100
        rnd = random.Random(5)
        for w in (rnd.getrandbits(12) for _ in range(200)):
            assert _apply(m, w) == f(w)

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

    def test_compose_applies_other_first(self):
        rnd = random.Random(11)
        a, b = _random_map(21, rnd), _random_map(21, rnd)
        ab = a.compose(b)
        for w in (rnd.getrandbits(21) for _ in range(100)):
            assert _apply(ab, w) == _apply(a, _apply(b, w))
        with pytest.raises(ValueError):
            a.compose(_identity(20))

    @pytest.mark.parametrize("k", (3, 8, 13, 64))
    def test_power_laws(self, k):
        rnd = random.Random(k)
        m = _random_map(k, rnd)
        assert m.power(0) == _identity(k)
        assert m.power(1) == m
        for a, b in ((0, 5), (1, 1), (3, 4), (17, 40), (100, 155)):
            assert m.power(a + b) == m.power(a).compose(m.power(b))
        w = rnd.getrandbits(k)
        assert _apply(m.power(77), w) == _sequential(m, w, 77)[-1]
        with pytest.raises(ValueError):
            m.power(-1)


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
        # takes n.bit_length() rounds; each builds its map's tables once,
        # for its block and its square, and the last round does not square
        calls = {"_tables": 0, "_compose": 0}

        def counted(name):
            method = getattr(AffineMap, name)

            def wrapper(*args):
                calls[name] += 1
                return method(*args)

            monkeypatch.setattr(AffineMap, name, wrapper)

        counted("_tables")
        counted("_compose")
        m = _random_map(64, random.Random(n))
        words = m.orbit_array(1, n)
        rounds = n.bit_length()
        assert calls == {"_tables": rounds, "_compose": max(rounds - 1, 0)}
        monkeypatch.undo()
        assert words.tolist() == _sequential(m, 1, n)
