"""Word-model tests: encoding, complement, step semantics, exact tracking."""

import dataclasses
import math
import random
import typing
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tentbits import core
from tentbits.analysis import cycle_table
from tentbits.core import (
    BitWidth,
    MapConfig,
    check_word,
    complement,
    decode,
    decode_exact,
    decode_series,
    encode,
    iterate,
    output_array,
    output_stream,
    perturbation_bit,
    step,
    steps_to_zero,
    tent_exact,
)


@st.composite
def width_and_word(draw, min_k=2, max_k=16):
    k = draw(st.integers(min_k, max_k))
    w = draw(st.integers(0, (1 << k) - 1))
    return k, w


def exact_tent_word(w: int, k: int) -> Fraction:
    """Oracle: the real tent map applied to the decoded word, exactly."""
    x = Fraction(w, (1 << k) - 1)
    return 2 * x if x < Fraction(1, 2) else 2 * (1 - x)


class TestBitWidth:
    def test_bounds(self):
        assert BitWidth(2).k == 2
        assert BitWidth(64).max_word == 2**64 - 1
        with pytest.raises(ValueError):
            BitWidth(1)
        with pytest.raises(ValueError):
            BitWidth(65)

    def test_stored_max_word_keeps_value_semantics(self):
        assert repr(BitWidth(8)) == "BitWidth(k=8)"
        assert BitWidth(8) == BitWidth(8)
        assert BitWidth(8) != BitWidth(9)
        assert hash(BitWidth(8)) == hash(BitWidth(8))
        assert len({BitWidth(8), BitWidth(8), BitWidth(9)}) == 2
        assert [f.name for f in dataclasses.fields(BitWidth)] == ["k"]
        assert dataclasses.replace(BitWidth(8), k=4).max_word == 15
        with pytest.raises(dataclasses.FrozenInstanceError):
            BitWidth(8).max_word = 7


class TestCheckWord:
    def test_returns_plain_int(self):
        assert check_word(200, 8) == 200
        assert check_word(200, BitWidth(8)) == 200
        for w in (True, np.uint8(1), np.int64(1)):
            assert type(check_word(w, 8)) is int
            assert check_word(w, 8) == 1

    @pytest.mark.parametrize(
        "w, k, message",
        (
            (-1, 8, "word -0x1 does not fit in 8 bits"),
            (256, 8, "word 0x100 does not fit in 8 bits"),
            (2**64, 64, "word 0x10000000000000000 does not fit in 64 bits"),
            (np.int64(-2), 8, "word -0x2 does not fit in 8 bits"),
        ),
    )
    def test_rejects_out_of_range(self, w, k, message):
        with pytest.raises(ValueError) as exc:
            check_word(w, k)
        assert str(exc.value) == message

    def test_rejects_float(self):
        with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
            check_word(1.0, 8)

    def test_width_is_checked_first(self):
        with pytest.raises(ValueError, match="width must be in"):
            check_word(1, 1)


class TestMapConfig:
    def test_width_coercion(self):
        assert MapConfig(width=8).width == BitWidth(8)


class TestDecode:
    def test_zero(self):
        assert decode(0, 8) == 0.0

    def test_all_ones_is_one(self):
        assert decode(255, 8) == 1.0

    def test_interior_value(self):
        # oracle: exact rational 192/255
        assert decode(192, 8) == pytest.approx(192 / 255, abs=0)
        assert decode_exact(192, 8) == Fraction(192, 255)

    def test_exact_type_hints_resolve(self):
        # the exact paths import fractions only when they run, so their
        # annotations name the numbers ABC, which core holds at module level
        assert isinstance(decode_exact(192, 8), typing.get_type_hints(decode_exact)["return"])
        assert isinstance(Fraction(1, 3), typing.get_type_hints(encode)["x"])

    def test_monotone(self):
        values = [decode(w, 6) for w in range(64)]
        assert values == sorted(values)
        assert len(set(values)) == 64

    def test_rejects_oversized_word(self):
        with pytest.raises(ValueError):
            decode(256, 8)
        with pytest.raises(ValueError):
            decode(-1, 8)


class TestEncode:
    def test_endpoints(self):
        assert encode(1.0, 8) == 255
        assert encode(0.0, 8) == 0

    def test_round_half_up(self):
        # 0.5 * 255 = 127.5 rounds up to 128
        assert encode(0.5, 8) == 128

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            encode(1.0000001, 8)
        with pytest.raises(ValueError):
            encode(-0.1, 8)
        with pytest.raises(ValueError):
            encode(float("nan"), 8)

    @pytest.mark.parametrize("k", range(2, 17))
    def test_round_trip_exhaustive(self, k):
        for w in range(1 << k):
            assert encode(decode(w, k), k) == w

    @given(st.integers(17, 64), st.randoms())
    @settings(max_examples=60)
    def test_round_trip_sampled_large_widths(self, k, rnd):
        # exact decode keeps every bit, so the round trip holds at any width
        w = rnd.randrange(1 << k)
        assert encode(decode_exact(w, k), k) == w

    @given(width_and_word())
    def test_encode_decode_within_half_ulp(self, kw):
        k, w = kw
        x = Fraction(w, (1 << k) - 1)
        back = decode_exact(encode(x, k), k)
        assert abs(back - x) <= Fraction(1, 2 * ((1 << k) - 1))


class TestComplement:
    def test_examples(self):
        assert complement(192, 8) == 63
        assert complement(0, 8) == 255
        assert complement(255, 8) == 0

    @pytest.mark.parametrize("k", range(2, 17))
    def test_exact_identity_exhaustive(self, k):
        one = Fraction(1)
        for w in range(1 << k):
            assert decode_exact(complement(w, k), k) + decode_exact(w, k) == one


class TestPerturbationBit:
    def test_examples(self):
        assert perturbation_bit(0b00000011, 8) == 0
        assert perturbation_bit(0b00000010, 8) == 1
        assert perturbation_bit(0, 8) == 0

    @given(width_and_word())
    def test_invariant_under_complement(self, kw):
        k, w = kw
        assert perturbation_bit(w, k) == perturbation_bit(complement(w, k), k)


class TestStep:
    def test_lower_branch(self):
        cfg = MapConfig(width=8)
        assert step(cfg, 0b01000000) == 128

    def test_upper_branch(self):
        cfg = MapConfig(width=8)
        # NOT 192 = 63, shifted = 126, serial bit 0
        assert step(cfg, 0b11000000) == 126

    def test_serial_injection(self):
        cfg = MapConfig(width=8)
        assert step(cfg, 0b00000010) == 5

    def test_zero_is_fixed(self):
        for perturbed in (True, False):
            cfg = MapConfig(width=8, perturbed=perturbed)
            assert step(cfg, 0) == 0

    def test_checks_its_word(self):
        cfg = MapConfig(width=8)
        for bad, error in ((256, ValueError), (-1, ValueError), (2.0, TypeError)):
            with pytest.raises(error):
                step(cfg, bad)
        # any index-like word steps as its int value
        for w in (True, np.uint8(2), np.int64(255)):
            assert step(cfg, w) == step(cfg, int(w))
            assert type(step(cfg, w)) is int

    @given(width_and_word(max_k=16))
    def test_shift_never_overflows(self, kw):
        k, w = kw
        width = BitWidth(k)
        top = (w >> (k - 1)) & 1
        t = complement(w, width) if top else w
        assert (t >> (k - 1)) & 1 == 0
        assert (t << 1) | 1 <= 2 * width.max_word  # shifted value stays in k bits + carry bit
        assert ((t << 1) & width.max_word) == (t << 1) & ((1 << k) - 1)

    @given(width_and_word(max_k=16))
    def test_unperturbed_matches_tent_exactly(self, kw):
        k, w = kw
        cfg = MapConfig(width=k, perturbed=False)
        assert decode_exact(step(cfg, w), k) == exact_tent_word(w, k)

    @given(width_and_word(max_k=16))
    def test_perturbed_tracks_tent_within_one_ulp(self, kw):
        k, w = kw
        cfg = MapConfig(width=k, perturbed=True)
        err = abs(decode_exact(step(cfg, w), k) - exact_tent_word(w, k))
        assert err <= Fraction(1, (1 << k) - 1)
        if perturbation_bit(w, k) == 0:
            assert err == 0

    @pytest.mark.parametrize("k", range(2, 11))
    def test_serial_bit_is_perturbation_bit(self, k):
        cfg = MapConfig(width=k)
        for w in range(1 << k):
            assert step(cfg, w) & 1 == perturbation_bit(w, k)

    @pytest.mark.parametrize("k", range(2, 13))
    def test_zero_preimages_are_word_extremes(self, k):
        cfg = MapConfig(width=k)
        preimages = [w for w in range(1 << k) if step(cfg, w) == 0]
        assert preimages == [0, (1 << k) - 1]


class TestIterate:
    def test_seven_step_cycle(self):
        cfg = MapConfig(width=4)
        assert iterate(cfg, 0b1000, 7) == [8, 14, 3, 6, 13, 5, 11, 8]

    def test_fixed_point(self):
        cfg = MapConfig(width=8)
        assert iterate(cfg, 0, 3) == [0, 0, 0, 0]

    def test_single_step(self):
        cfg = MapConfig(width=8)
        assert iterate(cfg, 64, 1) == [64, 128]

    def test_chains_step(self):
        cfg = MapConfig(width=6)
        traj = iterate(cfg, 17, 20)
        for a, b in zip(traj, traj[1:]):
            assert step(cfg, a) == b

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            iterate(MapConfig(width=8), 1, 0)

    @pytest.mark.parametrize("k", (16, 64))
    def test_one_map_step_per_state(self, monkeypatch, k):
        # the benchmark predicts n core.step calls for a stream of n
        # states, as TestCycleTable pins 2**k for a census
        calls = []

        def counted(config, w):
            calls.append(w)
            return step(config, w)

        monkeypatch.setattr(core, "step", counted)
        words = iterate(MapConfig(width=k), 0x5A3C, 1000)
        assert len(calls) == 1000
        assert calls == words[:-1]


class TestAffineMap:
    @pytest.mark.parametrize("perturbed", (True, False))
    @pytest.mark.parametrize("k", range(2, 65))
    def test_orbit_is_iterate(self, k, perturbed):
        config = MapConfig(width=k, perturbed=perturbed)
        f = core.affine_map(config)
        assert f.constant == 0
        m = (1 << k) - 1
        mixed = int("10" * 32, 2) >> (64 - k)
        for n in (1, k - 1, k, k + 1, 257):
            for seed in (0, m, 1, 1 << (k - 1), mixed, 0x5A3C96E1F00D1235 & m):
                assert f.orbit_array(seed, n).tolist() == iterate(config, seed, n)

    def test_orbit_past_a_short_cycle(self):
        # the bare map at 8 bits falls onto a 4-cycle from 0x5A
        config = MapConfig(width=8, perturbed=False)
        words = iterate(config, 0x5A, 100)
        assert len(set(words)) == 4
        assert core.affine_map(config).orbit_array(0x5A, 100).tolist() == words


class TestTentExact:
    def test_linear_branch(self):
        assert tent_exact(0.25) == 0.5

    def test_folded_branch(self):
        assert tent_exact(0.75) == 0.5

    def test_breakpoint_belongs_to_upper_branch(self):
        assert tent_exact(0.5) == 1.0

    def test_fraction_stays_exact(self):
        x = Fraction(1, 3)
        assert tent_exact(x) == Fraction(2, 3)
        assert tent_exact(tent_exact(x)) == Fraction(2, 3)
        assert type(tent_exact(x)) is type(tent_exact(Fraction(5, 7))) is Fraction

    def test_fraction_breakpoint(self):
        assert tent_exact(Fraction(1, 2)) == 1
        assert type(tent_exact(Fraction(1, 2))) is Fraction

    @pytest.mark.parametrize("bad", (1.5, -0.25, math.nan, Fraction(3, 2), Fraction(-1, 7)))
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            tent_exact(bad)

    def test_float_array_has_the_branches_bits(self):
        # 2 * min(x, 1 - x) against the two-branch form, bit for bit
        edges = [0.0, -0.0, 5e-324, np.finfo(float).tiny, np.nextafter(0.5, 0), 0.5,
                 np.nextafter(0.5, 1), np.nextafter(1, 0), 1.0]
        rng = np.random.default_rng(23)
        x = np.concatenate([edges, rng.random(10**6)])
        branches = np.where(x < 0.5, 2 * x, 2 * (1 - x))
        assert np.array_equal(tent_exact(x).view(np.uint64), branches.view(np.uint64))

    @pytest.mark.parametrize("bad", (-1e-300, 1.0000000000000002, math.nan))
    def test_array_with_one_bad_value_rejected(self, bad):
        x = np.linspace(0.0, 1.0, 101)
        x[37] = bad
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            tent_exact(x)


class TestOutputBits:
    def test_msb_tap(self):
        words = [0b10000000, 0b01111111]
        assert output_stream(words, 8) == [(w >> 7) & 1 for w in words] == [1, 0]

    def test_lsb_tap(self):
        words = [0b00000001, 0b11111110]
        assert output_stream(words, 8, tap="lsb") == [w & 1 for w in words] == [1, 0]

    def test_unknown_tap(self):
        with pytest.raises(ValueError):
            output_array([1], 8, tap="middle")

    def test_unknown_tap_rejected_on_empty_stream(self):
        with pytest.raises(ValueError, match="unknown tap 'middle'"):
            output_stream([], 8, tap="middle")

    def test_stream_checks_every_word(self):
        with pytest.raises(ValueError, match="does not fit in 4 bits"):
            output_stream([3, 16], 4)

    @pytest.mark.parametrize("tap", ("msb", "lsb"))
    def test_bit_is_one_word_stream(self, tap):
        words = list(range(32))
        shift = 4 if tap == "msb" else 0
        expected = [(w >> shift) & 1 for w in words]
        assert [output_stream([w], 5, tap)[0] for w in words] == expected
        assert output_stream(words, 5, tap) == expected

    def test_stream(self):
        assert output_stream([0b1000, 0b0111], 4) == [1, 0]

    @pytest.mark.parametrize("tap", ("msb", "lsb"))
    def test_array_is_the_stream(self, tap):
        words = iterate(MapConfig(width=64), 0x5A3C, 200)
        bits = output_array(words, 64, tap)
        assert bits.dtype == np.uint8
        assert bits.tolist() == output_stream(words, 64, tap)


# output_stream and decode_series check all their words in one pass; a
# bad word must raise what check_word raises for it on its own
WORD_SERIES = (output_stream, decode_series)


class TestWordSeriesChecks:
    @pytest.mark.parametrize("series", WORD_SERIES)
    @pytest.mark.parametrize("at", (0, 3, 6), ids=("first", "middle", "last"))
    @pytest.mark.parametrize(
        "bad, k, message",
        (
            (-1, 8, "word -0x1 does not fit in 8 bits"),
            (256, 8, "word 0x100 does not fit in 8 bits"),
            (2**64, 64, "word 0x10000000000000000 does not fit in 64 bits"),
        ),
        ids=("negative", "max_word+1", "2**64"),
    )
    def test_bad_word_message(self, series, at, bad, k, message):
        words = [1, 2, 3, 4, 5, 6]
        words.insert(at, bad)
        with pytest.raises(ValueError) as exc:
            series(words, k)
        assert str(exc.value) == message

    @pytest.mark.parametrize("series", WORD_SERIES)
    def test_first_bad_word_raises(self, series):
        with pytest.raises(ValueError, match="word 0x100 does not"):
            series([1, 256, -1, 2.0, 2**70], 8)
        with pytest.raises(ValueError, match="word -0x1 does not"):
            series([1, -1, 256], 8)
        with pytest.raises(TypeError):
            series([1, 2.0, 256], 8)
        with pytest.raises(ValueError, match="word 0x10000000000000000 does not"):
            series([1, 2**64, 2.0], 8)

    @pytest.mark.parametrize("series", WORD_SERIES)
    @pytest.mark.parametrize("at", (0, 2))
    def test_float_word_is_a_type_error(self, series, at):
        words = [1, 2]
        words.insert(at, 1.0)
        with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
            series(words, 8)

    def test_numpy_and_bool_words(self):
        words = [True, np.uint8(3), np.int64(200), np.uint64(255), False]
        assert output_stream(words, 8) == [0, 0, 1, 1, 0]
        assert output_stream(words, 8, tap="lsb") == [1, 1, 0, 1, 0]
        assert decode_series(words, 8).tolist() == [1 / 255, 3 / 255, 200 / 255, 1.0, 0.0]
        top = np.uint64(2**64 - 1)
        assert output_stream([top], 64) == [1]
        assert decode_series([top], 64).tolist() == [1.0]

    def test_array_input_is_left_alone(self):
        words = np.array([0x80, 0x7F, 0xFF], dtype=np.uint64)
        assert output_stream(words, 8) == [1, 0, 1]
        assert words.tolist() == [0x80, 0x7F, 0xFF]

    @pytest.mark.parametrize("series", WORD_SERIES)
    def test_generator_input(self, series):
        words = [0, 9, 200, 255]
        assert _same(series((w for w in words), 8), series(words, 8))
        with pytest.raises(ValueError, match="word 0x100 does not fit in 8 bits"):
            series((w for w in [1, 256, -1]), 8)

    @pytest.mark.parametrize("series", WORD_SERIES)
    def test_empty_input(self, series):
        # both sides of decode_series' 53-bit split
        for words, k in (([], 8), (iter(()), 53), ([], 54), (iter(()), 64)):
            got = series(words, k)
            if series is decode_series:
                assert got.dtype == np.float64 and got.shape == (0,)
            else:
                assert got == []

    def test_return_types(self):
        for k in (16, 64):
            words = iterate(MapConfig(width=k), 0x5A3C, 50)
            bits = output_stream(words, k)
            values = decode_series(words, k)
            assert type(bits) is list and all(type(b) is int for b in bits)
            assert type(values) is np.ndarray and values.dtype == np.float64
            m = (1 << k) - 1
            assert np.array_equal(values, [w / m for w in words])

    @pytest.mark.parametrize("k", range(2, 65))
    def test_decode_is_the_int_division(self, k):
        # one array divide up to 53 bits, Python's division above; both
        # give the correctly rounded w / m that Python ints give
        m = (1 << k) - 1
        rng = random.Random(k)
        words = [0, 1, m - 1, m, 1 << (k - 1)]
        words += [rng.randrange(m + 1) for _ in range(200)]
        values = decode_series(words, k)
        assert values.dtype == np.float64
        assert values.tolist() == [w / m for w in words]

    @pytest.mark.parametrize("k", (54, 64))
    def test_decode_stays_exact_above_53_bits(self, k):
        # a float64 divide of the words rounds each word to 53 bits
        # first; decode_series must keep the one rounding of w / m
        m = (1 << k) - 1
        rng = random.Random(k)
        words = []
        while len(words) < 40:
            w = rng.randrange(m + 1)
            if float(w) / float(m) != float(Fraction(w, m)):
                words.append(w)
        assert decode_series(words, k).tolist() == [float(Fraction(w, m)) for w in words]


# netlist.run hands its words over as a uint64 array; the writers read
# it as it is and must give what they give for the same words as a list
ARRAY_SERIES = (output_array, *WORD_SERIES)


def _same(a, b):
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


class TestUint64ArrayWords:
    @pytest.mark.parametrize("k", range(2, 65))
    def test_array_gives_what_the_list_gives(self, k):
        top = (1 << k) - 1
        words = iterate(MapConfig(width=k), 0x9E3779B97F4A7C15 & top, 300)
        words += [0, top, top >> 1, 1 << (k - 1)]
        array = np.array(words, dtype=np.uint64)
        for tap in ("msb", "lsb"):
            bits = output_array(array, k, tap)
            assert bits.dtype == np.uint8
            assert np.array_equal(bits, output_array(words, k, tap))
            assert output_stream(array, k, tap) == output_stream(words, k, tap)
        assert np.array_equal(decode_series(array, k), decode_series(words, k))
        assert array.tolist() == words

    @pytest.mark.parametrize("series", ARRAY_SERIES)
    @pytest.mark.parametrize("at", (0, 3, 6), ids=("first", "middle", "last"))
    @pytest.mark.parametrize("k", (2, 8, 63))
    def test_word_above_max_word(self, series, at, k):
        words = [1, 2, 3, 0, 1, 2]
        words.insert(at, 1 << k)
        words.append(2**64 - 1)  # a later bad word is not the one reported
        with pytest.raises(ValueError) as from_list:
            series(words, k)
        with pytest.raises(ValueError) as from_array:
            series(np.array(words, dtype=np.uint64), k)
        message = f"word {1 << k:#x} does not fit in {k} bits"
        assert str(from_array.value) == str(from_list.value) == message

    @pytest.mark.parametrize("tap", ("msb", "lsb"))
    def test_output_array_leaves_the_array_alone(self, tap):
        words = [2**63 + 1, 2**64 - 2, 3, 2**63, 0]
        array = np.array(words, dtype=np.uint64)
        bits = output_array(array, 64, tap)
        assert array.tolist() == words
        assert bits.tolist() == output_stream(words, 64, tap)

    def test_array_is_read_without_a_copy(self):
        array = np.arange(256, dtype=np.uint64)
        assert core._word_array(array, BitWidth(8)) is array

    @pytest.mark.parametrize("series", ARRAY_SERIES)
    def test_empty_array(self, series):
        assert _same(series(np.empty(0, np.uint64), 8), series([], 8))


class TestIntegerArrayWords:
    DTYPES = (np.int8, np.int32, np.int64, np.uint32)

    @pytest.mark.parametrize("k", range(2, 65))
    def test_array_gives_what_the_list_gives(self, k):
        top = (1 << k) - 1
        words = iterate(MapConfig(width=k), 0x9E3779B97F4A7C15 & top, 300)
        words += [0, top, top >> 1, 1 << (k - 1)]
        for dtype in self.DTYPES:
            # masked to what both the width and the dtype hold
            fit = [w & int(np.iinfo(dtype).max) for w in words]
            array = np.array(fit, dtype=dtype)
            for series in ARRAY_SERIES:
                assert _same(series(array, k), series(fit, k)), (dtype, series)
            assert array.tolist() == fit

    @pytest.mark.parametrize("series", ARRAY_SERIES)
    @pytest.mark.parametrize("k", (32, 64))
    def test_negative_word(self, series, k):
        # the uint64 cast wraps -1 to 2**64 - 1, which fits at k = 64
        words = [5, 0, -1, 3, -2]
        with pytest.raises(ValueError) as from_list:
            series(words, k)
        with pytest.raises(ValueError) as from_array:
            series(np.array(words, dtype=np.int64), k)
        message = f"word -0x1 does not fit in {k} bits"
        assert str(from_array.value) == str(from_list.value) == message


class TestDegenerateSeeds:
    def test_flags(self):
        assert steps_to_zero(MapConfig(8), 0) == 0
        assert steps_to_zero(MapConfig(8), 255) == 1
        assert steps_to_zero(MapConfig(8), 1) is None
        assert [steps_to_zero(MapConfig(2), w) for w in range(4)] == [0, 2, 2, 1]
        assert [steps_to_zero(MapConfig(2, perturbed=False), w) for w in range(4)] == [0, None, None, 1]
        with pytest.raises(ValueError, match="does not fit in 8 bits"):
            steps_to_zero(MapConfig(8), 256)

    @pytest.mark.parametrize("perturbed", (True, False), ids=("perturbed", "unperturbed"))
    @pytest.mark.parametrize("k", range(2, 13))
    def test_is_the_census(self, k, perturbed, monkeypatch):
        # every seed against the census: the zero-reaching ones reach the
        # fixed point 0 after their transient; no step is taken to say so
        config = MapConfig(k, perturbed)
        table = cycle_table(config)
        expected = np.where(table.reaches_zero, table.transient, -1).tolist()
        monkeypatch.setattr(core, "step", None)
        got = [steps_to_zero(config, w) for w in table.seed.tolist()]
        assert [-1 if s is None else s for s in got] == expected

    @pytest.mark.parametrize("k", range(3, 13))
    def test_all_ones_has_no_preimage(self, k):
        # reaching 0 requires passing through 0 or all-ones; nothing maps
        # to all-ones once k >= 3, so interior seeds never drain to 0
        cfg = MapConfig(width=k)
        mask = (1 << k) - 1
        assert [w for w in range(mask + 1) if step(cfg, w) == mask] == []

    @pytest.mark.parametrize("k", (4, 5, 6))
    def test_interior_orbits_avoid_zero(self, k):
        cfg = MapConfig(width=k)
        mask = (1 << k) - 1
        for seed in range(1, mask):
            w = seed
            for _ in range((1 << k) + 1):
                w = step(cfg, w)
                assert w != 0

    def test_two_bit_register_is_the_exception(self):
        # at k=2 the all-ones word has preimages, so every orbit drains to 0
        cfg = MapConfig(width=2)
        assert [step(cfg, w) for w in range(4)] == [0, 3, 3, 0]


def test_lyapunov_of_tent_slope():
    # slope magnitude is 2 on both branches
    assert math.log(2) == pytest.approx(0.6931, abs=5e-5)
