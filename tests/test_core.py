"""Word-model tests: encoding, complement, step semantics, exact tracking."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tentbits.core import (
    BitWidth,
    MapConfig,
    complement,
    decode,
    decode_exact,
    encode,
    is_degenerate_seed,
    iterate,
    output_bit,
    output_stream,
    perturbation_bit,
    step,
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

    def test_ulp(self):
        assert BitWidth(8).ulp == 1 / 255
        assert BitWidth(8).ulp_exact() == Fraction(1, 255)


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

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            tent_exact(1.5)


class TestOutputBits:
    def test_msb_tap(self):
        assert output_bit(0b10000000, 8) == 1
        assert output_bit(0b01111111, 8) == 0

    def test_lsb_tap(self):
        assert output_bit(0b00000001, 8, tap="lsb") == 1
        assert output_bit(0b11111110, 8, tap="lsb") == 0

    def test_unknown_tap(self):
        with pytest.raises(ValueError):
            output_bit(1, 8, tap="middle")

    def test_unknown_tap_rejected_on_empty_stream(self):
        with pytest.raises(ValueError, match="unknown tap 'middle'"):
            output_stream([], 8, tap="middle")

    def test_stream_checks_every_word(self):
        with pytest.raises(ValueError, match="does not fit in 4 bits"):
            output_stream([3, 16], 4)

    @pytest.mark.parametrize("tap", ("msb", "lsb"))
    def test_bit_is_one_word_stream(self, tap):
        words = list(range(32))
        assert [output_bit(w, 5, tap) for w in words] == output_stream(words, 5, tap)

    def test_stream(self):
        assert output_stream([0b1000, 0b0111], 4) == [1, 0]


class TestDegenerateSeeds:
    def test_flags(self):
        assert is_degenerate_seed(0, 8)
        assert is_degenerate_seed(255, 8)
        assert not is_degenerate_seed(1, 8)

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
