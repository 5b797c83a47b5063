"""Word-level model of the tent map in polarized fixed point.

A k-bit register word w stands for the value w / (2**k - 1), so the
all-ones word is exactly 1 and the subtraction 1 - x needed by the
upper branch of the tent map collapses to a bitwise complement.  With
the control parameter fixed at 2 the multiply is a left shift, and one
map step is: complement if the top bit is set, shift, and optionally
inject the XOR of the two lowest bits as the new serial bit.  That
injected bit breaks up the short cycles a bare finite-precision tent
map falls into.

Everything here is a pure function of immutable values; trajectories
are sequential in n but independent seeds can run concurrently.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Collection
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gf2 import AffineMap

MIN_WIDTH = 2
MAX_WIDTH = 64


@dataclass(frozen=True)
class BitWidth:
    """Register width: the number of fractional bits in a state word.

    max_word is the largest word value, also the all-ones pattern that
    decodes to 1.  It is computed once, as a plain attribute rather
    than a field, so repr, == and hash see only k.
    """

    k: int

    def __post_init__(self) -> None:
        k = operator.index(self.k)
        object.__setattr__(self, "k", k)
        if not MIN_WIDTH <= k <= MAX_WIDTH:
            raise ValueError(f"width must be in [{MIN_WIDTH}, {MAX_WIDTH}], got {k}")
        object.__setattr__(self, "max_word", (1 << k) - 1)

    @property
    def hex_digits(self) -> int:
        """Hex digits that print every word of this width at a fixed length."""
        return (self.k + 3) // 4


def as_width(width: BitWidth | int) -> BitWidth:
    return width if isinstance(width, BitWidth) else BitWidth(width)


def check_word(w: int, width: BitWidth | int) -> int:
    """Validate that w fits in the register; returns w as a plain int."""
    width = as_width(width)
    w = operator.index(w)
    if not 0 <= w <= width.max_word:
        raise ValueError(f"word {w:#x} does not fit in {width.k} bits")
    return w


@dataclass(frozen=True)
class MapConfig:
    """Generator configuration: width and perturbation switch.

    The slope is fixed at 2: the shift-register construction realizes
    the multiply as a shift and supports no other slope.
    """

    width: BitWidth
    perturbed: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.width, BitWidth):
            object.__setattr__(self, "width", as_width(self.width))


def decode(w: int, width: BitWidth | int) -> float:
    """Decoded value of a state word: w / (2**k - 1).

    This is the unique affine reading that sends the zero word to 0 and
    the all-ones word to 1, which is what makes the bitwise complement
    equal exactly 1 - x.  Beyond 52 bits the float result is rounded;
    use decode_exact when the last bits matter.
    """
    width = as_width(width)
    return check_word(w, width) / width.max_word


def decode_exact(w: int, width: BitWidth | int) -> Fraction:
    """Exact rational value of a state word, lossless at every width.
    Kept as specification: the acceptance suite's exact reading."""
    width = as_width(width)
    return Fraction(check_word(w, width), width.max_word)


def encode(x: float | Fraction, width: BitWidth | int) -> int:
    """Nearest state word for x in [0, 1], rounding halves up.

    Rounding happens in exact rational arithmetic, so encode undoes
    decode_exact at every width and decode at widths the float mantissa
    can carry.
    """
    width = as_width(width)
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"cannot encode non-finite value {x!r}")
    if not 0 <= x <= 1:
        raise ValueError(f"value {x!r} outside [0, 1]")
    scaled = Fraction(x) * width.max_word
    return int((2 * scaled + 1) // 2)


def complement(w: int, width: BitWidth | int) -> int:
    """Bitwise complement within k bits: the polarized form of 1 - x.
    Kept as specification: the tests check step's inlined copy against it."""
    width = as_width(width)
    return check_word(w, width) ^ width.max_word


def perturbation_bit(w: int, width: BitWidth | int) -> int:
    """XOR of the two least significant bits of w.

    Complementing w flips both bits, so the value is unchanged; it may
    be computed before or after the conditional complement of a step.
    Kept as specification: the tests check step's inlined copy against it.
    """
    w = check_word(w, width)
    return (w ^ (w >> 1)) & 1


def step(config: MapConfig, w: int) -> int:
    """One map update: conditional complement, left shift, serial inject.

    The pre-shift word always has a clear top bit (either it started
    clear, or the complement cleared it), so the shift never overflows.
    """
    width = config.width
    m = width.max_word
    if type(w) is not int or not 0 <= w <= m:
        w = check_word(w, width)  # converts the word, or raises its error
    top = w >> (width.k - 1)
    t = w ^ m if top else w
    # perturbation_bit of the already checked w
    serial = (w ^ (w >> 1)) & 1 if config.perturbed else 0
    return ((t << 1) | serial) & m


def iterate(config: MapConfig, w0: int, n: int) -> list[int]:
    """Trajectory [w0, f(w0), ..., f^n(w0)] of length n + 1."""
    if n < 1:
        raise ValueError(f"need at least one step, got n={n}")
    w = check_word(w0, config.width)
    out = [w]
    for _ in range(n):
        w = step(config, w)
        out.append(w)
    return out


def affine_map(config: MapConfig) -> AffineMap:
    """step(config, .) as a GF(2) map, probed with k + 1 steps.  A step is
    linear, so the constant is 0 and each orbit equals iterate's."""
    return AffineMap.from_probe(
        lambda words: [step(config, w) for w in words], config.width.k
    )


def tent_exact(x):
    """Reference slope-2 tent map on the unit interval: 2x below 1/2, else 2(1-x).

    The breakpoint belongs to the upper branch, so tent_exact(1/2) is 1.
    Fraction in, Fraction out, which keeps long reference trajectories
    exact; floats and float arrays map elementwise, with the branches'
    bits: 1 - x is exact for x >= 1/2 (Sterbenz) and exceeds x below 1/2.
    """
    array = isinstance(x, np.ndarray)  # a scalar skips numpy's 0-d object arrays
    if not (np.all((0 <= x) & (x <= 1)) if array else 0 <= x <= 1):
        raise ValueError(f"value {x!r} outside [0, 1]")
    return 2 * (np.minimum if array else min)(x, 1 - x)


def _word_array(words, width: BitWidth) -> np.ndarray:
    """The words as a uint64 array, each checked as check_word checks it.

    An integer ndarray is cast (a uint64 one is used as it is, not
    copied); a signed one is first checked for a negative word, which
    the cast would wrap into range.  Other words are converted in one
    pass (operator.index, so a float raises TypeError).  One reduction
    checks the range.  If any check fails, check_word walks the words in
    order, so the first bad word raises the error it raises on its own.
    Words that are not a collection (a generator, say) are read into a
    list first, so that walk can happen and the array is allocated once
    at its full size.
    """
    low = 0
    if isinstance(words, np.ndarray) and words.dtype.kind in "iu":
        if words.dtype.kind == "i":
            low = words.min(initial=0)
        array = words.astype(np.uint64, copy=False)
    else:
        if not isinstance(words, Collection):
            words = list(words)
        try:
            array = np.fromiter(map(operator.index, words), np.uint64, len(words))
        except (TypeError, ValueError, OverflowError):
            for w in words:
                check_word(w, width)
            raise
    if low < 0 or array.max(initial=0) > width.max_word:
        for w in words:
            check_word(w, width)
    return array


def tap_shift(width: BitWidth | int, tap: str) -> int:
    """The bit a tap reads: k - 1 for `msb`, the branch-decision bit of
    the map, and 0 for `lsb`, the freshly injected serial bit."""
    if tap == "msb":
        return as_width(width).k - 1
    if tap == "lsb":
        return 0
    raise ValueError(f"unknown tap {tap!r}, expected 'msb' or 'lsb'")


def output_array(words, width: BitWidth | int, tap: str = "msb") -> np.ndarray:
    """Binary output bits for a word sequence, as a uint8 array.

    The default tap is the most significant bit; see tap_shift.  The
    words, a sequence of ints or an integer array (left unchanged), are
    checked once, in one pass over them all.
    """
    width = as_width(width)
    shift = tap_shift(width, tap)
    array = _word_array(words, width)
    # shifted straight into the result: the words are not written to, and
    # no second uint64 array is made; the unsafe cast keeps the low byte
    bits = np.empty(len(array), np.uint8)
    np.right_shift(array, shift, out=bits, casting="unsafe")
    bits &= 1
    return bits


def output_stream(words, width: BitWidth | int, tap: str = "msb") -> list[int]:
    """Binary output bits for a word sequence, as a list of ints.

    The words are checked once, in one pass; see output_array.
    """
    return output_array(words, width, tap).tolist()


def decode_series(words, width: BitWidth | int) -> np.ndarray:
    """Decoded values for a word sequence, as a float64 array.

    The words, a sequence of ints or an integer array, are checked once,
    in one pass over them all.  Each value is Python's correctly rounded
    w / (2**k - 1).  Up to 53 bits the words and 2**k - 1 are exact
    float64s and one IEEE division rounds once, so an array divide gives
    it; above, converting a word would round it first, so Python divides.
    """
    width = as_width(width)
    array = _word_array(words, width)
    m = width.max_word
    if width.k <= 53:
        return array / float(m)
    return np.fromiter((w / m for w in array.tolist()), float, len(array))


def is_degenerate_seed(w: int, width: BitWidth | int) -> bool:
    """True for the two seeds that sit on the absorbing fixed point.

    0 maps to 0 and all-ones maps to 0 (its complement is the zero
    word); every other word avoids 0 for widths of 3 bits and up.
    """
    width = as_width(width)
    w = check_word(w, width)
    return w == 0 or w == width.max_word
