"""Affine maps over GF(2) on k-bit words, and their orbits.

A map w -> M.w ^ c is stored as the k columns of M (column j is the
image of the one-bit word 1 << j) and the constant c.  A clock function
that is affine, such as a step of the word model or a run cycle of the
register circuit, is read off its images of the k + 1 words 0 and
1 << j by `AffineMap.from_probe`, asked for in one call so that a
bit-parallel simulator clocks them all in one pass.

A linear map applies as one table lookup per byte of the word: table j
holds M applied to every byte value shifted to bit 8j.  M is linear, so
entry x is entry x >> 4 of the byte's high-nibble table xor entry x & 15
of its low-nibble one: 4 doubling steps build the two 16-entry tables,
and one broadcast XOR gives all 256 entries.  Each map owns one
squaring sequence (see `_Squares`), which lives as long as it: the
powers f^(2^i) for i = 0, 1, ..., each a '<u8' array of its k columns
and then its constant, with its byte tables.  Each power is one
`_linear` pass of the tables of the one before over that one's array.
Each power and each set of tables is built once, when a call on the
map first needs it, and every later call on that map reuses it.

* `orbit_array` computes a run of the map by recursive doubling (Kogge
  and Stone, IEEE Trans. Computers C-22, 1973): once the first 2^i
  words are known, f^(2^i) maps them onto the next 2^i as one numpy
  array, so each word is computed once in about log2(n) rounds.
* `power(n)` composes the powers of n's set bits.
* `word_blocks` and `bit_blocks` go on from a first block of `rows`
  words by jumps of f^rows, taken from the map's sequence; for
  rows = 2^m, f^rows is one squaring past the last power that block's
  doubling used.  `word_blocks` maps each block onto the next.
  `bit_blocks` jumps only the tap row (F2-linear jump-ahead; Haramoto et
  al., INFORMS J. Computing 20, 2008): bit b of f^t(w) is the parity of
  w AND r_t, xor a constant bit, where r_t is row b of the linear part
  of f^t.  So one block of words, each block's row and constant bit give
  every later block's bits.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_WORD = np.dtype("<u8")  # little-endian, so byte j of a word holds bits 8j..8j+7


@dataclass(frozen=True)
class AffineMap:
    """The map w -> M.w ^ constant on k-bit words, 1 <= k <= 64."""

    k: int
    columns: tuple[int, ...]
    constant: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.k <= 64 or len(self.columns) != self.k:
            raise ValueError(
                f"need 1 <= k <= 64 and k columns, got k={self.k} "
                f"and {len(self.columns)} columns"
            )
        values = (*self.columns, self.constant)
        if min(values) < 0 or max(values) >= 1 << self.k:
            raise ValueError(f"a column or the constant does not fit in {self.k} bits")

    @classmethod
    def from_probe(cls, f: Callable[[list[int]], list[int]], k: int) -> AffineMap:
        """The map of an affine clock function, from one call of f.

        f is given the words [0, 1 << 0, ..., 1 << (k - 1)] and returns
        their images.  The constant is the image of 0 and column j is the
        image of 1 << j xor the constant.  Nothing checks that the clock
        is affine; for one that is not, the result agrees with it only on
        the probed words.
        """
        constant, *images = f([0, *(1 << j for j in range(k))])
        return cls(k, tuple(x ^ constant for x in images), constant)

    def power(self, n: int) -> AffineMap:
        """The map applied n times; power(0) is the identity."""
        if n < 0:
            raise ValueError(f"need a power n >= 0, got n={n}")
        if n == 0:
            return AffineMap(self.k, tuple(1 << j for j in range(self.k)))
        *columns, constant = self._squares.product(n).tolist()
        return AffineMap(self.k, tuple(columns), constant)

    def orbit_array(self, w: int, n: int) -> np.ndarray:
        """The n + 1 words w, f(w), ..., f^n(w), with f this map, as a
        '<u8' array, by recursive doubling: round i maps the first 2^i
        words by power i of the map's squaring sequence."""
        if n < 0:
            raise ValueError(f"need n >= 0 steps, got n={n}")
        if not 0 <= w < 1 << self.k:
            raise ValueError(f"word {w:#x} does not fit in {self.k} bits")
        out = np.empty(n + 1, _WORD)
        out[0] = w
        for i in range(n.bit_length()):  # 2^i words are known before round i
            done = 1 << i
            todo = min(done, n + 1 - done)
            out[done : done + todo] = self._squares.apply(done, out[:todo])
        return out

    def word_blocks(self, w: int, n: int, rows: int) -> Iterator[np.ndarray]:
        """The n + 1 words w, f(w), ..., f^n(w) as '<u8' blocks of `rows`
        words, the last one shorter.

        The first block is computed by orbit_array's doubling (before
        this returns, so a bad w or n raises here); each later block is
        f^rows applied to the block before.  It holds two blocks,
        whatever n is.
        """
        return _word_blocks(self._first_block(w, n, rows), self._squares, n, rows)

    def bit_blocks(self, w: int, n: int, bit: int, rows: int) -> Iterator[np.ndarray]:
        """Bit `bit` of each of the n + 1 words w, f(w), ..., f^n(w), as
        uint8 blocks of `rows` bits, the last one shorter.

        Only the first block's words are computed (by orbit_array's
        doubling, before this returns, so a bad w or n raises here); each
        later block is the parity of those words ANDed with the tap row
        of f^(t * rows), xor its constant bit (see the module docstring).
        It holds two blocks, whatever n is.
        """
        if not 0 <= bit < self.k:
            raise ValueError(f"need a bit in 0..{self.k - 1}, got bit={bit}")
        return _bit_blocks(self._first_block(w, n, rows), self._squares, n, bit, rows)

    def _first_block(self, w: int, n: int, rows: int) -> np.ndarray:
        """The orbit's first `rows` words (all n + 1 if fewer)."""
        if rows < 1:
            raise ValueError(f"need rows >= 1, got rows={rows}")
        return self.orbit_array(w, min(n, rows - 1))

    @cached_property
    def _squares(self) -> _Squares:
        """This map's squaring sequence, built on first use; not a field."""
        return _Squares(self)


class _Squares:
    """The squaring sequence f^(2^i), i >= 0, that an affine map f owns while f lives.

    Power i is a '<u8' array of its k columns, then its constant.  Power
    i + 1 is power i after itself, one _linear pass of power i's tables;
    each power and each set of tables is built once, on first use.
    """

    def __init__(self, f: AffineMap) -> None:
        self._powers = {0: np.array([*f.columns, f.constant], _WORD)}
        self._tables: dict[int, np.ndarray] = {}

    def power(self, i: int) -> np.ndarray:
        """f^(2^i) as an array, which the caller must not write to."""
        if i not in self._powers:
            self._powers[i] = self.after(i - 1, self.power(i - 1))
        return self._powers[i]

    def tables(self, i: int) -> np.ndarray:
        """The byte tables of power i's linear part (see _linear)."""
        if i not in self._tables:
            self._tables[i] = _tables(self.power(i)[:-1])
        return self._tables[i]

    def after(self, i: int, array: np.ndarray) -> np.ndarray:
        """The map of `array` followed by power i, as a new array."""
        out = _linear(self.tables(i), array)
        out[-1] ^= self.power(i)[-1]
        return out

    def apply(self, n: int, words: np.ndarray) -> np.ndarray:
        """f^n of each word of a contiguous '<u8' array, for n >= 1, as a
        new array: one pass of power i for each set bit i of n."""
        for i in range(n.bit_length()):
            if n >> i & 1:
                words = _linear(self.tables(i), words)
                words ^= self.power(i)[-1]
        return words

    def product(self, n: int) -> np.ndarray:
        """f^n for n >= 1: the powers of n's set bits composed, low bit
        first; for n = 2^m it is power m itself."""
        result = None
        for i in range(n.bit_length()):
            if n >> i & 1:
                result = self.power(i) if result is None else self.after(i, result)
        return result


def _word_blocks(
    block: np.ndarray, squares: _Squares, n: int, rows: int
) -> Iterator[np.ndarray]:
    """AffineMap.word_blocks, given its first block and the map's squares."""
    yield block
    for start in range(rows, n + 1, rows):
        block = squares.apply(rows, block[: n + 1 - start])
        yield block


def _bit_blocks(
    first: np.ndarray, squares: _Squares, n: int, bit: int, rows: int
) -> Iterator[np.ndarray]:
    """AffineMap.bit_blocks, given its first block and the map's squares."""
    row, flip = 1 << bit, 0  # bit `bit` of f^0: the tap row of the identity
    jump = squares.product(rows) if n >= rows else None
    for start in range(0, n + 1, rows):
        if start:
            flip ^= (row & int(jump[-1])).bit_count() & 1
            # bit j of the next row: the parity of this row AND column j
            parity = np.bitwise_count(jump[:-1] & np.uint64(row)) & 1
            row = int.from_bytes(np.packbits(parity, bitorder="little").tobytes(), "little")
        bits = np.bitwise_count(first[: n + 1 - start] & np.uint64(row))
        bits &= 1
        bits ^= flip
        yield bits


def _tables(columns: np.ndarray) -> np.ndarray:
    """Row j, entry x: M applied to x << 8j, from M's '<u8' columns; one
    row per byte of a word, each the XOR of that byte's two nibble tables."""
    padded = np.zeros(-(-len(columns) // 8) * 8, _WORD)
    padded[: len(columns)] = columns
    padded = padded.reshape(-1, 2, 4)  # byte, nibble (low first), column
    halves = np.zeros((len(padded), 2, 16), _WORD)
    for i in range(4):
        # the entries with top bit i are those below it, plus column i
        halves[:, :, 1 << i : 2 << i] = halves[:, :, : 1 << i] ^ padded[:, :, i : i + 1]
    return (halves[:, 1, :, None] ^ halves[:, 0, None, :]).reshape(-1, 256)


def _linear(tables: np.ndarray, words: np.ndarray) -> np.ndarray:
    """M.w for each word of a contiguous '<u8' array, by byte-table lookups."""
    octets = words.view(np.uint8).reshape(-1, 8)
    out = tables[0].take(octets[:, 0])
    for j in range(1, len(tables)):
        out ^= tables[j].take(octets[:, j])
    return out
