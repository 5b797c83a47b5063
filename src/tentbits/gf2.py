"""Affine maps over GF(2) on k-bit words, and their orbits.

A map w -> M.w ^ c is stored as the k columns of M (column j is the
image of the one-bit word 1 << j) and the constant c.  A clock function
that is affine, such as a run cycle of the register circuit, is read
off k + 1 calls by `AffineMap.from_probe`.

`orbit_array` computes a run of the map by recursive doubling (Kogge
and Stone, IEEE Trans. Computers C-22, 1973): once the first L words
are known, M^L maps them onto the next L as one numpy array, so each
word is computed once in about log2(n) rounds.  A linear map applies as
one table lookup per byte of the word: table j holds M applied to every
byte value shifted to bit 8j.  Each round builds the tables of M^L once
and uses them both for its block and to square M^L for the next round.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

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
        if not all(0 <= x < 1 << self.k for x in (*self.columns, self.constant)):
            raise ValueError(f"a column or the constant does not fit in {self.k} bits")

    @classmethod
    def from_probe(cls, f: Callable[[int], int], k: int) -> AffineMap:
        """The map of an affine clock function f, from k + 1 calls.

        The constant is f(0) and column j is f(1 << j) ^ f(0).  Nothing
        checks that f is affine; for one that is not, the result agrees
        with f only on the probed words.
        """
        constant = f(0)
        return cls(k, tuple(f(1 << j) ^ constant for j in range(k)), constant)

    def compose(self, other: AffineMap) -> AffineMap:
        """The map w -> self(other(w)): other is applied first."""
        return self._compose(self._tables(), other)

    def _compose(self, tables: np.ndarray, other: AffineMap) -> AffineMap:
        """compose, given this map's _tables()."""
        if other.k != self.k:
            raise ValueError(f"cannot compose k={self.k} with k={other.k}")
        words = np.array([*other.columns, other.constant], _WORD)
        image = _linear(tables, words).tolist()
        return AffineMap(self.k, tuple(image[:-1]), image[-1] ^ self.constant)

    def power(self, n: int) -> AffineMap:
        """The map applied n times, by repeated squaring; power(0) is the identity."""
        if n < 0:
            raise ValueError(f"need a power n >= 0, got n={n}")
        if n == 0:
            return AffineMap(self.k, tuple(1 << j for j in range(self.k)))
        # high bit first: square, then apply the map once more for a 1 bit
        result = self
        for bit in bin(n)[3:]:
            result = result.compose(result)
            if bit == "1":
                result = self.compose(result)
        return result

    def orbit_array(self, w: int, n: int) -> np.ndarray:
        """The n + 1 words w, f(w), ..., f^n(w), with f this map, as a
        '<u8' array, by recursive doubling."""
        if n < 0:
            raise ValueError(f"need n >= 0 steps, got n={n}")
        if not 0 <= w < 1 << self.k:
            raise ValueError(f"word {w:#x} does not fit in {self.k} bits")
        out = np.empty(n + 1, _WORD)
        out[0] = w
        done, jump = 1, self  # jump is this map applied done times
        while done <= n:
            tables = jump._tables()
            todo = min(done, n + 1 - done)
            block = _linear(tables, out[:todo])
            block ^= jump.constant
            out[done : done + todo] = block
            done += todo
            if done <= n:
                jump = jump._compose(tables, jump)
        return out

    def _tables(self) -> np.ndarray:
        """Row j, entry x: M applied to x << 8j, one row per byte of a word."""
        columns = np.zeros(-(-self.k // 8) * 8, _WORD)
        columns[: self.k] = self.columns
        columns = columns.reshape(-1, 8)
        tables = np.zeros((len(columns), 256), _WORD)
        for i in range(8):
            # the entries with top bit i are those below it, plus column i
            tables[:, 1 << i : 2 << i] = tables[:, : 1 << i] ^ columns[:, i : i + 1]
        return tables


def _linear(tables: np.ndarray, words: np.ndarray) -> np.ndarray:
    """M.w for each word of a contiguous '<u8' array, by byte-table lookups."""
    octets = words.view(np.uint8).reshape(-1, 8)
    out = tables[0].take(octets[:, 0])
    for j in range(1, len(tables)):
        out ^= tables[j].take(octets[:, j])
    return out

