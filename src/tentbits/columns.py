"""Text tables written column by column: every CSV and the hex listing.

A column of a block of rows is a (rows, width) uint8 matrix of ASCII
bytes, NUL-padded on the right or left.  `write` joins a block's
columns with "," and ends each row with "\\n", drops the padding with
one boolean mask and writes the block in one call.  Integers get their
digits from one vectorized loop over the array, floats are repr'd once
each, so no row is ever a Python tuple.
"""

from __future__ import annotations

import sys
from contextlib import nullcontext

import numpy as np

# rows per block: bounds the matrices whatever the table's length
BLOCK_ROWS = 1 << 16

_ASCII_DIGITS = np.frombuffer(b"0123456789ABCDEF", np.uint8)


def strings(values: np.ndarray) -> np.ndarray:
    """One bytes string (an "S" array entry) per row, NUL-padded."""
    return values.view(np.uint8).reshape(len(values), values.itemsize)


def floats(values) -> np.ndarray:
    """repr of each float: nan, inf and the shortest round-trip digits."""
    reprs = list(map(repr, np.asarray(values, dtype=float).tolist()))
    return strings(np.array(reprs, dtype="S"))


def _digits(values, base: int, width: int, blank: bool) -> np.ndarray:
    """width digits of each non-negative integer, most significant first;
    with blank, the zeros left of a value's leading digit are NUL."""
    values = np.asarray(values)
    if values.dtype.kind not in "iu":
        raise TypeError(f"integer column expected, got {values.dtype}")
    if values.dtype.kind == "i" and (values < 0).any():
        raise ValueError("negative integer in a text column")
    rest = values.astype(np.uint64)  # a copy, exact up to 2**64 - 1
    out = np.empty((len(rest), width), np.uint8)
    for col in reversed(range(width)):
        out[:, col] = _ASCII_DIGITS[rest % base]
        if blank and col < width - 1:
            out[rest == 0, col] = 0
        rest //= base
    return out


def decimal(values) -> np.ndarray:
    """Decimal digits of non-negative integers, as str(int) prints them."""
    values = np.asarray(values)
    width = len(str(int(values.max(initial=0))))
    return _digits(values, 10, width, blank=True)


def hexadecimal(values, width: int, prefix: bytes = b"") -> np.ndarray:
    """prefix, then width upper-case hex digits, zero-padded: f"{v:0{width}X}"."""
    out = np.empty((len(values), len(prefix) + width), np.uint8)
    out[:, : len(prefix)] = np.frombuffer(prefix, np.uint8)
    out[:, len(prefix) :] = _digits(values, 16, width, blank=False)
    return out


def write(path, header, length: int, render) -> None:
    """Write a header line (unless header is None), then rows 0..length-1.

    render(rows) gives the columns of the rows in the slice rows, one
    matrix each.  A file's lines end in "\\n" on every platform; "-" is
    stdout.
    """
    with nullcontext(sys.stdout) if path == "-" else open(path, "w", newline="") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for start in range(0, length, BLOCK_ROWS):
            matrices = render(slice(start, min(start + BLOCK_ROWS, length)))
            n = len(matrices[0])
            comma, newline = (np.full((n, 1), ord(c), np.uint8) for c in ",\n")
            parts = [part for matrix in matrices for part in (matrix, comma)]
            parts[-1] = newline
            table = np.hstack(parts)
            fh.write(table[table != 0].tobytes().decode("ascii"))
