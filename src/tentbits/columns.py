"""The output sink, and text tables written column by column.

`sink` opens every file the CLI writes, or stdout for "-", as one
binary handle, so each output's lines end in "\\n" on every platform.

A column of a block of rows is a (rows, width) uint8 matrix of ASCII
bytes, NUL-padded on the right or left.  `write` copies a block's
columns into one buffer filled with ",", whose last column is "\\n",
drops the padding with one boolean mask and writes the block in one
call.  Integers get their digits from one vectorized loop over the
array: a power-of-two base by mask and shift, base 10 by division, in
32-bit words when the column's largest value fits in one.  Floats are
repr'd once each, so no row is ever a Python tuple.
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
    # a copy, exact up to 2**64 - 1; 32-bit words divide faster
    fits = values.max(initial=0) < 1 << 32
    rest = values.astype(np.uint32 if fits else np.uint64)
    shift = base.bit_length() - 1
    out = np.empty((len(rest), width), np.uint8)
    for col in reversed(range(width)):
        if base == 1 << shift:
            digit, ahead = rest & (base - 1), rest >> shift
        else:
            ahead = rest // base
            digit = rest - ahead * base
        out[:, col] = np.take(_ASCII_DIGITS, digit)
        if blank and col < width - 1:
            out[rest == 0, col] = 0
        rest = ahead
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


def sink(path):
    """A context manager giving a binary handle for an output path: "-"
    is stdout's buffer, after whatever its text layer holds, and any
    other path is opened for writing."""
    if path == "-":
        sys.stdout.flush()
        return nullcontext(sys.stdout.buffer)
    return open(path, "wb")


def write(path, header, length: int, render) -> None:
    """Write a header line (unless header is None), then rows 0..length-1,
    to sink(path).

    render(rows) gives the columns of the rows in the slice rows, one
    matrix each.
    """
    with sink(path) as fh:
        if header is not None:
            fh.write(",".join(header).encode("ascii") + b"\n")
        for start in range(0, length, BLOCK_ROWS):
            matrices = render(slice(start, min(start + BLOCK_ROWS, length)))
            widths = [matrix.shape[1] for matrix in matrices]
            rows, cols = len(matrices[0]), sum(widths) + len(widths)
            table = np.full((rows, cols), ord(","), np.uint8)
            table[:, -1] = ord("\n")
            at = 0
            for matrix, width in zip(matrices, widths):
                table[:, at : at + width] = matrix
                at += width + 1
            fh.write(table[table != 0].tobytes())
