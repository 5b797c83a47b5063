"""The output sink, and text tables written column by column.

`sink` opens every file the CLI writes, or stdout for "-", as one
binary handle, so each output's lines end in "\\n" on every platform.

A column of a block of rows is a (rows, width) uint8 matrix of ASCII
bytes, with NUL bytes wherever a row has no character.  `write_block`
copies a block's columns into one buffer filled with ",", whose last
column is "\\n", drops every NUL with one boolean mask and writes the
block in one call.  Every table and listing goes through it in blocks
of BLOCK_ROWS rows: `write` renders a table of known length block by
block, and the CLI's trajectory writer hands it each block of states as
the states are made, so the matrices stay near 1 MB whatever the
length.  Each caller bounds its own block, so the float formatter takes
what it is given in one pass.  Integers get their digits from one
vectorized loop over the array: a power-of-two base by mask and shift,
base 10 by division, in 32-bit words when the column's largest value
fits in one.  Floats print as `repr` prints them.  Those that `repr`
writes without an exponent, 1e-4 <= |x| < 1e16, get their shortest
round-trip digits from Schubfach in uint64 arithmetic and are laid out
at fixed decimal places; the rest (zeros, nan, infinities, subnormals
and exponent forms) are repr'd one by one.  So no row is ever a Python
tuple.
"""

from __future__ import annotations

import functools
import sys
from contextlib import nullcontext

import numpy as np

# rows per block of every table and listing: bounds their matrices
# whatever the length; a multiple of 8, so a block of output bits packs
# into whole bytes
BLOCK_ROWS = 1 << 13

_ASCII_DIGITS = np.frombuffer(b"0123456789ABCDEF", np.uint8)


def strings(values: np.ndarray) -> np.ndarray:
    """One bytes string (an "S" array entry) per row, NUL-padded."""
    return values.view(np.uint8).reshape(len(values), values.itemsize)


# floats that repr prints positionally
_FIXED_MIN, _FIXED_MAX = 1e-4, 1e16
# decimal layout: up to 17 significant digits at places 10^16 .. 10^-20
# (Schubfach's exponent k is in [-20, 0] on the positional range), in
# columns sign, places 16..0, ".", places -1..-20
_DIGITS, _LOWEST = 17, 20
_POINT = 1 + _DIGITS
_WIDTH = _POINT + 1 + _LOWEST
_U = np.uint64
_LOW32, _LOW63 = _U((1 << 32) - 1), _U((1 << 63) - 1)


def floats(values) -> np.ndarray:
    """repr of each float: nan, inf and the shortest round-trip digits.

    Row i holds the bytes of repr(float(values[i])) in order, with NUL
    bytes where no character goes.
    """
    xs = np.asarray(values, dtype=float)
    size = np.abs(xs)
    slow = np.flatnonzero(~((size >= _FIXED_MIN) & (size < _FIXED_MAX)))
    reprs = strings(np.array(list(map(repr, xs[slow].tolist())), dtype="S"))
    fixed = xs.copy()
    fixed[slow] = 1.0
    out = np.zeros((len(xs), _WIDTH + reprs.shape[1]), np.uint8)
    top, bottom = _positional(fixed, out)
    # drop the NUL columns left and right of every row; the sign column
    # stays if a positional row is negative, and repr rows start at first
    first = 0 if out[:, 0].any() else _POINT - 1 - top
    out[slow] = 0
    out[slow, first : first + reprs.shape[1]] = reprs
    last = max(_POINT + 1 - bottom, first + reprs.shape[1])
    return out[:, first:last]


@functools.cache
def _schubfach_table():
    """Per decimal exponent k = 0, -1 .. -20: the two 63-bit words of
    g = floor(10^-k 2^-r) + 1 with r = floor(log2 10^-k) - 125, and
    floor(log2 10^-k).  Built on the first call, not at import."""
    high, low, log2 = [], [], []
    for e in range(_LOWEST + 1):
        power = 10**e
        bits = power.bit_length() - 1
        g = (power << (125 - bits)) + 1
        high.append(g >> 63)
        low.append(g & ((1 << 63) - 1))
        log2.append(bits)
    return np.array(high, _U), np.array(low, _U), np.array(log2, np.int64)


@functools.cache
def _kept_places():
    """[top, -1 - bottom]: which places 16..-20 a row whose digits run
    from place top down to place bottom shows."""
    places = np.arange(_DIGITS - 1, -_LOWEST - 1, -1)
    top = np.arange(_DIGITS - 1)[:, None, None]
    bottom = -np.arange(1, _LOWEST + 1)[None, :, None]
    return (places <= top) & (places >= bottom)


def _high_product(a, low, high):
    """The high 64 bits of a * b, for b given as its 32-bit halves."""
    a_low, a_high = a & _LOW32, a >> _U(32)
    middle = a_low * low
    middle >>= _U(32)
    cross = a_low * high
    result = cross >> _U(32)
    cross &= _LOW32
    middle += cross
    cross = a_high * low
    result += cross >> _U(32)
    cross &= _LOW32
    middle += cross
    middle >>= _U(32)
    result += middle
    result += a_high * high
    return result


def _shortest(xs):
    """Schubfach (R. Giulietti, "The Schubfach way to render doubles",
    2020) on floats with 1e-4 <= |x| < 1e16: the shortest decimal d * 10^k
    that rounds to x, the nearest such if several, ties to even d.

    x = c * 2^q with c in [2^52, 2^53) and q in [-66, 1], so k =
    floor(q log10 2) is in [-20, 0] and 10^k <= 2^q < 10^(k+1).  vb is
    4 x 10^-k, and vbl and vbr the same for the midpoints to the
    neighbouring floats; each is floored, with a sticky low bit for a
    remainder, so comparing them with multiples of 4 is exact.  s and
    s + 1 are the 16- or 17-digit candidates around x.

    Three steps of the general algorithm are left out:
    - the whole-number fast path only saves time: the main path is exact
      for every float;
    - the narrower lower gap of c = 2^52: the test over every power of
      two in tests/test_csv_bytes.py shows the regular gap gives the same
      digits on this range;
    - the parity term that drops a midpoint for odd c: a candidate is a
      multiple of 10^k, and every midpoint has a nonzero digit at place
      q - 1 < k, except at q = 1, where x is an even integer and the
      midpoints x - 1 and x + 1 are odd: only s + 1 can fall on one, and
      s = x is nearer.
    With the regular gap the nearer of s and s + 1 lies within half of
    10^k <= 2^q of x, inside the rounding interval, so no inclusion test
    of s and s + 1 is needed.  Of the one-digit-shorter candidates sp10
    and sp10 + 10, 10^(k+1) apart, at most one fits the interval, whose
    width is 2^q.
    """
    bits = xs.view(_U)
    c = (bits & _U((1 << 52) - 1)) | _U(1 << 52)
    q = ((bits >> _U(52)) & _U(0x7FF)).astype(np.int64) - 1075
    k = (q * 661_971_961_083) >> 41  # floor(q log10 2), exact for any float's q
    high, low, log2 = _schubfach_table()
    g1, g0 = high[-k], low[-k]
    cb = c << _U(2)
    cp = np.stack((cb - _U(2), cb, cb + _U(2)))
    cp <<= (q + log2[-k] + 2).astype(_U)
    cp_low, cp_high = cp & _LOW32, cp >> _U(32)
    # rop: floor(g cp / 2^127), with a sticky bit for the remainder
    z = g1 * cp
    z >>= _U(1)
    z += _high_product(g0, cp_low, cp_high)
    v = _high_product(g1, cp_low, cp_high)
    v += z >> _U(63)
    v |= (z & _LOW63) != 0
    vbl, vb, vbr = v
    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)
    middle = (s << _U(2)) + _U(2)
    nearer = s + ((vb > middle) | ((vb == middle) & (s & _U(1) == 1)))
    d = np.where(vbr >= (sp10 + _U(10)) << _U(2), sp10 + _U(10), nearer)
    return np.where(vbl <= sp10 << _U(2), sp10, d), k


def _positional(xs, out):
    """Write repr of floats with 1e-4 <= |x| < 1e16 into out's first
    _WIDTH columns; give the highest and lowest place written, at least
    the units and first fraction places, which every positional row
    shows."""
    d, k = _shortest(xs)
    rows = len(xs)
    # d's 17 digits, zero-padded, between _LOWEST zeros each side; the
    # window from _LOWEST + k puts d's last digit at place k
    padded = np.full((rows, 2 * _LOWEST + _DIGITS), ord("0"), np.uint8)
    digits = padded[:, _LOWEST : _LOWEST + _DIGITS]
    upper = d // _U(10**9)
    digits[:, :8] = _digits(upper, 10, 8, blank=False)
    digits[:, 8:] = _digits(d - upper * _U(10**9), 10, 9, blank=False)
    windows = np.lib.stride_tricks.sliding_window_view(padded, _DIGITS + _LOWEST, axis=1)
    placed = windows[np.arange(rows), _LOWEST + k]
    # 10^15 < d < 10^17, so the first digit is at place k + 15 or k + 16
    top = np.maximum(k + 15 + (d >= _U(10**16)), 0)
    bottom = np.minimum(k + np.argmax(digits[:, ::-1] != ord("0"), axis=1), -1)
    placed *= _kept_places()[top, -1 - bottom]
    out[:, 0] = np.signbit(xs) * ord("-")
    out[:, 1:_POINT] = placed[:, :_DIGITS]
    out[:, _POINT] = ord(".")
    out[:, _POINT + 1 : _WIDTH] = placed[:, _DIGITS:]
    return int(top.max(initial=0)), int(bottom.min(initial=-1))


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
    """Write a header line, then rows 0..length-1, to sink(path), in
    blocks of BLOCK_ROWS rows.

    render(rows) gives the columns of the rows in the slice rows, one
    matrix each.
    """
    with sink(path) as fh:
        fh.write(",".join(header).encode("ascii") + b"\n")
        for start in range(0, length, BLOCK_ROWS):
            write_block(fh, render(slice(start, min(start + BLOCK_ROWS, length))))


def write_block(fh, matrices) -> None:
    """Write one block of rows, given as its columns' matrices, to the
    binary handle fh: the columns joined by ",", each row ended by
    "\\n", every NUL dropped."""
    widths = [matrix.shape[1] for matrix in matrices]
    rows, cols = len(matrices[0]), sum(widths) + len(widths)
    table = np.full((rows, cols), ord(","), np.uint8)
    table[:, -1] = ord("\n")
    at = 0
    for matrix, width in zip(matrices, widths):
        table[:, at : at + width] = matrix
        at += width + 1
    fh.write(table[table != 0])
