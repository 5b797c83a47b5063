"""Independent reference for the generator, written from the paper's rule.

A k-bit word w stands for w / (2**k - 1).  One update complements the
word when its top bit is set, shifts it left by one, and injects the
XOR of the two lowest bits of the old word as the new serial bit.  The
output is the top bit of every state.

This module deliberately imports nothing from `tentbits`: the
benchmark checks the program's outputs against it.
"""

from __future__ import annotations


def step(w: int, k: int) -> int:
    """One perturbed tent-map update of a k-bit word."""
    mask = (1 << k) - 1
    folded = w ^ mask if w >> (k - 1) else w
    serial = (w ^ (w >> 1)) & 1
    return ((folded << 1) | serial) & mask


def states(w: int, k: int, n: int) -> list[int]:
    """The n + 1 states w, f(w), ..., f^n(w)."""
    out = [w]
    for _ in range(n):
        w = step(w, k)
        out.append(w)
    return out


def stream_bytes(words, k: int) -> bytes:
    """Top bits of the words, packed from the high end of each byte.

    The last byte is padded with zero bits.
    """
    out = bytearray()
    byte = filled = 0
    top = k - 1
    for w in words:
        byte = (byte << 1) | (w >> top)
        filled += 1
        if filled == 8:
            out.append(byte)
            byte = filled = 0
    if filled:
        out.append(byte << (8 - filled))
    return bytes(out)


def orbit(w: int, k: int) -> tuple[int, int]:
    """(transient, period) of the orbit of w, by Brent's cycle finder."""
    power = period = 1
    tortoise, hare = w, step(w, k)
    while tortoise != hare:
        if power == period:
            tortoise = hare
            power <<= 1
            period = 0
        hare = step(hare, k)
        period += 1
    tortoise = hare = w
    for _ in range(period):
        hare = step(hare, k)
    transient = 0
    while tortoise != hare:
        tortoise, hare = step(tortoise, k), step(hare, k)
        transient += 1
    return transient, period
