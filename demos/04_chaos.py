"""Chaos evidence: first-return shape and the largest Lyapunov exponent.

The slope-2 tent map has analytic exponent ln 2 = 0.6931; the estimator
tracks how fast initially-close trajectory pairs separate.
"""

import math
from fractions import Fraction

import numpy as np

from tentbits import (
    MapConfig,
    decode_series,
    first_return_pairs,
    iterate,
    lyapunov_rosenstein,
    tent_exact,
)
from tentbits.analysis import write_divergence_csv, write_return_map_csv

# the slope-2 tent map stretches by 2 at every point but one
print(f"analytic exponent of the slope-2 tent map: {math.log(2):.4f}\n")

# estimates from generated series at three widths
for k, seed in ((8, 0x40), (16, 0x5A3C), (32, 0x12345678)):
    words = iterate(MapConfig(width=k), seed, 65536)[1:]
    estimate = lyapunov_rosenstein(decode_series(words, k))
    print(f"k={k:2d}: lambda = {estimate.exponent:.4f} "
          f"({estimate.neighbor_count} tracked pairs)")

# oracle: iterate the real map in exact rational arithmetic (floats
# would collapse to 0 within ~55 steps, every float is dyadic)
x = Fraction(271828182845904523, 1000000000000000003)
reference = np.empty(16384)
for i in range(reference.size):
    x = tent_exact(x)
    reference[i] = float(x)
exact_estimate = lyapunov_rosenstein(reference)
print(f"\nexact rational tent trajectory: lambda = {exact_estimate.exponent:.4f} "
      f"(error {abs(exact_estimate.exponent - math.log(2)):.4f})")
write_divergence_csv(exact_estimate, "divergence.csv")

# the first-return map traces the tent graph
words = iterate(MapConfig(width=8), 0x40, 2000)
series = decode_series(words, 8)
pairs = first_return_pairs(series)
worst = np.abs(pairs[:, 1] - tent_exact(pairs[:, 0])).max()
print(f"\nfirst-return pairs: {len(pairs)}, max distance from the tent graph "
      f"{worst:.6f} (one step of the last place is {1 / 255:.6f})")
write_return_map_csv(series, "return_map.csv")
print("wrote divergence.csv and return_map.csv")
