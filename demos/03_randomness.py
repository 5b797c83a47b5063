"""Randomness diagnostics on a 16-bit run: entropy, histogram, correlation.

Writes the CSVs a plotting tool would consume next to this script's
working directory.
"""

import numpy as np

from tentbits import (
    MapConfig,
    autocorrelation,
    decode_series,
    histogram,
    iterate,
    output_array,
    shannon_entropy,
)
from tentbits.analysis import write_autocorrelation_csv, write_histogram_csv

config = MapConfig(width=16)
seed, n = 0x5A3C, 65536
words = iterate(config, seed, n)[1:]
values = decode_series(words, 16)
bits = output_array(words, 16)

# entropy of the binary output: two symbols, log base 2
counts = np.bincount(bits, minlength=2).tolist()
entropy = shannon_entropy(counts)
print(f"output bits    : {counts[0]} zeros / {counts[1]} ones")
print(f"entropy        : {entropy.h:.6f} (1.0 means perfectly balanced)")

# entropy of the value distribution over 64 bins, for comparison
hist = histogram(values, bins=64)
value_entropy = shannon_entropy(hist.counts)
print(f"value entropy  : {value_entropy.h:.6f} over {hist.bins} bins")
print(f"histogram      : counts in [{hist.counts.min()}, {hist.counts.max()}], "
      f"expected {hist.expected:.0f}, chi-square {hist.chi_square:.1f}")
write_histogram_csv(hist, "histogram.csv")

# the binary output stream decorrelates; the decoded values keep one
# structural spike at lag k-2 that the bit stream does not show
bit_ac = autocorrelation(bits.astype(float), max_lag=100)
val_ac = autocorrelation(values, max_lag=100)
print(f"bit stream     : max |r(1..100)| = {np.abs(bit_ac.r[1:]).max():.4f}")
peak_lag = int(np.argmax(np.abs(val_ac.r[1:]))) + 1
print(f"decoded values : max |r(1..100)| = {np.abs(val_ac.r[1:]).max():.4f} "
      f"at lag {peak_lag} (the shift register echoes after k-2 steps)")
write_autocorrelation_csv(bit_ac, "autocorr.csv")
print("wrote histogram.csv and autocorr.csv")
