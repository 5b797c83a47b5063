"""Generate pseudo-random bits from the polarized fixed-point tent map.

The state word w of width k stands for w / (2**k - 1); the all-ones
word is exactly 1, so the fold 1 - x of the tent map is a bitwise
complement and one iteration costs a complement, a shift, and one XOR.
"""

from tentbits import BitWidth, MapConfig, decode, encode, iterate, output_array

width = BitWidth(16)
config = MapConfig(width=width)

seed = encode(0.3517, width)
print(f"width          : {width.k} bits")
print(f"seed 0.3517    : word 0x{seed:04X} (decodes to {decode(seed, width):.6f})")

trajectory = iterate(config, seed, 12)
print("\nfirst steps (word, value):")
for w in trajectory:
    print(f"  0x{w:04X}  {decode(w, width):.6f}")

# the binary output taps the top bit of each state
n = 65536
words = iterate(config, seed, n)[1:]
bits = output_array(words, width)
ones = int(bits.sum())
print(f"\n{n} output bits: {ones} ones, {n - ones} zeros "
      f"(imbalance {abs(2 * ones - n) / n:.2%})")

# the same machine without the serial perturbation falls into a short
# cycle; compare a few steps
plain = MapConfig(width=BitWidth(8), perturbed=False)
noisy = MapConfig(width=BitWidth(8), perturbed=True)
print("\n8-bit trajectories from 0x34 (plain vs perturbed):")
print("  plain    ", [f"{w:02X}" for w in iterate(plain, 0x34, 10)])
print("  perturbed", [f"{w:02X}" for w in iterate(noisy, 0x34, 10)])
