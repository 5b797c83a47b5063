"""Cycle structure of the finite state space, with and without perturbation.

Finite precision turns any digitized chaotic map into an eventually
periodic one; the serial XOR bit exists to stretch those cycles out.
The sweep below enumerates every seed per width.
"""

from tentbits import MapConfig, cycle_census, cycle_detect, cycle_table

print(f"{'k':>3} {'variant':<12} {'mean period':>12} {'max period':>11} {'drain to 0':>11}")
for k in (4, 6, 8, 10, 12, 14, 16):
    for perturbed in (False, True):
        census = cycle_census(MapConfig(k, perturbed=perturbed))
        label = "perturbed" if perturbed else "plain"
        print(f"{k:>3} {label:<12} {census.mean_period:>12.1f} "
              f"{census.max_period:>11} {census.zero_reaching:>11}")

# individual orbits: the two degenerate seeds sit on the fixed point,
# everything else lands on a long cycle
print("\nselected 8-bit orbits:")
config = MapConfig(width=8)
for seed in (0x00, 0xFF, 0x01, 0x40, 0x9C):
    transient, period, reaches_zero = cycle_detect(config, seed)
    print(f"  seed 0x{seed:02X}: transient {transient:3d}, "
          f"period {period:3d}, reaches zero: {reaches_zero}")

# at 4 bits the whole table fits on screen
print("\nfull 4-bit table (perturbed):")
table = cycle_table(MapConfig(4))
for seed, transient, period in zip(
    table.seed.tolist(), table.transient.tolist(), table.period.tolist()
):
    print(f"  seed {seed:2d} -> transient {transient}, period {period}")
