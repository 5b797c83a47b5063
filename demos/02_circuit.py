"""The gate-level circuit: census, export, and a cross-checked simulation.

The register machine needs k XOR gates, k flip-flops and one k-bit
multiplexer, i.e. 2k + 1 elements; published tent-map generators spend
around 5 elements per bit, this design spends about 2.
"""

from tentbits import (
    MapConfig,
    build_tent_netlist,
    element_stats,
    export_text,
    iterate,
    parse_text,
    run,
)

circuit = build_tent_netlist(MapConfig(8))
print("8-bit circuit census:", element_stats(circuit).describe())

print("\nelements per bit as the width grows:")
for k in (8, 16, 32, 64):
    total = element_stats(build_tent_netlist(MapConfig(k))).total
    print(f"  k={k:2d}: {total:3d} elements, {total / k:.3f} per bit")

# the text export is one element per line and parses back
text = export_text(build_tent_netlist(MapConfig(4)))
print("\n4-bit netlist export:")
print(text)
rebuilt = parse_text(text)
assert export_text(rebuilt) == text

# gate-level simulation reproduces the word model bit for bit
seed, steps = 0xB7, 500
config = MapConfig(width=8)
gate_words = run(build_tent_netlist(config), seed, steps).tolist()  # a uint64 array
word_words = iterate(config, seed, steps)
assert gate_words == word_words
print(f"gate-level run of {steps} cycles matches the word model "
      f"({len(gate_words)} states, first five: "
      f"{[f'{w:02X}' for w in gate_words[:5]]})")
