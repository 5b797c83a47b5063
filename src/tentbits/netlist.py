"""Gate-level model of the k-bit tent-map register circuit.

The circuit wraps a bank of k D flip-flops holding the state word:

* k-1 XOR gates conditionally complement bits b1..b{k-1} against the
  top bit b0 (bit 0 itself needs no gate; the shift discards it),
* one XOR gate forms the serial perturbation bit from the two lowest
  register bits,
* a k-bit 2-to-1 multiplexer switches every flip-flop input between an
  external seed (load mode) and the next-state logic (run mode).

That is k XOR gates, k flip-flops and one multiplexer: 2k + 1 elements.
`_clock_lanes` is the gate-level semantics of one clock edge, in many
lanes at once (bit-parallel, or parallel-pattern, simulation): each net
carries an int whose bit p is its value in lane p, so an XOR gate is `^`
and the multiplexer is `b ^ (sel & (a ^ b))`.  Combinational nets settle
in topological order, then all flip-flops latch at once.

`run_map` is the one simulation entry point.  A one-lane pass of the
gates loads the seed through the multiplexer, and one pass in k + 1
lanes probes a run cycle from the zero word (lane 0) and from each
one-bit word 1 << j (lane 1 + j).  With the load select low every
element is linear over GF(2) (XOR gates, the multiplexer passing its
run side, flip-flops), and the seed and zero nets are constants;
validate_structure makes sure no element drives them or the load
select.  So a run cycle is exactly the affine map w -> M.w ^ c that
`AffineMap.from_probe` reads off the probe: c is the probe from zero and
column j of M is the probe from bit j less c.  `run_map` returns the
loaded word and that map, and no further gate-level clock is needed:
the map's orbit from the loaded word is the run (see gf2).  The CLI
calls `run_map` once per configuration per process and keeps the map,
and takes every circuit run from it: the whole orbit
(`AffineMap.orbit_array`), or its words or one tap bit of them a block
at a time (`AffineMap.word_blocks`, `bit_blocks`).  `run` is the
one-call orbit as a uint64 array, kept for the API, the tests and the
demos.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .core import BitWidth, MapConfig, check_word
from .gf2 import AffineMap

XOR2 = "XOR2"
DFF = "DFF"
MUX = "MUX"


class StructuralError(ValueError):
    """The netlist breaks a structural rule (drivers, loops, arity)."""


@dataclass(frozen=True)
class Element:
    """One circuit element: id, kind, input nets and output nets."""

    id: str
    kind: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.kind == XOR2:
            ok = len(self.inputs) == 2 and len(self.outputs) == 1
        elif self.kind == DFF:
            ok = len(self.inputs) == 1 and len(self.outputs) == 1
        elif self.kind == MUX:
            # select net plus two input words, one output net per bit
            ok = (
                len(self.outputs) >= 1
                and len(self.inputs) == 2 * len(self.outputs) + 1
            )
        else:
            raise StructuralError(f"unknown element kind {self.kind!r}")
        if not ok:
            raise StructuralError(
                f"{self.kind} {self.id}: bad pin count "
                f"({len(self.inputs)} in, {len(self.outputs)} out)"
            )


@dataclass(frozen=True)
class Netlist:
    """A synchronous circuit: its width, elements and constant-zero nets.

    The order of DFF elements defines the register readout: the first
    flip-flop holds the most significant bit.  The interface is read
    off the one multiplexer: its first input is the load select and the
    next k inputs are the seed nets, in the same order as the DFFs.
    """

    width: BitWidth
    elements: tuple[Element, ...]
    zero_nets: tuple[str, ...] = ()

    def dffs(self) -> tuple[Element, ...]:
        return tuple(el for el in self.elements if el.kind == DFF)

    @property
    def _mux(self) -> Element:
        muxes = [el for el in self.elements if el.kind == MUX]
        if len(muxes) != 1:
            raise StructuralError(f"expected exactly one MUX, found {len(muxes)}")
        return muxes[0]

    @property
    def load_select(self) -> str:
        return self._mux.inputs[0]

    @property
    def seed_inputs(self) -> tuple[str, ...]:
        mux = self._mux
        return mux.inputs[1 : 1 + len(mux.outputs)]

    @property
    def external_nets(self) -> set[str]:
        """Nets driven from outside: seeds, the load select and the zeros."""
        return {*self.seed_inputs, self.load_select, *self.zero_nets}


@dataclass
class ElementStats:
    """Element census: per-kind counts and the grand total."""

    counts: dict[str, int]
    total: int

    def describe(self) -> str:
        order = [XOR2, DFF, MUX]
        parts = [f"{kind} {self.counts[kind]}" for kind in order if kind in self.counts]
        return ", ".join(parts) + f", total {self.total}"


def build_tent_netlist(config: MapConfig) -> Netlist:
    """Construct the register circuit of a generator configuration.

    The complement bank computes c_i = b0 xor b_i for i = 1..k-1; the
    serial input of the shift register is b_{k-1} xor b_{k-2}, or a
    constant zero when config.perturbed is off (that variant drops the
    perturbation gate and is only useful for cycle experiments).
    """
    k = config.width.k
    b = [f"b{i}" for i in range(k)]
    d = [f"d{i}" for i in range(k)]
    seeds = [f"seed{i}" for i in range(k)]

    elements: list[Element] = []
    for i in range(1, k):
        elements.append(Element(f"cmpl{i}", XOR2, (b[0], b[i]), (f"c{i}",)))
    if config.perturbed:
        elements.append(Element("pert", XOR2, (b[k - 1], b[k - 2]), ("p",)))
        serial = "p"
        zero_nets: tuple[str, ...] = ()
    else:
        serial = "zero"
        zero_nets = ("zero",)
    run_side = [f"c{i}" for i in range(1, k)] + [serial]
    elements.append(Element("mux", MUX, ("load", *seeds, *run_side), tuple(d)))
    for i in range(k):
        elements.append(Element(f"ff{i}", DFF, (d[i],), (b[i],)))

    return Netlist(width=config.width, elements=tuple(elements), zero_nets=zero_nets)


def element_stats(netlist: Netlist) -> ElementStats:
    counts = Counter(el.kind for el in netlist.elements)
    return ElementStats(counts=dict(counts), total=len(netlist.elements))


def validate_structure(netlist: Netlist) -> list[Element]:
    """Check the structural invariants every simulatable netlist needs.

    There is exactly one multiplexer; each net has at most one driver;
    no element drives an interface net (seed, load select, or constant
    zero), and every undriven net is one; the combinational subgraph is
    acyclic, i.e. every feedback loop crosses a flip-flop; and the
    flip-flop count and the multiplexer's width match the declared width.
    Returns the combinational elements in evaluation order (_topo_order).
    """
    externals = netlist.external_nets
    drivers: dict[str, str] = {}
    for el in netlist.elements:
        for out in el.outputs:
            if out in drivers:
                raise StructuralError(
                    f"net {out} driven by both {drivers[out]} and {el.id}"
                )
            if out in externals:
                raise StructuralError(f"interface net {out} is driven by {el.id}")
            drivers[out] = el.id
    for el in netlist.elements:
        for net in el.inputs:
            if net not in drivers and net not in externals:
                raise StructuralError(f"net {net} feeding {el.id} has no driver")
    k = netlist.width.k
    dffs = len(netlist.dffs())
    if dffs != k:
        raise StructuralError(f"{dffs} flip-flops for a {k}-bit register")
    mux = netlist._mux
    if len(mux.outputs) != k:
        raise StructuralError(
            f"MUX {mux.id} drives {len(mux.outputs)} nets for a {k}-bit register"
        )
    return _topo_order(netlist)


def _topo_order(netlist: Netlist) -> list[Element]:
    """Combinational elements in evaluation order; raises on loops."""
    ready = netlist.external_nets
    ready.update(el.outputs[0] for el in netlist.elements if el.kind == DFF)
    remaining = [el for el in netlist.elements if el.kind != DFF]
    order: list[Element] = []
    while remaining:
        stuck = True
        rest = []
        for el in remaining:
            if all(net in ready for net in el.inputs):
                order.append(el)
                ready.update(el.outputs)
                stuck = False
            else:
                rest.append(el)
        if stuck:
            names = ", ".join(el.id for el in rest)
            raise StructuralError(f"combinational cycle through: {names}")
        remaining = rest
    return order


def _clock_lanes(
    netlist: Netlist, order: list[Element], states: list[int], seed: int, load: int
) -> list[int]:
    """One clock edge at gate level in len(states) lanes at once.

    Lane p starts with the flip-flops holding states[p] and the load
    select at bit p of `load`; every lane sees the seed nets carry the
    bits of `seed` and the zero nets carry 0.  Words are read most
    significant bit first in flip-flop order.  The combinational elements
    settle in `order` (see _topo_order), then every flip-flop latches
    its input; returns the latched word of each lane.
    """
    dffs = netlist.dffs()
    k = len(dffs)
    everywhere = (1 << len(states)) - 1
    nets = dict.fromkeys(netlist.zero_nets, 0)
    for i, net in enumerate(netlist.seed_inputs):
        nets[net] = everywhere if (seed >> (k - 1 - i)) & 1 else 0
    # mask i holds bit i of every lane's word, bit 0 the least significant
    masks = _transpose(states, k)
    for i, ff in enumerate(dffs):
        nets[ff.outputs[0]] = masks[k - 1 - i]
    nets[netlist.load_select] = load
    for el in order:
        if el.kind == XOR2:
            a, b = el.inputs
            nets[el.outputs[0]] = nets[a] ^ nets[b]
        else:  # MUX, seed side a when the select is 1; DFFs are not in the order
            sel = nets[el.inputs[0]]
            half = len(el.outputs)
            for j, out in enumerate(el.outputs):
                a, b = nets[el.inputs[1 + j]], nets[el.inputs[1 + half + j]]
                nets[out] = b ^ (sel & (a ^ b))
    latched = [nets[ff.inputs[0]] for ff in reversed(dffs)]
    return _transpose(latched, len(states))


def _transpose(rows: list[int], n: int) -> list[int]:
    """The bit-matrix transpose: bit r of out[c] is bit c of rows[r], c < n.

    Visits only the set bits, so a sparse matrix (one lane per one-bit
    probe, or a word of one lane) costs little.
    """
    out = [0] * n
    for r, row in enumerate(rows):
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= 1 << r
            row ^= low
    return out


def run_map(netlist: Netlist, seed: int) -> tuple[int, AffineMap]:
    """Load the seed through the multiplexer; return the loaded word and
    the affine map of one run cycle.

    A one-lane gate pass gives the load cycle, and one bit-parallel pass
    in k + 1 lanes the map (see the module docstring).  Its orbit from the
    loaded word is the run, in full (run) or a block at a time
    (AffineMap.word_blocks, and bit_blocks for one tap bit).
    """
    seed = check_word(seed, netlist.width)
    order = validate_structure(netlist)
    [loaded] = _clock_lanes(netlist, order, [0], seed, 1)
    cycle = AffineMap.from_probe(
        lambda words: _clock_lanes(netlist, order, words, seed, 0), netlist.width.k
    )
    return loaded, cycle


def run(netlist: Netlist, seed: int, n: int) -> np.ndarray:
    """Load the seed through the multiplexer, then clock n cycles.

    Returns the n + 1 register words as a '<u8' array: the orbit of
    run_map's cycle from its loaded word.  Bit-for-bit equal to the word
    model: run(build_tent_netlist(config), w0, n) is iterate(config, w0, n).
    """
    if n < 1:
        raise ValueError(f"need at least one cycle, got n={n}")
    loaded, cycle = run_map(netlist, seed)
    return cycle.orbit_array(loaded, n)


def export_text(netlist: Netlist) -> str:
    """Serialize to the line format `KIND id out_net in_net_1 [in_net_2 ...]`.

    The first line is `WIDTH k`.  Multi-output elements (the mux) join
    their output nets with commas into the single out_net token, so the
    format stays one element per line and parses back unambiguously.
    """
    lines = [f"WIDTH {netlist.width.k}"]
    for el in netlist.elements:
        outs = ",".join(el.outputs)
        ins = " ".join(el.inputs)
        lines.append(f"{el.kind} {el.id} {outs} {ins}")
    return "\n".join(lines) + "\n"


def parse_text(text: str) -> Netlist:
    """Rebuild a netlist from its text export.

    The seed nets and the load select are read off the one multiplexer
    (see Netlist); every other undriven net is a constant zero.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("WIDTH "):
        raise StructuralError("missing WIDTH header line")
    try:
        width = BitWidth(int(lines[0].split()[1]))
    except (IndexError, ValueError) as exc:
        raise StructuralError(f"bad WIDTH header: {lines[0]!r}") from exc

    elements = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) < 4:
            raise StructuralError(f"short element line: {line!r}")
        kind, el_id, outs = parts[0], parts[1], tuple(parts[2].split(","))
        ins = tuple(parts[3:])
        elements.append(Element(el_id, kind, ins, outs))

    netlist = Netlist(width=width, elements=tuple(elements))
    driven = {out for el in elements for out in el.outputs}
    externals = netlist.external_nets
    zero_nets = dict.fromkeys(
        net
        for el in elements
        for net in el.inputs
        if net not in driven and net not in externals
    )
    netlist = replace(netlist, zero_nets=tuple(zero_nets))
    validate_structure(netlist)
    return netlist
