"""Circuit-model tests: census, structure, simulation, text round-trip."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tentbits.core import BitWidth, MapConfig, affine_map, iterate, step
from tentbits.gf2 import AffineMap
from tentbits.netlist import (
    DFF,
    MUX,
    XOR2,
    Element,
    Netlist,
    StructuralError,
    _clock_lanes,
    _topo_order,
    _transpose,
    build_tent_netlist,
    element_stats,
    export_text,
    parse_text,
    run,
    run_map,
    validate_structure,
)


class TestCensus:
    def test_eight_bit_counts(self):
        stats = element_stats(build_tent_netlist(8))
        assert stats.counts == {XOR2: 8, DFF: 8, MUX: 1}
        assert stats.total == 17

    def test_smallest_instance(self):
        stats = element_stats(build_tent_netlist(2))
        assert stats.counts == {XOR2: 2, DFF: 2, MUX: 1}
        assert stats.total == 5

    @pytest.mark.parametrize("k,total", [(16, 33), (32, 65), (64, 129)])
    def test_published_totals(self, k, total):
        assert element_stats(build_tent_netlist(k)).total == total

    @pytest.mark.parametrize("k", range(2, 65))
    def test_two_k_plus_one(self, k):
        assert element_stats(build_tent_netlist(k)).total == 2 * k + 1

    def test_describe_formats_census(self):
        assert element_stats(build_tent_netlist(8)).describe() == (
            "XOR2 8, DFF 8, MUX 1, total 17"
        )

    def test_unperturbed_variant_drops_one_gate(self):
        stats = element_stats(build_tent_netlist(8, perturbed=False))
        assert stats.counts[XOR2] == 7
        assert stats.total == 16


class TestStructure:
    @pytest.mark.parametrize("k", (2, 3, 8, 16, 24))
    def test_built_netlists_validate(self, k):
        for perturbed in (True, False):
            circuit = build_tent_netlist(k, perturbed=perturbed)
            validate_structure(circuit)
            assert circuit.seed_inputs == tuple(f"seed{i}" for i in range(k))
            assert circuit.load_select == "load"

    @pytest.mark.parametrize("copies", (0, 2))
    def test_mux_count_checked(self, copies):
        circuit = build_tent_netlist(4)
        mux = next(el for el in circuit.elements if el.kind == MUX)
        others = tuple(el for el in circuit.elements if el is not mux)
        # the extra multiplexer drives its own nets, so only the count is wrong
        extra = Element("mux2", MUX, mux.inputs, tuple(f"q{i}" for i in range(4)))
        muxes = (mux, extra)[:copies]
        bad = Netlist(width=circuit.width, elements=others + muxes)
        with pytest.raises(StructuralError, match=f"exactly one MUX, found {copies}"):
            validate_structure(bad)

    def test_double_driver_rejected(self):
        circuit = build_tent_netlist(4)
        clash = Element("dup", XOR2, ("b0", "b1"), ("c1",))  # c1 already driven
        bad = Netlist(
            width=circuit.width,
            elements=circuit.elements + (clash,),
        )
        with pytest.raises(StructuralError, match="driven by both"):
            validate_structure(bad)

    def test_undriven_net_rejected(self):
        circuit = build_tent_netlist(4)
        floating = Element("orphan", XOR2, ("nowhere", "b1"), ("x1",))
        bad = Netlist(
            width=circuit.width,
            elements=circuit.elements + (floating,),
        )
        with pytest.raises(StructuralError, match="no driver"):
            validate_structure(bad)

    def test_combinational_cycle_rejected(self):
        circuit = build_tent_netlist(4)
        # two XORs feeding each other with no flip-flop in between
        loop_a = Element("loopa", XOR2, ("b0", "y2"), ("y1",))
        loop_b = Element("loopb", XOR2, ("b1", "y1"), ("y2",))
        bad = Netlist(
            width=circuit.width,
            elements=circuit.elements + (loop_a, loop_b),
        )
        with pytest.raises(StructuralError, match="combinational cycle"):
            validate_structure(bad)

    def test_element_arity_checked(self):
        with pytest.raises(StructuralError):
            Element("bad", XOR2, ("a",), ("b",))
        with pytest.raises(StructuralError):
            Element("bad", DFF, ("a", "b"), ("c",))
        with pytest.raises(StructuralError):
            Element("bad", "NAND", ("a", "b"), ("c",))

    @pytest.mark.parametrize(
        "edited,nets",
        [
            # widened: the extra run-side net zz would parse as a zero net
            (
                "MUX mux d0,d1,d2,d3,d4 load seed0 seed1 seed2 seed3 seed4 "
                "c1 c2 c3 p zz",
                5,
            ),
            # narrowed: the undriven d3 would parse as a zero net
            ("MUX mux d0,d1,d2 load seed0 seed1 seed2 c1 c2 c3", 3),
        ],
        ids=("widened", "narrowed"),
    )
    def test_mux_width_checked(self, edited, nets):
        text = export_text(build_tent_netlist(4))
        line = "MUX mux d0,d1,d2,d3 load seed0 seed1 seed2 seed3 c1 c2 c3 p"
        assert line in text.splitlines()
        with pytest.raises(
            StructuralError, match=f"^MUX mux drives {nets} nets for a 4-bit register$"
        ):
            parse_text(text.replace(line, edited))

    def test_every_loop_crosses_a_flip_flop(self):
        # the register feedback exists, yet the combinational order resolves
        circuit = build_tent_netlist(8)
        validate_structure(circuit)  # would raise if the cut failed


class TestSimulation:
    def test_load_overrides_state(self):
        assert run(build_tent_netlist(8), 0xA5, 1)[0] == 0xA5

    def test_single_run_cycle_matches_word_model(self):
        assert run(build_tent_netlist(8), 64, 1).tolist() == [64, 128]

    def test_run_seven_step_cycle(self):
        assert run(build_tent_netlist(4), 0b1000, 7).tolist() == [8, 14, 3, 6, 13, 5, 11, 8]

    def test_run_fixed_point(self):
        assert run(build_tent_netlist(8), 0, 2).tolist() == [0, 0, 0]

    def test_run_upper_branch(self):
        assert run(build_tent_netlist(8), 192, 1).tolist() == [192, 126]

    def test_run_is_deterministic(self):
        circuit = build_tent_netlist(8)
        assert np.array_equal(run(circuit, 0x5A, 200), run(circuit, 0x5A, 200))

    @given(st.integers(2, 12), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_run_matches_iterate(self, k, rnd):
        seed = rnd.randrange(1 << k)
        circuit = build_tent_netlist(k)
        config = MapConfig(width=BitWidth(k))
        assert run(circuit, seed, 50).tolist() == iterate(config, seed, 50)

    @pytest.mark.parametrize("perturbed", (True, False))
    @pytest.mark.parametrize("k", range(2, 65))
    def test_run_matches_iterate_at_every_width(self, k, perturbed):
        circuit = build_tent_netlist(k, perturbed=perturbed)
        config = MapConfig(width=k, perturbed=perturbed)
        top = 1 << (k - 1)
        for seed in (0, 2 * top - 1, top | 1, 0x9E3779B97F4A7C15 % (2 * top)):
            assert run(circuit, seed, 200).tolist() == iterate(config, seed, 200)

    def test_run_matches_iterate_at_gate_workload_size(self):
        seed = 0x9E3779B97F4A7C15
        n = 1 << 17
        words = run(build_tent_netlist(64), seed, n)
        assert np.array_equal(words, np.array(iterate(MapConfig(64), seed, n), np.uint64))

    @pytest.mark.parametrize("seed", (0, 1, 77, 200, 255))
    def test_unperturbed_run_matches_word_model(self, seed):
        circuit = build_tent_netlist(8, perturbed=False)
        config = MapConfig(width=8, perturbed=False)
        assert run(circuit, seed, 300).tolist() == iterate(config, seed, 300)

    def test_oversized_seed_rejected(self):
        with pytest.raises(ValueError):
            run(build_tent_netlist(4), 16, 1)


class TestTextFormat:
    def test_header_and_line_shape(self):
        text = export_text(build_tent_netlist(4))
        lines = text.strip().splitlines()
        assert lines[0] == "WIDTH 4"
        assert lines[1].split() == ["XOR2", "cmpl1", "c1", "b0", "b1"]
        kinds = [line.split()[0] for line in lines[1:]]
        assert kinds.count("XOR2") == 4
        assert kinds.count("DFF") == 4
        assert kinds.count("MUX") == 1

    @pytest.mark.parametrize("perturbed", (True, False))
    @pytest.mark.parametrize("k", (2, 3, 8, 33, 64))
    def test_round_trip_preserves_structure(self, k, perturbed):
        original = build_tent_netlist(k, perturbed=perturbed)
        text = export_text(original)
        rebuilt = parse_text(text)
        assert rebuilt.width == original.width
        assert rebuilt.elements == original.elements
        assert rebuilt.seed_inputs == original.seed_inputs
        assert rebuilt.load_select == original.load_select
        assert rebuilt.zero_nets == original.zero_nets
        assert export_text(rebuilt) == text

    def test_round_trip_simulates_identically(self):
        original = build_tent_netlist(6)
        rebuilt = parse_text(export_text(original))
        assert np.array_equal(
            run(rebuilt, 0b101101 & 0x3F, 100), run(original, 0b101101 & 0x3F, 100)
        )

    @pytest.mark.parametrize("perturbed", (True, False))
    def test_renamed_reordered_netlist_simulates(self, perturbed):
        # Net names are opaque strings: punctuation, leading digits and names
        # that clash with the original ones must parse and simulate alike,
        # and the topological order must not depend on the line order.  The
        # gate lines come in reverse, after the flip-flops, whose order is
        # the readout order and so stays as it is.
        styles = ("net:{}", "1x{}", "a;b{}", "n{}", "seed{}", "words{}")
        names: dict[str, str] = {}

        def rename(net):
            if net not in names:
                i = len(names)
                names[net] = styles[i % len(styles)].format(i)
            return names[net]

        header, *body = export_text(build_tent_netlist(16, perturbed)).splitlines()
        dffs = [line for line in body if line.startswith("DFF ")]
        gates = [line for line in reversed(body) if not line.startswith("DFF ")]
        lines = [header]
        for line in dffs + gates:
            kind, el_id, outs, *ins = line.split()
            outs = ",".join(rename(net) for net in outs.split(","))
            lines.append(" ".join([kind, el_id, outs, *map(rename, ins)]))
        circuit = parse_text("\n".join(lines) + "\n")
        assert circuit.load_select == names["load"]
        config = MapConfig(width=16, perturbed=perturbed)
        for seed in (0, 0xFFFF, 0x8001, 0x5A3C):
            assert run(circuit, seed, 200).tolist() == iterate(config, seed, 200)

    def test_unperturbed_round_trip_keeps_zero_net(self):
        original = build_tent_netlist(5, perturbed=False)
        rebuilt = parse_text(export_text(original))
        assert rebuilt.zero_nets == ("zero",)
        assert np.array_equal(run(rebuilt, 13, 60), run(original, 13, 60))

    def test_missing_header_rejected(self):
        with pytest.raises(StructuralError, match="WIDTH"):
            parse_text("XOR2 g1 c b a\n")

    def test_short_line_rejected(self):
        with pytest.raises(StructuralError, match="short element line"):
            parse_text("WIDTH 4\nXOR2 g1 out\n")

    @pytest.mark.parametrize(
        "line,edited,net,driver",
        [
            ("DFF ff0 b0 d0", "DFF ff0 load d0", "load", "ff0"),
            ("XOR2 cmpl1 c1 b0 b1", "XOR2 cmpl1 seed2 b0 b1", "seed2", "cmpl1"),
        ],
    )
    def test_driven_interface_net_rejected(self, line, edited, net, driver):
        text = export_text(build_tent_netlist(4))
        assert line in text.splitlines()
        with pytest.raises(
            StructuralError, match=f"^interface net {net} is driven by {driver}$"
        ):
            parse_text(text.replace(line, edited))

    def test_multiple_muxes_rejected(self):
        base = export_text(build_tent_netlist(2))
        extra = "MUX mux2 q0,q1 load seed0 seed1 c1 p\n"
        with pytest.raises(StructuralError, match="exactly one MUX"):
            parse_text(base + extra)


def _hand_edited(k, edits):
    """The k-bit export with some of three hand edits applied."""
    pert = f"XOR2 pert p b{k - 1}"
    swaps = {
        # the serial bit reads a seed net, so the run cycle's constant is not 0
        "serial": [(f"{pert} b{k - 2}", f"{pert} seed{k - 2}")],
        # a complement gate reads the load select, which is 0 in run mode
        "load": [("XOR2 cmpl1 c1 b0 b1", "XOR2 cmpl1 c1 load b1")],
        # two flip-flops swap their multiplexer outputs
        "cross": [
            ("DFF ff1 b1 d1", "DFF ff1 b1 d2"),
            ("DFF ff2 b2 d2", "DFF ff2 b2 d1"),
        ],
    }
    lines = export_text(build_tent_netlist(k)).splitlines()
    for edit in edits:
        for old, new in swaps[edit]:
            lines[lines.index(old)] = new
    return parse_text("\n".join(lines) + "\n")


def _run_cycle_map(circuit, seed):
    """The affine map of one run cycle, from k + 1 one-lane clocks."""
    order = _topo_order(circuit)
    return AffineMap.from_probe(
        lambda words: [_clock_lanes(circuit, order, [w], seed, 0)[0] for w in words],
        circuit.width.k,
    )


def _lane_pass_map(circuit, seed):
    """The affine map of one run cycle, from one pass in k + 1 lanes, as
    run reads it."""
    order = _topo_order(circuit)
    return AffineMap.from_probe(
        lambda words: _clock_lanes(circuit, order, words, seed, 0), circuit.width.k
    )


class TestAffineRun:
    """run applies the affine map read off k + 1 probes; one-lane
    _clock_lanes is the gate-level reference it must reproduce on every
    cycle."""

    @pytest.mark.parametrize("perturbed", (True, False))
    @pytest.mark.parametrize("k", range(2, 65))
    def test_circuit_map_is_word_model_map(self, k, perturbed):
        # run is [load, then the run cycle's orbit]; the load passes the
        # seed, and the run cycle's map equals the word model's linear step,
        # so run == iterate for every seed and n
        config = MapConfig(width=k, perturbed=perturbed)
        model = affine_map(config)
        assert model.constant == 0
        top = (1 << k) - 1
        samples = [(i * 0x9E3779B97F4A7C15) & top for i in range(1, 9)]
        for a, b in zip(samples, reversed(samples)):
            assert step(config, a ^ b) == step(config, a) ^ step(config, b)
        circuit = build_tent_netlist(k, perturbed=perturbed)
        order = _topo_order(circuit)
        for seed in (0, top, *samples[:2]):
            assert _clock_lanes(circuit, order, [0], seed, 1)[0] == seed
            assert _run_cycle_map(circuit, seed) == model

    @pytest.mark.parametrize("perturbed", (True, False))
    @pytest.mark.parametrize("k", range(2, 65))
    def test_bit_blocks_are_the_tapped_run(self, k, perturbed):
        # both taps, over three blocks and a part, of the circuit's map from
        # its loaded word and of the word model's map from the seed
        config = MapConfig(width=k, perturbed=perturbed)
        seed = 0x5A3C5A3C5A3C5A3C & ((1 << k) - 1) or 1
        loaded, cycle = run_map(build_tent_netlist(k, perturbed=perturbed), seed)
        assert loaded == seed
        n = 3 * 64 + 4
        words = np.array(iterate(config, seed, n), np.uint64)
        for bit in (0, k - 1):
            expected = (words >> np.uint64(bit) & np.uint64(1)).tolist()
            for m in (cycle, affine_map(config)):
                bits = np.concatenate(list(m.bit_blocks(seed, n, bit, 64)))
                assert bits.tolist() == expected

    @pytest.mark.parametrize(
        "edits",
        [("serial",), ("load",), ("cross",), ("serial", "load", "cross")],
    )
    @pytest.mark.parametrize("k", (4, 9, 17))
    def test_run_equals_chained_clock(self, k, edits):
        circuit = _hand_edited(k, edits)
        order = _topo_order(circuit)
        top = (1 << k) - 1
        seeds = {0, top} | {(i * 0x9E3779B97F4A7C15) & top for i in range(62)}
        # 60 cycles from every seed, and 1000 cycles (many orbit blocks)
        # from two of them
        runs = [(seed, 60) for seed in sorted(seeds)] + [(top, 1000), (5, 1000)]
        for seed, n in runs:
            words = [_clock_lanes(circuit, order, [0], seed, 1)[0]]
            for _ in range(n):
                words.append(_clock_lanes(circuit, order, [words[-1]], seed, 0)[0])
            assert run(circuit, seed, n).tolist() == words

    def test_hand_edits_take_effect(self):
        # the edited circuits leave the word model, so the check above is
        # not the word-model check over again, and the serial edit makes
        # the run cycle's constant depend on the seed (seed7 is bit 1)
        config = MapConfig(width=9)
        for edits in (("serial",), ("load",), ("cross",)):
            circuit = _hand_edited(9, edits)
            assert run(circuit, 0x1A5, 60).tolist() != iterate(config, 0x1A5, 60)
        circuit = _hand_edited(9, ("serial",))
        order = _topo_order(circuit)
        assert _clock_lanes(circuit, order, [0], 0, 0)[0] == 0
        assert _clock_lanes(circuit, order, [0], 1 << 1, 0)[0] == 1

    @pytest.mark.parametrize("k", (4, 9, 17))
    def test_hand_edits_give_distinct_maps(self, k):
        edit_sets = [(), ("serial",), ("load",), ("cross",), ("serial", "load", "cross")]
        seed = 0b10  # seed{k-2} is set, so the serial edit's constant is 1
        maps = [_run_cycle_map(_hand_edited(k, edits), seed) for edits in edit_sets]
        assert maps[0] == affine_map(MapConfig(k))
        assert len(set(maps)) == len(edit_sets)


class TestLanePass:
    """run's one bit-parallel probe pass gives the map that k + 1 scalar
    clocks give."""

    @pytest.mark.parametrize("perturbed", (True, False))
    @pytest.mark.parametrize("k", range(2, 65))
    def test_lanes_equal_scalar_clocks(self, k, perturbed):
        circuit = build_tent_netlist(k, perturbed=perturbed)
        top = (1 << k) - 1
        for seed in (0, top, top >> 1, 0x9E3779B97F4A7C15 & top):
            assert _lane_pass_map(circuit, seed) == _run_cycle_map(circuit, seed)

    @pytest.mark.parametrize(
        "edits",
        [("serial",), ("load",), ("cross",), ("serial", "load", "cross")],
    )
    @pytest.mark.parametrize("k", (4, 9, 17))
    def test_lanes_equal_scalar_clocks_on_hand_edits(self, k, edits):
        circuit = _hand_edited(k, edits)
        top = (1 << k) - 1
        # 0b10 sets seed{k-2}, so the serial edit gives the constant 1
        for seed in (0, top, 0b10, 0x9E3779B97F4A7C15 & top):
            assert _lane_pass_map(circuit, seed) == _run_cycle_map(circuit, seed)
        assert _lane_pass_map(circuit, 0b10).constant == (1 if "serial" in edits else 0)

    @pytest.mark.parametrize("perturbed", (True, False))
    @pytest.mark.parametrize("k", (2, 5, 8, 33, 64))
    def test_run_is_the_word_array(self, k, perturbed):
        circuit = build_tent_netlist(k, perturbed=perturbed)
        config = MapConfig(width=k, perturbed=perturbed)
        seed = 0x9E3779B97F4A7C15 % (1 << k)
        for n in (1, 2, 7, 8, 1000):
            words = run(circuit, seed, n)
            assert words.dtype == np.dtype("<u8")
            assert words.shape == (n + 1,)
            assert np.array_equal(words, np.array(iterate(config, seed, n), np.uint64))

    @pytest.mark.parametrize("n", (1, 3, 8, 64, 66, 70))
    def test_transpose_is_the_bit_matrix_transpose(self, n):
        rnd = random.Random(n)
        for count in (0, 1, 2, 9, 66):
            rows = [rnd.getrandbits(n) for _ in range(count)]
            columns = _transpose(rows, n)
            assert len(columns) == n
            for c, column in enumerate(columns):
                for r, row in enumerate(rows):
                    assert (column >> r) & 1 == (row >> c) & 1
                assert column >> count == 0
            assert _transpose(columns, count) == rows
