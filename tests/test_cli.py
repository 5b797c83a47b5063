"""Command-line behavior: formats, reports, exit codes, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tentbits import analysis, cli, columns, core, netlist
from tentbits.cli import EXIT_ALL_TESTS_FAILED, EXIT_BROKEN_PIPE, EXIT_OK, EXIT_USAGE, main
from tentbits.core import MapConfig, decode_series, iterate, output_array

ROOT = Path(__file__).resolve().parents[1]


class TestGen:
    def test_csv_rows(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = main(["gen", "--bits", "8", "--seed", "0x40", "--n", "1",
                     "--format", "csv", "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text().splitlines() == [
            "index,word,value",
            "0,0x40,0.25098039215686274",
            "1,0x80,0.5019607843137255",
        ]

    def test_hex_trajectory(self, capsys):
        code = main(["gen", "--bits", "4", "--seed", "0x8", "--n", "7",
                     "--format", "hex"])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.split() == ["8", "E", "3", "6", "D", "5", "B", "8"]

    def test_word_backend_steps_once_per_state(self, tmp_path, monkeypatch):
        # the benchmark's traced stream workload predicts n core.step
        # calls, across every block
        n = 2 * columns.BLOCK_ROWS + 5
        words = iterate(MapConfig(width=64), 0x123456789ABCDEF, n)
        calls = []
        real_step = core.step

        def counted(config, w):
            calls.append(w)
            return real_step(config, w)

        monkeypatch.setattr(core, "step", counted)
        argv = ["gen", "--bits", "64", "--seed", "0x123456789ABCDEF", "--n", str(n),
                "--format", "raw", "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_OK
        assert calls == words[:-1]

    def test_degenerate_seed_warns_but_succeeds(self, capsys):
        code = main(["gen", "--bits", "8", "--seed", "0x00", "--n", "5"])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "degenerate seed" in captured.err
        assert captured.out.split() == ["0"] * 6

    def test_bits_format_taps_msb(self, capsys):
        code = main(["gen", "--bits", "8", "--seed", "0xC0", "--n", "3"])
        assert code == EXIT_OK
        expected = output_array(iterate(MapConfig(width=8), 0xC0, 3), 8)
        assert capsys.readouterr().out.split() == [str(b) for b in expected]

    @pytest.mark.parametrize("fmt", ("bits", "hex"))
    def test_one_line_per_state(self, capsys, fmt):
        code = main(["gen", "--bits", "8", "--seed", "0xC0", "--n", "40",
                     "--format", fmt])
        assert code == EXIT_OK
        words = iterate(MapConfig(width=8), 0xC0, 40)
        if fmt == "bits":
            lines = [str(b) for b in output_array(words, 8)]
        else:
            lines = [f"{w:02X}" for w in words]
        assert capsys.readouterr().out == "\n".join(lines) + "\n"

    def test_lsb_tap(self, capsys):
        code = main(["gen", "--bits", "8", "--seed", "0xC0", "--n", "3",
                     "--tap", "lsb"])
        assert code == EXIT_OK
        expected = output_array(iterate(MapConfig(width=8), 0xC0, 3), 8, tap="lsb")
        assert capsys.readouterr().out.split() == [str(b) for b in expected]

    def test_raw_packs_bits_msb_first(self, tmp_path):
        out = tmp_path / "run.raw"
        code = main(["gen", "--bits", "8", "--seed", "0x40", "--n", "9",
                     "--format", "raw", "--out", str(out)])
        assert code == EXIT_OK
        bits = output_array(iterate(MapConfig(width=8), 0x40, 9), 8)
        first = int("".join(map(str, bits[:8])), 2)
        second = int("".join(map(str, bits[8:])) + "000000", 2)
        assert out.read_bytes() == bytes([first, second])

    def test_unperturbed_variant(self, capsys):
        code = main(["gen", "--bits", "8", "--seed", "0x55", "--n", "4",
                     "--format", "hex", "--variant", "unperturbed"])
        assert code == EXIT_OK
        expected = iterate(MapConfig(width=8, perturbed=False), 0x55, 4)
        got = [int(line, 16) for line in capsys.readouterr().out.split()]
        assert got == expected

    def test_identical_invocations_identical_files(self, tmp_path):
        args = ["gen", "--bits", "12", "--seed", "0x5A3", "--n", "500",
                "--format", "csv"]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(args + ["--out", str(out_a)]) == EXIT_OK
        assert main(args + ["--out", str(out_b)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_random_seed_is_echoed(self, tmp_path, capsys):
        # every subcommand that takes a seed echoes the one it drew, and
        # that seed is the one it ran
        out = tmp_path / "r.csv"
        for argv in (
            ["gen", "--format", "csv", "--n", "2", "--out", str(out)],
            ["netlist", "--simulate", "--format", "csv", "--n", "2", "--out", str(out)],
            ["analyze", "--n", "64", "--tests", "entropy", "--out-dir", str(tmp_path)],
            ["cycles", "--out", str(out)],
        ):
            code = main([*argv, "--bits", "8", "--seed", "random"])
            assert code == EXIT_OK, argv
            err = capsys.readouterr().err.splitlines()
            assert err[0].startswith("seed: 0x") and len(err[0]) == len("seed: 0x5A"), argv
            seed = err[0].removeprefix("seed: ")
            if argv[0] == "analyze":
                report = json.loads((tmp_path / "report.json").read_text())
                assert report["seed"] == seed
            else:
                first_row = out.read_text().splitlines()[1]
                assert f",{seed}," in f",{first_row}", argv

    def test_bad_width_exits_2(self, capsys):
        assert main(["gen", "--bits", "1", "--seed", "0x0", "--n", "1"]) == EXIT_USAGE

    def test_oversized_seed_exits_2(self, capsys):
        assert main(["gen", "--bits", "4", "--seed", "0x10", "--n", "1"]) == EXIT_USAGE

    def test_unparsable_seed_exits_2(self, capsys):
        assert main(["gen", "--bits", "4", "--seed", "pi", "--n", "1"]) == EXIT_USAGE

    def test_unwritable_path_exits_2(self, tmp_path, capsys):
        missing_dir = tmp_path / "nope" / "run.csv"
        code = main(["gen", "--bits", "8", "--seed", "0x40", "--n", "1",
                     "--format", "csv", "--out", str(missing_dir)])
        assert code == EXIT_USAGE


class TestNetlistCommand:
    def test_stats_line(self, capsys):
        assert main(["netlist", "--bits", "8", "--stats"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "XOR2 8, DFF 8, MUX 1, total 17"

    def test_stats_line_unperturbed(self, capsys):
        # the variant drops the perturbation gate and feeds a constant zero
        argv = ["netlist", "--bits", "8", "--stats", "--variant", "unperturbed"]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == "XOR2 7, DFF 8, MUX 1, total 16\n"

    def test_stats_64_bit_total(self, capsys):
        assert main(["netlist", "--bits", "64", "--stats"]) == EXIT_OK
        assert "total 129" in capsys.readouterr().out

    def test_export_round_trips(self, tmp_path, capsys):
        out = tmp_path / "circuit.txt"
        assert main(["netlist", "--bits", "6", "--export", "--out", str(out)]) == EXIT_OK
        from tentbits.netlist import build_tent_netlist, export_text, parse_text

        text = out.read_text()
        assert text == export_text(build_tent_netlist(MapConfig(6)))
        assert parse_text(text).width.k == 6

    def test_export_stdout_matches_file(self, tmp_path, capsysbinary):
        out = tmp_path / "circuit.txt"
        argv = ["netlist", "--bits", "12", "--export"]
        assert main([*argv, "--out", "-"]) == EXIT_OK
        stdout = capsysbinary.readouterr().out
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        assert stdout == out.read_bytes()

    @pytest.mark.parametrize(
        "bits,seed,fmt",
        [
            ("4", "0x8", "hex"),
            ("8", "0x40", "csv"),
            ("16", "0x5A3C", "raw"),
            ("16", "0x5A3C", "bits"),
        ],
    )
    def test_simulate_matches_gen(self, tmp_path, bits, seed, fmt):
        shared = ["--bits", bits, "--seed", seed, "--n", "200", "--format", fmt]
        gen_out = tmp_path / "word.txt"
        sim_out = tmp_path / "gate.txt"
        assert main(["gen", *shared, "--out", str(gen_out)]) == EXIT_OK
        assert main(["netlist", *shared, "--simulate", "--out", str(sim_out)]) == EXIT_OK
        assert gen_out.read_bytes() == sim_out.read_bytes()

    @pytest.mark.parametrize("variant", ("perturbed", "unperturbed"))
    @pytest.mark.parametrize("bits", (2, 8, 33, 64))
    def test_simulate_streams_gen_bits(self, tmp_path, bits, variant):
        # the circuit's tap bits come from its map block by block and gen's
        # from its words: equal over three blocks and a part, for both taps,
        # a plain seed and the two degenerate ones
        n = 3 * columns.BLOCK_ROWS + 4
        top = (1 << bits) - 1
        for seed in (0x5A3C5A3C5A3C5A3C & top or 1, 0, top):
            for tap in ("msb", "lsb"):
                for fmt in ("raw", "bits"):
                    shared = ["--bits", str(bits), "--seed", hex(seed), "--n", str(n),
                              "--variant", variant, "--tap", tap, "--format", fmt]
                    outs = [tmp_path / "word", tmp_path / "gate"]
                    assert main(["gen", *shared, "--out", str(outs[0])]) == EXIT_OK
                    assert main(["netlist", "--simulate", *shared,
                                 "--out", str(outs[1])]) == EXIT_OK
                    assert outs[0].read_bytes() == outs[1].read_bytes(), shared

    @pytest.mark.parametrize("variant", ("perturbed", "unperturbed"))
    def test_simulate_builds_the_circuit_once(self, monkeypatch, capsys, variant):
        from tentbits import netlist as nl

        built = []
        real_build = nl.build_tent_netlist

        def counting_build(*args, **kwargs):
            built.append(real_build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(nl, "build_tent_netlist", counting_build)
        argv = ["--bits", "8", "--seed", "0x5A", "--n", "20", "--variant", variant]
        assert main(["netlist", *argv, "--simulate", "--format", "hex"]) == EXIT_OK
        assert len(built) == 1
        assert built[0] == real_build(MapConfig(8, perturbed=variant == "perturbed"))
        gate = capsys.readouterr().out
        assert main(["gen", *argv, "--format", "hex"]) == EXIT_OK
        assert capsys.readouterr().out == gate

    @pytest.mark.parametrize(
        "argv",
        [
            ["netlist", "--simulate", "--format", "raw"],
            ["netlist", "--simulate", "--format", "hex"],
            ["analyze", "--backend", "netlist", "--tests", "entropy"],
        ],
        ids=("simulate-raw", "simulate-hex", "analyze"),
    )
    def test_circuit_runs_clock_the_gates_twice(self, tmp_path, monkeypatch, capsys, argv):
        # one load pass and one probe pass, then the run cycle's map; the
        # word model is never stepped
        lanes, steps = [], []
        real_lanes, real_step = netlist._clock_lanes, core.step

        def counted_lanes(*args):
            lanes.append(args)
            return real_lanes(*args)

        def counted_step(*args):
            steps.append(args)
            return real_step(*args)

        monkeypatch.setattr(netlist, "_clock_lanes", counted_lanes)
        monkeypatch.setattr(core, "step", counted_step)
        out = ["--out-dir" if argv[0] == "analyze" else "--out", str(tmp_path / "out")]
        argv = [*argv, "--bits", "64", "--seed", "0x123456789ABCDEF",
                "--n", str(2 * columns.BLOCK_ROWS + 5), *out]
        assert main(argv) == EXIT_OK
        assert len(lanes) == 2
        assert steps == []

    def test_simulate_requires_seed_and_n(self, capsys):
        assert main(["netlist", "--bits", "8", "--simulate"]) == EXIT_USAGE

    def test_no_action_exits_2(self, capsys):
        assert main(["netlist", "--bits", "8"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "modes",
        [
            ["--stats", "--export"],
            ["--stats", "--simulate"],
            ["--export", "--simulate"],
            ["--stats", "--export", "--simulate"],
        ],
        ids=lambda modes: "+".join(m.lstrip("-") for m in modes),
    )
    def test_two_actions_exit_2(self, tmp_path, capsys, modes):
        argv = ["netlist", "--bits", "8", "--seed", "0x5A", "--n", "4",
                *modes, "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: choose one of --stats, --export, --simulate"
        ]
        assert not (tmp_path / "out").exists()

    def test_width_out_of_range_exits_2(self, capsys):
        assert main(["netlist", "--bits", "65", "--stats"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "mode,flag,value",
        [
            pytest.param(mode, flag, value, id=f"{mode}-{flag}")
            for mode, unread in (("stats", ("seed", "n", "tap", "format", "out")),
                                 ("export", ("seed", "n", "tap", "format")))
            for flag, value in (("seed", "0x5"), ("n", "3"), ("tap", "msb"),
                                ("format", "bits"), ("out", "run.txt"))
            if flag in unread
        ],
    )
    def test_unread_run_flag_exits_2(self, tmp_path, capsys, monkeypatch, mode, flag, value):
        # a run flag the chosen mode does not read is a usage error, even
        # at its default value, and nothing is printed or written
        monkeypatch.chdir(tmp_path)
        argv = ["netlist", "--bits", "8", f"--{mode}", f"--{flag}", value]
        if mode == "export":
            argv += ["--out", "circuit.txt"]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: --{mode} does not take --{flag}"]
        assert list(tmp_path.iterdir()) == []


class TestAnalyze:
    def test_report_shape_and_values(self, tmp_path, capsys):
        code = main(["analyze", "--bits", "16", "--seed", "0x5A3C", "--n", "4096",
                     "--tests", "entropy,histogram,return-map",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["width"] == 16
        assert report["seed"] == "0x5A3C"
        assert report["variant"] == "perturbed"
        assert report["backend"] == "word"
        names = [entry["test"] for entry in report["tests"]]
        assert names == ["entropy", "histogram", "return-map"]
        entropy = report["tests"][0]
        assert entropy["value"] > 0.99
        assert sum(entropy["details"]["bit_counts"]) == 4096
        assert (tmp_path / "histogram.csv").exists()
        assert (tmp_path / "return_map.csv").exists()

    def test_autocorr_default_is_bit_stream(self, tmp_path, capsys):
        code = main(["analyze", "--bits", "16", "--seed", "0x5A3C", "--n", "8192",
                     "--tests", "autocorr", "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        entry = report["tests"][0]
        assert entry["parameters"]["series"] == "bits"
        assert entry["details"]["r0"] == 1.0
        assert entry["value"] < 0.05

    def test_autocorr_on_decoded_values(self, tmp_path, capsys):
        code = main(["analyze", "--bits", "16", "--seed", "0x5A3C", "--n", "8192",
                     "--tests", "autocorr", "--autocorr-series", "values",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        # the decoded series carries a structural spike at lag k-2
        assert report["tests"][0]["value"] > 0.05

    def test_lyapunov_reports_analytic_ln2(self, tmp_path, capsys):
        code = main(["analyze", "--bits", "16", "--seed", "0x5A3C", "--n", "4096",
                     "--tests", "lyapunov", "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["tests"][0]["details"]["analytic"] == math.log(2)

    def test_failing_test_gets_error_entry(self, tmp_path, capsys):
        code = main(["analyze", "--bits", "16", "--seed", "0x5A3C", "--n", "500",
                     "--tests", "lyapunov,entropy", "--out-dir", str(tmp_path)])
        assert code == EXIT_OK  # entropy still succeeds
        report = json.loads((tmp_path / "report.json").read_text())
        by_name = {entry["test"]: entry for entry in report["tests"]}
        assert "error" in by_name["lyapunov"]
        assert "value" in by_name["entropy"]

    def test_all_failures_exit_3(self, tmp_path, capsys):
        code = main(["analyze", "--bits", "16", "--seed", "0x5A3C", "--n", "500",
                     "--tests", "lyapunov", "--out-dir", str(tmp_path)])
        assert code == EXIT_ALL_TESTS_FAILED

    def test_unallocatable_bins_is_one_line_error(self, tmp_path, capsys):
        # 10**15 int64 counts are 8 PB, which no allocator grants
        argv = ["analyze", "--bits", "16", "--seed", "0x5A3C", "--n", "2000",
                "--tests", "histogram", "--bins", str(10**15),
                "--out-dir", str(tmp_path)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    @pytest.mark.parametrize("n", ("1", "3000"))
    def test_one_loaded_bit_reports_positive_zero(self, tmp_path, capsys, n):
        # seed 0 stays on the fixed point: every output bit is 0
        argv = ["analyze", "--bits", "16", "--seed", "0", "--n", n,
                "--tests", "entropy", "--out-dir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        text = (tmp_path / "report.json").read_text()
        assert "-0.0" not in text
        entry = json.loads(text)["tests"][0]
        assert math.copysign(1.0, entry["value"]) == 1.0
        assert math.copysign(1.0, entry["details"]["value_entropy_64bin"]) == 1.0

    def test_unknown_test_exits_2(self, tmp_path, capsys):
        code = main(["analyze", "--bits", "16", "--seed", "0x5A3C", "--n", "100",
                     "--tests", "spectral", "--out-dir", str(tmp_path)])
        assert code == EXIT_USAGE

    def test_test_named_twice_exits_2(self, tmp_path, capsys):
        # one report entry and one CSV per test: a repeat is refused
        # before the output directory is made
        out_dir = tmp_path / "out"
        code = main(["analyze", "--bits", "16", "--seed", "0x5A3C", "--n", "100",
                     "--tests", "entropy,histogram,entropy", "--out-dir", str(out_dir)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: test 'entropy' is named twice"]
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flag,value",
        [("--bins", "0"), ("--bins", "1"), ("--max-lag", "0"), ("--max-lag", "-3")],
    )
    @pytest.mark.parametrize("tests", (None, "histogram", "entropy"))
    def test_out_of_range_flag_exits_2(self, tmp_path, capsys, flag, value, tests):
        # refused whichever tests are selected, before the directory is made
        out_dir = tmp_path / "out"
        argv = ["analyze", "--bits", "16", "--seed", "0x5A3C", "--n", "4096",
                flag, value, "--out-dir", str(out_dir)]
        if tests is not None:
            argv += ["--tests", tests]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        least = 2 if flag == "--bins" else 1
        assert captured.err.splitlines() == [
            f"error: {flag} must be at least {least}, got {value}"
        ]
        assert captured.out == ""
        assert not out_dir.exists()

    def test_lag_beyond_the_series_fails_that_test_alone(self, tmp_path, capsys):
        # whether a lag fits depends on the data, so it is no usage error
        argv = ["analyze", "--bits", "16", "--seed", "0x5A3C", "--n", "50",
                "--max-lag", "50", "--tests", "autocorr,histogram",
                "--out-dir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        autocorr, hist = json.loads((tmp_path / "report.json").read_text())["tests"]
        assert autocorr == {
            "test": "autocorr", "error": "series of 50 samples cannot support lag 50"
        }
        assert "error" not in hist

    def test_netlist_backend_matches_word(self, tmp_path, capsys):
        word_dir = tmp_path / "word"
        gate_dir = tmp_path / "gate"
        shared = ["analyze", "--bits", "8", "--seed", "0x40", "--n", "2048",
                  "--tests", "entropy,histogram"]
        assert main(shared + ["--out-dir", str(word_dir)]) == EXIT_OK
        assert main(shared + ["--backend", "netlist", "--out-dir", str(gate_dir)]) == EXIT_OK
        word_report = json.loads((word_dir / "report.json").read_text())
        gate_report = json.loads((gate_dir / "report.json").read_text())
        assert word_report["tests"] == gate_report["tests"]

    def test_determinism(self, tmp_path, capsys):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        shared = ["analyze", "--bits", "16", "--seed", "0xBEEF", "--n", "4096",
                  "--tests", "entropy,autocorr,histogram"]
        assert main(shared + ["--out-dir", str(dir_a)]) == EXIT_OK
        assert main(shared + ["--out-dir", str(dir_b)]) == EXIT_OK
        assert (dir_a / "report.json").read_bytes() == (dir_b / "report.json").read_bytes()
        assert (dir_a / "autocorr.csv").read_bytes() == (dir_b / "autocorr.csv").read_bytes()

    def test_series_is_one_orbit_not_one_step_per_state(self, tmp_path, monkeypatch, capsys):
        # the word series comes from the map probed off k + 1 steps; a
        # step per state would be 65 536 calls
        calls = []
        real_step = core.step

        def counted(config, w):
            calls.append(w)
            return real_step(config, w)

        monkeypatch.setattr(core, "step", counted)
        argv = ["analyze", "--bits", "32", "--seed", "0x12345678", "--n", "65536",
                "--tests", "entropy", "--out-dir", str(tmp_path)]
        assert main(argv) == EXIT_OK
        assert len(calls) <= 32 + 1
        entry = json.loads((tmp_path / "report.json").read_text())["tests"][0]
        words = iterate(MapConfig(width=32), 0x12345678, 65536)[1:]
        counts = np.bincount(output_array(words, 32), minlength=2).tolist()
        assert entry["details"]["bit_counts"] == counts

    def test_csv_files_use_lf_line_endings(self, tmp_path, capsys):
        code = main(["analyze", "--bits", "16", "--seed", "0x5A3C", "--n", "4096",
                     "--out-dir", str(tmp_path)])
        assert code == EXIT_OK
        csv_files = sorted(tmp_path.glob("*.csv"))
        assert len(csv_files) == 4
        for path in csv_files:
            assert b"\r" not in path.read_bytes(), path.name


class TestCycles:
    def test_single_seed_period(self, capsys):
        assert main(["cycles", "--bits", "4", "--seed", "0x8"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "0x8,0,7,false" in captured.out
        assert "max period: 7" in captured.err

    def test_fixed_point_seed(self, capsys):
        assert main(["cycles", "--bits", "8", "--seed", "0x00"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "0x00,0,1,true" in captured.out

    def test_exhaustive_summary(self, capsys):
        assert main(["cycles", "--bits", "4", "--exhaustive"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "zero-reaching seeds: 2" in captured.err
        assert len(captured.out.splitlines()) == 17  # header + 16 seeds

    @pytest.mark.parametrize(
        "variant, mean, top",
        [("perturbed", "529.199", 595), ("unperturbed", "11.779", 12)],
    )
    def test_exhaustive_summary_in_each_variant(self, capsys, variant, mean, top):
        argv = ["cycles", "--bits", "12", "--exhaustive", "--variant", variant]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().err.splitlines() == [
            "seeds: 4096",
            f"mean period: {mean}",
            f"max period: {top}",
            "zero-reaching seeds: 2",
        ]

    def test_exhaustive_to_file(self, tmp_path, capsys):
        out = tmp_path / "cycles.csv"
        assert main(["cycles", "--bits", "4", "--exhaustive", "--out", str(out)]) == EXIT_OK
        assert out.read_text().splitlines()[0] == "seed,transient,period,reaches_zero"

    def test_stdout_matches_file(self, tmp_path, capsysbinary):
        out = tmp_path / "cycles.csv"
        modes = (["--exhaustive"], ["--seed", "0x5A3"], ["--seed", "0xFFF"])
        for variant in ("perturbed", "unperturbed"):
            for mode in modes:
                argv = ["cycles", "--bits", "12", "--variant", variant, *mode]
                assert main(argv) == EXIT_OK
                stdout = capsysbinary.readouterr().out
                assert main([*argv, "--out", str(out)]) == EXIT_OK
                assert stdout == out.read_bytes()

    def test_exhaustive_width_bound(self, capsys):
        assert main(["cycles", "--bits", "24", "--exhaustive"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: exhaustive enumeration is limited to 20 bits"
        ]

    def test_sixteen_bit_census_pinned(self, capsysbinary):
        # the bytes the earlier per-seed sweep wrote
        assert main(["cycles", "--bits", "16", "--exhaustive", "--out", "-"]) == EXIT_OK
        captured = capsysbinary.readouterr()
        assert hashlib.sha256(captured.out).hexdigest() == (
            "89f6d08474f9338755a6264cffdf1177806fbb9a8a8051369f8558a71b7c8959"
        )
        assert captured.err.decode().splitlines() == [
            "seeds: 65536",
            "mean period: 32766.000",
            "max period: 32767",
            "zero-reaching seeds: 2",
        ]

    def test_wide_seed_pinned(self, capsysbinary):
        # the bytes the earlier step-by-step walk printed, period 2 097 151
        assert main(["cycles", "--bits", "32", "--seed", "0x12345678"]) == EXIT_OK
        captured = capsysbinary.readouterr()
        assert captured.out == (
            b"seed,transient,period,reaches_zero\n0x12345678,0,2097151,false\n"
        )
        assert captured.err == (
            b"seeds: 1\nmean period: 2097151.000\nmax period: 2097151\n"
            b"zero-reaching seeds: 0\n"
        )

    def test_requires_mode(self, capsys):
        assert main(["cycles", "--bits", "8"]) == EXIT_USAGE

    def test_seed_and_exhaustive_exit_2(self, capsys):
        argv = ["cycles", "--bits", "8", "--seed", "0x40", "--exhaustive"]
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: pass one of --seed WORD and --exhaustive"
        ]


class TestCompare:
    def test_published_rows(self, capsys):
        assert main(["compare", "16", "32", "64"]) == EXIT_OK
        out = capsys.readouterr().out
        lines = [" ".join(line.split()) for line in out.splitlines()]
        assert "this work 16 33 2.063" in lines
        assert "this work 32 65 2.031" in lines
        assert "this work 64 129 2.016" in lines
        assert "Khani & Ahmadi (2013) 10 55 5.500" in lines
        assert "Sreenath & Narayanan (2018) 32 161 5.031" in lines
        assert "Sreenath & Narayanan (2018) 64 321 5.016" in lines

    def test_default_widths(self, capsys):
        assert main(["compare"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "2.063" in out and "2.031" in out and "2.016" in out

    def test_eight_bit_ratio(self, capsys):
        assert main(["compare", "8"]) == EXIT_OK
        assert "this work 8 17 2.125" in [
            " ".join(line.split()) for line in capsys.readouterr().out.splitlines()
        ]

    def test_width_out_of_range(self, capsys):
        assert main(["compare", "70"]) == EXIT_USAGE

    def test_printed_ratio_matches_exact_ratio(self, capsys):
        # three printed decimals stay within 5e-4 of elements/bits; the
        # bound is tight at half-ulp cases, so compare in exact rationals
        from fractions import Fraction

        assert main(["compare", *map(str, range(2, 65))]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()[1:]
        for line in lines:
            parts = line.split()
            bits, elements = int(parts[-3]), int(parts[-2])
            ratio = Fraction(parts[-1])
            assert abs(ratio - Fraction(elements, bits)) <= Fraction(5, 10_000)


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--bits", "1", "--seed", "0x0", "--n", "1"],
        ["netlist", "--bits", "1", "--stats"],
        ["analyze", "--bits", "1", "--seed", "0x0", "--n", "1"],
        ["cycles", "--bits", "1", "--exhaustive"],
        ["compare", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_bad_width_is_one_line_error(argv, capsys):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: width must be in [2, 64], got 1"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", (["gen"], ["netlist", "--simulate"], ["analyze"]))
def test_n_past_any_array_is_one_line_error(tmp_path, capsys, monkeypatch, command):
    # a state index past int64 is refused up front, before any state is
    # made (gen streams its blocks and would otherwise run on) and before
    # any output is created or truncated
    def no_states(*args):
        raise AssertionError("states made before the refusal")

    monkeypatch.setattr(core, "iterate", no_states)  # gen
    monkeypatch.setattr(core, "affine_map", no_states)  # analyze
    monkeypatch.setattr(netlist, "run_map", no_states)  # either, on the netlist backend
    for n in (2**63, 10**20):
        argv = [*command, "--bits", "16", "--seed", "0x5A3C", "--n", str(n)]
        argv += ["--out-dir" if command == ["analyze"] else "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert not (tmp_path / "out").exists()


def test_gen_memory_is_flat_in_n(tmp_path):
    # gen holds one block of states whatever n is; holding them all, the
    # peak at 1 048 576 states was about 4 times the peak at 262 144.
    # 8-bit words are Python's cached small ints, which keeps
    # tracemalloc's cost down
    peaks = []
    for n in (262_144, 1_048_576):
        argv = ["gen", "--bits", "8", "--seed", "0x5A", "--n", str(n),
                "--format", "raw", "--out", str(tmp_path / "out")]
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1 << 20, peaks


def test_netlist_raw_memory_is_flat_in_n(tmp_path):
    # netlist --simulate streams its tap bits from the circuit's map, one
    # block at a time; holding the orbit, 8 B per state, the peak grew by
    # about 6 MB from 262 144 to 1 048 576 states
    peaks = []
    for n in (262_144, 1_048_576):
        argv = ["netlist", "--simulate", "--bits", "8", "--seed", "0x5A", "--n", str(n),
                "--format", "raw", "--out", str(tmp_path / "out")]
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1 << 20, peaks


def traced_peak(call, *args) -> int:
    """The tracemalloc peak of one call, in bytes."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lyapunov_memory_per_point():
    # the sweep holds 64 B per point at embed_dim 2 and the rest is one
    # block of points; the whole-series sweep peaked near 245 B per point
    n = 1 << 17
    values = decode_series(iterate(MapConfig(width=32), 0x12345678, n)[1:], 32)
    peak = traced_peak(analysis.lyapunov_rosenstein, values)
    assert peak < 100 * n, peak / n


def test_census_memory_per_seed():
    # the whole census runs in int32 indices; in int64 it peaked at 68 B
    # per seed
    size = 1 << 16
    peak = traced_peak(analysis.cycle_table, MapConfig(16))
    assert peak < 40 * size, peak / size


def test_return_map_memory_is_flat_in_rows(tmp_path):
    # the table is written one block of columns.BLOCK_ROWS rows at a time
    values = decode_series(iterate(MapConfig(width=32), 0x12345678, (1 << 18) + 1)[1:], 32)
    peaks = [
        traced_peak(analysis.write_return_map_csv, values[: rows + 1], tmp_path / "rm.csv")
        for rows in (1 << 15, 1 << 18)
    ]
    assert abs(peaks[1] - peaks[0]) < 1 << 20, peaks


def test_return_map_test_memory_per_point(tmp_path):
    # the pairs are a view of the series, so the peak is the tent map's
    # float temporaries; the (N - 1, 2) copy and np.where form read 41 B
    n = 1 << 19
    words = np.random.default_rng(19).integers(0, 1 << 32, n, dtype=np.uint64)
    values = decode_series(words, 32)
    peak = traced_peak(cli._analyze_return_map, None, values, tmp_path, None)
    assert peak <= 20 * n, peak / n


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--bits", "8", "--seed", "random", "--n", "0"],
        ["netlist", "--bits", "8", "--simulate", "--seed", "random", "--n", "0"],
        ["analyze", "--bits", "8", "--seed", "random", "--n", "0"],
    ],
    ids=lambda argv: argv[0],
)
def test_bad_n_with_random_seed_is_one_line_error(argv, capsys):
    # n is checked before the random seed is echoed
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: need at least one step, got n=0"]
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv,warns",
    [
        pytest.param(["gen", "--n", "3"], True, id="gen"),
        pytest.param(["netlist", "--simulate", "--n", "3"], True, id="netlist"),
        pytest.param(["analyze", "--n", "64", "--tests", "entropy"], True, id="analyze"),
        pytest.param(["cycles"], False, id="cycles"),
    ],
)
@pytest.mark.parametrize(
    "flags,seed,step",
    [
        (["--bits", "8"], "0x00", 0),
        (["--bits", "8"], "0xFF", 1),
        (["--bits", "8", "--variant", "unperturbed"], "0xFF", 1),
        # at two bits every seed of the perturbed map drains to 0
        (["--bits", "2"], "0x1", 2),
        (["--bits", "2"], "0x2", 2),
    ],
)
def test_degenerate_seed_warning(tmp_path, monkeypatch, capsys, argv, warns, flags, seed, step):
    # the runs say at which step the orbit reaches 0; the cycle report does not
    monkeypatch.chdir(tmp_path)
    assert main([*argv, *flags, "--seed", seed]) == EXIT_OK
    warning = (f"warning: degenerate seed {seed} reaches the absorbing fixed point 0 "
               f"at step {step}; every state from there on is 0")
    assert (warning in capsys.readouterr().err.splitlines()) == warns


@pytest.mark.parametrize("flags", (["--bits", "8", "--seed", "0x5A"],
                                   ["--bits", "2", "--seed", "0x1", "--variant", "unperturbed"]))
def test_seed_that_avoids_zero_gives_no_warning(capsys, flags):
    assert main(["gen", *flags, "--n", "3"]) == EXIT_OK
    assert "warning" not in capsys.readouterr().err


def test_all_ones_seed_outputs_its_own_bit_first(capsys):
    # the seed is the first state, so its tap bit leads the zeros
    assert main(["gen", "--bits", "3", "--seed", "7", "--n", "3", "--tap", "lsb"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.split() == ["1", "0", "0", "0"]
    assert "reaches the absorbing fixed point 0 at step 1" in captured.err


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--bits", "1", "--seed", "0x0", "--n", "8"], "width must be in [2, 64], got 1"),
        (["--bits", "8", "--seed", "pi", "--n", "8"], "cannot parse seed 'pi'"),
        (["--bits", "8", "--seed", "0x100", "--n", "8"],
         "word 0x100 does not fit in 8 bits"),
        (["--bits", "8", "--seed", "0x40", "--n", "0"], "need at least one step, got n=0"),
    ],
    ids=("bits", "seed", "oversized-seed", "n"),
)
@pytest.mark.parametrize("tests", ("entropy", "spectral"))
def test_bad_analyze_flag_makes_no_out_dir(tmp_path, capsys, flags, message, tests):
    # the shared flags are checked before --tests and before the
    # directory is made
    out_dir = tmp_path / "report"
    argv = ["analyze", *flags, "--tests", tests, "--out-dir", str(out_dir)]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {message}"]
    assert captured.out == ""
    assert not out_dir.exists()


def child_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_python(*args):
    """A fresh interpreter with this checkout's src first on its path."""
    return subprocess.run(
        [sys.executable, *args], env=child_env(), capture_output=True, text=True, timeout=60
    )


def test_module_entry_point_runs_main():
    result = run_python(
        "-m", "tentbits.cli", "gen", "--bits", "4", "--seed", "0x8", "--n", "7",
        "--format", "hex",
    )
    assert result.returncode == EXIT_OK, result.stderr
    assert result.stdout.split("\n") == ["8", "E", "3", "6", "D", "5", "B", "8", ""]


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--bits", "8", "--seed", "5", "--n", "1000000"],
        ["gen", "--bits", "8", "--seed", "5", "--n", "10000000", "--format", "raw"],
        ["cycles", "--bits", "16", "--exhaustive"],
    ],
    ids=("gen", "gen-raw", "cycles"),
)
def test_reader_closing_the_pipe_is_not_an_error(argv):
    # as `| head -1` does: the first line (raw: the first byte) read, then
    # the pipe closed; the writer exits 128 + SIGPIPE and says nothing on
    # stderr
    with subprocess.Popen(
        [sys.executable, "-m", "tentbits.cli", *argv],
        env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.read(1) if "raw" in argv else proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE == 141
        assert proc.stderr.read() == b""


def test_cli_import_leaves_scipy_out():
    # every command pays for this import; scipy would be most of its time
    # and memory, and no command needs it
    result = run_python("-c", "import sys, tentbits.cli; print('scipy' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_usage_error_exits_2(capsys):
    assert main(["gen", "--bits", "8"]) == EXIT_USAGE  # missing required args


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
