"""Byte oracles for every CSV and the hex, bits and raw listings the package writes.

The references below are the row-at-a-time writers the column-wise
`tentbits.columns` replaced: `csv.writer` over Python rows for the
analysis CSVs, one f-string per word for `gen --format csv|hex` and
one per output bit for `--format bits`; `--format raw` is the output
bits packed high bit first.  Every writer must emit exactly their bytes.
"""

import csv
import random
import sys
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tentbits import analysis, columns
from tentbits.analysis import (
    CycleTable,
    LyapunovEstimate,
    autocorrelation,
    cycle_detect,
    cycle_table,
    first_return_pairs,
    histogram,
    lyapunov_rosenstein,
)
from tentbits.cli import EXIT_OK, main
from tentbits.core import BitWidth, MapConfig, decode_series, iterate, output_array


def reference_csv(path, header, rows) -> None:
    with nullcontext(sys.stdout) if path == "-" else open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def reference_histogram(result, path) -> None:
    rows = ([b, int(count)] for b, count in enumerate(result.counts))
    reference_csv(path, ["bin", "count"], rows)


def reference_autocorrelation(result, path) -> None:
    rows = ([int(lag), float(value)] for lag, value in zip(result.lags, result.r))
    reference_csv(path, ["lag", "r"], rows)


def reference_divergence(estimate, path) -> None:
    rows = ([int(s), float(value)] for s, value in zip(estimate.steps, estimate.curve))
    reference_csv(path, ["step", "mean_log_divergence"], rows)


def reference_return_map(pairs, path) -> None:
    rows = ([float(x), float(x_next)] for x, x_next in pairs)
    reference_csv(path, ["x_n", "x_next"], rows)


def reference_cycle_reports(table, width, path) -> None:
    seeds = map(f"0x%0{BitWidth(width).hex_digits}X".__mod__, table.seed.tolist())
    flags = map(("false", "true").__getitem__, table.reaches_zero.tolist())
    rows = zip(seeds, table.transient.tolist(), table.period.tolist(), flags)
    reference_csv(path, ["seed", "transient", "period", "reaches_zero"], rows)


def reference_trajectory(words, k: int, fmt: str, tap: str = "msb") -> bytes:
    digits = BitWidth(k).hex_digits
    if fmt == "raw":
        return np.packbits(output_array(words, k, tap)).tobytes()
    if fmt == "hex":
        return "".join(f"{w:0{digits}X}\n" for w in words).encode()
    if fmt == "bits":
        return "".join(f"{b}\n" for b in output_array(words, k, tap)).encode()
    # Python's int division, independent of decode_series
    m = BitWidth(k).max_word
    lines = ["index,word,value"]
    for i, w in enumerate(words):
        lines.append(f"{i},0x{w:0{digits}X},{w / m!r}")
    return ("\n".join(lines) + "\n").encode()


def assert_same_bytes(tmp_path, write, reference, *args):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write(*args, got)
    reference(*args, want)
    assert got.read_bytes() == want.read_bytes()


def assert_same_return_map(tmp_path, series):
    # the writer takes the series, the reference its consecutive pairs
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    analysis.write_return_map_csv(series, got)
    reference_return_map(first_return_pairs(series) if len(series) > 1 else [], want)
    assert got.read_bytes() == want.read_bytes()


VARIANTS = pytest.mark.parametrize("perturbed", (True, False), ids=("pert", "unpert"))


class TestCycleReports:
    @VARIANTS
    @pytest.mark.parametrize("k", [*range(2, 13), 18, 20])
    def test_census_tables(self, tmp_path, k, perturbed):
        assert_same_bytes(
            tmp_path,
            analysis.write_cycle_reports_csv,
            reference_cycle_reports,
            cycle_table(MapConfig(k, perturbed)),
            k,
        )

    @VARIANTS
    @pytest.mark.parametrize(
        "k, seed", [(2, 0x3), (12, 0x5A3), (64, 0), (64, (1 << 64) - 1)]
    )
    def test_one_row_seed_table(self, tmp_path, k, seed, perturbed):
        # built as `cycles --seed` builds it: one array per column
        row = (seed, *cycle_detect(MapConfig(width=k, perturbed=perturbed), seed))
        table = CycleTable(*(np.array([value]) for value in row))
        assert_same_bytes(
            tmp_path,
            analysis.write_cycle_reports_csv,
            reference_cycle_reports,
            table,
            k,
        )

    def test_table_over_several_blocks(self, tmp_path):
        # 3 table blocks and 5 rows, of 64-bit seeds
        rows = 3 * columns.BLOCK_ROWS + 5
        rng = np.random.default_rng(63)
        table = CycleTable(
            seed=rng.integers(0, 1 << 64, rows, dtype=np.uint64, endpoint=False),
            transient=rng.integers(0, 1 << 40, rows),
            period=rng.integers(1, 1 << 20, rows),
            reaches_zero=rng.random(rows) < 0.5,
        )
        analysis.write_cycle_reports_csv(table, 64, tmp_path / "cycles.csv")
        want = "".join(
            f"0x{seed:016X},{transient},{period},{str(zero).lower()}\n"
            for seed, transient, period, zero in zip(
                table.seed.tolist(), table.transient.tolist(),
                table.period.tolist(), table.reaches_zero.tolist(),
            )
        )
        text = (tmp_path / "cycles.csv").read_text()
        assert text == "seed,transient,period,reaches_zero\n" + want

    def test_seeds_straddling_two_to_the_63(self, tmp_path):
        table = CycleTable(
            seed=np.array([5, (1 << 64) - 1], dtype=np.uint64),
            transient=np.array([0, 1]),
            period=np.array([1, 1]),
            reaches_zero=np.array([False, True]),
        )
        assert_same_bytes(
            tmp_path,
            analysis.write_cycle_reports_csv,
            reference_cycle_reports,
            table,
            64,
        )


class TestAnalysisCsvs:
    def test_histogram_with_empty_bins(self, tmp_path):
        result = histogram([0.0, 0.05, 0.05, 0.5, 1.0], bins=64)
        assert (result.counts == 0).sum() > 50
        assert_same_bytes(tmp_path, analysis.write_histogram_csv, reference_histogram, result)

    @pytest.mark.parametrize("k", (8, 32))
    def test_autocorrelation_of_values(self, tmp_path, k):
        values = decode_series(iterate(MapConfig(width=k), 0x5A, 4096)[1:], k)
        result = autocorrelation(values, 100)
        assert (result.r < 0).any()
        assert_same_bytes(
            tmp_path, analysis.write_autocorrelation_csv, reference_autocorrelation, result
        )

    def test_divergence_curves(self, tmp_path):
        values = decode_series(iterate(MapConfig(width=16), 0x5A3C, 2000)[1:], 16)
        estimate = lyapunov_rosenstein(values)
        assert_same_bytes(
            tmp_path, analysis.write_divergence_csv, reference_divergence, estimate
        )
        curve = estimate.curve.copy()
        curve[[0, 5, 12]] = np.nan
        curve[3] = -curve[3]
        with_nan = LyapunovEstimate(0.5, (1, 8), 10, estimate.steps, curve)
        assert_same_bytes(
            tmp_path, analysis.write_divergence_csv, reference_divergence, with_nan
        )

    @pytest.mark.parametrize("k", (3, 8, 32, 64))
    def test_return_maps(self, tmp_path, k):
        m = (1 << k) - 1
        words = [m, 0, 1, m - 1, *iterate(MapConfig(width=k), 0x5 % m, 3000), m, 0]
        values = decode_series(words, k)
        assert 0.0 in values and 1.0 in values
        for series in (values, values[:2]):
            assert_same_return_map(tmp_path, series)

    def test_return_map_across_blocks(self, tmp_path):
        # rows on and around the edges of the table blocks, so x_next of
        # a block's last row is the first value of the next block
        block = columns.BLOCK_ROWS
        values = decode_series(iterate(MapConfig(width=32), 0x12345678, 3 * block + 6)[1:], 32)
        for rows in (block - 1, block, block + 1, 3 * block + 5):
            series = values[: rows + 1].tolist()
            analysis.write_return_map_csv(values[: rows + 1], tmp_path / "rm.csv")
            want = "".join(f"{x!r},{y!r}\n" for x, y in zip(series, series[1:]))
            assert (tmp_path / "rm.csv").read_text() == "x_n,x_next\n" + want, rows

    def test_return_map_block_is_one_formatter_pass(self, tmp_path, monkeypatch):
        # a table block's BLOCK_ROWS rows need BLOCK_ROWS + 1 values, one
        # pass of columns.floats: 8 passes for 8 blocks, not 15
        passes = []
        positional = columns._positional

        def counted(xs, out):
            passes.append(len(xs))
            return positional(xs, out)

        monkeypatch.setattr(columns, "_positional", counted)
        values = np.random.default_rng(8).random(1 << 16)
        analysis.write_return_map_csv(values, tmp_path / "rm.csv")
        assert passes == [columns.BLOCK_ROWS + 1] * 7 + [columns.BLOCK_ROWS]

    @pytest.mark.parametrize(
        "series",
        [
            [0.5, 0.0, -0.0, 1.0],  # equal under ==, not bit for bit
            [0.25, float("nan"), float("inf"), -float("inf"), 0.75],
        ],
        ids=("signed-zero", "nan"),
    )
    def test_return_map_of_any_pairs(self, tmp_path, series):
        assert_same_return_map(tmp_path, series)

    def test_return_map_mixing_both_float_paths(self, tmp_path):
        # rows that repr prints with and without an exponent, in one block
        series = [0.5, 0.0, 1e-5, 0.3, float("nan"), -0.25, 1e20, 5e-324, 123.456,
                  -1e-4, 9999999999999998.0, 1e16, -float("inf"), 0.1, -0.0, 2.0**-20]
        assert_same_return_map(tmp_path, series)

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40))
    @example([0.3])
    def test_return_map_of_any_series(self, tmp_path_factory, series):
        assert_same_return_map(tmp_path_factory.mktemp("series"), series)

    def test_stdout_equals_file(self, tmp_path, capsys):
        values = decode_series(iterate(MapConfig(width=12), 0x5A3, 3000)[1:], 12)
        cases = [
            (analysis.write_histogram_csv, histogram(values, 16)),
            (analysis.write_autocorrelation_csv, autocorrelation(values, 20)),
            (analysis.write_divergence_csv, lyapunov_rosenstein(values)),
            (analysis.write_return_map_csv, values),
        ]
        for write, result in cases:
            write(result, tmp_path / "out.csv")
            write(result, "-")
            assert capsys.readouterr().out.encode() == (tmp_path / "out.csv").read_bytes()
        table = cycle_table(MapConfig(12))
        analysis.write_cycle_reports_csv(table, 12, tmp_path / "out.csv")
        analysis.write_cycle_reports_csv(table, 12, "-")
        assert capsys.readouterr().out.encode() == (tmp_path / "out.csv").read_bytes()


def float_rows(text) -> list[bytes]:
    """The rows of a columns.floats matrix with their NUL bytes dropped."""
    table = np.concatenate([text, np.full((len(text), 1), ord("\n"), np.uint8)], axis=1)
    return table[table != 0].tobytes().split(b"\n")[:-1]


def powers_of_two():
    return np.ldexp(1.0, np.arange(-1074, 1024))


class TestFloats:
    """Every row of columns.floats holds the bytes repr prints."""

    @staticmethod
    def assert_reprs(values):
        xs = np.asarray(values, dtype=float)
        for start in range(0, len(xs), columns.BLOCK_ROWS):
            block = xs[start : start + columns.BLOCK_ROWS]
            text = columns.floats(block)
            assert text.dtype == np.uint8 and text.shape[0] == len(block)
            assert float_rows(text) == [repr(x).encode() for x in block.tolist()]

    @given(st.lists(st.integers(0, (1 << 64) - 1), max_size=50))
    def test_any_bit_pattern(self, patterns):
        self.assert_reprs(np.array(patterns, dtype=np.uint64).view(np.float64))

    @given(st.lists(st.floats(), max_size=50))
    def test_any_float(self, values):
        self.assert_reprs(values)

    def test_every_power_of_two_and_its_neighbours(self):
        # exhaustive for the narrower lower gap of c = 2**52 that the
        # formatter treats as regular
        p = powers_of_two()
        values = np.concatenate([p, np.nextafter(p, 0), np.nextafter(p, np.inf)])
        self.assert_reprs(np.concatenate([values, -values]))

    def test_edges_of_the_positional_range(self):
        values = []
        for edge in (1e-4, 1e16):
            below = above = edge
            for _ in range(3):
                below, above = np.nextafter(below, 0), np.nextafter(above, np.inf)
                values += [below, above]
            values.append(edge)
        self.assert_reprs(values + [-v for v in values])

    def test_integers_near_two_to_the_53(self):
        ints = [(1 << 53) + i for i in range(-40, 41)] + [(1 << 52) + i for i in range(-9, 10)]
        ints += [10**15 + i for i in range(-9, 10)] + [10**16 - 2, 10**16 - 4]
        self.assert_reprs([float(i) for i in ints] + [-float(i) for i in ints])

    def test_ties_go_to_even(self):
        # n + 1/4 and n + 3/4 are exact below 2**51, and each lies halfway
        # between two 17-digit decimals that both round to it
        values = [n + f for n in range(10**15, 10**15 + 50) for f in (0.25, 0.75)]
        values += [n + f for n in range(2**51 - 50, 2**51) for f in (0.25, 0.75)]
        assert {repr(v)[-1] for v in values} == {"2", "8"}
        self.assert_reprs(values)

    def test_decimal_families(self):
        mantissas = ("1", "5", "9", "12345", "7.0000000000000001", "9007199254740993")
        self.assert_reprs([float(f"{m}e{e}") for m in mantissas for e in range(-330, 310)])

    def test_special_values(self):
        nan = float("nan")
        self.assert_reprs([0.0, -0.0, nan, -nan, float("inf"), -float("inf"), 5e-324])

    def test_empty(self):
        text = columns.floats(np.array([]))
        assert text.dtype == np.uint8 and text.shape[0] == 0

    def test_widest_rows_of_one_pass(self):
        # one pass over 3 blocks' values: the widest digits anywhere in it
        # set every row's columns, and each row still reads as its repr
        values = np.full(3 * columns.BLOCK_ROWS, 0.5)
        values[5] = 0.12345678901234568
        values[columns.BLOCK_ROWS + 7] = -123456789012345.6
        values[2 * columns.BLOCK_ROWS + 9] = 1e-300
        text = columns.floats(values)
        assert text.shape[0] == len(values)
        assert float_rows(text) == [repr(x).encode() for x in values.tolist()]

    @pytest.mark.parametrize("k", (8, 32, 53, 64))
    def test_decoded_words(self, k):
        rng = np.random.default_rng(k)
        words = rng.integers(0, (1 << k) - 1, 1 << 16, dtype=np.uint64, endpoint=True)
        self.assert_reprs(decode_series(words, k))

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20)
        patterns = rng.integers(0, 1 << 64, 10**6, dtype=np.uint64, endpoint=False)
        self.assert_reprs(patterns.view(np.float64))

    def test_random_positional_floats(self):
        # random bit patterns hold few positional floats: draw exponents
        # of 1e-4 .. 1e16 and both signs
        rng = np.random.default_rng(21)
        patterns = rng.integers(0, 1 << 64, 10**6, dtype=np.uint64, endpoint=False)
        exponent = rng.integers(1023 - 14, 1023 + 54, 10**6).astype(np.uint64)
        patterns &= np.uint64(0x800F_FFFF_FFFF_FFFF)
        patterns |= exponent << np.uint64(52)
        self.assert_reprs(patterns.view(np.float64))


class TestDigits:
    EDGES = [0, 1, 9, 10, 15, 16, 99, 100, (1 << 63) - 1, 1 << 63, (1 << 64) - 1]

    @given(st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=50))
    def test_exact_for_every_uint64(self, values):
        values = self.EDGES + values
        array = np.array(values, dtype=np.uint64)
        text = columns.decimal(array)
        assert [bytes(row).replace(b"\0", b"") for row in text] == [
            str(v).encode() for v in values
        ]
        text = columns.hexadecimal(array, 16, prefix=b"0x")
        assert [bytes(row) for row in text] == [f"0x{v:016X}".encode() for v in values]

    @staticmethod
    def assert_exact(array, hex_width):
        values = [int(v) for v in array]
        text = columns.decimal(array)
        assert [bytes(row).replace(b"\0", b"") for row in text] == [
            str(v).encode() for v in values
        ]
        text = columns.hexadecimal(array, hex_width)
        assert text.shape == (len(values), hex_width)
        assert [bytes(row) for row in text] == [
            f"{v:0{hex_width}X}".encode() for v in values
        ]

    # a column whose largest value is below 2**32 takes 32-bit words, with
    # hex digits past the eighth all leading zeros
    @given(st.lists(st.integers(0, (1 << 32) - 1), max_size=50),
           st.sampled_from((8, 9, 16, 20)))
    def test_exact_below_two_to_the_32(self, values, hex_width):
        self.assert_exact(np.array(values, dtype=np.uint64), hex_width)

    @pytest.mark.parametrize("top", ((1 << 32) - 1, 1 << 32, (1 << 64) - 1))
    @pytest.mark.parametrize("hex_width", (16, 20))
    def test_exact_at_the_word_edges(self, top, hex_width):
        values = [0, 1, 9, 10, 15, 16, (1 << 32) - 2, top - 1, top]
        self.assert_exact(np.array(values, dtype=np.uint64), hex_width)

    @pytest.mark.parametrize("top", ((1 << 32) - 1, 1 << 32, (1 << 63) - 1))
    def test_exact_for_int64(self, top):
        values = [7, 0, 10**9, top, 99, 1 << 31]
        self.assert_exact(np.array(values, dtype=np.int64), 16)

    @pytest.mark.parametrize("dtype", (np.uint64, np.int64, np.intp))
    def test_empty_column(self, dtype):
        self.assert_exact(np.array([], dtype=dtype), 5)

    def test_rejects_what_str_would_not_print_as_digits(self):
        with pytest.raises(ValueError, match="negative"):
            columns.decimal(np.array([3, -1]))
        with pytest.raises(TypeError, match="integer column"):
            columns.decimal(np.array([1.0]))


class TestCliListings:
    @VARIANTS
    @pytest.mark.parametrize("k", range(2, 65))
    def test_gen_and_simulate(self, tmp_path, capsysbinary, k, perturbed):
        variant = "perturbed" if perturbed else "unperturbed"
        m = (1 << k) - 1
        for seed in (0, m, random.Random(k).randrange(1, m)):
            words = iterate(MapConfig(width=k, perturbed=perturbed), seed, 20)
            for fmt in ("csv", "hex", "bits", "raw"):
                want = reference_trajectory(words, k, fmt)
                for command in (["gen"], ["netlist", "--simulate"]):
                    argv = [*command, "--bits", str(k), "--seed", hex(seed), "--n", "20",
                            "--variant", variant, "--format", fmt]
                    assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_OK
                    assert (tmp_path / "out").read_bytes() == want
                    assert main(argv) == EXIT_OK
                    assert capsysbinary.readouterr().out == want

    @pytest.mark.parametrize("fmt", ("csv", "hex", "bits", "raw"))
    def test_gen_across_blocks(self, tmp_path, fmt):
        # n + 1 states on and around the block edges, from a seed whose
        # orbit spans them and from one in a 7-cycle, shorter than a block
        block = columns.BLOCK_ROWS
        out = tmp_path / "out"
        for k, seed in ((64, 0x123456789ABCDEF), (4, 0x8)):
            words = iterate(MapConfig(width=k), seed, 2 * block)
            for n in (block - 2, block - 1, block, 2 * block):
                for tap in ("msb", "lsb"):
                    if tap == "msb" or fmt in ("bits", "raw"):  # csv and hex show no tap
                        want = reference_trajectory(words[: n + 1], k, fmt, tap)
                    for command in (["gen"], ["netlist", "--simulate"]):
                        argv = [*command, "--bits", str(k), "--seed", hex(seed),
                                "--n", str(n), "--tap", tap, "--format", fmt]
                        assert main([*argv, "--out", str(out)]) == EXIT_OK
                        assert out.read_bytes() == want, argv
