"""Command-line front end.

Subcommands: `gen` writes a trajectory from the word model, `netlist`
inspects or simulates the gate-level circuit, `analyze` runs the
randomness/chaos tests and emits a JSON report plus CSVs, `cycles`
enumerates cycle structure, and `compare` prints the elements-per-bit
table against published generators.

Exit codes: 0 success, 2 usage, configuration or allocation error, 3 every
selected analysis failed, 141 (128 + SIGPIPE) the reader closed the pipe.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from . import columns, core, gf2

# analysis, netlist, json and secrets serve some commands only; each
# command imports what it runs, so `gen` never loads them (see the
# start-up section of README.md)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ALL_TESTS_FAILED = 3
EXIT_BROKEN_PIPE = 141

# Published element counts for tent-map generators; fixed reference
# constants, not reimplementations.
LITERATURE_ROWS = (
    ("Khani & Ahmadi (2013)", 10, 55),
    ("Sreenath & Narayanan (2018)", 32, 161),
    ("Sreenath & Narayanan (2018)", 64, 321),
)

# the largest --n: the states are indexed 0..n in the int64 csv index
MAX_N = np.iinfo(np.int64).max

# The run flags with the defaults `gen` gives them; `netlist` leaves
# each one None unless given.
RUN_DEFAULTS = {"seed": None, "n": None, "tap": "msb", "format": "bits", "out": "-"}
# The run flags each netlist mode reads; any other one is a usage error.
NETLIST_READS = {"stats": (), "export": ("out",), "simulate": tuple(RUN_DEFAULTS)}


def _seed_hex(args) -> str:
    return f"0x{args.seed:0{args.width.hex_digits}X}"


def _resolve(args) -> None:
    """Check the shared flags in place: set args.config and args.width and,
    when there is a seed to run, replace args.seed by its checked word.  A
    drawn 'random' seed is echoed once n is checked too."""
    args.config = core.MapConfig(args.bits, args.variant == "perturbed")
    args.width = args.config.width
    n = getattr(args, "n", 1)  # cycles takes no --n
    if args.seed is None or n is None:
        return
    drawn = args.seed.strip().lower() == "random"
    if drawn:
        import secrets

        args.seed = secrets.randbelow(args.width.max_word + 1)
    else:
        try:
            seed = int(args.seed, 0)
        except ValueError as exc:
            raise ValueError(f"cannot parse seed {args.seed!r}") from exc
        args.seed = core.check_word(seed, args.width)
    if n < 1:
        raise ValueError(f"need at least one step, got n={n}")
    if n > MAX_N:
        raise ValueError(f"need n at most 2**63 - 1, an int64 state index, got n={n}")
    if drawn:
        print(f"seed: {_seed_hex(args)}", file=sys.stderr)


def _warn_degenerate(args) -> None:
    step = core.steps_to_zero(args.config, args.seed)
    if step is not None:
        print(
            f"warning: degenerate seed {_seed_hex(args)} reaches the absorbing "
            f"fixed point 0 at step {step}; every state from there on is 0",
            file=sys.stderr,
        )


def _run_map(args) -> tuple[int, gf2.AffineMap]:
    """The run's first word and the GF(2) map that steps it: the loaded
    word and the map of one run cycle of the circuit (netlist backend), or
    the seed and core.step's map (word backend)."""
    if args.backend == "netlist":
        from . import netlist as nl

        return nl.run_map(nl.build_tent_netlist(args.config), args.seed)
    return args.seed, core.affine_map(args.config)


def _trajectory(args) -> Iterator[np.ndarray]:
    """The blocks --format writes, of columns.BLOCK_ROWS states each, the
    rows of every table block, the last one shorter: the tap bit of each
    state as uint8 for raw and bits, and the uint64 word for hex and csv.
    Each block goes on from the last state of the block before.

    The netlist backend takes _run_map's map before the caller opens its
    output, and streams blocks from it: the tap bits for raw and bits
    (AffineMap.bit_blocks), the words for hex and csv
    (AffineMap.word_blocks).  It holds two blocks, whatever n is.  The
    word backend stays on core.iterate, one call per block, so core.step
    runs n times, the count the benchmark's traced stream workload
    predicts; raw and bits tap each block with core.output_array.
    """
    tapped = args.format in ("raw", "bits")
    if args.backend == "netlist":
        first, cycle = _run_map(args)
        if tapped:
            shift = core.tap_shift(args.width, args.tap)
            return cycle.bit_blocks(first, args.n, shift, columns.BLOCK_ROWS)
        return cycle.word_blocks(first, args.n, columns.BLOCK_ROWS)
    blocks = _word_blocks(args.config, args.seed, args.n)
    if tapped:
        return (core.output_array(words, args.width, args.tap) for words in blocks)
    return blocks


def _word_blocks(config, seed: int, n: int) -> Iterator[np.ndarray]:
    # each list of ints is dropped once copied, so only one is ever alive
    words = np.array(core.iterate(config, seed, min(n, columns.BLOCK_ROWS - 1)), np.uint64)
    yield words
    for start in range(columns.BLOCK_ROWS, n + 1, columns.BLOCK_ROWS):
        # from the last word of the block before, which this block drops
        steps = min(columns.BLOCK_ROWS, n + 1 - start)
        words = np.array(core.iterate(config, int(words[-1]), steps)[1:], np.uint64)
        yield words


def _write_trajectory(blocks, args) -> None:
    """Write _trajectory's blocks to --out, opened once, one block at a
    time, each formatted in one pass.  The bytes do not depend on where
    the blocks end: the csv index runs on across them, and raw packs
    whole bytes, as columns.BLOCK_ROWS is a multiple of 8."""
    digits = args.width.hex_digits
    with columns.sink(args.out) as fh:
        if args.format == "csv":
            fh.write(b"index,word,value\n")
        start = 0
        for block in blocks:
            if args.format == "hex":
                columns.write_block(fh, [columns.hexadecimal(block, digits)])
            elif args.format == "csv":
                columns.write_block(fh, [
                    columns.decimal(start + np.arange(len(block))),
                    columns.hexadecimal(block, digits, prefix=b"0x"),
                    columns.floats(core.decode_series(block, args.width)),
                ])
            elif args.format == "raw":
                # tap bits, high bits first; the tail byte is zero-padded
                fh.write(np.packbits(block).tobytes())
            else:
                # bits: one ASCII "0" or "1" per line
                block += ord("0")
                columns.write_block(fh, [block[:, None]])
            start += len(block)


def cmd_gen(args) -> int:
    _resolve(args)
    if args.seed is None or args.n is None:  # netlist --simulate may lack them
        raise ValueError("--simulate needs --seed and --n")
    _warn_degenerate(args)
    _write_trajectory(_trajectory(args), args)
    return EXIT_OK


def cmd_netlist(args) -> int:
    modes = [mode for mode in NETLIST_READS if getattr(args, mode)]
    if len(modes) != 1:
        raise ValueError("choose one of --stats, --export, --simulate")
    for flag, default in RUN_DEFAULTS.items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
        elif flag not in NETLIST_READS[modes[0]]:
            raise ValueError(f"--{modes[0]} does not take --{flag}")
    if args.simulate:
        return cmd_gen(args)
    _resolve(args)
    from . import netlist as nl

    circuit = nl.build_tent_netlist(args.config)
    if args.stats:
        print(nl.element_stats(circuit).describe())
    else:
        with columns.sink(args.out) as fh:
            fh.write(nl.export_text(circuit).encode("ascii"))
    return EXIT_OK


def _analyze_entropy(bits, values, out_dir: Path, args) -> dict:
    from . import analysis

    counts = np.bincount(bits, minlength=2).tolist()
    result = analysis.shannon_entropy(counts)
    entry = {
        "test": "entropy",
        "parameters": {"tap": args.tap, "symbols": 2, "bits": len(bits)},
        "value": result.h,
        "details": {"bit_counts": counts},
    }
    # value-distribution entropy over 64 bins, reported alongside
    hist = analysis.histogram(values, 64)
    entry["details"]["value_entropy_64bin"] = analysis.shannon_entropy(hist.counts).h
    return entry


def _analyze_autocorr(bits, values, out_dir: Path, args) -> dict:
    from . import analysis

    series = bits if args.autocorr_series == "bits" else values
    result = analysis.autocorrelation(series, args.max_lag)
    analysis.write_autocorrelation_csv(result, out_dir / "autocorr.csv")
    peak = float(np.abs(result.r[1:]).max())
    return {
        "test": "autocorr",
        "parameters": {"max_lag": args.max_lag, "series": args.autocorr_series},
        "value": peak,
        "details": {"r0": float(result.r[0])},
        "csv_files": ["autocorr.csv"],
    }


def _analyze_lyapunov(bits, values, out_dir: Path, args) -> dict:
    from . import analysis

    params = {"embed_dim": 2, "delay": 1, "theiler_window": 10, "max_steps": 12}
    estimate = analysis.lyapunov_rosenstein(values, **params)
    analysis.write_divergence_csv(estimate, out_dir / "divergence.csv")
    return {
        "test": "lyapunov",
        "parameters": {**params, "fit_range": list(estimate.fit_range)},
        "value": estimate.exponent,
        "details": {
            "neighbor_count": estimate.neighbor_count,
            # the slope-2 tent map stretches by 2 at every point but one
            "analytic": math.log(2),
        },
        "csv_files": ["divergence.csv"],
    }


def _analyze_histogram(bits, values, out_dir: Path, args) -> dict:
    from . import analysis

    result = analysis.histogram(values, args.bins)
    analysis.write_histogram_csv(result, out_dir / "histogram.csv")
    return {
        "test": "histogram",
        "parameters": {"bins": args.bins},
        "value": result.chi_square,
        "details": {
            "expected": result.expected,
            "min_count": int(result.counts.min()),
            "max_count": int(result.counts.max()),
        },
        "csv_files": ["histogram.csv"],
    }


def _analyze_return_map(bits, values, out_dir: Path, args) -> dict:
    from . import analysis

    pairs = analysis.first_return_pairs(values)
    analysis.write_return_map_csv(values, out_dir / "return_map.csv")
    deviation = np.abs(pairs[:, 1] - core.tent_exact(pairs[:, 0])).max()
    return {
        "test": "return-map",
        "parameters": {},
        "value": len(pairs),
        "details": {"max_tent_deviation": float(deviation)},
        "csv_files": ["return_map.csv"],
    }


# Report order and the `--tests` default follow this table.
ANALYZE_TESTS = {
    "entropy": _analyze_entropy,
    "autocorr": _analyze_autocorr,
    "lyapunov": _analyze_lyapunov,
    "histogram": _analyze_histogram,
    "return-map": _analyze_return_map,
}


def cmd_analyze(args) -> int:
    import json

    from . import analysis

    _resolve(args)
    _warn_degenerate(args)
    tests = [t.strip() for t in args.tests.split(",") if t.strip()]
    if not tests:
        raise ValueError("no tests selected")
    for i, name in enumerate(tests):
        if name not in ANALYZE_TESTS:
            raise ValueError(
                f"unknown test {name!r}; choose from {', '.join(ANALYZE_TESTS)}"
            )
        if name in tests[:i]:
            raise ValueError(f"test {name!r} is named twice")
    if args.bins < 2:
        raise ValueError(f"--bins must be at least 2, got {args.bins}")
    if args.max_lag < 1:
        raise ValueError(f"--max-lag must be at least 1, got {args.max_lag}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    first, f = _run_map(args)
    words = f.orbit_array(first, args.n)[1:]  # n states; the seed is echoed below
    bits = core.output_array(words, args.width, args.tap)
    values = core.decode_series(words, args.width)

    entries = []
    failures = 0
    for name in tests:
        try:
            entry = ANALYZE_TESTS[name](bits, values, out_dir, args)
        except (ValueError, analysis.EstimationError) as exc:
            entry = {"test": name, "error": str(exc)}
            failures += 1
        entries.append(entry)

    report = {
        "width": args.width.k,
        "seed": _seed_hex(args),
        "variant": args.variant,
        "backend": args.backend,
        "n": args.n,
        "tap": args.tap,
        "tests": entries,
    }
    report_path = out_dir / "report.json"
    with columns.sink(report_path) as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True).encode("ascii") + b"\n")
    print(f"report: {report_path}")
    return EXIT_ALL_TESTS_FAILED if failures == len(tests) else EXIT_OK


def cmd_cycles(args) -> int:
    if (args.seed is not None) == args.exhaustive:
        raise ValueError("pass one of --seed WORD and --exhaustive")
    _resolve(args)
    from . import analysis

    if args.seed is not None:
        row = (args.seed, *analysis.cycle_detect(args.config, args.seed))
        table = analysis.CycleTable(*(np.array([value]) for value in row))
    else:
        table = analysis.cycle_table(args.config)

    analysis.write_cycle_reports_csv(table, args.width, args.out)

    census = analysis.CycleCensus.of(table)
    summary = [
        f"seeds: {census.seeds}",
        f"mean period: {census.mean_period:.3f}",
        f"max period: {census.max_period}",
        f"zero-reaching seeds: {census.zero_reaching}",
    ]
    print("\n".join(summary), file=sys.stderr)
    return EXIT_OK


def _ratio(elements: int, bits: int) -> str:
    """elements / bits to three decimals, halves rounded up, in integers."""
    whole, thousandths = divmod((2000 * elements + bits) // (2 * bits), 1000)
    return f"{whole}.{thousandths:03d}"


def cmd_compare(args) -> int:
    from . import netlist as nl

    rows = []
    for bits in args.widths:
        circuit = nl.build_tent_netlist(core.MapConfig(bits))
        rows.append(("this work", bits, nl.element_stats(circuit).total))
    rows.extend(LITERATURE_ROWS)
    print(f"{'source':<28} {'bits':>5} {'elements':>9} {'ratio':>7}")
    for source, bits, elements in rows:
        print(f"{source:<28} {bits:>5} {elements:>9} {_ratio(elements, bits):>7}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one in the process; callers must not mutate it or its defaults."""
    parser = argparse.ArgumentParser(
        prog="tentbits",
        description="Tent-map pseudo-random bit generator in polarized fixed point",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared_args(p, run=True, required=True, with_format=True):
        # not required, each run flag is None unless given
        default = RUN_DEFAULTS if required else dict.fromkeys(RUN_DEFAULTS)
        p.add_argument("--bits", type=int, required=True, help="register width k")
        if run:
            p.add_argument("--seed", required=required,
                           help="seed word (int literal or 'random')")
            p.add_argument("--n", type=int, required=required, help="number of map steps")
        p.add_argument(
            "--variant",
            choices=("perturbed", "unperturbed"),
            default="perturbed",
            help="serial-bit perturbation on (default) or off",
        )
        if not run:
            return
        p.add_argument("--tap", choices=("msb", "lsb"), default=default["tap"],
                       help="which state bit is the binary output (default msb)")
        if with_format:
            p.add_argument(
                "--format",
                choices=("bits", "hex", "csv", "raw"),
                default=default["format"],
                help="output encoding (default bits)",
            )
            p.add_argument("--out", default=default["out"],
                           help="output path, '-' for stdout")

    p_gen = sub.add_parser("gen", help="generate a trajectory from the word model")
    add_shared_args(p_gen)
    p_gen.set_defaults(func=cmd_gen, backend="word")

    p_net = sub.add_parser("netlist", help="inspect or simulate the circuit model")
    add_shared_args(p_net, required=False)
    p_net.add_argument("--stats", action="store_true", help="print the element census")
    p_net.add_argument("--export", action="store_true",
                       help="write the text netlist to --out")
    p_net.add_argument("--simulate", action="store_true",
                       help="run the gate-level simulation (needs --seed/--n)")
    p_net.set_defaults(func=cmd_netlist, backend="netlist")

    p_ana = sub.add_parser("analyze", help="run randomness/chaos tests")
    add_shared_args(p_ana, with_format=False)
    p_ana.add_argument(
        "--tests",
        default=",".join(ANALYZE_TESTS),
        help="comma-separated subset of: " + ", ".join(ANALYZE_TESTS),
    )
    p_ana.add_argument("--backend", choices=("word", "netlist"), default="word")
    p_ana.add_argument("--bins", type=int, default=64, help="histogram bins")
    p_ana.add_argument("--max-lag", type=int, default=100, dest="max_lag")
    p_ana.add_argument(
        "--autocorr-series",
        choices=("bits", "values"),
        default="bits",
        dest="autocorr_series",
        help="autocorrelate the binary output (default) or the decoded values",
    )
    p_ana.add_argument("--out-dir", default=".", dest="out_dir")
    p_ana.set_defaults(func=cmd_analyze)

    p_cyc = sub.add_parser("cycles", help="cycle structure of the finite state space")
    add_shared_args(p_cyc, run=False)
    p_cyc.add_argument("--seed", default=None, help="report a single orbit")
    p_cyc.add_argument("--exhaustive", action="store_true",
                       help="sweep every seed (k <= 20)")
    p_cyc.add_argument("--out", default="-", help="CSV path, '-' for stdout")
    p_cyc.set_defaults(func=cmd_cycles)

    p_cmp = sub.add_parser("compare", help="elements-per-bit table vs. literature")
    p_cmp.add_argument("widths", nargs="*", type=int, default=(16, 32, 64))
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except BrokenPipeError:
        # not bad input; stdout goes to devnull so the exit flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def cli_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli_main()
