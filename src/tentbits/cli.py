"""Command-line front end.

Subcommands: `gen` writes a trajectory from the word model, `netlist`
inspects or simulates the gate-level circuit, `analyze` runs the
randomness/chaos tests and emits a JSON report plus CSVs, `cycles`
enumerates cycle structure, and `compare` prints the elements-per-bit
table against published generators.

Exit codes: 0 success, 2 usage or configuration error, 3 every selected
analysis failed.
"""

from __future__ import annotations

import argparse
import json
import math
import secrets
import sys
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import numpy as np

from . import analysis, columns, core, netlist as nl

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ALL_TESTS_FAILED = 3

# Published element counts for tent-map generators; fixed reference
# constants, not reimplementations.
LITERATURE_ROWS = (
    ("Khani & Ahmadi (2013)", 10, 55),
    ("Sreenath & Narayanan (2018)", 32, 161),
    ("Sreenath & Narayanan (2018)", 64, 321),
)


@dataclass(frozen=True)
class RunSpec:
    """A resolved generation request; the seed is always explicit here."""

    width: core.BitWidth
    seed: int
    n: int
    perturbed: bool
    backend: str = "word"
    fmt: str = "bits"
    tap: str = "msb"

    @property
    def seed_hex(self) -> str:
        return f"0x{self.seed:0{self.width.hex_digits}X}"


def _parse_seed(text: str, width: core.BitWidth) -> tuple[int, bool]:
    """Resolve a seed argument; returns (seed, was_random)."""
    if text.strip().lower() == "random":
        return secrets.randbelow(width.max_word + 1), True
    try:
        seed = int(text, 0)
    except ValueError as exc:
        raise ValueError(f"cannot parse seed {text!r}") from exc
    return core.check_word(seed, width), False


def _resolve_spec(args) -> RunSpec:
    width = core.BitWidth(args.bits)
    seed, was_random = _parse_seed(args.seed, width)
    if args.n < 1:
        raise ValueError(f"need at least one step, got n={args.n}")
    spec = RunSpec(
        width=width,
        seed=seed,
        n=args.n,
        perturbed=args.variant == "perturbed",
        backend=args.backend,
        fmt=getattr(args, "format", "bits"),
        tap=args.tap,
    )
    if was_random:
        print(f"seed: {spec.seed_hex}", file=sys.stderr)
    return spec


def _warn_degenerate(spec: RunSpec) -> None:
    if core.is_degenerate_seed(spec.seed, spec.width):
        print(
            f"warning: degenerate seed {spec.seed_hex} sits on the absorbing "
            "fixed point; the output is constant",
            file=sys.stderr,
        )


def _trajectory(spec: RunSpec, circuit: nl.Netlist | None = None):
    """The spec's trajectory: a list of ints from the word model, or the
    uint64 array that netlist.run returns for the netlist backend, which
    clocks `circuit`, built from the spec when not given."""
    if spec.backend == "netlist":
        if circuit is None:
            circuit = nl.build_tent_netlist(spec.width, perturbed=spec.perturbed)
        return nl.run(circuit, spec.seed, spec.n)
    config = core.MapConfig(width=spec.width, perturbed=spec.perturbed)
    return core.iterate(config, spec.seed, spec.n)


def _write_trajectory(words, spec: RunSpec, out: str) -> None:
    digits = spec.width.hex_digits
    if spec.fmt == "hex":
        array = np.asarray(words, dtype=np.uint64)
        columns.write(out, None, len(words), lambda rows: [
            columns.hexadecimal(array[rows], digits),
        ])
        return
    if spec.fmt == "csv":
        array = np.asarray(words, dtype=np.uint64)
        values = core.decode_series(words, spec.width)
        columns.write(out, ["index", "word", "value"], len(words), lambda rows: [
            columns.decimal(np.arange(rows.start, rows.stop)),
            columns.hexadecimal(array[rows], digits, prefix=b"0x"),
            columns.floats(values[rows]),
        ])
        return
    bits = core.output_array(words, spec.width, spec.tap)
    if spec.fmt == "raw":
        # high bits first; the tail byte is zero-padded
        payload = np.packbits(bits).tobytes()
        if out == "-":
            sys.stdout.buffer.write(payload)
        else:
            Path(out).write_bytes(payload)
        return
    # bits: one ASCII "0\n" or "1\n" per bit
    bits += ord("0")
    lines = np.column_stack((bits, np.full_like(bits, ord("\n"))))
    text = lines.tobytes().decode("ascii")
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def cmd_gen(args, circuit: nl.Netlist | None = None) -> int:
    spec = _resolve_spec(args)
    _warn_degenerate(spec)
    words = _trajectory(spec, circuit)
    _write_trajectory(words, spec, args.out)
    return EXIT_OK


def cmd_netlist(args) -> int:
    width = core.BitWidth(args.bits)
    perturbed = args.variant == "perturbed"
    circuit = nl.build_tent_netlist(width, perturbed=perturbed)
    if args.stats:
        print(nl.element_stats(circuit).describe())
        return EXIT_OK
    if args.export:
        text = nl.export_text(circuit)
        if args.out == "-":
            sys.stdout.write(text)
        else:
            Path(args.out).write_text(text)
        return EXIT_OK
    if args.simulate:
        if args.seed is None or args.n is None:
            raise ValueError("--simulate needs --seed and --n")
        return cmd_gen(args, circuit)
    raise ValueError("choose one of --stats, --export, --simulate")


def _analyze_entropy(spec: RunSpec, bits, values, out_dir: Path, args) -> dict:
    counts = np.bincount(bits, minlength=2).tolist()
    result = analysis.shannon_entropy(counts)
    entry = {
        "test": "entropy",
        "parameters": {"tap": spec.tap, "symbols": 2, "bits": len(bits)},
        "value": result.h,
        "details": {"bit_counts": counts},
    }
    # value-distribution entropy over 64 bins, reported alongside
    hist = analysis.histogram(values, 64)
    entry["details"]["value_entropy_64bin"] = analysis.shannon_entropy(hist.counts).h
    return entry


def _analyze_autocorr(spec: RunSpec, bits, values, out_dir: Path, args) -> dict:
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


def _analyze_lyapunov(spec: RunSpec, bits, values, out_dir: Path, args) -> dict:
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


def _analyze_histogram(spec: RunSpec, bits, values, out_dir: Path, args) -> dict:
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


def _analyze_return_map(spec: RunSpec, bits, values, out_dir: Path, args) -> dict:
    pairs = analysis.first_return_pairs(values)
    analysis.write_return_map_csv(pairs, out_dir / "return_map.csv")
    # core.tent_exact on floats: same branches, same rounding
    x, x_next = pairs[:, 0], pairs[:, 1]
    deviation = np.abs(x_next - np.where(x < 0.5, 2 * x, 2 * (1 - x))).max()
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
    spec = _resolve_spec(args)
    _warn_degenerate(spec)
    tests = [t.strip() for t in args.tests.split(",") if t.strip()]
    if not tests:
        raise ValueError("no tests selected")
    for name in tests:
        if name not in ANALYZE_TESTS:
            raise ValueError(
                f"unknown test {name!r}; choose from {', '.join(ANALYZE_TESTS)}"
            )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    trajectory = _trajectory(spec)
    words = trajectory[1:]  # n generated states; the seed itself is echoed below
    bits = core.output_array(words, spec.width, spec.tap)
    values = core.decode_series(words, spec.width)

    entries = []
    failures = 0
    for name in tests:
        try:
            entry = ANALYZE_TESTS[name](spec, bits, values, out_dir, args)
        except (ValueError, analysis.EstimationError) as exc:
            entry = {"test": name, "error": str(exc)}
            failures += 1
        entries.append(entry)

    report = {
        "width": spec.width.k,
        "seed": spec.seed_hex,
        "variant": "perturbed" if spec.perturbed else "unperturbed",
        "backend": spec.backend,
        "n": spec.n,
        "tap": spec.tap,
        "tests": entries,
    }
    report_path = out_dir / "report.json"
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"report: {report_path}")
    return EXIT_ALL_TESTS_FAILED if failures == len(tests) else EXIT_OK


def cmd_cycles(args) -> int:
    width = core.BitWidth(args.bits)
    perturbed = args.variant == "perturbed"
    if args.seed is not None:
        seed, _ = _parse_seed(args.seed, width)
        config = core.MapConfig(width=width, perturbed=perturbed)
        table = analysis.CycleTable.of([analysis.cycle_detect(config, seed)])
    elif args.exhaustive:
        if width.k > analysis.CYCLE_ENUM_MAX_WIDTH:
            raise ValueError(
                f"exhaustive census is limited to {analysis.CYCLE_ENUM_MAX_WIDTH} bits; "
                "pass --seed for a single orbit"
            )
        table = analysis.cycle_table(width, perturbed)
    else:
        raise ValueError("pass --seed WORD or --exhaustive")

    analysis.write_cycle_reports_csv(table, width, args.out)

    census = analysis.CycleCensus.of(table, width, perturbed)
    summary = [
        f"seeds: {census.seeds}",
        f"mean period: {census.mean_period:.3f}",
        f"max period: {census.max_period}",
        f"zero-reaching seeds: {census.zero_reaching}",
    ]
    print("\n".join(summary), file=sys.stderr)
    return EXIT_OK


def _ratio(elements: int, bits: int) -> str:
    value = (Decimal(elements) / Decimal(bits)).quantize(
        Decimal("0.001"), rounding=ROUND_HALF_UP
    )
    return str(value)


def cmd_compare(args) -> int:
    rows = []
    for bits in args.widths:
        width = core.BitWidth(bits)
        total = nl.element_stats(nl.build_tent_netlist(width)).total
        rows.append(("this work", width.k, total))
    rows.extend(LITERATURE_ROWS)
    print(f"{'source':<28} {'bits':>5} {'elements':>9} {'ratio':>7}")
    for source, bits, elements in rows:
        print(f"{source:<28} {bits:>5} {elements:>9} {_ratio(elements, bits):>7}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tentbits",
        description="Tent-map pseudo-random bit generator in polarized fixed point",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_args(p, with_format=True):
        p.add_argument("--bits", type=int, required=True, help="register width k")
        p.add_argument("--seed", required=True, help="seed word (int literal or 'random')")
        p.add_argument("--n", type=int, required=True, help="number of map steps")
        p.add_argument(
            "--variant",
            choices=("perturbed", "unperturbed"),
            default="perturbed",
            help="serial-bit perturbation on (default) or off",
        )
        p.add_argument("--tap", choices=("msb", "lsb"), default="msb",
                       help="which state bit is the binary output (default msb)")
        if with_format:
            p.add_argument(
                "--format",
                choices=("bits", "hex", "csv", "raw"),
                default="bits",
                help="output encoding (default bits)",
            )
            p.add_argument("--out", default="-", help="output path, '-' for stdout")

    p_gen = sub.add_parser("gen", help="generate a trajectory from the word model")
    add_run_args(p_gen)
    p_gen.set_defaults(func=cmd_gen, backend="word")

    p_net = sub.add_parser("netlist", help="inspect or simulate the circuit model")
    p_net.add_argument("--bits", type=int, required=True)
    p_net.add_argument("--variant", choices=("perturbed", "unperturbed"),
                       default="perturbed")
    p_net.add_argument("--stats", action="store_true", help="print the element census")
    p_net.add_argument("--export", action="store_true",
                       help="write the text netlist to --out")
    p_net.add_argument("--simulate", action="store_true",
                       help="run the gate-level simulation (needs --seed/--n)")
    p_net.add_argument("--seed", default=None)
    p_net.add_argument("--n", type=int, default=None)
    p_net.add_argument("--tap", choices=("msb", "lsb"), default="msb")
    p_net.add_argument("--format", choices=("bits", "hex", "csv", "raw"),
                       default="bits")
    p_net.add_argument("--out", default="-")
    p_net.set_defaults(func=cmd_netlist, backend="netlist")

    p_ana = sub.add_parser("analyze", help="run randomness/chaos tests")
    add_run_args(p_ana, with_format=False)
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
    p_cyc.add_argument("--bits", type=int, required=True)
    p_cyc.add_argument("--variant", choices=("perturbed", "unperturbed"),
                       default="perturbed")
    p_cyc.add_argument("--seed", default=None, help="report a single orbit")
    p_cyc.add_argument("--exhaustive", action="store_true",
                       help="sweep every seed (k <= 20)")
    p_cyc.add_argument("--out", default="-", help="CSV path, '-' for stdout")
    p_cyc.set_defaults(func=cmd_cycles)

    p_cmp = sub.add_parser("compare", help="elements-per-bit table vs. literature")
    p_cmp.add_argument("widths", nargs="*", type=int, default=[16, 32, 64])
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def cli_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli_main()
