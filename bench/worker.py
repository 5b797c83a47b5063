"""One benchmark run in a fresh interpreter: time CLI invocations, then check.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR RESULT

Imports `tentbits.cli` from the checkout's `src/`, calls `cli.main(argv)`
repeatedly for SECONDS, records each invocation's wall time next to the
`yardstick` time measured around it, and reads peak RSS once the timed
invocations are done.  Only then does it check the outputs (against
`reference`, which shares no code with the program) and write a JSON
summary to RESULT.  With TRACE 1 the first half of the
time runs untraced and the second half under `tracer.Tracer`; the
difference of their normalised median times is the tracing overhead.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference
import yardstick
from tracer import SPAN_NAMES, Tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

MIN_INVOCATIONS = 3
SELF_TEST_MAX_WIDTH = 12
CENSUS_SAMPLES = 8
ANALYZE_TESTS = ["entropy", "autocorr", "lyapunov", "histogram", "return-map"]
# Bands from the acceptance suite that hold for the 32-bit generator.  Its
# 64-bin histogram band (every bin within 10% of the mean) is set on a full
# 16-bit period; at 32 bits over 2**17 states 23 of 120 seeds missed it in a
# probe, so the histogram is checked against an exact recount instead.
ENTROPY_MIN = 0.999
AUTOCORR_MAX = 0.05
LYAPUNOV_BAND = (0.59, 0.78)


@dataclass(frozen=True)
class Workload:
    bits: int
    n: int  # map steps per invocation; census: unused
    items: int  # work items per invocation
    argv: Callable[[str, str], list[str]]  # (seed word in hex, output path)
    # (workload, word, seed, workdir, cli) -> (expected digest, errors)
    expect: Callable[..., tuple[str | None, list[str]]]
    digest_of: str = ""  # file inside the output directory that must repeat
    steps_predicted: int | None = None  # exact core.step calls per invocation


def _raw(command: str, bits: int, n: int) -> Callable[[str, str], list[str]]:
    head = ["netlist", "--simulate"] if command == "netlist" else [command]
    return lambda seed, out: head + [
        "--bits", str(bits), "--seed", seed, "--n", str(n), "--format", "raw",
        "--out", out,
    ]


@dataclass
class Invocation:
    seconds: float
    yardstick_s: float  # mean of the yardstick passes just before and after
    exit_code: int | None  # None: cli.main raised
    digest: str | None
    bytes_out: int
    layers: dict | None = None


def seed_word(seed: int, bits: int) -> int:
    """A register word derived from the seed: never 0, never all-ones."""
    return random.Random(seed).randrange(1, (1 << bits) - 1)


def hex_word(word: int, bits: int) -> str:
    return f"0x{word:0{(bits + 3) // 4}X}"


def file_digest(path: Path) -> str | None:
    if not path.is_file():
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def size_of(path: Path) -> int:
    if path.is_dir():
        return sum(p.stat().st_size for p in path.iterdir() if p.is_file())
    return path.stat().st_size if path.exists() else 0


def remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


def invoke(cli, workload: Workload, word: int, workdir: Path, budget: float,
           tag: str, ruler: yardstick.Yardstick,
           tracer: Tracer | None = None) -> list[Invocation]:
    """Call cli.main until `budget` seconds have passed (and at least
    MIN_INVOCATIONS times).  Output of the first untraced call is kept as
    `<tag>-0` for the content checks; every later output is deleted."""
    seed = hex_word(word, workload.bits)
    records: list[Invocation] = []
    start = time.perf_counter()
    before = ruler.measure()  # each pass serves the calls on both sides
    while len(records) < MIN_INVOCATIONS or time.perf_counter() - start < budget:
        out = workdir / f"{tag}-{len(records)}"
        argv = workload.argv(seed, str(out))
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed invocation, not a failed run
            traceback.print_exc()
            code = None
        seconds = time.perf_counter() - t0
        after = ruler.measure()
        yardstick_s, before = (before + after) / 2, after
        layers = tracer.take() if tracer else None
        digest = file_digest(out / workload.digest_of if workload.digest_of else out)
        records.append(Invocation(seconds, yardstick_s, code, digest, size_of(out),
                                  layers))
        if records[1:] or tracer:
            remove(out)
    return records


# -- content checks (outside the timed region) ----------------------------


def expected_stream(word: int, workload: Workload) -> bytes:
    return reference.stream_bytes(reference.states(word, workload.bits, workload.n),
                                  workload.bits)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-15)


def bin_counts(words: np.ndarray, mask: int, bins: int) -> np.ndarray:
    """Exact equal-width bin counts of w / mask over [0, 1], last bin closed."""
    index = (words * np.uint64(bins) // np.uint64(mask)).astype(np.int64)
    return np.bincount(np.minimum(index, bins - 1), minlength=bins)


def check_report(workload: Workload, word: int, seed: int, out: Path) -> list[str]:
    """Recompute every reported statistic from the reference trajectory."""
    k, n = workload.bits, workload.n
    mask = (1 << k) - 1
    errors: list[str] = []
    report = json.loads((out / "report.json").read_text())
    header = {"width": k, "seed": hex_word(word, k), "n": n, "variant": "perturbed",
              "backend": "word", "tap": "msb"}
    for key, want in header.items():
        if report.get(key) != want:
            errors.append(f"report {key} is {report.get(key)!r}, expected {want!r}")
    entries = {e.get("test"): e for e in report.get("tests", [])}
    if list(entries) != ANALYZE_TESTS:
        return errors + [f"report tests are {list(entries)}, expected {ANALYZE_TESTS}"]
    for name, entry in entries.items():
        if "error" in entry:
            errors.append(f"{name}: {entry['error']}")
        for csv_name in entry.get("csv_files", []):
            if not (out / csv_name).is_file():
                errors.append(f"{name}: {csv_name} missing")
    if errors:
        return errors

    words = np.array(reference.states(word, k, n)[1:], dtype=np.uint64)
    values = words.astype(float) / mask
    bits = (words >> np.uint64(k - 1)).astype(float)

    def expect(ok: bool, what: str) -> None:
        if not ok:
            errors.append(what)

    ent = entries["entropy"]
    ones = int(bits.sum())
    p = np.array([n - ones, ones]) / n
    h = float(-(p[p > 0] * np.log2(p[p > 0])).sum())
    expect(ent["details"]["bit_counts"] == [n - ones, ones], "entropy bit counts")
    expect(_close(ent["value"], h), f"entropy {ent['value']} != {h}")
    expect(ent["value"] >= ENTROPY_MIN, f"entropy {ent['value']} < {ENTROPY_MIN}")

    ac = entries["autocorr"]
    max_lag = ac["parameters"]["max_lag"]
    centred = bits - bits.mean()
    denom = float(centred @ centred)
    peak = max(abs(float(centred[:-lag] @ centred[lag:])) / denom
               for lag in range(1, max_lag + 1))
    expect(ac["details"]["r0"] == 1.0, "autocorr r0 != 1")
    expect(_close(ac["value"], peak), f"autocorr peak {ac['value']} != {peak}")
    expect(ac["value"] < AUTOCORR_MAX, f"autocorr peak {ac['value']} >= {AUTOCORR_MAX}")

    ly = entries["lyapunov"]
    lo, hi = LYAPUNOV_BAND
    expect(lo <= ly["value"] <= hi, f"lyapunov {ly['value']} outside {LYAPUNOV_BAND}")
    expect(_close(ly["details"]["analytic"], math.log(2)), "lyapunov analytic != ln 2")
    expect(0 < ly["details"]["neighbor_count"] < n, "lyapunov neighbour count")

    hist = entries["histogram"]
    bins = hist["parameters"]["bins"]
    counts = bin_counts(words, mask, bins)
    chi = float(((counts - n / bins) ** 2 / (n / bins)).sum())
    expect(hist["details"]["expected"] == n / bins, "histogram expected count")
    expect(hist["details"]["min_count"] == int(counts.min()), "histogram min count")
    expect(hist["details"]["max_count"] == int(counts.max()), "histogram max count")
    expect(_close(hist["value"], chi), f"histogram chi-square {hist['value']} != {chi}")
    counts64 = bin_counts(words, mask, 64)
    p64 = counts64[counts64 > 0] / n
    value_h = float(-(p64 * np.log(p64)).sum() / math.log(64))
    expect(_close(ent["details"]["value_entropy_64bin"], value_h), "value entropy")

    rm = entries["return-map"]
    x, x_next = values[:-1], values[1:]
    deviation = float(np.abs(x_next - np.where(x < 0.5, 2 * x, 2 * (1 - x))).max())
    expect(rm["value"] == n - 1, f"return-map pairs {rm['value']} != {n - 1}")
    expect(_close(rm["details"]["max_tent_deviation"], deviation), "return-map deviation")
    # one register ulp, plus the rounding of a float difference of values near 1
    expect(deviation <= 1 / mask + 1e-15, f"return-map deviation {deviation} > 1 ulp")
    return errors


def check_census(workload: Workload, word: int, seed: int, out: Path) -> list[str]:
    """Row count, the two zero-reaching seeds, and sampled orbits vs Brent."""
    k = workload.bits
    mask = (1 << k) - 1
    rng = random.Random(seed)
    sample = {s: None for s in [0, mask] + [rng.randrange(mask + 1)
                                            for _ in range(CENSUS_SAMPLES)]}
    errors: list[str] = []
    rows, zero = 0, []
    with open(out, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["seed", "transient", "period", "reaches_zero"]:
            return ["census CSV header"]
        for row in reader:
            s = int(row[0], 16)
            if s != rows:
                return [f"census row {rows} holds seed {row[0]}"]
            if row[3] == "true":
                zero.append(s)
            if s in sample:
                sample[s] = (int(row[1]), int(row[2]))
            rows += 1
    if rows != mask + 1:
        errors.append(f"census has {rows} rows, expected {mask + 1}")
    if zero != [0, mask]:
        errors.append(f"zero-reaching seeds {zero[:4]}, expected [0, {mask:#x}]")
    for s, got in sample.items():
        want = reference.orbit(s, k)
        if got != want:
            errors.append(f"seed {s:#x}: census (transient, period) {got}, Brent {want}")
    return errors


def self_test_reference(core) -> list[str]:
    """The reference step equals core.step on every word up to 12 bits."""
    for k in range(2, SELF_TEST_MAX_WIDTH + 1):
        config = core.MapConfig(width=k)
        for w in range(1 << k):
            if core.step(config, w) != reference.step(w, k):
                return [f"reference step differs from core.step at k={k}, w={w:#x}"]
    return []


def expect_stream(workload, word, seed, workdir, cli):
    """The reference's packed output bits."""
    return hashlib.sha256(expected_stream(word, workload)).hexdigest(), []


def expect_gate(workload, word, seed, workdir, cli):
    """The bytes `gen` writes for the same seed and n: circuit == word model."""
    out = workdir / "gen"
    try:
        cli.main(_raw("gen", workload.bits, workload.n)(hex_word(word, workload.bits),
                                                        str(out)))
    except Exception:
        traceback.print_exc()
    digest = file_digest(out)
    return digest, [] if digest else ["gen wrote no output to compare with"]


def _expect_kept(check):
    """Check the kept first output; every invocation must repeat its bytes."""

    def expect(workload, word, seed, workdir, cli):
        kept = workdir / "plain-0"
        digest = file_digest(kept / workload.digest_of if workload.digest_of else kept)
        if digest is None:
            return None, ["first invocation wrote no output"]
        errors = check(workload, word, seed, kept)
        return (None if errors else digest), errors

    return expect


STREAM_N = 1 << 18
GATE_N = 1 << 17
REPORT_N = 1 << 16
CENSUS_BITS = 18

WORKLOADS = {
    "stream": Workload(64, STREAM_N, STREAM_N, _raw("gen", 64, STREAM_N), expect_stream,
                       steps_predicted=STREAM_N),
    "gate": Workload(64, GATE_N, GATE_N, _raw("netlist", 64, GATE_N), expect_gate),
    "report": Workload(
        32, REPORT_N, REPORT_N,
        lambda seed, out: ["analyze", "--bits", "32", "--seed", seed,
                           "--n", str(REPORT_N), "--out-dir", out],
        _expect_kept(check_report),
        digest_of="report.json",
    ),
    "census": Workload(
        CENSUS_BITS, 0, 1 << CENSUS_BITS,
        lambda seed, out: ["cycles", "--bits", str(CENSUS_BITS), "--exhaustive",
                           "--out", out],
        _expect_kept(check_census),
        steps_predicted=1 << CENSUS_BITS,
    ),
}


# -- per-layer figures ------------------------------------------------------


COUNTS = ("core.step.calls", "core.check_word.calls", "core.tent_exact.calls",
          "netlist.sim_cycles", "analysis.write_csv.bytes")
# Figures that must repeat exactly across identical invocations.
EXACT = COUNTS + ("analysis.lyapunov_rosenstein.pair_ratio",
                  "analysis.cycle_table.steps_per_seed", "cli.bytes_out")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(inv: Invocation) -> dict:
    self_s, counts = inv.layers
    metrics = {f"{name}.self_s": self_s.get(name, 0.0) for name in SPAN_NAMES}
    for key in COUNTS:
        metrics[key] = counts.get(key, 0)
    metrics["netlist.run.ns_per_element_cycle"] = _ratio(
        self_s.get("netlist.run", 0.0) * 1e9, counts.get("netlist.element_cycles", 0))
    metrics["analysis.lyapunov_rosenstein.pair_ratio"] = _ratio(
        counts.get("analysis.lyapunov_rosenstein.pairs", 0),
        counts.get("analysis.lyapunov_rosenstein.points", 0))
    metrics["analysis.cycle_table.steps_per_seed"] = _ratio(
        counts.get("analysis.cycle_table.steps", 0),
        counts.get("analysis.cycle_table.seeds", 0))
    metrics["cli.bytes_out"] = inv.bytes_out
    return metrics


def machine() -> dict:
    import scipy

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpus": os.cpu_count(),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(ROOT),
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git; "unknown" outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def thread_count() -> int:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def normalised_s(calls: list[Invocation]) -> float:
    """Median call time in yardstick units, in seconds of the reference machine."""
    return yardstick.REFERENCE_S * statistics.median(
        inv.seconds / inv.yardstick_s for inv in calls)


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, workdir, result_path = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    workdir = Path(workdir)
    workload = WORKLOADS[name]
    word = seed_word(seed, workload.bits)

    import tentbits
    import tentbits.cli as cli
    from tentbits import analysis, core, netlist

    budget = seconds / 2 if trace else seconds
    ruler = yardstick.Yardstick()
    plain = invoke(cli, workload, word, workdir, budget, "plain", ruler)
    traced: list[Invocation] = []
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install({"tentbits": tentbits, "core": core, "netlist": netlist,
                        "analysis": analysis, "cli": cli})
        try:
            traced = invoke(cli, workload, word, workdir, budget, "traced", ruler,
                            tracer)
        finally:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    threads = thread_count()

    errors = self_test_reference(core)
    if threads > (os.cpu_count() or 1):
        errors.append(f"{threads} threads on {os.cpu_count()} CPUs")
    expected, content_errors = workload.expect(workload, word, seed, workdir, cli)
    errors += content_errors
    calls = plain + traced
    failed = sum(inv.exit_code != 0 or inv.digest != expected for inv in calls)
    if failed:
        errors.append(f"{failed} of {len(calls)} invocations failed or differ "
                      "from the expected output")

    layers = None
    if trace:
        per_call = [layer_metrics(inv) for inv in traced]
        if any({k: m[k] for k in EXACT} != {k: per_call[0][k] for k in EXACT}
               for m in per_call):
            errors.append("traced counts differ between identical invocations")
        steps = per_call[0]["core.step.calls"]
        if workload.steps_predicted is not None and steps != workload.steps_predicted:
            errors.append(f"core.step.calls {steps}, predicted {workload.steps_predicted}")
        layers = {key: per_call[0][key] if key in EXACT
                  else statistics.median(m[key] for m in per_call)
                  for key in per_call[0]}
        layers["trace.overhead_s"] = normalised_s(traced) - normalised_s(plain)
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.dump(traces / f"{name}-seed{seed}.json")

    result = {
        "workload": name,
        "word": hex_word(word, workload.bits),
        "items": workload.items,
        "invocations": len(plain),
        "traced_invocations": len(traced),
        "median_s": statistics.median(inv.seconds for inv in plain),
        "median_yardstick_s": statistics.median(inv.yardstick_s for inv in plain),
        "normalised_s": normalised_s(plain),
        "peak_rss_mb": peak_rss_mb,
        "threads": threads,
        "attempted": len(calls),
        "failed": failed,
        "errors": errors[:20],
        "layers": layers,
        "machine": machine(),
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
