"""Acceptance criteria, one test per criterion.

Each test prints a `[PASS]`/`[FAIL]` line with its elapsed time (run
with `pytest tests/test_acceptance.py -v -s` to see them) and asserts
both the numeric tolerance and the runtime budget.
"""

import json
import math
import random
import time
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

import numpy as np

from tentbits.analysis import (
    autocorrelation,
    cycle_detect,
    cycle_table,
    histogram,
    lyapunov_rosenstein,
    shannon_entropy,
)
from tentbits.cli import main
from tentbits.core import (
    MapConfig,
    decode,
    decode_exact,
    decode_series,
    encode,
    iterate,
    output_array,
    step,
    tent_exact,
)
from tentbits.netlist import build_tent_netlist, element_stats, run

SEED_16 = 0x5A3C
SEED_8 = 0x40
SEED_32 = 0x12345678
LN2 = math.log(2.0)


class _Check:
    def __init__(self, number: int, name: str, budget: float):
        self.number = number
        self.name = name
        self.budget = budget
        self.t0 = time.perf_counter()

    def finish(self, ok: bool) -> None:
        elapsed = time.perf_counter() - self.t0
        verdict = "PASS" if ok and elapsed < self.budget else "FAIL"
        print(
            f"[{verdict}] {self.number}. {self.name} "
            f"({elapsed:.2f}s, budget {self.budget:.0f}s)"
        )
        assert ok, f"criterion {self.number} ({self.name}) failed"
        assert elapsed < self.budget, (
            f"criterion {self.number} exceeded its {self.budget}s budget: {elapsed:.2f}s"
        )


def _bit_run_16():
    config = MapConfig(width=16)
    words = iterate(config, SEED_16, 65536)[1:]  # 2**16 generated states
    return words


def _ratio(elements: int, bits: int) -> str:
    return str(
        (Decimal(elements) / Decimal(bits)).quantize(
            Decimal("0.001"), rounding=ROUND_HALF_UP
        )
    )


def test_criterion_1_element_census(capsys):
    check = _Check(1, "element census", budget=1.0)
    totals = {k: element_stats(build_tent_netlist(MapConfig(k))).total for k in (8, 16, 32, 64)}
    ok = totals == {8: 17, 16: 33, 32: 65, 64: 129}
    ratios = {k: _ratio(totals[k], k) for k in (16, 32, 64)}
    ok = ok and ratios == {16: "2.063", 32: "2.031", 64: "2.016"}
    with capsys.disabled():
        check.finish(ok)


def test_criterion_2_model_equivalence(capsys):
    check = _Check(2, "netlist vs word model, 256 seeds x 1000 steps", budget=10.0)
    circuit = build_tent_netlist(MapConfig(8))
    config = MapConfig(width=8)
    mismatches = 0
    for seed in range(256):
        if run(circuit, seed, 1000).tolist() != iterate(config, seed, 1000):
            mismatches += 1
    with capsys.disabled():
        check.finish(mismatches == 0)


def test_criterion_3_exact_map_tracking(capsys):
    check = _Check(3, "exact tent tracking over 1e5 random words", budget=10.0)
    rng = random.Random(20260808)
    ok = True
    for _ in range(100_000):
        k = rng.randint(2, 32)
        mask = (1 << k) - 1
        w = rng.randrange(mask + 1)
        target = tent_exact(decode_exact(w, k))
        plain = step(MapConfig(width=k, perturbed=False), w)
        if decode_exact(plain, k) != target:
            ok = False
            break
        noisy = step(MapConfig(width=k, perturbed=True), w)
        if abs(decode_exact(noisy, k) - target) > Fraction(1, mask):
            ok = False
            break
    with capsys.disabled():
        check.finish(ok)


def test_criterion_4_entropy(capsys):
    check = _Check(4, "output-bit entropy of the 16-bit run", budget=5.0)
    bits = output_array(_bit_run_16(), 16)
    counts = np.bincount(bits, minlength=2).tolist()
    result = shannon_entropy(counts)
    with capsys.disabled():
        check.finish(len(bits) == 65536 and result.h >= 0.999)


def test_criterion_5_autocorrelation(capsys):
    check = _Check(5, "output-bit autocorrelation of the same run", budget=5.0)
    bits = output_array(_bit_run_16(), 16).astype(float)
    result = autocorrelation(bits, max_lag=100)
    ok = result.r[0] == 1.0 and float(np.abs(result.r[1:]).max()) < 0.05
    with capsys.disabled():
        check.finish(ok)


def test_criterion_6_lyapunov(capsys):
    check = _Check(6, "neighbor-tracking Lyapunov estimates", budget=60.0)
    est16 = lyapunov_rosenstein(decode_series(_bit_run_16(), 16))
    ok = 0.59 <= est16.exponent <= 0.78

    words8 = iterate(MapConfig(width=8), SEED_8, 65536)[1:]
    est8 = lyapunov_rosenstein(decode_series(words8, 8))
    ok = ok and est8.exponent > 0

    words32 = iterate(MapConfig(width=32), SEED_32, 65536)[1:]
    est32 = lyapunov_rosenstein(decode_series(words32, 32))
    ok = ok and est32.exponent > 0

    # oracle: the real map iterated in exact rational arithmetic
    x = Fraction(271828182845904523, 1000000000000000003)
    reference = np.empty(16384)
    for i in range(reference.size):
        x = tent_exact(x)
        reference[i] = float(x)
    est_ref = lyapunov_rosenstein(reference)
    ok = ok and abs(est_ref.exponent - LN2) <= 0.05
    with capsys.disabled():
        check.finish(ok)


def test_criterion_7_histogram_uniformity(capsys):
    check = _Check(7, "64-bin histogram of the 16-bit run", budget=5.0)
    values = decode_series(_bit_run_16(), 16)
    result = histogram(values, bins=64)
    deviation = np.abs(result.counts - 1024)
    with capsys.disabled():
        check.finish(result.counts.sum() == 65536 and deviation.max() <= 102.4)


def test_criterion_8_cycle_structure(capsys):
    check = _Check(8, "exhaustive cycle census at k=4 and k=8", budget=5.0)
    ok = True
    for k in (4, 8):
        mask = (1 << k) - 1
        table = cycle_table(MapConfig(k, perturbed=True))
        zero_seeds = set(table.seed[table.reaches_zero].tolist())
        ok = ok and zero_seeds == {0, mask}
        # independent visited-set oracle over every seed
        config = MapConfig(width=k)
        rows = zip(table.seed.tolist(), table.transient.tolist(), table.period.tolist())
        for seed, table_transient, table_period in rows:
            seen = {}
            w = seed
            index = 0
            while w not in seen:
                seen[w] = index
                w = step(config, w)
                index += 1
            transient, period = seen[w], index - seen[w]
            ok = ok and (table_transient, table_period) == (transient, period)
    transient, period, _ = cycle_detect(MapConfig(width=4), 0b1000)
    ok = ok and (transient, period) == (0, 7)
    with capsys.disabled():
        check.finish(ok)


def test_criterion_9_determinism_and_round_trip(tmp_path, capsys):
    check = _Check(9, "encode/decode identity and CLI determinism", budget=10.0)
    ok = True
    for k in range(2, 17):
        for w in range(1 << k):
            if encode(decode(w, k), k) != w:
                ok = False
                break
        if not ok:
            break

    gen_args = ["gen", "--bits", "16", "--seed", "0x5A3C", "--n", "2000",
                "--format", "csv"]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    ok = ok and main(gen_args + ["--out", str(out_a)]) == 0
    ok = ok and main(gen_args + ["--out", str(out_b)]) == 0
    ok = ok and out_a.read_bytes() == out_b.read_bytes()

    analyze_args = ["analyze", "--bits", "16", "--seed", "0x5A3C", "--n", "4096",
                    "--tests", "entropy,autocorr,histogram"]
    dir_a = tmp_path / "ra"
    dir_b = tmp_path / "rb"
    ok = ok and main(analyze_args + ["--out-dir", str(dir_a)]) == 0
    ok = ok and main(analyze_args + ["--out-dir", str(dir_b)]) == 0
    ok = ok and (
        (dir_a / "report.json").read_bytes() == (dir_b / "report.json").read_bytes()
    )
    report = json.loads((dir_a / "report.json").read_text())
    ok = ok and report["seed"] == "0x5A3C"
    with capsys.disabled():
        check.finish(ok)
