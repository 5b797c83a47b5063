"""Benchmark of the tentbits CLI: end-to-end rates and a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
Each run starts one fresh interpreter (`worker.py`) that calls
`tentbits.cli.main(argv)` on the workload's generated input for S
seconds and then checks every output.  With `--trace 0` it also times
`import tentbits.cli` in fresh interpreters (`setup_s`).  Both times are
divided by the `yardstick` loop timed around them and reported in
seconds of the reference machine, so drift in machine speed cancels.
Scratch files go under `.bench_build/` and are removed; span dumps of
traced runs stay in `.bench_build/traces/`.

The last line of standard output is the result object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}},
holding the `end_to_end` metrics of BENCHMARK.json with `--trace 0` and
its `per_layer` metrics with `--trace 1`.  The line before it describes
the run and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yardstick

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEADLINE_S = 170  # the whole run, worker and set-up probes included
SETUP_PROBES = 5
# numpy and scipy each load their own OpenBLAS, and each would start a
# thread per CPU; one BLAS thread keeps the process within one thread per CPU.
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:]; import yardstick; "
    "ruler = yardstick.Yardstick(); before = ruler.measure(); "
    "t = time.perf_counter(); import tentbits.cli; t = time.perf_counter() - t; "
    "print(t, (before + ruler.measure()) / 2)"
)


class BenchError(Exception):
    """The run cannot produce a result."""


def setup_seconds(deadline: float) -> float:
    """Median time to import tentbits.cli in a fresh interpreter, in
    seconds of the reference machine (see yardstick.py)."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(BENCH)], cwd=ROOT, env=ENV,
            capture_output=True, text=True, timeout=deadline - time.monotonic(),
        )
        if done.returncode != 0:
            raise BenchError(f"importing tentbits.cli failed:\n{done.stderr}")
        seconds, yardstick_s = map(float, done.stdout.split())
        samples.append(seconds / yardstick_s)
    return yardstick.REFERENCE_S * statistics.median(samples)


def run_worker(args, workdir: Path, deadline: float) -> dict:
    result_path = workdir / "result.json"
    err_path = workdir / "worker.err"
    with open(err_path, "w") as err:
        done = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), args.workload, str(args.seed),
             str(args.seconds), str(args.trace), str(workdir), str(result_path)],
            cwd=ROOT, env=ENV, stdout=subprocess.DEVNULL, stderr=err,
            timeout=deadline - time.monotonic(),
        )
    if done.returncode != 0 or not result_path.is_file():
        raise BenchError(f"worker exited with {done.returncode}:\n"
                         + err_path.read_text()[-4000:])
    return json.loads(result_path.read_text())


def main(argv=None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tentbits" / "cli.py").is_file():
        print(f"error: program source {SRC / 'tentbits'} not found", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_build" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run_worker(args, workdir, deadline)
        if args.trace:
            declared = spec["per_layer"]
            values = result["layers"]
        else:
            declared = spec["end_to_end"]
            values = {
                "items_per_s": result["items"] / result["normalised_s"],
                "setup_s": setup_seconds(deadline),
                "peak_rss_mb": result["peak_rss_mb"],
            }
        if set(values) != {m["name"] for m in declared}:
            raise BenchError(f"measured {sorted(values)}, BENCHMARK.json declares "
                             f"{sorted(m['name'] for m in declared)}")
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in result["errors"]:
        print(f"check failed: {line}", file=sys.stderr)
    info = {key: result[key] for key in (
        "workload", "word", "items", "invocations", "traced_invocations", "median_s",
        "median_yardstick_s", "normalised_s", "threads", "errors", "machine")}
    print(json.dumps({"run": info}))
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
