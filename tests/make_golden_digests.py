"""Write tests/golden_digests.json: the sha256 of every file a fixed grid
of CLI runs writes.

    PYTHONPATH=src python tests/make_golden_digests.py

Each run calls `tentbits.cli.main` in a fresh empty directory, and every
file it leaves there is digested.  `tests/test_golden_digests.py` runs
the same grid and checks every digest, so a change to any of these
bytes fails tier-1 until the digests are written again; doing that is a
deliberate act, stated with its reasons in CHANGES.md.

`report.json`, `autocorr.csv` and `divergence.csv` are left out: their
values go through BLAS and LAPACK, whose last bits differ between CPUs
(ROADMAP item 9).  The grid runs `analyze` with `--tests return-map`
only, and keeps its `return_map.csv`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from tentbits.cli import EXIT_OK, main as cli_main

PATH = Path(__file__).with_name("golden_digests.json")
# outputs whose bytes may differ between machines
LEFT_OUT = {"report.json", "autocorr.csv", "divergence.csv"}
VARIANTS = ("perturbed", "unperturbed")


def seed(k: int) -> str:
    """The top k bits of 2^64 / golden ratio: neither 0 nor all ones."""
    return f"{0x9E3779B97F4A7C15 >> (64 - k):#x}"


def grid() -> list[list[str]]:
    argvs = []
    for k in (2, 8, 16, 32, 53, 54, 64):
        # at k = 16 the n + 1 states cross columns.BLOCK_ROWS = 65 536
        n = 65_540 if k == 16 else 1_000
        for variant in VARIANTS:
            for fmt in ("bits", "hex", "csv", "raw"):
                argvs.append(["gen", "--bits", str(k), "--seed", seed(k), "--n", str(n),
                              "--variant", variant, "--format", fmt, "--out", "out"])
    for k in (8, 64):
        for variant in VARIANTS:
            for fmt in ("bits", "hex", "csv", "raw"):
                argvs.append(["netlist", "--simulate", "--bits", str(k), "--seed", seed(k),
                              "--n", "1000", "--variant", variant, "--format", fmt,
                              "--out", "out"])
    for k in (2, 8, 64):
        for variant in VARIANTS:
            argvs.append(["netlist", "--export", "--bits", str(k), "--variant", variant,
                          "--out", "out"])
    for k in range(2, 17):
        for variant in VARIANTS:
            argvs.append(["cycles", "--exhaustive", "--bits", str(k), "--variant", variant,
                          "--out", "out"])
    for k in (8, 16, 32, 53, 64):
        for variant in VARIANTS:
            for backend in ("word", "netlist"):
                # 20 000 rows cross columns.FLOAT_ROWS = 8 192 twice
                argvs.append(["analyze", "--tests", "return-map", "--bits", str(k),
                              "--seed", seed(k), "--n", "20000", "--variant", variant,
                              "--backend", backend, "--out-dir", "."])
    return argvs


def digests(argv: list[str]) -> dict[str, str]:
    """Run argv in a new empty directory; the sha256 of each file it writes."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli_main(argv)
        finally:
            os.chdir(cwd)
        if code != EXIT_OK:
            raise RuntimeError(f"{' '.join(argv)} exited {code}")
        return {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path(directory).iterdir())
            if path.name not in LEFT_OUT
        }


def main() -> None:
    entries = [{"argv": argv, "files": digests(argv)} for argv in grid()]
    # one run per line
    PATH.write_text("[\n" + ",\n".join(map(json.dumps, entries)) + "\n]\n")
    print(f"{len(entries)} runs, {sum(len(e['files']) for e in entries)} files: {PATH}",
          file=sys.stderr)


if __name__ == "__main__":
    main()
