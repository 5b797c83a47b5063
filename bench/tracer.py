"""Spans and counters around the program's public functions, from outside.

`Tracer.install` replaces each traced function with a wrapper in every
module that holds a reference to it, so names imported directly (for
example `analysis.step` or `netlist.check_word`) are traced as well as
the defining module's own.  Hot scalar functions get plain counters;
everything else gets a span.  Spans stay in memory until `dump`.

A span's self time is its duration minus the time its child spans (and
timed counters) cover.  Metrics accumulate per invocation: `take`
returns the current invocation's figures and starts the next one.
"""

from __future__ import annotations

import inspect
import json
import os
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Probe:
    """What to record around one public function.

    kind is "count" (calls only), "timed" (calls plus time, no span) or
    "span".  name is the metric prefix; several functions may share
    one.  after(tracer, bound_args, result, start_counts) adds counts
    that only the arguments or the result can tell.
    """

    module: str
    function: str
    kind: str
    name: str
    after: Callable | None = None


def _lyapunov_pairs(tracer, bound, result, start_counts):
    args = bound.arguments
    points = len(args["samples"]) - (args["embed_dim"] - 1) * args["delay"]
    tracer.counts["analysis.lyapunov_rosenstein.pairs"] += result.neighbor_count
    tracer.counts["analysis.lyapunov_rosenstein.points"] += points


def _netlist_cycles(tracer, bound, result, start_counts):
    tracer.counts["netlist.sim_cycles"] += len(result)
    tracer.counts["netlist.element_cycles"] += len(result) * len(
        bound.arguments["netlist"].elements
    )


def _csv_bytes(tracer, bound, result, start_counts):
    tracer.counts["analysis.write_csv.bytes"] += os.path.getsize(bound.arguments["path"])


def _cycle_table_steps(tracer, bound, result, start_counts):
    steps = tracer.counts["core.step.calls"] - start_counts["core.step.calls"]
    tracer.counts["analysis.cycle_table.steps"] += steps
    tracer.counts["analysis.cycle_table.seeds"] += len(result)


PROBES = (
    Probe("core", "step", "count", "core.step"),
    Probe("core", "check_word", "count", "core.check_word"),
    Probe("core", "tent_exact", "timed", "core.tent_exact"),
    Probe("core", "iterate", "span", "core.iterate"),
    Probe("core", "output_stream", "span", "core.output_stream"),
    Probe("core", "decode_series", "span", "core.decode_series"),
    Probe("netlist", "build_tent_netlist", "span", "netlist.build_tent_netlist"),
    Probe("netlist", "run", "span", "netlist.run", _netlist_cycles),
    Probe("analysis", "lyapunov_rosenstein", "span", "analysis.lyapunov_rosenstein",
          _lyapunov_pairs),
    Probe("analysis", "autocorrelation", "span", "analysis.autocorrelation"),
    Probe("analysis", "histogram", "span", "analysis.histogram"),
    Probe("analysis", "shannon_entropy", "span", "analysis.shannon_entropy"),
    Probe("analysis", "first_return_pairs", "span", "analysis.first_return_pairs"),
    Probe("analysis", "write_histogram_csv", "span", "analysis.write_csv", _csv_bytes),
    Probe("analysis", "write_autocorrelation_csv", "span", "analysis.write_csv",
          _csv_bytes),
    Probe("analysis", "write_divergence_csv", "span", "analysis.write_csv", _csv_bytes),
    Probe("analysis", "write_return_map_csv", "span", "analysis.write_csv", _csv_bytes),
    Probe("analysis", "cycle_table", "span", "analysis.cycle_table", _cycle_table_steps),
    Probe("analysis", "write_cycle_reports_csv", "span",
          "analysis.write_cycle_reports_csv"),
    Probe("cli", "main", "span", "cli.main"),
)

SPAN_NAMES = tuple(dict.fromkeys(p.name for p in PROBES if p.kind != "count"))


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self.self_s: Counter = Counter()
        self.spans: list[dict] = []
        self.invocation = 0
        self._stack: list[list] = []  # open spans: [index, start, child_s, counts]
        self._patches: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _count(self, fn, probe):
        counts, key = self.counts, probe.name + ".calls"

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _timed(self, fn, probe):
        counts, key = self.counts, probe.name + ".calls"
        self_s, stack = self.self_s, self._stack

        def timed(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                counts[key] += 1
                self_s[probe.name] += elapsed
                if stack:
                    stack[-1][2] += elapsed

        return timed

    def _span(self, fn, probe):
        signature = inspect.signature(fn)

        def spanned(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            record = {"name": probe.name, "function": probe.function,
                      "invocation": self.invocation, "parent": parent}
            self.spans.append(record)
            frame = [len(self.spans) - 1, perf_counter(), 0.0, Counter(self.counts)]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                elapsed = end - frame[1]
                record.update(start=frame[1], end=end, self_s=elapsed - frame[2])
                self.self_s[probe.name] += elapsed - frame[2]
                if self._stack:
                    self._stack[-1][2] += elapsed
            if probe.after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                probe.after(self, bound, result, frame[3])
            return result

        return spanned

    # -- patching ---------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every probed function wherever `modules` hold a reference.

        modules maps short names ("core", "cli", ...) to module objects;
        every module in it is searched for references to patch.
        """
        make = {"count": self._count, "timed": self._timed, "span": self._span}
        for probe in PROBES:
            original = getattr(modules[probe.module], probe.function)
            wrapper = make[probe.kind](original, probe)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def take(self) -> tuple[dict, dict]:
        """Self times and counts of the invocation just ended; resets both."""
        self_s, counts = dict(self.self_s), dict(self.counts)
        self.self_s.clear()
        self.counts.clear()
        self.invocation += 1
        return self_s, counts

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)
