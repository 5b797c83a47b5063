"""Randomness and chaos diagnostics for generated sequences.

Covers the largest Lyapunov exponent (analytic value and a neighbor-
tracking estimator), normalized Shannon entropy, autocorrelation,
uniformity histogram with chi-square, first-return pairs, and the cycle
structure of the finite state space (per-seed detection plus exhaustive
census).  All functions are pure; the census is a deterministic sweep.
"""

from __future__ import annotations

import csv
import math
import sys
from collections.abc import Mapping
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .core import BitWidth, MapConfig, as_width, check_word, step

CYCLE_ENUM_MAX_WIDTH = 20


class EstimationError(ValueError):
    """The requested estimate is undefined for this input."""


@dataclass
class LyapunovEstimate:
    """Neighbor-tracking exponent estimate, natural-log units per step."""

    exponent: float
    fit_range: tuple[int, int]
    neighbor_count: int
    steps: np.ndarray
    curve: np.ndarray


@dataclass
class EntropyResult:
    """Normalized entropy in [0, 1]; log base equals the symbol count."""

    h: float
    bins: int
    probabilities: tuple[float, ...]


@dataclass
class AutocorrResult:
    """Normalized autocorrelation coefficients for lags 0..max_lag."""

    lags: np.ndarray
    r: np.ndarray


@dataclass
class HistogramResult:
    """Bin counts over [0, 1] plus the chi-square against uniformity."""

    counts: np.ndarray
    bins: int
    expected: float
    chi_square: float


@dataclass(frozen=True)
class CycleReport:
    """Eventual behavior of one seed: transient steps, then a cycle."""

    seed: int
    transient: int
    period: int
    reaches_zero: bool


@dataclass(frozen=True)
class CycleCensus:
    """Aggregate over every seed of a width: exhaustive enumeration."""

    width: int
    perturbed: bool
    seeds: int
    mean_period: float
    max_period: int
    zero_reaching: int


def lyapunov_direct() -> float:
    """Analytic exponent of the slope-2 tent map: ln 2.

    The slope magnitude is 2 everywhere except the breakpoint, so the
    mean log derivative along any trajectory avoiding it is constant.
    Serves as the oracle for the time-series estimator.
    """
    return math.log(2.0)


def _nearest_neighbors(points: np.ndarray, theiler_window: int):
    """Rosenstein partners: for each point i, the index j of smallest
    (distance, j) over the points at positive distance with |i - j| > w
    (w = theiler_window), so ties go to the lower index.  The search
    covers the max(32, 2w + 2) nearest distinct points of i, as cKDTree
    orders ties at that boundary, or all of them if there are fewer; a
    point with no partner there is left out.  Deduplicating first keeps
    heavily quantized series cheap.  Returns (anchors, partners),
    anchors ascending.
    """
    n = len(points)
    uniq, inverse = np.unique(points, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    n_u = len(uniq)
    if n_u < 2:
        raise EstimationError("constant series has no distinct neighbors")
    w = theiler_window
    # The window holds 2w indices besides i, so at most 2w distinct points
    # other than i's own lie wholly inside it.  Of the 2w + 2 nearest (i's
    # own first, at distance 0) one is thus a valid partner, and a query
    # that stops short of all n_u points never needs widening.
    kk = min(n_u, max(32, 2 * w + 2))
    dist_u, idx_u = cKDTree(uniq).query(uniq, k=kk)
    # point v's indices, ascending, are members[starts[v]:starts[v + 1]]
    members = np.argsort(inverse, kind="stable")
    starts = np.searchsorted(inverse[members], np.arange(n_u + 1))
    keys = inverse[members] * n + members
    best_d, best_j = np.full(n, np.inf), np.full(n, -1)
    rows = np.arange(n)
    for col in range(kk):
        # columns come in distance order, so a beaten row is done
        d = dist_u[inverse[rows], col]
        keep = d <= best_d[rows]
        rows, d = rows[keep], d[keep]
        # v's earliest index before the window, else its first one after it
        v = idx_u[inverse[rows], col]
        first = members[starts[v]]
        before = first < rows - w
        after = np.searchsorted(keys, v * n + rows + w, side="right")
        j = np.where(before, first, members[np.minimum(after, n - 1)])
        ok = (d > 0.0) & (before | (after < starts[v + 1]))
        better = ok & ((d < best_d[rows]) | (j < best_j[rows]))
        best_d[rows[better]] = d[better]
        best_j[rows[better]] = j[better]
    anchors = np.flatnonzero(best_j >= 0)
    if not anchors.size:
        raise EstimationError("no neighbor pairs satisfy the distance criteria")
    return anchors, best_j[anchors]


def lyapunov_rosenstein(
    samples,
    embed_dim: int = 2,
    delay: int = 1,
    theiler_window: int = 10,
    max_steps: int = 12,
    fit_range: tuple[int, int] = (1, 8),
) -> LyapunovEstimate:
    """Largest-exponent estimate from a scalar series by neighbor tracking.

    Embeds the series with (embed_dim, delay), pairs every point with
    its nearest neighbor at positive distance and temporal separation
    beyond theiler_window, averages log divergence at each step ahead,
    and fits a least-squares line over fit_range.  The slope is the
    exponent in natural-log units per iteration.
    """
    xs = np.asarray(samples, dtype=float).ravel()
    if xs.size < 1000:
        raise EstimationError(
            f"series too short for divergence tracking: {xs.size} < 1000"
        )
    if embed_dim < 1 or delay < 1:
        raise ValueError("embed_dim and delay must be positive")
    lo, hi = fit_range
    if not 0 <= lo < hi <= max_steps:
        raise ValueError("fit_range must be increasing and within max_steps")

    n = xs.size - (embed_dim - 1) * delay
    points = np.column_stack([xs[j * delay : j * delay + n] for j in range(embed_dim)])
    anchors, partners = _nearest_neighbors(points, theiler_window)

    steps = np.arange(max_steps + 1)
    curve = np.full(max_steps + 1, np.nan)
    for s in steps:
        alive = (anchors + s < n) & (partners + s < n)
        diffs = points[anchors[alive] + s] - points[partners[alive] + s]
        dists = np.sqrt((diffs * diffs).sum(axis=1))
        dists = dists[dists > 0.0]
        if dists.size:
            curve[s] = float(np.log(dists).mean())

    window = curve[lo : hi + 1]
    if np.isnan(window).any():
        raise EstimationError("divergence curve undefined over the fit range")
    slope = float(np.polyfit(steps[lo : hi + 1], window, 1)[0])
    return LyapunovEstimate(
        exponent=slope,
        fit_range=(lo, hi),
        neighbor_count=len(anchors),
        steps=steps,
        curve=curve,
    )


def shannon_entropy(counts) -> EntropyResult:
    """Normalized entropy of a frequency table.

    Probabilities are counts over the total; the log base is the number
    of table slots, so a uniform table scores exactly 1 and a single
    loaded slot scores 0.  Mappings are read in sorted key order.
    """
    if isinstance(counts, Mapping):
        values = [counts[key] for key in sorted(counts)]
    else:
        values = list(counts)
    if not values:
        raise ValueError("empty frequency table")
    arr = np.asarray(values, dtype=float)
    if (arr < 0).any():
        raise ValueError("negative count in frequency table")
    total = arr.sum()
    if total <= 0:
        raise ValueError("frequency table has no observations")
    probs = arr / total
    bins = len(values)
    if bins == 1:
        h = 0.0
    else:
        nz = probs[probs > 0]
        h = float(-(nz * np.log(nz)).sum() / math.log(bins))
    return EntropyResult(h=h, bins=bins, probabilities=tuple(float(p) for p in probs))


def autocorrelation(samples, max_lag: int) -> AutocorrResult:
    """Normalized autocorrelation r(lag) for lag = 0..max_lag.

    r(lag) sums (x_i - mean)(x_{i+lag} - mean) over the overlapping
    window and divides by the full-series sum of squares; r(0) is 1 by
    construction.
    """
    xs = np.asarray(samples, dtype=float).ravel()
    if max_lag < 1:
        raise ValueError("max_lag must be at least 1")
    if xs.size <= max_lag:
        raise ValueError(f"series of {xs.size} samples cannot support lag {max_lag}")
    centered = xs - xs.mean()
    denom = float(np.dot(centered, centered))
    if denom == 0.0:
        raise EstimationError("constant series has undefined autocorrelation")
    r = np.empty(max_lag + 1)
    r[0] = 1.0
    for lag in range(1, max_lag + 1):
        r[lag] = float(np.dot(centered[:-lag], centered[lag:])) / denom
    return AutocorrResult(lags=np.arange(max_lag + 1), r=r)


def histogram(samples, bins: int) -> HistogramResult:
    """Equal-width counts over [0, 1] plus chi-square against uniform.

    Bin b covers [b/bins, (b+1)/bins); the last bin is closed so 1.0 is
    counted.
    """
    if bins < 2:
        raise ValueError("need at least 2 bins")
    xs = np.asarray(samples, dtype=float).ravel()
    if xs.size == 0:
        raise ValueError("empty series")
    if xs.min() < 0.0 or xs.max() > 1.0:
        raise ValueError("samples outside [0, 1]")
    counts, _ = np.histogram(xs, bins=bins, range=(0.0, 1.0))
    expected = xs.size / bins
    chi_square = float(((counts - expected) ** 2 / expected).sum())
    return HistogramResult(
        counts=counts, bins=bins, expected=expected, chi_square=chi_square
    )


def first_return_pairs(samples) -> np.ndarray:
    """Consecutive pairs (x_n, x_{n+1}) as an (N-1, 2) array."""
    xs = np.asarray(samples, dtype=float).ravel()
    if xs.size < 2:
        raise ValueError("need at least two samples for return pairs")
    return np.column_stack([xs[:-1], xs[1:]])


def cycle_detect(config: MapConfig, seed: int) -> CycleReport:
    """Transient and minimal period of a seed's orbit.

    Brent's algorithm: constant memory, at most a small multiple of
    transient + period map evaluations.  The state space is finite so
    every orbit is eventually periodic.
    """
    seed = check_word(seed, config.width)
    power = period = 1
    tortoise = seed
    hare = step(config, seed)
    while tortoise != hare:
        if power == period:
            tortoise = hare
            power <<= 1
            period = 0
        hare = step(config, hare)
        period += 1
    tortoise = hare = seed
    for _ in range(period):
        hare = step(config, hare)
    transient = 0
    while tortoise != hare:
        tortoise = step(config, tortoise)
        hare = step(config, hare)
        transient += 1
    reaches_zero = period == 1 and tortoise == 0
    return CycleReport(
        seed=seed, transient=transient, period=period, reaches_zero=reaches_zero
    )


def cycle_table(width: BitWidth | int, perturbed: bool = True) -> list[CycleReport]:
    """Cycle report for every seed of a width, exhaustively.

    Memoized functional-graph sweep: each word is visited O(1) times,
    so the whole table costs O(2**k) map evaluations instead of running
    the per-seed detector 2**k times.  Results match cycle_detect.
    """
    width = as_width(width)
    if width.k > CYCLE_ENUM_MAX_WIDTH:
        raise ValueError(
            f"exhaustive enumeration is limited to {CYCLE_ENUM_MAX_WIDTH} bits"
        )
    config = MapConfig(width=width, perturbed=perturbed)
    size = 1 << width.k
    transient = [-1] * size
    period = [0] * size
    zero = [False] * size
    for seed in range(size):
        if transient[seed] >= 0:
            continue
        path: list[int] = []
        position: dict[int, int] = {}
        w = seed
        while transient[w] < 0 and w not in position:
            position[w] = len(path)
            path.append(w)
            w = step(config, w)
        if transient[w] >= 0:
            # ran into already-classified territory
            base, cyc, hits_zero = transient[w], period[w], zero[w]
            for pos, node in enumerate(path):
                transient[node] = base + (len(path) - pos)
                period[node] = cyc
                zero[node] = hits_zero
        else:
            start = position[w]
            cyc = len(path) - start
            hits_zero = cyc == 1 and w == 0
            for pos, node in enumerate(path):
                transient[node] = start - pos if pos < start else 0
                period[node] = cyc
                zero[node] = hits_zero
    return [
        CycleReport(
            seed=s, transient=transient[s], period=period[s], reaches_zero=zero[s]
        )
        for s in range(size)
    ]


def cycle_census(width: BitWidth | int, perturbed: bool = True) -> CycleCensus:
    """Aggregate cycle statistics over every seed of a width."""
    width = as_width(width)
    reports = cycle_table(width, perturbed)
    periods = [r.period for r in reports]
    return CycleCensus(
        width=width.k,
        perturbed=perturbed,
        seeds=len(reports),
        mean_period=sum(periods) / len(periods),
        max_period=max(periods),
        zero_reaching=sum(r.reaches_zero for r in reports),
    )


def _write_csv(path, header, rows) -> None:
    """Write a header row, then rows, with LF line endings; "-" is stdout."""
    with nullcontext(sys.stdout) if path == "-" else open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_histogram_csv(result: HistogramResult, path) -> None:
    rows = ([b, int(count)] for b, count in enumerate(result.counts))
    _write_csv(path, ["bin", "count"], rows)


def write_autocorrelation_csv(result: AutocorrResult, path) -> None:
    rows = ([int(lag), float(value)] for lag, value in zip(result.lags, result.r))
    _write_csv(path, ["lag", "r"], rows)


def write_divergence_csv(estimate: LyapunovEstimate, path) -> None:
    rows = ([int(s), float(value)] for s, value in zip(estimate.steps, estimate.curve))
    _write_csv(path, ["step", "mean_log_divergence"], rows)


def write_return_map_csv(pairs: np.ndarray, path) -> None:
    rows = ([float(x), float(x_next)] for x, x_next in pairs)
    _write_csv(path, ["x_n", "x_next"], rows)


def write_cycle_reports_csv(reports, width: BitWidth | int, path) -> None:
    digits = as_width(width).hex_digits
    rows = (
        [
            f"0x{r.seed:0{digits}X}",
            r.transient,
            r.period,
            "true" if r.reaches_zero else "false",
        ]
        for r in reports
    )
    _write_csv(path, ["seed", "transient", "period", "reaches_zero"], rows)
