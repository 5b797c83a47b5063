"""Randomness and chaos diagnostics for generated sequences.

Covers the largest Lyapunov exponent (a neighbor-tracking estimator),
normalized Shannon entropy, autocorrelation, uniformity histogram with
chi-square, first-return pairs, and the cycle structure of the finite
state space (per-seed detection plus exhaustive census).  The census
classifies the successor table of every word with whole-array numpy
operations and returns its results as columns, a `CycleTable`.  Every
CSV is written column-wise by `columns.write`; the return map is
written from the series itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import columns
from .core import BitWidth, MapConfig, affine_map, as_width, check_word, step

CYCLE_ENUM_MAX_WIDTH = 20
# points per block of the Rosenstein sweep and divergence loop: bounds
# their temporaries whatever the series' length
SWEEP_ROWS = 1 << 14


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


@dataclass(frozen=True, eq=False)
class CycleTable:
    """Eventual behavior of seeds as columns: row i describes seed[i].

    cycle_table gives int32 seed, transient and period columns and a
    bool reaches_zero; a one-row table of a wider seed may hold 64-bit
    integers.
    """

    seed: np.ndarray
    transient: np.ndarray
    period: np.ndarray
    reaches_zero: np.ndarray

    def __len__(self) -> int:
        return len(self.seed)


@dataclass(frozen=True)
class CycleCensus:
    """Aggregate over the seeds of a cycle table."""

    seeds: int
    mean_period: float
    max_period: int
    zero_reaching: int

    @classmethod
    def of(cls, table: CycleTable) -> CycleCensus:
        # an integer sum divided once, as exact as Python's sum over ints;
        # int64 holds the sum of 2**20 int32 periods (about 5.4e11 at k = 20)
        return cls(
            seeds=len(table),
            mean_period=int(table.period.sum(dtype=np.int64)) / len(table),
            max_period=int(table.period.max()),
            zero_reaching=int(table.reaches_zero.sum()),
        )


def _nearest_neighbors(points: np.ndarray, theiler_window: int):
    """Rosenstein partners: for each point i, the index j of smallest
    (distance, j) over the points at positive distance with |i - j| > w
    (w = theiler_window), so ties go to the lower index.  A point with
    no partner is left out.  Returns (anchors, partners), anchors
    ascending.
    """
    partner = _partners(points, theiler_window)
    anchors = np.flatnonzero(partner >= 0)
    if not anchors.size:
        raise EstimationError("no neighbor pairs satisfy the distance criteria")
    return anchors, partner[anchors]


def _partners(points: np.ndarray, w: int) -> np.ndarray:
    """Each point's Rosenstein partner, -1 where it has none.

    An exact sweep.  The distinct points are sorted by their columns,
    first column first, and every point walks outward from its own on
    both sides of that order, one offset per vectorized pass over the
    walks still going.  The order is the argsort of the first column:
    where no two of its values are equal, that is the only sorted
    order.  A tie in that column, or a NaN, falls back to a lexsort of
    every column.  A distance is the square root of the squared
    differences summed in column order.  A side stops once
    sqrt(dx0 * dx0) > the best distance so far, dx0 being the
    first-column gap: that bound only grows along a side and the
    rounded distance never falls below it, so nothing further can beat
    or tie the best.  (|dx0| is no bound: where dx0 * dx0 is subnormal,
    its square root rounds below |dx0|.)

    The walks go in blocks of SWEEP_ROWS sorted positions.  A walk reads
    only shared arrays and writes only its own best (distance, j), so
    the blocks cannot change a partner; they bound the walks' state and
    temporaries.  Held per point: the sort order, ids and search keys,
    the distinct points' columns, first members and starts, and the
    partners, 48 B plus 8 B per column.

    Near-linear when the points lie along a curve over their first
    column, as a 1-D map's delay embedding does: a tent orbit of 65 535
    points takes about 0.015-0.022 s on 2 CPUs, and 0.27 s at 1e6 points
    (k = 32).  The argsort is about 1.2 ms and 0.04 s of that, where a
    lexsort takes 8.5 ms and 0.21 s; an orbit longer than its period
    repeats points, so it pays the lexsort.  A cloud spread over the
    plane needs about sqrt(n) offsets per point: about 0.7-1.2 s at
    65 536.
    """
    n = len(points)
    # point v's indices, ascending, are members[starts[v]:starts[v + 1]]
    members = np.argsort(points[:, 0])
    new = np.ones(n, dtype=bool)
    ordered = points[members, 0]
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    # a tie, -0.0 beside 0.0 too, or a NaN (sorted last) leaves an order
    # to argsort; lexsort, stable, sorts by the other columns, then by
    # index.  The first column keeps its values in order, so new stands
    if not new.all() or np.isnan(ordered[-1:]).any():
        members = np.lexsort(points.T[::-1])
        for col in points.T[1:]:
            ordered = col[members]
            new[1:] |= ordered[1:] != ordered[:-1]
    del ordered
    starts = np.flatnonzero(new)
    n_u = len(starts)
    if n_u < 2:
        raise EstimationError("constant series has no distinct neighbors")
    head = members[starts]
    starts = np.append(starts, n)
    # one contiguous array per column; a NaN past the last point (index
    # n_u, and -1 from the left) fails the bound and ends the walk
    coords = np.full((points.shape[1], n_u + 1), np.nan)
    for coord, col in zip(coords, points.T):
        coord[:-1] = col[head]
    first, rest = coords[0], coords[1:]
    ids = np.cumsum(new) - 1
    del new
    keys = ids * n
    keys += members
    partner = np.full(n, -1)
    for start in range(0, n, SWEEP_ROWS):
        # a walk is its index i in the block: the point of row
        # block_rows[i], whose sorted position is start + i, so the
        # walks gather memory nearly in sequence
        block_ids = ids[start : start + SWEEP_ROWS]
        block_rows = members[start : start + SWEEP_ROWS]
        best_d = np.full(len(block_ids), np.inf)
        best_j = np.full(len(block_ids), -1)
        walks = [np.arange(len(block_ids))] * 2
        offset = 0
        while walks[0].size or walks[1].size:
            offset += 1
            # one side at a time: a point's two walks may both improve it
            for side, shift in enumerate((-offset, offset)):
                i = walks[side]
                u = block_ids[i]
                v = u + shift
                gap = first[v] - first[u]
                sq = gap * gap
                # indices, not a mask: a random mask applied four times costs more
                going = np.flatnonzero(np.sqrt(sq) <= best_d[i])
                i, u, v, sq = i[going], u[going], v[going], sq[going]
                walks[side] = i
                for col in rest:
                    gap = col[v] - col[u]
                    sq += gap * gap
                d = np.sqrt(sq)
                # v's earliest index outside the window: its first one, unless
                # that lies inside; then its first one after the window, which
                # only a value with more than one member can have
                rows, j = block_rows[i], head[v]
                ok = np.abs(j - rows) > w
                inside = np.flatnonzero(~ok)
                vi = v[inside]
                after = np.searchsorted(keys, vi * n + rows[inside] + w, side="right")
                ok[inside] = after < starts[vi + 1]
                j[inside] = members[np.minimum(after, n - 1)]
                ok &= d > 0.0
                old_d = best_d[i]
                better = np.flatnonzero(
                    ok & ((d < old_d) | ((d == old_d) & (j < best_j[i])))
                )
                best_d[i[better]] = d[better]
                best_j[i[better]] = j[better]
        partner[block_rows] = best_j
    return partner


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

    A pair's squared differences are summed in embedding order, the
    order numpy sums a row of up to 7 columns in; from embed_dim 8 on,
    numpy would sum a row pairwise, so the last bits can differ.

    The embedding is a view of the series, and both the partner sweep
    and the divergence loop go in blocks of SWEEP_ROWS points, so the
    working memory is a fixed block plus the sweep's 48 + 8 * embed_dim
    bytes per point (64 B at embed_dim 2); the divergence loop holds
    32 B per pair and 8 B per pair for each of the (embed_dim - 1) *
    delay gaps a later step reads again.
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

    span = (embed_dim - 1) * delay
    n = xs.size - span
    if n < 2:
        raise EstimationError(
            f"embed_dim={embed_dim} and delay={delay} need at least "
            f"{span + 2} samples, got {xs.size}"
        )
    # row i is xs[i], xs[i + delay], ..., with no copy of the series
    points = np.lib.stride_tricks.sliding_window_view(xs, span + 1)[:, ::delay]
    anchors, partners = _nearest_neighbors(points, theiler_window)

    def gap(block, t):
        # xs[a + t] - xs[p + t] for the block's pairs; an index past the
        # series is clipped, and limit drops its row before it is read
        ahead = xs[t:]
        return (np.take(ahead, anchors[block], mode="clip")
                - np.take(ahead, partners[block], mode="clip"))

    # pair i's points are in the series up to step limit[i] - 1
    limit = n - np.maximum(anchors, partners)
    steps = np.arange(max_steps + 1)
    curve = np.full(max_steps + 1, np.nan)
    # step s reads gap(s + j * delay) for j < embed_dim: each block's
    # gaps are gathered once and kept while a later step reads them
    blocks = [slice(start, start + SWEEP_ROWS) for start in range(0, len(anchors), SWEEP_ROWS)]
    gaps = [[gap(block, t) for t in range(span)] for block in blocks]
    # one step's log-distances in pair order, block by block, so a
    # single mean reads the array the whole-series loop would read
    logs = np.empty(len(anchors))
    for s in range(min(max_steps + 1, int(limit.max()))):
        count = 0
        for block, held in zip(blocks, gaps):
            held.append(gap(block, s + span))
            sq = held[0] * held[0]
            for g in held[delay::delay]:
                sq += g * g
            del held[0]
            kept = sq[(limit[block] > s) & (sq > 0.0)]
            np.log(np.sqrt(kept), out=logs[count : count + len(kept)])
            count += len(kept)
        if count:
            curve[s] = float(logs[:count].mean())

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
    loaded slot scores 0.
    """
    arr = np.asarray(counts, dtype=float)
    if not len(arr):
        raise ValueError("empty frequency table")
    if (arr < 0).any():
        raise ValueError("negative count in frequency table")
    total = arr.sum()
    if total <= 0:
        raise ValueError("frequency table has no observations")
    probs = arr / total
    bins = len(arr)
    if bins == 1:
        h = 0.0
    else:
        nz = probs[probs > 0]
        # every term -p ln p is >= 0; abs turns a lone 1 ln 1's -0.0 into 0.0
        h = abs(float(-(nz * np.log(nz)).sum() / math.log(bins)))
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
    # NaN fails both comparisons, so it is outside too
    if not ((xs >= 0.0) & (xs <= 1.0)).all():
        raise ValueError("samples outside [0, 1]")
    counts, _ = np.histogram(xs, bins=bins, range=(0.0, 1.0))
    expected = xs.size / bins
    chi_square = float(((counts - expected) ** 2 / expected).sum())
    return HistogramResult(
        counts=counts, bins=bins, expected=expected, chi_square=chi_square
    )


def first_return_pairs(samples) -> np.ndarray:
    """Consecutive pairs (x_n, x_{n+1}): a read-only (N-1, 2) view, no copy."""
    xs = np.asarray(samples, dtype=float).ravel()
    if xs.size < 2:
        raise ValueError("need at least two samples for return pairs")
    return np.lib.stride_tricks.sliding_window_view(xs, 2)


def cycle_detect(config: MapConfig, seed: int) -> tuple[int, int, bool]:
    """(transient, period, reaches_zero) of a seed's orbit: the steps
    before it enters its cycle, the cycle's minimal period, and whether
    that cycle is the fixed point 0.

    The orbit comes from the step's GF(2) map f.  f is linear, so by
    Fitting's lemma every orbit is on its cycle after k steps, and a
    cycle word other than 0 returns within 2^k - 1 steps.  The period
    is the first return of f^k(seed), scanned a block of words at a
    time: O(period) map words of time, two blocks of memory.  The
    transient is the first t with f^t(seed) = f^t(f^period(seed)).
    """
    seed = check_word(seed, config.width)
    k = config.width.k
    f = affine_map(config)
    head = f.orbit_array(seed, k)
    on = int(head[-1])
    start = 0
    for block in f.word_blocks(on, (1 << k) - 1, columns.BLOCK_ROWS):
        returns = start + np.flatnonzero(block == on)
        returns = returns[returns > 0]  # word 0 is on itself
        if returns.size:
            break
        start += len(block)
    period = int(returns[0])
    ahead = int(f.power(period).orbit_array(seed, 1)[-1])
    transient = int(np.argmax(head == f.orbit_array(ahead, k)))
    return transient, period, on == 0


def _least_ahead(succ: np.ndarray) -> np.ndarray:
    """Pointer doubling over a permutation (a union of cycles):
    label[v] is the least node of the cycle v lies on, in succ's dtype.

    After r rounds label[v] is the least of v's next 2**r nodes, which
    covers the whole cycle once 2**r >= n.  A round that would change no
    label stops it sooner: then label[v] <= label[jump[v]] for every v,
    and the jumps from v come back to v, so every label along them is
    equal; their windows together cover the cycle, so each label is
    already the cycle's least.  The jumps are converted to intp once:
    numpy would convert any other index array on every gather.
    """
    label, jump = np.arange(len(succ), dtype=succ.dtype), succ.astype(np.intp)
    for _ in range((len(succ) - 1).bit_length()):
        ahead = label[jump]
        if (ahead >= label).all():
            break
        np.minimum(label, ahead, out=label)
        jump = jump[jump]
    return label


def _peel(succ: np.ndarray):
    """Peel the nodes nothing points to off a functional graph, layer by
    layer: the layers in order, and the indegree that is left, nonzero
    exactly on the cycle nodes.  Both have succ's dtype.

    Each layer's successors are counted by sorting the layer alone, so a
    deep tail of small layers costs its own length, not the graph's size
    per layer; the per-layer temporaries die with this helper.
    """
    n, index = len(succ), succ.dtype
    indegree = np.bincount(succ, minlength=n).astype(index)
    layers = []
    layer = np.flatnonzero(indegree == 0).astype(index)
    while layer.size:
        layers.append(layer)
        hit, count = np.unique(succ[layer], return_counts=True)
        indegree[hit] -= count
        layer = hit[indegree[hit] == 0]
    return layers, indegree


def _classify(succ: np.ndarray):
    """Transient, period and root (the least node of the cycle it
    reaches) of every node of a functional graph, succ[v] being v's
    successor.  Every per-node array, the three results too, has succ's
    integer dtype, so 32-bit input keeps the work in 32-bit indices.

    _peel takes off the nodes nothing points to, layer by layer; what is
    left is the union of the cycles.  The cycle nodes are numbered 0, 1,
    ... in ascending order, so pointer doubling over them alone labels
    each with the local number of its cycle's least node, and a count of
    labels gives the periods.  Replaying the layers in reverse hands each
    peeled node its successor's root and period and one more transient
    step.
    """
    n, index = len(succ), succ.dtype
    layers, indegree = _peel(succ)
    cycle = np.flatnonzero(indegree).astype(index)
    # the spent indegree array holds each cycle node's local number
    local = indegree
    local[cycle] = np.arange(len(cycle), dtype=index)
    label = _least_ahead(local[succ[cycle]])
    root = np.empty(n, dtype=index)
    root[cycle] = cycle[label]
    period = np.zeros(n, dtype=index)
    period[cycle] = np.bincount(label)[label]
    transient = np.zeros(n, dtype=index)
    for layer in reversed(layers):
        ahead = succ[layer]
        transient[layer] = transient[ahead] + 1
        period[layer] = period[ahead]
        root[layer] = root[ahead]
    return transient, period, root


def cycle_table(config: MapConfig) -> CycleTable:
    """Cycle report for every seed of a configuration's width, exhaustively.

    One map evaluation per word builds the successor table, in int32
    (k is at most 20); the functional graph is then classified with
    whole-array operations in that dtype, so the seed, transient and
    period columns are int32 and reaches_zero is bool.  Results match
    cycle_detect.
    """
    k = config.width.k
    if k > CYCLE_ENUM_MAX_WIDTH:
        raise ValueError(
            f"exhaustive enumeration is limited to {CYCLE_ENUM_MAX_WIDTH} bits"
        )
    size = 1 << k
    succ = np.fromiter(
        map(step, repeat(config, size), range(size)), dtype=np.int32, count=size
    )
    transient, period, root = _classify(succ)
    return CycleTable(
        seed=np.arange(size, dtype=np.int32),
        transient=transient,
        period=period,
        reaches_zero=(period == 1) & (root == 0),
    )


def cycle_census(config: MapConfig) -> CycleCensus:
    """Aggregate cycle statistics over every seed of a configuration's width."""
    return CycleCensus.of(cycle_table(config))


def write_histogram_csv(result: HistogramResult, path) -> None:
    counts = result.counts
    columns.write(path, ["bin", "count"], len(counts), lambda rows: [
        columns.decimal(np.arange(rows.start, rows.stop)),
        columns.decimal(counts[rows]),
    ])


def write_autocorrelation_csv(result: AutocorrResult, path) -> None:
    lags, r = result.lags, result.r
    columns.write(path, ["lag", "r"], len(r), lambda rows: [
        columns.decimal(lags[rows]), columns.floats(r[rows]),
    ])


def write_divergence_csv(estimate: LyapunovEstimate, path) -> None:
    steps, curve = estimate.steps, estimate.curve
    columns.write(path, ["step", "mean_log_divergence"], len(curve), lambda rows: [
        columns.decimal(steps[rows]), columns.floats(curve[rows]),
    ])


def write_return_map_csv(samples, path) -> None:
    """The first-return map of a 1-D series: rows (x[i], x[i+1]).

    Each value is formatted once, as repr prints it, by columns.floats
    and serves both of its rows.  Input that
    is not 1-D, such as the (N-1, 2) array of first_return_pairs, is
    rejected rather than flattened into wrong rows.
    """
    xs = np.asarray(samples, dtype=float)
    if xs.ndim != 1:
        raise ValueError(f"return map needs a 1-D series, got shape {xs.shape}")

    def render(rows):
        text = columns.floats(xs[rows.start : rows.stop + 1])
        return [text[:-1], text[1:]]

    columns.write(path, ["x_n", "x_next"], max(len(xs) - 1, 0), render)


def write_cycle_reports_csv(table: CycleTable, width: BitWidth | int, path) -> None:
    digits = as_width(width).hex_digits
    flags = np.array([b"false", b"true"])
    header = ["seed", "transient", "period", "reaches_zero"]
    columns.write(path, header, len(table), lambda rows: [
        columns.hexadecimal(table.seed[rows], digits, prefix=b"0x"),
        columns.decimal(table.transient[rows]),
        columns.decimal(table.period[rows]),
        columns.strings(flags[table.reaches_zero[rows].astype(np.intp)]),
    ])
