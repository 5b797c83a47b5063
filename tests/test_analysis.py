"""Diagnostics tests: entropy, autocorrelation, histogram, cycles, Lyapunov."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tentbits import analysis
from tentbits.core import MapConfig, decode_series, iterate, step, tent_exact
from tentbits.analysis import (
    CYCLE_ENUM_MAX_WIDTH,
    EstimationError,
    _classify,
    _nearest_neighbors,
    autocorrelation,
    cycle_census,
    cycle_detect,
    cycle_table,
    first_return_pairs,
    histogram,
    lyapunov_rosenstein,
    shannon_entropy,
    write_autocorrelation_csv,
    write_cycle_reports_csv,
    write_divergence_csv,
    write_histogram_csv,
    write_return_map_csv,
)

LN2 = math.log(2.0)


def walk_cycle(config, seed):
    """Visited-set oracle for transient and period; independent of Brent."""
    seen = {}
    w = seed
    index = 0
    while w not in seen:
        seen[w] = index
        w = step(config, w)
        index += 1
    first = seen[w]
    return first, index - first


def exact_tent_trajectory(n, numerator=271828182845904523, denominator=1000000000000000003):
    """Reference series from the real tent map in exact rational arithmetic.

    The odd denominator keeps every iterate a non-dyadic rational, so
    the orbit never collapses the way a float iteration would.
    """
    x = Fraction(numerator, denominator)
    out = np.empty(n)
    for i in range(n):
        x = tent_exact(x)
        out[i] = float(x)
    return out


class TestShannonEntropy:
    def test_balanced_bits(self):
        assert shannon_entropy([500, 500]).h == pytest.approx(1.0, abs=1e-12)

    def test_fully_predictable(self):
        assert shannon_entropy([1000, 0]).h == 0.0

    def test_uniform_multibin(self):
        result = shannon_entropy([10, 10, 10, 10])
        assert result.h == pytest.approx(1.0, abs=1e-9)
        assert result.bins == 4

    def test_probabilities_normalized(self):
        result = shannon_entropy([3, 1])
        assert sum(result.probabilities) == pytest.approx(1.0, abs=1e-12)

    def test_single_bin_scores_zero(self):
        assert shannon_entropy([42]).h == 0.0

    @pytest.mark.parametrize("counts", ([5, 0], [0, 7, 0], [0, 3]))
    def test_one_loaded_slot_is_positive_zero(self, counts):
        # 1 ln 1 sums to -0.0, which a report would print as "-0.0"
        assert repr(shannon_entropy(counts).h) == "0.0"

    def test_rejects_bad_tables(self):
        with pytest.raises(ValueError):
            shannon_entropy([])
        with pytest.raises(ValueError):
            shannon_entropy([0, 0])
        with pytest.raises(ValueError):
            shannon_entropy([-1, 2])

    @given(st.lists(st.integers(0, 1000), min_size=2, max_size=16).filter(lambda c: sum(c) > 0))
    def test_bounded(self, counts):
        h = shannon_entropy(counts).h
        assert -1e-12 <= h <= 1 + 1e-12


class TestAutocorrelation:
    def test_lag_zero_is_one(self):
        result = autocorrelation([0.1, 0.9, 0.4, 0.2, 0.8], max_lag=2)
        assert result.r[0] == 1.0

    def test_alternating_series(self):
        # closed form: r(1) = -(N-1)/N for a 0,1,0,1 square wave
        n = 1000
        series = [i % 2 for i in range(n)]
        result = autocorrelation(series, max_lag=1)
        assert result.r[1] == pytest.approx(-(n - 1) / n, abs=1e-12)

    def test_coefficients_bounded(self):
        rng = np.random.default_rng(7)
        series = rng.random(512)
        result = autocorrelation(series, max_lag=100)
        assert np.all(np.abs(result.r) <= 1 + 1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_time_reversal_invariance(self, seed):
        rng = np.random.default_rng(seed)
        series = rng.random(257)
        forward = autocorrelation(series, max_lag=20).r
        backward = autocorrelation(series[::-1], max_lag=20).r
        assert np.allclose(forward, backward, atol=1e-9)

    def test_constant_series_rejected(self):
        with pytest.raises(EstimationError):
            autocorrelation([0.5] * 100, max_lag=5)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            autocorrelation([0.1, 0.2], max_lag=2)


class TestHistogram:
    def test_direct_binning(self):
        result = histogram([0.0, 0.5, 0.999], bins=2)
        assert list(result.counts) == [1, 2]

    def test_last_bin_closed(self):
        result = histogram([1.0, 1.0], bins=4)
        assert list(result.counts) == [0, 0, 0, 2]

    def test_single_bin_mass(self):
        result = histogram([0.25] * 40, bins=4)
        assert list(result.counts) == [0, 40, 0, 0]

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(3)
        series = rng.random(1000)
        result = histogram(series, bins=16)
        assert result.counts.sum() == 1000

    def test_chi_square_zero_when_exactly_uniform(self):
        series = [(b + 0.5) / 8 for b in range(8)] * 5
        assert histogram(series, bins=8).chi_square == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            histogram([0.5, 1.2], bins=4)
        with pytest.raises(ValueError):
            histogram([0.5], bins=1)

    # np.histogram drops a NaN while the expected count still holds it
    @pytest.mark.parametrize("at", (0, 1, 3), ids=("first", "middle", "last"))
    def test_rejects_nan(self, at):
        samples = [0.1, 0.7, 0.2]
        samples.insert(at, math.nan)
        with pytest.raises(ValueError, match=r"samples outside \[0, 1\]"):
            histogram(samples, bins=2)


class TestCycleDetect:
    def test_seven_cycle_seed(self):
        transient, period, reaches_zero = cycle_detect(MapConfig(width=4), 0b1000)
        assert (transient, period) == (0, 7)
        assert not reaches_zero

    def test_fixed_point_seed(self):
        transient, period, reaches_zero = cycle_detect(MapConfig(width=8), 0)
        assert (transient, period) == (0, 1)
        assert reaches_zero

    def test_one_step_transient(self):
        # 1 -> 3 enters the 7-cycle {8,14,3,6,13,5,11} immediately
        transient, period, _ = cycle_detect(MapConfig(width=4), 0b0001)
        assert (transient, period) == (1, 7)

    @pytest.mark.parametrize("k", range(2, 9))
    @pytest.mark.parametrize("perturbed", (True, False))
    def test_matches_visited_set_oracle(self, k, perturbed):
        config = MapConfig(width=k, perturbed=perturbed)
        for seed in range(1 << k):
            expected = walk_cycle(config, seed)
            transient, period, _ = cycle_detect(config, seed)
            assert (transient, period) == expected

    def test_unperturbed_interior_fixed_point(self):
        # decode(10)/15 = 2/3 is the tent map's fixed point
        transient, period, reaches_zero = cycle_detect(
            MapConfig(width=4, perturbed=False), 0b1010
        )
        assert (transient, period) == (0, 1)
        assert not reaches_zero


def table_rows(table):
    """(seed, transient, period, reaches_zero) of each row, as Python values."""
    return zip(
        table.seed.tolist(),
        table.transient.tolist(),
        table.period.tolist(),
        table.reaches_zero.tolist(),
    )


class TestCycleTable:
    def test_two_bit_hand_enumeration(self):
        # f: 0->0, 1->3, 2->3, 3->0; every orbit drains into the fixed point
        assert list(table_rows(cycle_table(2))) == [
            (0, 0, 1, True),
            (1, 2, 1, True),
            (2, 2, 1, True),
            (3, 1, 1, True),
        ]

    @pytest.mark.parametrize("k", range(2, 9))
    @pytest.mark.parametrize("perturbed", (True, False))
    def test_matches_cycle_detect(self, k, perturbed):
        config = MapConfig(width=k, perturbed=perturbed)
        table = cycle_table(k, perturbed)
        assert table.seed.tolist() == list(range(1 << k))
        for seed, *row in table_rows(table):
            assert tuple(row) == cycle_detect(config, seed)

    def test_four_bit_zero_reaching_set(self):
        table = cycle_table(4)
        assert table.seed[table.reaches_zero].tolist() == [0, 15]

    def test_width_bound(self):
        with pytest.raises(ValueError):
            cycle_table(CYCLE_ENUM_MAX_WIDTH + 1)

    @pytest.mark.parametrize("perturbed", (True, False))
    def test_report_field_invariants(self, perturbed):
        size = 1 << 8
        table = cycle_table(8, perturbed)
        assert len(table) == size
        assert (table.period >= 1).all()
        assert (table.transient >= 0).all()
        assert (table.transient + table.period <= size).all()

    def test_one_map_step_per_word(self, monkeypatch):
        # the benchmark predicts 2**k core.step calls for a census
        calls = []

        def counted(config, w):
            calls.append(w)
            return step(config, w)

        monkeypatch.setattr(analysis, "step", counted)
        assert len(cycle_table(10)) == 1024
        assert len(calls) == 1024


def classify_oracle(succ):
    """Visited-set walk of a functional graph: (transient, period, least
    node of the cycle reached) per node.  A walk stops at a node an
    earlier walk resolved, so each node is walked once."""
    out = [None] * len(succ)
    for v in range(len(succ)):
        seen, path = {}, []
        while v not in seen and out[v] is None:
            seen[v] = len(path)
            path.append(v)
            v = succ[v]
        if out[v] is None:
            # the walk closed a new cycle, entered at v
            cycle = path[seen[v]:]
            entry = (0, len(cycle), min(cycle))
            for u in cycle:
                out[u] = entry
            del path[seen[v]:]
        transient, period, root = out[v]
        for u in reversed(path):
            transient += 1
            out[u] = (transient, period, root)
    return out


class TestClassify:
    def _check(self, succ):
        transient, period, root = _classify(np.asarray(succ, dtype=np.intp))
        got = list(zip(transient.tolist(), period.tolist(), root.tolist()))
        assert got == classify_oracle(succ)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_functional_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 400))
        self._check(rng.integers(0, n, n).tolist())

    def test_long_chain_into_self_loop(self):
        # 500 -> 499 -> ... -> 1 -> 0 -> 0
        self._check([0] + list(range(500)))

    # one cycle longer than half the graph needs every doubling round
    @pytest.mark.parametrize(
        "lengths", ((1, 2, 3, 5, 8, 13, 21, 34, 55, 158), (300,)), ids=("ten", "one")
    )
    def test_permutation_of_cycles(self, lengths):
        nodes = np.random.default_rng(7).permutation(300).tolist()
        succ = [0] * 300
        start = 0
        for length in lengths:
            cycle = nodes[start : start + length]
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                succ[a] = b
            start += length
        self._check(succ)

    def test_tails_into_one_long_cycle(self):
        # a 100-cycle on 0..99; nodes 100.. hang off it in chains
        succ = [(v + 1) % 100 for v in range(100)]
        rng = np.random.default_rng(8)
        for v in range(100, 600):
            succ.append(int(rng.integers(0, v)))
        self._check(succ)

    def test_cycles_above_their_tails(self):
        # the cycles hold the highest ids and every tail node points
        # upwards, so a cycle node's rank among the cycle nodes is never
        # its id and a root given as a rank fails the oracle
        rng = np.random.default_rng(10)
        n = 600
        succ = [0] * n
        cycle_nodes = rng.permutation(np.arange(400, n)).tolist()
        start = 0
        for length in (1, 2, 7, 40, 150):
            cycle = cycle_nodes[start : start + length]
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                succ[a] = b
            start += length
        for v in range(400):
            succ[v] = int(rng.integers(v + 1, n))
        self._check(succ)
        _, _, root = _classify(np.asarray(succ, dtype=np.intp))
        assert root.min() >= 400

    @pytest.mark.parametrize("perturbed", (True, False))
    @pytest.mark.parametrize("k", (12, 16))
    def test_word_model_successor_tables(self, k, perturbed):
        config = MapConfig(width=k, perturbed=perturbed)
        self._check([step(config, w) for w in range(1 << k)])

    @pytest.mark.parametrize("n", (1, 2, 257))
    def test_everything_maps_to_zero(self, n):
        self._check([0] * n)

    def test_long_cycle_among_self_loops(self):
        # the self-loops settle in the first round, the 4096-cycle only
        # after twelve: doubling must not stop while any label moves
        n, length = 20000, 4096
        cycle = np.random.default_rng(9).permutation(n)[:length]
        succ = np.arange(n)
        succ[cycle] = np.roll(cycle, -1)
        transient, period, root = _classify(succ)
        on_cycle = np.isin(np.arange(n), cycle)
        assert not transient.any()
        assert (period == np.where(on_cycle, length, 1)).all()
        assert (root == np.where(on_cycle, cycle.min(), np.arange(n))).all()


class TestCycleCensus:
    def test_four_bit_aggregate(self):
        census = cycle_census(4)
        assert census.zero_reaching == 2
        assert census.max_period == 7
        assert census.seeds == 16
        assert census.mean_period == pytest.approx((2 * 1 + 14 * 7) / 16)

    def test_eight_bit_variants_measured(self):
        perturbed = cycle_census(8, perturbed=True)
        plain = cycle_census(8, perturbed=False)
        assert perturbed.zero_reaching == 2
        # direction is measured, not asserted; record both max periods
        assert perturbed.max_period >= 1 and plain.max_period >= 1
        assert perturbed.max_period != plain.max_period

    def test_determinism(self):
        assert cycle_census(6) == cycle_census(6)

    def test_twenty_bit_census_pinned(self):
        # the earlier per-seed sweep's figures; 516033 = lcm(63, 8191)
        perturbed = cycle_census(20)
        assert perturbed.seeds == 1 << 20
        assert perturbed.max_period == 516033
        assert perturbed.mean_period == 508035.95264434814
        assert perturbed.zero_reaching == 2
        plain = cycle_census(20, perturbed=False)
        assert plain.max_period == 20
        assert plain.mean_period == 19.979995727539062


class TestFirstReturnPairs:
    def test_definition(self):
        pairs = first_return_pairs([0.2, 0.4, 0.8])
        assert pairs.tolist() == [[0.2, 0.4], [0.4, 0.8]]

    def test_length_two_series(self):
        assert first_return_pairs([0.3, 0.6]).shape == (1, 2)

    def test_read_only_view_of_the_series(self):
        xs = np.linspace(0.0, 1.0, 1000)
        pairs = first_return_pairs(xs)
        assert np.shares_memory(pairs, xs)
        assert not pairs.flags.writeable
        assert np.array_equal(pairs, np.column_stack([xs[:-1], xs[1:]]))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            first_return_pairs([0.5])

    def test_unperturbed_pairs_sit_on_tent_graph(self):
        config = MapConfig(width=8, perturbed=False)
        values = decode_series(iterate(config, 101, 400), 8)
        for x, x_next in first_return_pairs(values):
            assert x_next == pytest.approx(tent_exact(x), abs=1e-15)

    def test_perturbed_pairs_track_tent_within_one_ulp(self):
        config = MapConfig(width=8, perturbed=True)
        values = decode_series(iterate(config, 101, 400), 8)
        ulp = 1 / 255
        for x, x_next in first_return_pairs(values):
            assert abs(x_next - tent_exact(x)) <= ulp + 1e-12


class TestLyapunovRosenstein:
    def test_periodic_series_shows_no_divergence(self):
        series = np.array([0.0, 0.0, 1.0, 1.0] * 1024)
        estimate = lyapunov_rosenstein(series)
        assert estimate.exponent <= 0.05

    def test_exact_tent_trajectory_matches_analytic_value(self):
        series = exact_tent_trajectory(16384)
        estimate = lyapunov_rosenstein(series)
        assert estimate.exponent == pytest.approx(LN2, abs=0.05)
        assert estimate.fit_range == (1, 8)
        assert estimate.neighbor_count > 15000

    def test_sixteen_bit_series_is_chaotic(self):
        config = MapConfig(width=16)
        values = decode_series(iterate(config, 0x5A3C, 20000)[1:], 16)
        estimate = lyapunov_rosenstein(values)
        assert 0.5 < estimate.exponent < 0.9

    def test_short_series_rejected(self):
        with pytest.raises(EstimationError):
            lyapunov_rosenstein(np.linspace(0, 1, 999))

    def test_constant_series_rejected(self):
        with pytest.raises(EstimationError):
            lyapunov_rosenstein(np.full(2000, 0.25))

    @pytest.mark.parametrize("delay", (999, 1000, 5000))
    def test_embedding_longer_than_series_rejected(self, delay):
        # fewer than two embedded points: the cause is the embedding, not
        # a constant series
        series = np.random.default_rng(7).random(1000)
        with pytest.raises(EstimationError, match="need at least .* samples, got 1000"):
            lyapunov_rosenstein(series, delay=delay)

    def test_bad_fit_range_rejected(self):
        series = exact_tent_trajectory(2000)
        with pytest.raises(ValueError):
            lyapunov_rosenstein(series, fit_range=(5, 20))
        with pytest.raises(ValueError):
            lyapunov_rosenstein(series, fit_range=(8, 1))

    def test_curve_is_monotone_before_saturation(self):
        series = exact_tent_trajectory(8192)
        estimate = lyapunov_rosenstein(series)
        window = estimate.curve[1:9]
        assert np.all(np.diff(window) > 0)


def reference_curve(samples, embed_dim, delay, theiler_window, max_steps):
    """The per-step divergence loop lyapunov_rosenstein replaced: at each
    step gather the embedded points of the pairs still inside the
    series, two rows per pair, and let numpy sum each difference row's
    squares.  Returns (curve, neighbor_count)."""
    xs = np.asarray(samples, dtype=float)
    n = xs.size - (embed_dim - 1) * delay
    points = np.column_stack([xs[j * delay : j * delay + n] for j in range(embed_dim)])
    anchors, partners = _nearest_neighbors(points, theiler_window)
    curve = np.full(max_steps + 1, np.nan)
    for s in range(max_steps + 1):
        alive = (anchors + s < n) & (partners + s < n)
        diffs = points[anchors[alive] + s] - points[partners[alive] + s]
        dists = np.sqrt((diffs * diffs).sum(axis=1))
        dists = dists[dists > 0.0]
        if dists.size:
            curve[s] = float(np.log(dists).mean())
    return curve, len(anchors)


def divergence_series(kind, size, seed):
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.random(size)
    if kind == "quantized":
        return np.floor(rng.random(size) * 16) / 16
    word = int(rng.integers(1, 0xFFFF))
    return decode_series(iterate(MapConfig(width=16), word, size)[1:], 16)


class TestDivergenceCurve:
    def _check(self, xs, embed_dim, delay, theiler_window, max_steps, exact=True):
        params = dict(embed_dim=embed_dim, delay=delay, theiler_window=theiler_window)
        want, count = reference_curve(xs, **params, max_steps=max_steps)
        got = lyapunov_rosenstein(xs, **params, max_steps=max_steps)
        assert got.neighbor_count == count
        if exact:
            assert np.array_equal(got.curve, want, equal_nan=True)
            slope = np.polyfit(np.arange(1, 9), want[1:9], 1)[0]
            assert got.exponent == slope
        else:
            # from 8 dimensions numpy sums a row pairwise, the estimator in
            # column order: each distance moves by a few float64 roundings
            # (eps 2.2e-16), so its log, and the mean of the logs, by about
            # as much in absolute terms
            np.testing.assert_allclose(got.curve, want, rtol=0, atol=1e-12)

    @given(
        st.sampled_from(("random", "quantized", "tent")),
        st.integers(1000, 2500),
        st.integers(0, 2**32 - 1),
        st.integers(1, 7),
        st.integers(1, 3),
        st.integers(0, 50),
        st.integers(12, 30),
    )
    @settings(max_examples=120, deadline=None)
    def test_equals_the_per_step_gather(
        self, kind, size, seed, embed_dim, delay, theiler_window, max_steps
    ):
        xs = divergence_series(kind, size, seed)
        self._check(xs, embed_dim, delay, theiler_window, max_steps)

    @pytest.mark.parametrize("embed_dim", (1, 2, 3))
    @pytest.mark.parametrize("max_steps", (30, 700))
    def test_pairs_drop_out_near_the_end(self, embed_dim, max_steps):
        # every point of one half pairs with its near copy in the other,
        # so a pair (a, a + 600) leaves the series at step n - a - 600:
        # rows drop out one by one, and past step 600 none is left
        rng = np.random.default_rng(21)
        base = rng.random(600)
        xs = np.concatenate([base, base + 1e-9 * rng.random(600)])
        self._check(xs, embed_dim, 1, 10, max_steps)

    @pytest.mark.parametrize("embed_dim", (8, 9))
    @pytest.mark.parametrize("kind", ("random", "tent"))
    def test_wide_embeddings_agree_to_rounding(self, embed_dim, kind):
        xs = divergence_series(kind, 2000, embed_dim)
        self._check(xs, embed_dim, 1, 10, 12, exact=False)

    @pytest.mark.parametrize("block", (1, 7, 64))
    def test_any_block_size(self, monkeypatch, block):
        # a step's log-distances go into one buffer block by block, so
        # its mean reads the whole-series array; near the end whole
        # blocks of pairs have left the series
        monkeypatch.setattr(analysis, "SWEEP_ROWS", block)
        for embed_dim in (1, 2):
            self.test_pairs_drop_out_near_the_end(embed_dim, 30)
        if block == 1:  # a walk and a gather per point: seconds per series
            return
        self.test_pairs_drop_out_near_the_end(3, 700)
        for kind, embed_dim, delay, w in (
            ("random", 2, 1, 10), ("quantized", 3, 2, 0), ("tent", 2, 1, 10),
        ):
            self._check(divergence_series(kind, 1000, block), embed_dim, delay, w, 12)

    def test_tent_series_over_three_blocks(self):
        n = 3 * analysis.SWEEP_ROWS + 5
        xs = decode_series(iterate(MapConfig(width=32), 0x12345678, n)[1:], 32)
        self._check(xs, 2, 1, 10, 12)


def brute_force_partners(points, w):
    """O(n^2) reference: argmin (distance, j) over distance > 0, |i - j| > w."""
    diffs = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diffs * diffs).sum(axis=2))
    idx = np.arange(len(points))
    valid = (dist > 0.0) & (np.abs(idx[:, None] - idx[None, :]) > w)
    # argmin takes the first of equal minima: the lower index
    partners = np.where(valid, dist, np.inf).argmin(axis=1)
    anchors = np.flatnonzero(valid.any(axis=1))
    return anchors, partners[anchors]


class TestNearestNeighbors:
    def _check(self, points, w):
        anchors, partners = _nearest_neighbors(points, w)
        ref_anchors, ref_partners = brute_force_partners(points, w)
        np.testing.assert_array_equal(anchors, ref_anchors)
        np.testing.assert_array_equal(partners, ref_partners)

    # w = 20 leaves up to 40 nearer points inside the window, so a walk
    # passes many points before its first partner
    @pytest.mark.parametrize("w", (0, 10, 20))
    def test_continuous_points(self, w):
        points = np.random.default_rng(11).random((1500, 2))
        self._check(points, w)

    @pytest.mark.parametrize("w", (0, 10, 20))
    def test_tie_heavy_lattice(self, w):
        # 4 x 8 = 32 distinct points, 8 to each first coordinate: ties
        # in the first column keep the walks going past them
        rng = np.random.default_rng(12)
        points = np.column_stack(
            [rng.integers(0, 4, 1500), rng.integers(0, 8, 1500)]
        ).astype(float)
        self._check(points, w)

    @pytest.mark.parametrize("w", (0, 10, 20))
    def test_four_bit_orbit(self, w):
        # a 7-state cycle: every embedded point repeats every 7 steps
        xs = np.asarray(decode_series(iterate(MapConfig(width=4), 0x8, 1500)[1:], 4))
        self._check(np.column_stack([xs[:-1], xs[1:]]), w)

    @pytest.mark.parametrize("w", (16, 20, 40))
    def test_window_sized_query_holds_a_partner(self, w):
        # on a line the 2w nearest points of i are all inside its window,
        # so each walk goes w + 1 points out before it finds a partner
        points = np.arange(300.0)[:, None]
        anchors, partners = _nearest_neighbors(points, w)
        assert anchors.tolist() == list(range(300))
        assert np.all(np.abs(partners - anchors) == w + 1)

    @pytest.mark.parametrize("w", (15, 20))
    def test_ties_past_the_query_go_to_lower_index(self, w):
        # i - w - 1 and i + w + 1 tie at the same distance, one on each
        # side of i, and the lower index must win from either side
        self._check(np.arange(300.0)[:, None], w)

    def test_points_without_partner_are_left_out(self):
        # no index of 0..39 lies more than 30 away from 9..30
        points = np.arange(40.0)[:, None]
        anchors, _ = _nearest_neighbors(points, 30)
        assert anchors.tolist() == [*range(9), *range(31, 40)]
        self._check(points, 30)

    @pytest.mark.parametrize("w", (0, 10, 20))
    def test_single_and_repeated_points(self, w):
        # points seen once take the first-member lookup alone; repeated
        # ones may need the search past the window as well
        rng = np.random.default_rng(13)
        single = rng.random((600, 2))
        lattice = np.column_stack(
            [rng.integers(0, 3, 900), rng.integers(0, 3, 900)]
        ) / 2.0
        self._check(rng.permutation(np.concatenate([single, lattice])), w)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("scale", (1e-310, 1e-160, 1e150))
    def test_scaled_points_match_brute_force(self, scale, seed):
        # at 1e-160 the squared gaps are subnormal, so a distance can
        # round below the first-column gap |dx0|; at 1e-310 every
        # square is 0 and no pair has positive distance
        points = np.random.default_rng(seed).random((300, 2)) * scale
        if brute_force_partners(points, 10)[0].size:
            self._check(points, 10)
        else:
            with pytest.raises(EstimationError):
                _nearest_neighbors(points, 10)

    @pytest.mark.parametrize("w", (0, 10))
    @pytest.mark.parametrize("embed_dim", (1, 2, 3))
    @pytest.mark.parametrize(
        "k,seed",
        [(8, 0x40), (16, 0x5A3C), (32, 0x12345678), (64, 0x123456789ABCDEF)],
        ids=("k8", "k16", "k32", "k64"),
    )
    def test_tent_orbit_embeddings(self, k, seed, embed_dim, w):
        # the delay embeddings `analyze` passes, at the CLI's seeds
        xs = decode_series(iterate(MapConfig(width=k), seed, 2000)[1:], k)
        n = len(xs) - embed_dim + 1
        self._check(np.column_stack([xs[j : j + n] for j in range(embed_dim)]), w)

    @pytest.mark.parametrize("block", (1, 7, 64))
    def test_any_block_size(self, monkeypatch, block):
        # a walk reads only shared arrays and writes only its own best,
        # so no block of sorted positions, down to one, moves a partner
        monkeypatch.setattr(analysis, "SWEEP_ROWS", block)
        for w in (15, 20):
            self.test_ties_past_the_query_go_to_lower_index(w)
        self.test_points_without_partner_are_left_out()
        for seed in range(2):
            self.test_scaled_points_match_brute_force(1e-160, seed)
        for w in (0, 10, 20):
            self.test_four_bit_orbit(w)
            if block > 1:  # one walk per block: seconds per 1500-point cloud
                self.test_continuous_points(w)
                self.test_tie_heavy_lattice(w)
                self.test_single_and_repeated_points(w)

    @pytest.mark.parametrize("k,seed", [(8, 0x40), (32, 0x12345678)], ids=("k8", "k32"))
    def test_three_blocks_and_five_match_one_block(self, monkeypatch, k, seed):
        # too many points for the brute force: the real blocks against
        # one block that holds every point
        n = 3 * analysis.SWEEP_ROWS + 5
        xs = decode_series(iterate(MapConfig(width=k), seed, n + 1)[1:], k)
        points = np.column_stack([xs[:-1], xs[1:]])
        got = _nearest_neighbors(points, 10)
        monkeypatch.setattr(analysis, "SWEEP_ROWS", n)
        want = _nearest_neighbors(points, 10)
        for got_part, want_part in zip(got, want):
            np.testing.assert_array_equal(got_part, want_part)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_quantized_points_match_brute_force(self, data):
        # few levels: many rows have no partner among their first
        # neighbours, or tie at the query's edge
        n = data.draw(st.integers(20, 400))
        dim = data.draw(st.integers(1, 3))
        levels = data.draw(st.integers(2, 6))
        w = data.draw(st.integers(0, 12))
        points = data.draw(
            arrays(np.int8, (n, dim), elements=st.integers(0, levels - 1))
        ).astype(float)
        if brute_force_partners(points, w)[0].size:
            self._check(points, w)
        else:
            with pytest.raises(EstimationError):
                _nearest_neighbors(points, w)

    @pytest.mark.parametrize(
        "k,seed,neighbors,exponent",
        [
            (8, 0x40, 65535, 0.4885703462981267),
            (16, 0x5A3C, 65535, 0.6905107781294528),
            (24, 0xABCDE, 65535, 0.6928056063840703),
            (32, 0x12345678, 65535, 0.6927844286208811),
            (64, 0x123456789ABCDEF, 65535, 0.6928749795048789),
        ],
        ids=("k8", "k16", "k24", "k32", "k64"),
    )
    def test_cli_parameters_pinned(self, k, seed, neighbors, exponent):
        # the parameters and seeds of `analyze` and the acceptance criteria
        values = decode_series(iterate(MapConfig(width=k), seed, 65536)[1:], k)
        estimate = lyapunov_rosenstein(
            values, embed_dim=2, delay=1, theiler_window=10, max_steps=12
        )
        assert estimate.neighbor_count == neighbors
        assert estimate.exponent == exponent


class TestCsvWriters:
    def test_histogram_csv(self, tmp_path):
        result = histogram([0.1, 0.6, 0.7], bins=2)
        path = tmp_path / "hist.csv"
        write_histogram_csv(result, path)
        assert path.read_text().splitlines() == ["bin,count", "0,1", "1,2"]

    def test_autocorrelation_csv(self, tmp_path):
        result = autocorrelation([0.0, 1.0, 0.0, 1.0, 0.0, 1.0], max_lag=1)
        path = tmp_path / "ac.csv"
        write_autocorrelation_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "lag,r"
        assert lines[1] == "0,1.0"

    def test_divergence_csv(self, tmp_path):
        series = exact_tent_trajectory(2000)
        estimate = lyapunov_rosenstein(series)
        path = tmp_path / "div.csv"
        write_divergence_csv(estimate, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,mean_log_divergence"
        assert len(lines) == 14  # header + steps 0..12

    def test_return_map_csv(self, tmp_path):
        path = tmp_path / "rm.csv"
        write_return_map_csv([0.2, 0.4, 0.8], path)
        assert path.read_text().splitlines() == [
            "x_n,x_next",
            "0.2,0.4",
            "0.4,0.8",
        ]

    def test_return_map_rejects_pairs(self, tmp_path):
        # the (N-1, 2) pairs, flattened, would give rows of wrong pairs
        path = tmp_path / "rm.csv"
        with pytest.raises(ValueError, match="1-D series"):
            write_return_map_csv(first_return_pairs([0.2, 0.4, 0.8]), path)
        assert not path.exists()

    def test_cycle_reports_csv(self, tmp_path):
        path = tmp_path / "cycles.csv"
        write_cycle_reports_csv(cycle_table(2), 2, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "seed,transient,period,reaches_zero"
        assert lines[1] == "0x0,0,1,true"
        assert len(lines) == 5
