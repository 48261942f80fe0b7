import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from dispgrid import (
    BoxClass,
    CertificationError,
    GeneratedSet,
    PointSet,
    SearchLimitExceeded,
    certify_dispersion,
    empirical_min_n,
    exact_failure_probability,
    full_grid,
    generate_certified,
    has_empty_box_above,
    largest_empty_box,
    ln_union_failure_bound,
    monte_carlo_success,
    n_required,
    sample_grid_points,
    wilson_interval,
)
from dispgrid import construct, partition
from dispgrid.guards import GuardExceeded
from dispgrid.partition import _class_table, _feasible_spans, feasible_class_table

from oracles import (
    core_contains,
    gray_code_first_misses,
    reference_certify,
    reference_class_table,
    reference_monte_carlo,
    single_pass_first_misses,
)


class TestSampling:
    def test_determinism(self):
        a = sample_grid_points(2, 3, 50, seed=123)
        b = sample_grid_points(2, 3, 50, seed=123)
        assert a == b

    def test_different_seeds_differ(self):
        assert sample_grid_points(2, 2, 50, seed=1) != sample_grid_points(2, 2, 50, seed=2)

    def test_marginals_uniform(self):
        pts = sample_grid_points(2, 1, 30000, seed=99)
        freq = Counter(a for (a,) in pts.points)
        for a in (1, 2, 3):
            assert abs(freq[a] / 30000 - 1 / 3) < 0.01

    def test_coordinates_uncorrelated(self):
        pts = sample_grid_points(2, 2, 30000, seed=17)
        xs = [row[0] for row in pts.points]
        ys = [row[1] for row in pts.points]
        n = len(xs)
        mean_x = sum(xs) / n
        mean_y = sum(ys) / n
        cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / n
        var_x = sum((x - mean_x) ** 2 for x in xs) / n
        var_y = sum((y - mean_y) ** 2 for y in ys) / n
        rho = cov / math.sqrt(var_x * var_y)
        assert abs(rho) < 0.02

    def test_range_is_full_grid(self):
        pts = sample_grid_points(3, 1, 5000, seed=5)
        assert {a for (a,) in pts.points} == set(range(1, 8))


class TestFullGrid:
    def test_k2_d2_has_nine_points(self):
        fg = full_grid(2, 2)
        assert fg.n == 9
        assert fg.distinct_count == 9

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            full_grid(5, 5, limit=100)

    def test_guard_counts_every_numerator_before_the_grid_exists(self, monkeypatch):
        calls = []
        indices = np.indices
        monkeypatch.setattr(np, "indices", lambda *args: calls.append(args) or indices(*args))
        with pytest.raises(GuardExceeded) as info:
            full_grid(2, 15)
        # 15 numerators for each of the 3^15 points
        assert (info.value.what, info.value.count) == ("full grid", 215_233_605)
        assert calls == []
        assert full_grid(2, 2, limit=18).n == 9
        with pytest.raises(GuardExceeded):
            full_grid(2, 2, limit=17)
        assert calls == [((3, 3),)]


class TestCertificate:
    def test_full_grid_passes(self):
        cert = certify_dispersion(full_grid(2, 2), 2)
        assert cert.passed
        assert cert.witness is None

    @pytest.mark.parametrize(
        "k,d",
        [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3)],
    )
    def test_full_grid_always_certifies(self, k, d):
        assert certify_dispersion(full_grid(k, d), k).passed

    @pytest.mark.parametrize(
        "k,d,classes", [(7, 2, 60_874_509), (8, 2, 1_012_909_708), (14, 1, 134_209_536)]
    )
    def test_full_grid_certifies_at_fine_k(self, k, d, classes):
        # the default guard admits these, as only the minimal classes are expanded
        cert = certify_dispersion(full_grid(k, d), k)
        assert (cert.passed, cert.classes_checked) == (True, classes)

    def test_single_point_fails(self):
        cert = certify_dispersion(PointSet.from_numerators(2, 2, [(1, 1)]), 2)
        assert not cert.passed
        assert not core_contains(cert.witness.core_box(), (1, 1))

    def test_k_mismatch(self):
        with pytest.raises(ValueError):
            certify_dispersion(full_grid(2, 1), 3)

    def test_real_points_rejected(self):
        with pytest.raises(ValueError):
            certify_dispersion(PointSet.from_reals(1, [(0.5,)]), 2)

    def test_matches_reference_scan(self):
        # the prefix-sum count reports the reference scan's first miss, or a pass
        rng = random.Random(31)
        groups = {}
        for _ in range(1000):
            k, d, n = rng.randint(2, 4), rng.randint(1, 3), rng.randint(1, 60)
            groups.setdefault((k, d), []).append(
                sample_grid_points(k, d, n, seed=rng.randrange(2**32))
            )
        fails = 0
        for (k, d), sets in sorted(groups.items()):
            for pts, want in zip(sets, reference_certify(sets, k)):
                cert = certify_dispersion(pts, k)
                assert (cert.passed, cert.classes_checked, cert.witness) == want
                fails += not cert.passed
        assert 400 < fails < 800

    @pytest.mark.parametrize("block", [3, 16, 64])
    def test_blocks_stop_at_the_reference_miss(self, monkeypatch, block):
        # with small class blocks, misses land in the first and in later
        # blocks, and a pass runs every block
        monkeypatch.setattr(partition, "BLOCK_CLASSES", block)
        rng = random.Random(block)
        blocks = set()
        passes = 0
        for k, d, n_max in [(2, 2, 40), (2, 3, 80), (3, 2, 160)]:
            sets = [
                sample_grid_points(k, d, rng.randint(1, n_max), seed=rng.randrange(2**32))
                for _ in range(60)
            ]
            for pts, want in zip(sets, reference_certify(sets, k)):
                cert = certify_dispersion(pts, k)
                assert (cert.passed, cert.classes_checked, cert.witness) == want
                if cert.passed:
                    passes += 1
                else:
                    blocks.add((cert.classes_checked - 1) // block)
        assert passes > 0 and 0 in blocks and len(blocks) > 2

    def test_chunk_trials_leave_at_their_own_block(self, monkeypatch):
        # the class table in a shuffled order puts first misses in every
        # block, the last one included; each trial of one chunk is checked
        # against a scan in that order
        monkeypatch.setattr(partition, "BLOCK_CLASSES", 50)
        anchors, spans = reference_class_table(3, 2)
        order = np.random.default_rng(3).permutation(len(anchors))
        anchors, spans = anchors[order], spans[order]
        last_block = (len(anchors) - 1) // 50
        rng = np.random.default_rng(4)
        numerators = rng.integers(1, 8, size=(200, 60, 2))
        numerators[:20] = np.resize(full_grid(3, 2).points, (60, 2))  # these pass
        cores = [
            BoxClass(3, tuple(anchor), tuple(span)).core_box()
            for anchor, span in zip(anchors.tolist(), spans.tolist())
        ]
        lo = np.array([core.lo for core in cores])[:, None]
        hi = np.array([core.hi for core in cores])[:, None]
        corners = partition._corner_matrix(3, anchors, spans, np.arange(len(spans)))
        first = partition._first_misses(numerators, 3, corners)
        for trial, got in zip(numerators, first.tolist()):
            hit = ((lo <= trial) & (trial <= hi)).all(axis=2).any(axis=1)
            assert got == (len(anchors) if hit.all() else int(np.argmin(hit)))
        blocks = {i // 50 for i in first.tolist() if i < len(anchors)}
        assert {0, last_block} <= blocks and len(blocks) > 2
        assert (first == len(anchors)).sum() >= 20

    @pytest.mark.parametrize("k,d,n_max", [(2, 2, 40), (2, 3, 80), (3, 2, 160), (3, 3, 400)])
    def test_exact_on_grid_input(self, k, d, n_max):
        # on a grid set at its own k, a fail means an empty box above 2^-k,
        # and a certified set has dispersion exactly 2^-k
        rng = random.Random(100 * k + d)
        threshold = Fraction(1, 2**k)
        outcomes = Counter()
        for _ in range(40):
            pts = sample_grid_points(k, d, rng.randint(1, n_max), seed=rng.randrange(2**32))
            passed = certify_dispersion(pts, k).passed
            assert passed == (not has_empty_box_above(pts, threshold).found)
            if passed:
                assert largest_empty_box(pts).volume == threshold
            outcomes[passed] += 1
        assert outcomes[True] > 0 and outcomes[False] > 0

    def test_empty_set_misses_first_class(self):
        pts = PointSet.from_numerators(2, 2, [])
        cert = certify_dispersion(pts, 2)
        assert (cert.passed, cert.classes_checked, cert.witness) == reference_certify([pts], 2)[0]
        assert cert.classes_checked == 1

    def test_guard_checked_after_caching(self, monkeypatch):
        pts = full_grid(2, 2)
        assert certify_dispersion(pts, 2).passed
        with pytest.raises(GuardExceeded):
            certify_dispersion(pts, 2, limit=10)
        monkeypatch.setenv("DISPGRID_ENUM_LIMIT", "10")
        with pytest.raises(GuardExceeded):
            certify_dispersion(pts, 2)

    def test_witness_from_the_full_table(self):
        # the minimal cores decide, and a fail reports the full table's first miss,
        # read here by the Gray-code kernel over every class
        rng = np.random.default_rng(5)
        outcomes = Counter()
        cases = [(2, 4, 40), (2, 7, 80), (3, 2, 120), (3, 3, 600), (4, 2, 500), (5, 2, 4000)]
        for k, d, n_max in cases:
            table = feasible_class_table(k, d)
            anchors, spans = reference_class_table(k, d)
            for _ in range(12):
                n, seed = int(rng.integers(1, n_max)), int(rng.integers(2**32))
                pts = sample_grid_points(k, d, n, seed)
                i = int(gray_code_first_misses(pts.points[None], k, anchors, spans)[0])
                assert certify_dispersion(pts, k) == construct._certificate(table, i)
                outcomes[i == len(anchors)] += 1
        assert outcomes[True] > 0 and outcomes[False] > 0

    @pytest.mark.parametrize(
        "k,d,n_low,n_high",
        [(2, 3, 4, 20), (2, 8, 20, 45), (3, 2, 10, 60), (3, 3, 40, 120), (4, 2, 60, 250), (5, 2, 300, 1000)],
    )
    def test_witness_has_minimal_spans(self, k, d, n_low, n_high):
        # the first empty core in table order cannot shrink to an earlier one,
        # so a failing set's witness has no feasible span vector one below it
        table = feasible_class_table(k, d)
        anchors, spans = reference_class_table(k, d)
        feasible = set(map(tuple, spans.tolist()))
        rng = np.random.default_rng(10 * k + d)
        rows = set()
        for _ in range(40):
            n, seed = int(rng.integers(n_low, n_high)), int(rng.integers(2**32))
            pts = sample_grid_points(k, d, n, seed)
            cert = certify_dispersion(pts, k)
            if cert.passed:
                continue
            span = cert.witness.span
            assert not any(span[:i] + (span[i] - 1,) + span[i + 1 :] in feasible for i in range(d))
            i = int(gray_code_first_misses(pts.points[None], k, anchors, spans)[0])
            assert cert == construct._certificate(table, i)
            rows.add(i)
        assert len(rows) >= 10

    def test_pinned_witness_at_d12(self):
        cert = certify_dispersion(sample_grid_points(2, 12, 30, 3), 2)
        assert not cert.passed and cert.classes_checked == 558
        assert cert.witness.anchor == (3, 1, 1, 1, 1, 1, 2, 1, 1, 1, 2, 1)

    def test_soundness_on_random_instances(self):
        # pass implies the exact oracle confirms dispersion <= 2^-k
        rng = random.Random(2024)
        passes = 0
        for _ in range(200):
            k = rng.choice([2, 3])
            d = rng.choice([1, 2])
            n = rng.randrange(3, 13)
            pts = sample_grid_points(k, d, n, seed=rng.randrange(2**32))
            if certify_dispersion(pts, k).passed:
                passes += 1
                assert largest_empty_box(pts).volume <= Fraction(1, 2**k)
        assert passes > 0


def _thinned_grid_chunk(rng, k: int, d: int, trials: int) -> np.ndarray:
    """Full-grid trials, each but the first with a random slab of values on one axis removed.

    A removed slab empties the cores that lie inside it, so the trials miss
    classes spread over the table; the first trial passes.
    """
    grid = full_grid(k, d).points
    chunk = np.repeat(grid[None], trials, axis=0)
    for trial in chunk[1:]:
        axis = rng.integers(d)
        low = rng.integers(1, 2**k)
        high = rng.integers(low, 2**k)
        slab = (low <= trial[:, axis]) & (trial[:, axis] <= high)
        if not slab.all():
            trial[slab] = trial[~slab][0]
    return chunk


class TestCertificateKernel:
    # (5, 3) has 56,888,515 classes, too many for the Gray-code kernel over every class
    CASES = [(2, d) for d in range(1, 8)] + [
        (k, d) for k in (3, 4, 5) for d in (1, 2, 3) if k < 5 or d < 3
    ]

    @pytest.mark.parametrize("block", [3, 50, partition.BLOCK_CLASSES])
    def test_matches_gray_code_kernel(self, monkeypatch, block):
        # uniform chunks and thinned full grids, whose trials leave at
        # different blocks; a small block runs only the tables of a few
        # thousand classes, since a pass walks every block
        monkeypatch.setattr(partition, "BLOCK_CLASSES", block)
        rng = np.random.default_rng(block)
        spread = 0
        outcomes = Counter()
        for k, d in self.CASES:
            table = feasible_class_table(k, d)
            anchors, spans = reference_class_table(k, d)
            if len(anchors) > 1000 * block:
                continue
            cells = (2**k - 1) ** d
            chunks = [
                rng.integers(1, 2**k, size=(rng.integers(1, 9), rng.integers(0, 3 * cells), d))
                for _ in range(3)
            ] + [_thinned_grid_chunk(rng, k, d, 8)]
            for numerators in chunks:
                got = table.first_misses(numerators)
                want = gray_code_first_misses(numerators, k, anchors, spans)
                assert got.tolist() == want.tolist()
                # the kernel's blocks run over the minimal classes only
                misses = np.searchsorted(table.witness_rows[:-1], got[got < table.count])
                spread = max(spread, len(np.unique(misses // block)))
                outcomes.update((want == len(anchors)).tolist())
        assert outcomes[True] > 0 and outcomes[False] > 0
        assert spread >= 3

    @pytest.mark.parametrize("k,d", CASES)
    def test_rows_decode_the_reference_table(self, k, d):
        table = feasible_class_table(k, d)
        anchors, spans = reference_class_table(k, d)
        assert int(table.starts[-1]) == table.count == len(anchors)
        rows = [table.row(i) for i in range(table.count)]
        assert [row.anchor for row in rows] == list(map(tuple, anchors.tolist()))
        assert [row.span for row in rows] == list(map(tuple, spans.tolist()))

    def test_agrees_with_reference_scan_up_to_d7(self):
        rng = random.Random(7)
        fails = 0
        for d, n_low, n_high in [(5, 15, 50), (6, 20, 60), (7, 25, 70)]:
            sets = [sample_grid_points(2, d, rng.randint(n_low, n_high), seed=rng.randrange(2**32))
                    for _ in range(6)]
            for pts, want in zip(sets, reference_certify(sets, 2)):
                cert = certify_dispersion(pts, 2)
                assert (cert.passed, cert.classes_checked, cert.witness) == want
                fails += not cert.passed
        assert 0 < fails < 18

    def test_agrees_with_exact_oracle_at_d8(self):
        # d=8 was past the former guard proxy; on a grid set at its own k the
        # certificate is exact, and a missed class leaves its empty box empty
        rng = random.Random(8)
        outcomes = set()
        for _ in range(3):
            pts = sample_grid_points(2, 8, rng.randint(35, 60), seed=rng.randrange(2**32))
            cert = certify_dispersion(pts, 2)
            volume = largest_empty_box(pts).volume
            assert cert.passed == (volume == Fraction(1, 4))
            if not cert.passed:
                box = cert.witness.empty_box()
                assert not any(box.contains(v) for v in pts.values())
                assert Fraction(1, 4) < box.volume() <= volume
            outcomes.add(cert.passed)
        assert outcomes == {True, False}

    @pytest.mark.parametrize(
        "g,d,trials,slices",
        [(3, 7, 1, True), (31, 2, 1, False), (31, 2, 64, True), (31, 2, 63, False),
         (7, 2, 64, True), (7, 2, 63, False), (3, 3, 7, False), (3, 3, 22, True), (1, 3, 64, True)],
    )
    def test_prefix_sums_by_slices_or_cumsum(self, monkeypatch, g, d, trials, slices):
        # whole-slice adds where each slice holds 64 g elements, np.cumsum below that
        table = np.random.default_rng(g * d + trials).integers(0, 5, size=(g**d, trials))
        want = table.reshape((g,) * d + (trials,))
        for axis in range(d):
            want = want.cumsum(axis=axis)
        cumsum = np.cumsum
        calls = []
        monkeypatch.setattr(np, "cumsum", lambda *a, **kw: calls.append(1) or cumsum(*a, **kw))
        partition._prefix_sums(table, g, d)
        assert np.array_equal(table, want.reshape(g**d, trials))
        assert (not calls) == slices

    def test_corner_matrix_reads_only_cells_that_can_be_nonzero(self):
        # at (2, 7) no class has more than 4 anchors above 1, so 16 columns
        # replace the 128 corners of a 7-dimensional core
        table = feasible_class_table(2, 7)
        anchors, spans = reference_class_table(2, 7)
        corners = partition._corner_matrix(2, anchors, spans, np.arange(len(spans)))
        depth = (anchors > 1).sum(axis=1)
        assert corners.shape == (len(anchors), 16) and depth.max() == 4
        assert table.minimal_corners.shape == (len(table.witness_rows[:-1]), 16)
        zero_cell = 3**7  # the trailing cell past the grid cells, which no point fills
        for column in range(16):
            padding = column >> depth != 0
            assert (corners[padding, column] == zero_cell).all()
            cells = np.array(np.unravel_index(corners[~padding, column], (3,) * 7)).T + 1
            top = (anchors + spans - 1)[~padding]
            below = (anchors - 1)[~padding]
            # the set bits of the column pick, in axis order, the anchor>1 axes it steps below
            low = (anchors > 1)[~padding]
            rank = np.cumsum(low, axis=1) - 1
            stepped = low & (column >> np.where(low, rank, 0) & 1).astype(bool)
            assert (cells == np.where(stepped, below, top)).all()


def _first_prefix(table) -> int:
    """The points the certificate kernel reads in its first round: the table's cells plus one, or its corner entries."""
    return max((2**table.k - 1) ** table.span_vectors.shape[1] + 1, table.minimal_corners.size)


def _column_chunk(k: int, n: int, columns) -> np.ndarray:
    """Trials of n points at d = 2 that hit every core at different prefixes.

    Trial 0 tiles the full grid, so it hits every core within its first
    cells + 1 points. For each column c, one trial tiles the grid without
    the points x = c and ends with the single point (c, 2^(k-1)), which lies
    in every core of width 1 at x = c: it hits every core only with its last
    point. Another tiles the grid without x = c and misses such a core.
    """
    grid = full_grid(k, 2).points
    trials = [np.resize(grid, (n, 2))]
    for c in columns:
        rest = grid[grid[:, 0] != c]
        trials.append(np.vstack([np.resize(rest, (n - 1, 2)), [[c, 2 ** (k - 1)]]]))
        trials.append(np.resize(rest, (n, 2)))
    return np.stack(trials)


def _spy_rounds(monkeypatch) -> list:
    """Record each round of the certificate kernel: the points it bins, the table they fill, and the table it scans."""
    rounds = []
    occupancy, scan = partition._occupancy, partition._scan

    def spy_occupancy(part, g, d):
        counts = occupancy(part, g, d)
        rounds.append({"part": part, "shape": part.shape[:2], "counts": counts})
        return counts

    def spy_scan(flat, g, d, corners):
        rounds[-1]["scanned"] = flat
        return scan(flat, g, d, corners)

    monkeypatch.setattr(partition, "_occupancy", spy_occupancy)
    monkeypatch.setattr(partition, "_scan", spy_scan)
    return rounds


class TestPrefixKernel:
    # the certificate kernel reads a set's points in doubling prefixes; the former
    # single-pass kernel and the Gray-code kernel over every class are its oracles

    @staticmethod
    def _check(table, numerators, anchors, spans) -> np.ndarray:
        got = table.first_misses(numerators)
        single = single_pass_first_misses(numerators, table.k, table.minimal_corners)
        assert got.tolist() == table.witness_rows[single].tolist()
        assert got.tolist() == gray_code_first_misses(numerators, table.k, anchors, spans).tolist()
        return got

    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("times,offset", [(1, -1), (1, 0), (1, 1), (2, -1), (2, 0), (2, 1), (3, 1), (7, 5)])
    def test_matches_oracles_around_the_prefix_sizes(self, k, times, offset):
        table = feasible_class_table(k, 2)
        anchors, spans = reference_class_table(k, 2)
        n = times * _first_prefix(table) + offset
        chunk = _column_chunk(k, n, [2**k - 1, 2])
        got = self._check(table, chunk, anchors, spans)
        assert (got == table.count).tolist() == [True, True, False, True, False]
        # each trial alone, every failing trial, and the trials that pass at different prefixes
        for picks in ([0], [1], [2], [2, 4], [0, 1], [1, 2, 3]):
            assert self._check(table, chunk[picks], anchors, spans).tolist() == got[picks].tolist()

    @pytest.mark.parametrize("k,d", [(2, 3), (3, 3), (2, 5)])
    def test_matches_oracles_on_uniform_trials(self, k, d):
        # uniform trials pass or miss at their first prefix; copies with one
        # layer x_axis = v moved to a neighbouring value miss a core in every prefix
        table = feasible_class_table(k, d)
        anchors, spans = reference_class_table(k, d)
        first = _first_prefix(table)
        rng = np.random.default_rng(10 * k + d)
        outcomes = Counter()
        for n in (first - 1, first + 1, 2 * first + 1, 3 * first + 2):
            chunk = rng.integers(1, 2**k, size=(4, n, d))
            for trial in chunk[2:]:
                axis, v = rng.integers(d), rng.integers(1, 2**k)
                trial[trial[:, axis] == v, axis] = v % (2**k - 1) + 1
            got = self._check(table, chunk, anchors, spans)
            outcomes.update((got == table.count).tolist())
        assert outcomes[True] > 0 and outcomes[False] > 0

    def test_sorted_dense_set_passes_at_full_n(self, monkeypatch):
        # sorted by x, every prefix short of the last round misses the last columns
        table = feasible_class_table(5, 2)
        anchors, spans = reference_class_table(5, 2)
        points = sample_grid_points(5, 2, n_required(5, 2), 0).points
        points = points[np.lexsort(points.T[::-1])][None]
        rounds = _spy_rounds(monkeypatch)
        assert self._check(table, points, anchors, spans).tolist() == [table.count]
        first = _first_prefix(table)
        sizes = [r["shape"][1] for r in rounds[:6]]
        assert sizes == [first, first, 2 * first, 4 * first, 8 * first, len(points[0]) - 16 * first]

    def test_reads_doubling_prefixes(self, monkeypatch):
        # a trial that hits every core in a prefix leaves; the rest read twice the
        # points, and the last round, fewer than twice those left, takes them all
        table = feasible_class_table(4, 2)
        first = _first_prefix(table)
        n = 7 * first + 5
        chunk = _column_chunk(4, n, [3])
        rounds = _spy_rounds(monkeypatch)
        got = table.first_misses(chunk)
        assert (got == table.count).tolist() == [True, True, False]
        assert [r["shape"] for r in rounds] == [(3, first), (2, first), (2, 2 * first), (2, 3 * first + 5)]
        # basic slices while every trial is live, copies of the live trials after
        assert [np.shares_memory(r["part"], chunk) for r in rounds] == [True, False, False, False]
        # each scan reads a running table of every point read so far, in its last grid cell;
        # the first round's counts stay unsummed for the next
        totals = [r["scanned"][-2].tolist() for r in rounds]
        assert totals == [[first] * 3, [2 * first] * 2, [4 * first] * 2, [n] * 2]
        assert rounds[0]["scanned"] is not rounds[0]["counts"]
        rounds.clear()
        assert table.first_misses(chunk[:1]).tolist() == [table.count]
        assert [r["shape"] for r in rounds] == [(1, first)]
        assert np.shares_memory(rounds[0]["part"], chunk)

    @pytest.mark.parametrize("offset", [-1, 0])
    def test_one_pass_when_the_first_prefix_covers_n(self, monkeypatch, offset):
        table = feasible_class_table(4, 2)
        n = _first_prefix(table) + offset
        chunk = _column_chunk(4, n, [3])
        rounds = _spy_rounds(monkeypatch)
        got = table.first_misses(chunk)
        assert (got == table.count).tolist() == [True, True, False]
        # one round over every point, scanned in the table it was binned into
        assert [r["shape"] for r in rounds] == [(3, n)]
        assert np.shares_memory(rounds[0]["part"], chunk) and rounds[0]["scanned"] is rounds[0]["counts"]

    def test_last_point_decides(self):
        # the dense sample without its column x = 7 misses the width-1 core there;
        # (7, 16) lies in every such core, so put last it decides the certificate
        points = sample_grid_points(5, 2, 573440, 0).points
        rest = points[points[:, 0] != 7]
        cert = certify_dispersion(PointSet.from_numerators(5, 2, rest), 5)
        assert not cert.passed and cert.classes_checked == 97
        assert (cert.witness.anchor, cert.witness.span) == ((7, 1), (1, 16))
        last = np.vstack([rest, [[7, 16]]])
        assert len(last) == 555_031
        assert certify_dispersion(PointSet.from_numerators(5, 2, last), 5).passed


class TestGenerateCertified:
    def test_succeeds_at_required_n(self):
        result = generate_certified(2, 2, 2048, seed=7)
        assert result.attempts == 1
        assert result.points.n == 2048

    def test_output_satisfies_exact_oracle(self):
        result = generate_certified(2, 1, 12, seed=3, max_attempts=200)
        assert largest_empty_box(result.points).volume <= Fraction(1, 4)

    def test_impossible_instance_exhausts(self):
        # one point cannot hit all three singleton cores
        with pytest.raises(CertificationError) as info:
            generate_certified(2, 1, 1, seed=0, max_attempts=5)
        assert info.value.attempts == 5
        assert info.value.best.witness is not None

    def test_deterministic(self):
        a = generate_certified(2, 1, 10, seed=42, max_attempts=100)
        b = generate_certified(2, 1, 10, seed=42, max_attempts=100)
        assert a == b

    @pytest.mark.parametrize("d", range(2, 8))
    def test_matches_reference_attempt_loop(self, d):
        # attempt i certifies the set drawn with spawn index i by a per-class
        # scan; on exhaustion the best certificate is the first that got furthest
        runs = [(8 + 4 * d, d, 8), (2 * d - 1, 10 + d, 4)]
        draws = [
            [PointSet.from_numerators(2, d, construct._draw(construct._generator(seed, i), 2, d, n))
             for i in range(attempts)]
            for n, seed, attempts in runs
        ]
        certs = reference_certify([pts for sets in draws for pts in sets], 2)
        outcomes = set()
        for (n, seed, attempts), sets in zip(runs, draws):
            want, certs = certs[:attempts], certs[attempts:]
            passed = [i for i, cert in enumerate(want) if cert[0]]
            if passed:
                result = generate_certified(2, d, n, seed, max_attempts=attempts)
                assert result == GeneratedSet(sets[passed[0]], passed[0] + 1)
            else:
                with pytest.raises(CertificationError) as info:
                    generate_certified(2, d, n, seed, max_attempts=attempts)
                best = info.value.best
                assert info.value.attempts == attempts
                assert (best.passed, best.classes_checked, best.witness) == max(
                    want, key=lambda cert: cert[1]
                )
            outcomes.add(bool(passed))
        assert outcomes == {True, False}

    @pytest.mark.parametrize("k,d,n", [(3, 2, 30), (4, 2, 100), (2, 9, 30)])
    def test_best_from_the_full_table(self, k, d, n):
        # the furthest any failed attempt got, each read off the full table by
        # the Gray-code kernel
        table = feasible_class_table(k, d)
        reached = max(
            int(gray_code_first_misses(
                construct._draw(construct._generator(11, i), k, d, n)[None], k, *reference_class_table(k, d)
            )[0])
            for i in range(6)
        )
        with pytest.raises(CertificationError) as info:
            generate_certified(k, d, n, seed=11, max_attempts=6)
        assert info.value.best == construct._certificate(table, reached)

    def test_guard_refuses_before_any_draw(self, monkeypatch):
        calls = []
        generator, draw = construct._generator, construct._draw

        def spy_generator(seed, index=None):
            calls.append(("generator", index))
            return generator(seed, index)

        def spy_draw(rng, k, d, n):
            calls.append(("draw", d))
            return draw(rng, k, d, n)

        monkeypatch.setattr(construct, "_generator", spy_generator)
        monkeypatch.setattr(construct, "_draw", spy_draw)
        with pytest.raises(GuardExceeded) as info:
            generate_certified(2, 17, 100, seed=0)
        assert info.value.count == 3**17 and calls == []
        with pytest.raises(GuardExceeded):
            generate_certified(2, 2, 100, seed=0, limit=10)
        assert calls == []
        generate_certified(2, 2, 100, seed=0)
        assert calls == [("generator", 0), ("draw", 2)]

    def test_refuses_no_points_before_the_table_or_a_draw(self, monkeypatch):
        calls = _spy_table_and_draw(monkeypatch)
        for n in (0, -1):
            with pytest.raises(ValueError, match=f"need d >= 1 and n >= 1, got d=2, n={n}"):
                generate_certified(2, 2, n, seed=0)
        assert calls == []
        generate_certified(2, 2, 100, seed=0)
        assert calls == ["table", "draw"]

    def test_paper_regime_at_d14(self):
        # the paper's high-d regime at a dimension the default guard admits
        k, d = 2, 14
        generated = generate_certified(k, d, n_required(k, d), seed=0)
        assert generated.points.n == n_required(k, d)
        cert = certify_dispersion(generated.points, k)
        assert cert.passed and cert.classes_checked == feasible_class_table(k, d).count


def _spy_table_and_draw(monkeypatch) -> list:
    """Record every class-table build and every draw that the construct module makes.

    A draw is one _draw call ("draw") or one draw of a chunk of Monte Carlo
    trials ("trials").
    """
    calls = []
    table, draw, draw_trials = construct.feasible_class_table, construct._draw, construct._draw_trials

    def spy_table(*args, **kwargs):
        calls.append("table")
        return table(*args, **kwargs)

    def spy_draw(*args):
        calls.append("draw")
        return draw(*args)

    def spy_draw_trials(*args):
        calls.append("trials")
        return draw_trials(*args)

    monkeypatch.setattr(construct, "feasible_class_table", spy_table)
    monkeypatch.setattr(construct, "_draw", spy_draw)
    monkeypatch.setattr(construct, "_draw_trials", spy_draw_trials)
    return calls


class TestSpawnStates:
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 99, 2**200 + 1]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_words_match_the_spawned_seed_sequence(self, seed):
        indices = np.array([*range(1000), 2**32 - 1])
        want = [
            np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(4, np.uint64)
            for i in indices.tolist()
        ]
        got = construct._spawn_states(seed, indices)
        assert got.dtype == np.uint64 and np.array_equal(got, np.array(want))


def _reference_draws(seed: int, trials, k: int, d: int, n: int) -> np.ndarray:
    return np.stack([construct._draw(construct._generator(seed, i), k, d, n) for i in trials])


def _raw_halves(seed: int, index: int, count: int) -> np.ndarray:
    """The first count 32-bit halves of a spawned stream's raw words, low half first."""
    raw = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))).random_raw(-(-count // 2))
    return np.stack((raw % np.uint64(2**32), raw >> np.uint64(32)), axis=-1).ravel()[:count]


def _spy_draw_args(monkeypatch) -> list:
    """Record the (k, d, n) of every _draw call that the construct module makes."""
    drawn = []
    draw = construct._draw
    monkeypatch.setattr(construct, "_draw", lambda rng, *args: drawn.append(args) or draw(rng, *args))
    return drawn


class TestDrawTrials:
    @pytest.mark.parametrize("k", [2, 3, 5, 16, 31, 32])
    @pytest.mark.parametrize("d,n", [(2, 20), (3, 7), (1, 25), (1, 1)])
    @pytest.mark.parametrize("seed", [0, 2**64 + 5])
    def test_matches_the_spawned_generators(self, monkeypatch, k, d, n, seed):
        # word blocks of 7 trials: every stream after the first block comes from a later
        # derivation; n d = 21, 25 and 1 leave the last raw word's high half unread
        monkeypatch.setattr(construct, "CHUNK_ELEMENTS", 7)
        got = construct._draw_trials(list(construct._trial_states(seed, 30)), k, d, n)
        want = _reference_draws(seed, range(30), k, d, n)
        assert got.dtype == want.dtype == np.int64 and got.shape == (30, n, d)
        assert np.array_equal(got, want)

    def test_rejected_halves_redraw_the_trial(self, monkeypatch):
        # at k = 17 numpy rejects a half h when h (2^17 - 1) mod 2^32 < 2^32 mod
        # (2^17 - 1) = 2^15; among 500 trials of 1000 halves three meet one
        k, g, n = 17, np.uint64(2**17 - 1), 1000
        scaled = {i: _raw_halves(0, i, n) * g for i in range(500)}
        rejected = [i for i, m in scaled.items() if (m % np.uint64(2**32) < np.uint64(2**15)).any()]
        assert rejected == [43, 256, 456]
        want = _reference_draws(0, range(500), k, 1, n)
        drawn = _spy_draw_args(monkeypatch)
        got = construct._draw_trials(list(construct._trial_states(0, 500)), k, 1, n)
        assert drawn == [(k, 1, n)] * 3 and np.array_equal(got, want)
        # the multiply-shift without the redraw gives other values on each of them
        for i in rejected:
            naive = (scaled[i] >> np.uint64(32)).astype(np.int64) + 1
            assert not np.array_equal(naive, want[i, :, 0])

    @pytest.mark.parametrize("k", [33, 40])
    def test_past_32_bits_every_trial_is_drawn_by_numpy(self, monkeypatch, k):
        # the range 2^k - 2 no longer fits in 32 bits, so numpy maps whole words
        want = _reference_draws(3, range(5), k, 2, 3)
        drawn = _spy_draw_args(monkeypatch)
        got = construct._draw_trials(list(construct._trial_states(3, 5)), k, 2, 3)
        assert drawn == [(k, 2, 3)] * 5 and np.array_equal(got, want)


def _set_chunk_elements(monkeypatch, value):
    """Set the chunk bound for the kernel's chunks and for the state words derived at once."""
    monkeypatch.setattr(partition, "CHUNK_ELEMENTS", value)
    monkeypatch.setattr(construct, "CHUNK_ELEMENTS", value)


class TestWilsonInterval:
    def test_contains_phat(self):
        low, high = wilson_interval(40, 100)
        assert low < 0.4 < high

    def test_degenerate_extremes(self):
        low, high = wilson_interval(0, 50)
        assert low == 0.0 and high < 0.12
        low, high = wilson_interval(50, 50)
        assert low > 0.88 and high == 1.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 4)


class TestMonteCarlo:
    def test_matches_exact_complement(self):
        # d = 1: certificate success is exactly grid coverage
        for n in range(1, 7):
            exact_success = 1 - exact_failure_probability(2, 1, n)
            mc = monte_carlo_success(2, 1, n, trials=600, master_seed=314)
            assert mc.ci_low <= float(exact_success) <= mc.ci_high

    def test_cold_cache_threads_match_serial(self):
        _feasible_spans.cache_clear()
        _class_table.cache_clear()
        with pytest.warns(DeprecationWarning):
            threaded = monte_carlo_success(3, 2, 50, trials=64, master_seed=9, threads=2)
        _feasible_spans.cache_clear()
        _class_table.cache_clear()
        serial = monte_carlo_success(3, 2, 50, trials=64, master_seed=9, threads=1)
        assert serial == threaded
        assert 0 < serial.successes < serial.trials

    def test_threads_do_not_change_summary(self):
        serial = monte_carlo_success(2, 2, 64, trials=40, master_seed=5, threads=1)
        with pytest.warns(DeprecationWarning):
            threaded = monte_carlo_success(2, 2, 64, trials=40, master_seed=5, threads=8)
        assert serial == threaded

    @pytest.mark.parametrize(
        "k,d,n,chunk_elements,outcome",
        [
            (2, 1, 1, 2**8, "fail"),
            (2, 1, 3, 2**8, "mixed"),
            (2, 1, 30, 2**8, "pass"),
            (2, 2, 20, 2**10, "mixed"),
            (2, 3, 30, 2**12, "mixed"),
            (2, 4, 50, partition.CHUNK_ELEMENTS, "mixed"),
            (3, 1, 20, 2**8, "mixed"),
            (3, 2, 50, partition.CHUNK_ELEMENTS, "mixed"),
            (3, 3, 100, partition.CHUNK_ELEMENTS, "mixed"),
            (3, 4, 200, partition.CHUNK_ELEMENTS, "pass"),
            (4, 1, 40, 2**10, "mixed"),
            (4, 2, 200, partition.CHUNK_ELEMENTS, "mixed"),
            (4, 3, 1, partition.CHUNK_ELEMENTS, "fail"),
        ],
    )
    def test_chunks_match_one_certificate_per_trial(
        self, monkeypatch, k, d, n, chunk_elements, outcome
    ):
        _set_chunk_elements(monkeypatch, chunk_elements)
        chunk = feasible_class_table(k, d).trials_per_chunk(n)
        counts = sorted({1, max(chunk - 1, 1), chunk, chunk + 1, 3 * chunk + 2})
        passes = reference_monte_carlo(k, d, n, counts[-1], master_seed=77)
        for trials in counts:
            summary = monte_carlo_success(k, d, n, trials, master_seed=77)
            assert summary.successes == sum(passes[:trials])
        kind = "pass" if all(passes) else "fail" if not any(passes) else "mixed"
        assert kind == outcome

    @pytest.mark.parametrize("seed", [0, 5, 2**40 + 3, 2**160 + 7])
    @pytest.mark.parametrize("chunk_elements", [partition.CHUNK_ELEMENTS, 2**7])
    def test_matches_reference_across_word_blocks(self, monkeypatch, seed, chunk_elements):
        # at 2^7 the states come 128 trials at a time and the kernel takes 3, so they do not line up
        _set_chunk_elements(monkeypatch, chunk_elements)
        chunk = feasible_class_table(2, 2).trials_per_chunk(20)
        assert chunk_elements % chunk
        passes = reference_monte_carlo(2, 2, 20, 300, master_seed=seed)
        assert monte_carlo_success(2, 2, 20, 300, master_seed=seed).successes == sum(passes)

    def test_refuses_trials_past_one_key_word_before_the_table_or_a_draw(self, monkeypatch):
        # spawn indices from 2^32 on take two key words, which no stream derivation reads
        calls = _spy_table_and_draw(monkeypatch)

        def no_trial(*args):
            raise AssertionError("a trial started")

        monkeypatch.setattr(construct, "_spawn_states", no_trial)
        with pytest.raises(ValueError, match="need 1 <= trials <= 2\\*\\*32, got 4294967297"):
            monte_carlo_success(2, 2, 10, trials=2**32 + 1, master_seed=1)
        assert calls == []

    def test_guard_refuses_before_sampling(self, monkeypatch):
        # the trials' streams come from their derived state words
        calls = []

        def counting(seed, indices):
            calls.extend(indices.tolist())
            return spawn_states(seed, indices)

        spawn_states = construct._spawn_states
        monkeypatch.setattr(construct, "_spawn_states", counting)
        with pytest.raises(GuardExceeded):
            monte_carlo_success(2, 2, 10, trials=5, master_seed=1, limit=10)
        with pytest.raises(GuardExceeded):
            empirical_min_n(2, 2, target_rate=0.5, trials=5, seed=1, limit=10)
        assert calls == []
        monte_carlo_success(2, 2, 10, trials=5, master_seed=1)
        assert calls == [0, 1, 2, 3, 4]

    def test_refuses_no_points_before_the_table_or_a_draw(self, monkeypatch):
        calls = _spy_table_and_draw(monkeypatch)
        for n in (0, -1):
            with pytest.raises(ValueError, match=f"need d >= 1 and n >= 1, got d=2, n={n}"):
                monte_carlo_success(2, 2, n, trials=5, master_seed=1)
        assert calls == []
        # both trials are drawn in one chunk, after the table
        monte_carlo_success(2, 2, 1, trials=2, master_seed=1)
        assert calls == ["table", "trials"]

    def test_interval_inside_unit(self):
        mc = monte_carlo_success(2, 1, 3, trials=50, master_seed=1)
        assert 0.0 <= mc.ci_low <= mc.success_rate <= mc.ci_high <= 1.0

    def test_failure_rate_within_bound_plus_noise(self):
        for k, d, n, trials in [(2, 1, 3, 300), (2, 1, 6, 300), (2, 2, 512, 100)]:
            mc = monte_carlo_success(k, d, n, trials=trials, master_seed=11)
            failure = 1.0 - mc.success_rate
            cap = min(1.0, math.exp(ln_union_failure_bound(k, d, n)))
            se = math.sqrt(max(cap * (1 - cap), 1e-12) / trials)
            assert failure <= cap + 3 * se + 1e-12


class TestEmpiricalMinN:
    def test_k2_d1_target_half(self):
        result = empirical_min_n(2, 1, target_rate=0.5, trials=2000, seed=8)
        # exact success: n=4 -> 36/81 ~ 0.444, n=5 -> 150/243 ~ 0.617
        assert result.n_star in (4, 5)
        assert result.rate_at_n_star >= 0.5
        assert result.rate_below < 0.5
        assert result.within_required

    def test_search_boundary_contract(self):
        result = empirical_min_n(2, 2, target_rate=0.5, trials=120, seed=21)
        assert result.rate_at_n_star >= 0.5
        assert result.rate_below < 0.5
        assert result.n_star < 2048  # far below the sufficient sample size

    def test_cap_exceeded(self):
        with pytest.raises(SearchLimitExceeded):
            empirical_min_n(2, 2, target_rate=0.999, trials=5, seed=1, max_n=4)

    @pytest.mark.parametrize(
        "trials,max_n,message",
        [
            (0, 2, "need 1 <= trials <= 2\\*\\*32, got 0"),
            (2**33, 2, "need 1 <= trials <= 2\\*\\*32, got 8589934592"),
            (5, 0, "need max_n >= 1, got 0"),
        ],
    )
    def test_refuses_bad_arguments_before_the_table(self, monkeypatch, trials, max_n, message):
        # refused as arguments, not reported as a search that found no n
        calls = _spy_table_and_draw(monkeypatch)
        with pytest.raises(ValueError, match=message):
            empirical_min_n(2, 1, 0.5, trials, 1, max_n=max_n)
        assert calls == []

    def test_cap_between_powers_of_two_is_tried(self):
        # the doubling stops at max_n = 6 rather than passing it at 8
        result = empirical_min_n(2, 1, 0.6, 2000, 3, max_n=6)
        assert result == empirical_min_n(2, 1, 0.6, 2000, 3, max_n=8)
        assert result.n_star == 5

    def test_no_trials_below_one_point_per_grid_value(self, monkeypatch):
        # fewer than 2^k - 1 points cannot pass, so those sizes draw no trial
        calls = []
        monte_carlo = construct.monte_carlo_success

        def spy(k, d, n, *args, **kwargs):
            calls.append(n)
            return monte_carlo(k, d, n, *args, **kwargs)

        monkeypatch.setattr(construct, "monte_carlo_success", spy)
        for k, d in [(2, 1), (3, 1), (3, 2)]:
            calls.clear()
            result = empirical_min_n(k, d, target_rate=0.5, trials=40, seed=3)
            assert calls and min(calls) >= 2**k - 1
            assert result.rate_below < 0.5 <= result.rate_at_n_star
