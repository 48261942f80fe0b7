import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dispgrid import Box, PointSet, empty_box, full_grid, has_empty_box_above, largest_empty_box
from dispgrid.guards import GuardExceeded

from oracles import (
    batch_has_empty_box_above,
    exhaustive_largest_empty_box,
    pair_scan_search,
    pruned_scan_largest_empty_box,
    shrink_oracle_dispersion,
)


class TestBox:
    def test_open_box_excludes_boundary(self):
        box = Box.open_box([Fraction(1, 4)], [Fraction(3, 4)])
        assert box.contains((Fraction(1, 2),))
        assert not box.contains((Fraction(1, 4),))

    def test_closed_box_includes_boundary(self):
        box = Box.closed_box([Fraction(1, 4)], [Fraction(3, 4)])
        assert box.contains((Fraction(1, 4),))

    def test_dimension_mismatch(self):
        box = Box.closed_box([0, 0], [1, 1])
        with pytest.raises(ValueError):
            box.contains((Fraction(1, 2),))

    @pytest.mark.parametrize(
        "lower,upper,expected",
        [
            ((0, 0), (Fraction(1, 2), Fraction(1, 2)), Fraction(1, 4)),
            ((0, 0, 0), (1, 1, 1), Fraction(1)),
            ((Fraction(1, 4), 0), (Fraction(3, 4), 1), Fraction(1, 2)),
        ],
    )
    def test_volume(self, lower, upper, expected):
        assert Box.open_box(lower, upper).volume() == expected

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Box.closed_box([Fraction(1, 2)], [Fraction(1, 2)])
        with pytest.raises(ValueError):
            Box.closed_box([Fraction(-1, 2)], [Fraction(1, 2)])


class TestLargestEmptyBox:
    def test_empty_set_gives_unit_cube(self):
        result = largest_empty_box(PointSet.from_numerators(2, 2, []))
        assert result.volume == 1
        assert result.witness.volume() == 1

    def test_single_midpoint_d1(self):
        result = largest_empty_box(PointSet.from_numerators(2, 1, [(2,)]))
        assert result.volume == Fraction(1, 2)

    def test_full_grid_k2_d2(self):
        assert largest_empty_box(full_grid(2, 2)).volume == Fraction(1, 4)

    def test_witness_is_empty_and_matches_volume(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randrange(0, 9)
            pts = PointSet.from_numerators(
                3, 2, [(rng.randrange(1, 8), rng.randrange(1, 8)) for _ in range(n)]
            )
            result = largest_empty_box(pts)
            assert result.witness.volume() == result.volume
            assert not any(result.witness.contains(v) for v in pts.values())

    def test_guard(self):
        pts = full_grid(3, 2)
        with pytest.raises(GuardExceeded):
            largest_empty_box(pts, limit=10)

    def test_pruned_matches_exhaustive(self):
        rng = random.Random(5)
        cases = []
        for d in (1, 2, 3):
            cases.append(PointSet.from_numerators(rng.choice([2, 3]), d, []))
            cases.append(PointSet.from_reals(d, []))
        for _ in range(120):
            d = rng.choice([1, 2, 3])
            n = rng.randrange(0, 8 if d < 3 else 6)
            grid = rng.random() < 0.5
            if grid:
                k = rng.choice([2, 3])
                rows = [tuple(rng.randrange(1, 2**k) for _ in range(d)) for _ in range(n)]
            else:
                # exact 0, 1/2 and 1 coordinates exercise open faces on the boundary
                rows = [tuple(rng.choice([rng.random(), 0.0, 0.5, 1.0]) for _ in range(d))
                        for _ in range(n)]
            if rng.random() < 0.5:
                rows += rows[:2]  # about half the sets repeat points
            pts = PointSet.from_numerators(k, d, rows) if grid else PointSet.from_reals(d, rows)
            cases.append(pts)
        for pts in cases:
            volume, witness = exhaustive_largest_empty_box(pts)
            result = largest_empty_box(pts)
            assert result.volume == volume
            assert result.witness == witness
            for t in (volume / 2, volume):
                found, box = has_empty_box_above(pts, t)
                assert found == (volume > t)
                if found:
                    assert box.volume() > t
                    assert not any(box.contains(v) for v in pts.values())

    @pytest.mark.parametrize("repr_", ["grid", "real"])
    def test_medium_input_matches_pruned_scan(self, repr_):
        rng = np.random.default_rng(8)
        if repr_ == "grid":
            pts = PointSet.from_numerators(3, 4, rng.integers(1, 8, size=(200, 4)))
        else:
            pts = PointSet.from_reals(2, rng.random((50, 2)))
        volume, witness = pruned_scan_largest_empty_box(pts)
        result = largest_empty_box(pts)
        assert result.volume == volume
        assert result.witness == witness
        assert has_empty_box_above(pts, volume / 2).found
        assert not has_empty_box_above(pts, volume).found

    @pytest.mark.parametrize(
        "k,d,n,sets",
        # (6, 2, 24): one set exceeds a block, so its axis-0 pairs are split
        # (40, 2, 3): volume numerators outgrow int64
        [(2, 1, 3, 150), (3, 2, 4, 150), (3, 2, 12, 60), (2, 3, 2, 150), (6, 2, 24, 4),
         (40, 2, 3, 20)],
    )
    def test_batch_matches_one_search_per_set(self, k, d, n, sets):
        rng = np.random.default_rng(k * 100 + n)
        unit = 2**k
        numerators = rng.integers(1, unit, size=(sets, n, d))
        numerators[::3, -1] = numerators[::3, 0]  # repeated points
        sets_ = [PointSet.from_numerators(k, d, rows) for rows in numerators.tolist()]
        volumes = sorted(largest_empty_box(p).volume * unit**d for p in sets_)
        median = int(volumes[len(volumes) // 2])
        for threshold in (unit ** (d - 1), median - 1, median):
            got = batch_has_empty_box_above(numerators, unit, threshold)
            want = [has_empty_box_above(p, Fraction(threshold, unit**d)).found for p in sets_]
            assert got.tolist() == want

    def test_batch_guard_counts_one_padded_set(self):
        numerators = np.ones((5, 4, 2), dtype=np.int64)
        with pytest.raises(GuardExceeded) as info:
            batch_has_empty_box_above(numerators, 8, 0, limit=10)
        assert info.value.count == 15**2  # c = min(4, 8 - 1) + 2 endpoints per axis

    def test_batch_refuses_offsets_beyond_int64(self):
        numerators = np.array([[[1], [2], [3]]] * 4)
        with pytest.raises(ValueError, match="4 sets at unit 4611686018427387904 overflow"):
            batch_has_empty_box_above(numerators, 2**62, 2**61)
        assert batch_has_empty_box_above(numerators[:1], 2**62, 2**61).tolist() == [True]

    def test_exact_when_volumes_overflow_int64(self):
        # at k=40, d=2 volume numerators run up to 2^80
        rng = random.Random(40)
        rows = [(rng.randrange(1, 2**40), rng.randrange(1, 2**40)) for _ in range(6)]
        pts = PointSet.from_numerators(40, 2, rows)
        volume, witness = exhaustive_largest_empty_box(pts)
        result = largest_empty_box(pts)
        assert type(result.volume) is Fraction
        assert result.volume == volume
        assert result.witness == witness
        assert all(type(x) is Fraction for x in result.witness.lower + result.witness.upper)
        assert has_empty_box_above(pts, volume / 2).found

    @pytest.mark.parametrize("search", [largest_empty_box, lambda p: has_empty_box_above(p, 0.5)])
    def test_guard_refuses_before_scanning_points(self, search):
        rng = random.Random(17)
        pts = PointSet.from_reals(2, [(rng.random(), rng.random()) for _ in range(2000)])
        # box prefixes (axis-0 endpoint pairs) times axis-1 endpoints
        c0, c1 = (len({0.0, 1.0, *pts.points[:, axis].tolist()}) for axis in range(2))
        with pytest.raises(GuardExceeded) as info:
            search(pts)
        assert info.value.count == c0 * (c0 - 1) // 2 * c1
        assert info.value.count > 4.0e9

    def test_shrink_oracle_agreement_real(self):
        rng = random.Random(23)
        for _ in range(40):
            d = rng.choice([1, 2])
            n = rng.randrange(0, 7)
            pts = PointSet.from_reals(
                d, [tuple(rng.random() for _ in range(d)) for _ in range(n)]
            )
            got = largest_empty_box(pts).volume
            want = shrink_oracle_dispersion(pts)
            assert abs(got - want) <= 1e-9

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_under_subsets(self, data):
        d = data.draw(st.integers(1, 2))
        rows = data.draw(
            st.lists(st.tuples(*[st.integers(1, 7)] * d), min_size=1, max_size=7)
        )
        superset = PointSet.from_numerators(3, d, rows)
        subset_rows = data.draw(st.lists(st.sampled_from(rows), max_size=len(rows)))
        subset = PointSet.from_numerators(3, d, subset_rows)
        assert largest_empty_box(superset).volume <= largest_empty_box(subset).volume

    @given(st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7)), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_duplicate_invariance(self, rows):
        base = PointSet.from_numerators(3, 2, rows)
        doubled = PointSet.from_numerators(3, 2, rows + [rows[0]])
        assert largest_empty_box(base).volume == largest_empty_box(doubled).volume

    def test_permutation_invariance(self):
        rng = random.Random(9)
        for _ in range(30):
            n = rng.randrange(1, 7)
            rows = [(rng.randrange(1, 8), rng.randrange(1, 8), rng.randrange(1, 8))
                    for _ in range(n)]
            perm = [0, 1, 2]
            rng.shuffle(perm)
            permuted = [tuple(row[p] for p in perm) for row in rows]
            a = largest_empty_box(PointSet.from_numerators(3, 3, rows))
            b = largest_empty_box(PointSet.from_numerators(3, 3, permuted))
            assert a.volume == b.volume
            # the permuted witness box is a valid maximizer in the permuted instance
            w = a.witness
            moved = Box(
                tuple(w.lower[p] for p in perm),
                tuple(w.upper[p] for p in perm),
                tuple(w.open_lower[p] for p in perm),
                tuple(w.open_upper[p] for p in perm),
            )
            assert moved.volume() == b.volume
            assert not any(
                moved.contains(v)
                for v in PointSet.from_numerators(3, 3, permuted).values()
            )


def _pair_scan(pts: PointSet, threshold=0):
    """``pair_scan_search`` from `threshold` in its scan units: (volume, witness or None)."""
    if pts.repr == "grid":
        unit = 2**pts.k
        best, witness = pair_scan_search(pts, math.floor(Fraction(threshold) * unit**pts.dim))
        return Fraction(best, unit**pts.dim), witness
    return pair_scan_search(pts, float(threshold))


def _sweep_cases(seed: int, count: int):
    """Random grid (k = 2-4 and 40) and real point sets in d = 1-4, sized for the pair scan.

    Grid sets with more points than 2^k bin through the lookup table, the
    others (k=40 among them) by searchsorted. Most blocks in d >= 2 hold at
    least as many box prefixes as last-axis endpoints and are swept row by
    row; d = 1, the long last axes below, and d = 2 at one axis-0 pair per
    block give taller blocks, swept by accumulate.
    """
    rng = random.Random(seed)
    cases = [PointSet.from_numerators(2, 3, []), PointSet.from_reals(2, [])]
    for _ in range(count):
        d = rng.choice([1, 2, 3, 4])
        n = rng.randrange(0, (20, 14, 7, 5)[d - 1])
        k = rng.choice([2, 3, 4, 40, None])  # at k=40 volume numerators outgrow int64
        if k:
            rows = [tuple(rng.randrange(1, 2**k) for _ in range(d)) for _ in range(n)]
        else:
            # exact 0, 1/2 and 1 coordinates put points on the boundary and on ties
            rows = [tuple(rng.choice([rng.random(), 0.0, 0.5, 1.0]) for _ in range(d))
                    for _ in range(n)]
        if rng.random() < 0.5:
            rows += rows[:3]  # repeated points
        cases.append(PointSet.from_numerators(k, d, rows) if k else PointSet.from_reals(d, rows))
    # head axes with one value each leave few box prefixes over a long last axis
    ys = [rng.random() for _ in range(40)]
    cases.append(PointSet.from_reals(2, [(0.5, y) for y in ys]))
    cases.append(PointSet.from_reals(3, [(0.25, 0.75, y) for y in ys + [0.0, 1.0]]))
    # grid sets in d = 2-4 at n = 2^k (searchsorted) and n > 2^k (lookup table)
    for k, d, n in ((2, 2, 4), (2, 2, 5), (3, 2, 20), (2, 3, 10), (3, 3, 12), (2, 4, 8),
                    (3, 4, 10)):
        cases.append(PointSet.from_numerators(
            k, d, [tuple(rng.randrange(1, 2**k) for _ in range(d)) for _ in range(n)]))
    return cases


def _traced_peak(call):
    """Result of `call()` and the peak bytes traced while it ran (numpy buffers included)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGapSweepMatchesPairScan:
    """The last-axis gap sweep against the former pair-enumerating block scan."""

    @pytest.mark.parametrize("block_boxes", [empty_box.BLOCK_BOXES, 40, 1])
    def test_volume_witness_and_threshold(self, block_boxes, monkeypatch):
        # small blocks split every search into many blocks, most of them skipped
        monkeypatch.setattr(empty_box, "BLOCK_BOXES", block_boxes)
        for pts in _sweep_cases(block_boxes, 150):
            volume, witness = _pair_scan(pts)
            result = largest_empty_box(pts)
            assert result.volume == volume
            assert result.witness == witness
            for t in (volume / 3, volume / 2, volume):
                found = has_empty_box_above(pts, t).found
                assert found == (_pair_scan(pts, t)[1] is not None) == (volume > t)

    def test_threshold_witness_is_the_largest_empty_box(self):
        # the threshold search runs the full search and compares its volume with the threshold
        for pts in _sweep_cases(5, 150):
            result = largest_empty_box(pts)
            for t in (0, result.volume / 3, result.volume / 2):
                assert has_empty_box_above(pts, t) == (True, result.witness)
            assert has_empty_box_above(pts, result.volume) == (False, None)

    def test_float_product_tie_keeps_the_first_pair(self):
        # (0, 3/4) x (0, a) and (0, 3/4) x (b, 1) are the largest empty boxes; the second is
        # one ulp wider, but both volumes round to the same float, so the first pair wins
        h, a, b = 0.75, 0.35000000000000037, 0.6499999999999996
        assert a < 1.0 - b and h * a == h * (1.0 - b)
        rows = [(h * i / 10, y) for i in range(1, 10) for y in (a, 0.5, b)]
        rows += [(x, j / 20) for x in (h, 0.875) for j in range(1, 20)]
        pts = PointSet.from_reals(2, rows)
        result = largest_empty_box(pts)
        assert (result.volume, result.witness) == pair_scan_search(pts, 0.0)
        assert result.witness == Box((0.0, 0.0), (h, a), (False, False), (True, True))

    def test_real_d2_beyond_the_pair_scan_guard(self):
        # C(152, 2)^2 = 1.32e8 candidate boxes exceed the default guard; the sweep needs 1.7e6
        rng = random.Random(150)
        pts = PointSet.from_reals(2, [(rng.random(), rng.random()) for _ in range(150)])
        with pytest.raises(GuardExceeded):
            pair_scan_search(pts, 0.0)
        volume, witness = pair_scan_search(pts, 0.0, 2 * 10**8)
        result = largest_empty_box(pts)
        assert result.volume == volume
        assert result.witness == witness

    def test_d1_reals_find_the_witness_without_the_endpoint_pairs(self):
        # the guard counts 20,003 endpoints; their C(20003, 2) = 2e8 pairs would take gigabytes
        rng = random.Random(1)
        xs = [rng.random() for _ in range(20_000)] + [0.5, 0.5, 1.0]
        pts = PointSet.from_reals(1, [(x,) for x in xs])
        result, peak = _traced_peak(lambda: largest_empty_box(pts))
        assert peak < 16 * 2**20
        # in d=1 every inner endpoint is a point, so the empty boxes are the gaps between neighbours
        ends = sorted({0.0, *xs})
        gaps = [hi - lo for lo, hi in zip(ends, ends[1:])]
        i = gaps.index(max(gaps))
        assert result.volume == gaps[i]
        assert result.witness == Box((ends[i],), (ends[i + 1],), (i > 0,), (True,))
        assert has_empty_box_above(pts, gaps[i] / 2).found
        assert not has_empty_box_above(pts, gaps[i]).found

    def test_d2_single_x_value_finds_the_witness_without_the_endpoint_pairs(self):
        # 3 axis-0 pairs x 20,002 axis-1 endpoints pass the guard; the axis-1 pairs are 2e8
        rng = random.Random(2)
        pts = PointSet.from_reals(2, [(0.5, rng.random()) for _ in range(20_000)])
        result, peak = _traced_peak(lambda: largest_empty_box(pts))
        assert peak < 16 * 2**20
        # no point lies strictly inside x in (0, 1/2) or (1/2, 1); every gap in y is far below 1/2
        assert result.volume == 0.5
        assert result.witness == Box((0.0, 0.0), (0.5, 1.0), (False, False), (True, False))


def _dense_grid_cases():
    """Full grids at (2,3), (2,4), (3,3) and (3,4), each also without one layer and without a few seeded cells."""
    cases = []
    for k, d, axis, value in ((2, 3, 1, 2), (2, 4, 2, 3), (3, 3, 0, 3), (3, 4, 2, 5)):
        g = full_grid(k, d).points
        drop = np.random.default_rng(k * 10 + d).choice(len(g), size=3, replace=False)
        for rows in (g, g[g[:, axis] != value], np.delete(g, drop, axis=0)):
            cases.append(PointSet.from_numerators(k, d, rows))
    return cases


class TestGapCeilingOnDenseGrids:
    """The per-pair gap ceiling against the pair scan where most axis-0 pairs cannot win."""

    @pytest.mark.parametrize("block_boxes", [empty_box.BLOCK_BOXES, 40, 1])
    def test_volume_witness_and_threshold(self, block_boxes, monkeypatch):
        # at 40 and 1 every axis-0 pair is its own block, so each ceiling comes from an earlier block
        monkeypatch.setattr(empty_box, "BLOCK_BOXES", block_boxes)
        for pts in _dense_grid_cases():
            volume, witness = _pair_scan(pts)
            result = largest_empty_box(pts)
            assert result.volume == volume
            assert result.witness == witness
            for t in (volume / 2, volume):
                assert has_empty_box_above(pts, t) == ((True, witness) if volume > t else (False, None))

    @pytest.mark.parametrize("block_boxes", [empty_box.BLOCK_BOXES, 1])
    def test_float_tie_after_the_pair_that_set_the_ceiling(self, block_boxes, monkeypatch):
        # A = [0, 1/2) x [0,1] x [0, g1) and B = [0, 3/4) x [0,1] x [0, g2) are the largest empty
        # boxes; B is the larger in exact arithmetic, but both volumes round to the same float.
        # Both pairs start at x = 0, so in one-pair blocks B's bound is its height times the gap
        # ceiling left by (0, 0.55), whose widest gap is g2: the bound ties the best and B is skipped
        monkeypatch.setattr(empty_box, "BLOCK_BOXES", block_boxes)
        g1, g2 = 0.58, 0.38666666666666666
        assert 0.75 * g2 == 0.5 * g1 and Fraction(0.75) * Fraction(g2) > Fraction(0.5) * Fraction(g1)
        columns = [(0.05 * i, z) for i in range(1, 10) for z in (g1, 0.79)]
        columns += [(x, z) for x in (0.5, 0.55, 0.6, 0.65, 0.7) for z in (g2, g1, 0.79)]
        columns += [(x, j / 20) for x in (0.75, 0.875) for j in range(1, 20)]
        # every column at y = 1/8 .. 7/8, so a box thin in y holds at most 1/8
        pts = PointSet.from_reals(3, [(x, j / 8, z) for x, z in columns for j in range(1, 8)])
        b = Box((0.0, 0.0, 0.0), (0.75, 1.0, g2), (False, False, False), (True, False, True))
        assert not any(b.contains(v) for v in pts.values())
        result = largest_empty_box(pts)
        assert (result.volume, result.witness) == pair_scan_search(pts, 0.0)
        assert result.volume == 0.5 * g1
        assert result.witness == Box((0.0, 0.0, 0.0), (0.5, 1.0, g1), (False, False, False),
                                     (True, False, True))
        assert has_empty_box_above(pts, 0.25) == (True, result.witness)
        assert has_empty_box_above(pts, 0.5 * g1) == (False, None)

    @pytest.mark.parametrize(
        "axis,value,calls,witness",
        [
            (None, None, 8, "[0,1/8) x [0,1] x [0,1] x [0,1]"),
            (2, 5, 11, "[0,1] x [0,1] x (1/2,3/4) x [0,1]"),
            (0, 3, 7, "(1/4,1/2) x [0,1] x [0,1] x [0,1]"),
        ],
    )
    def test_blocks_swept_on_the_full_grid(self, axis, value, calls, witness, monkeypatch):
        # pins the oracle's work at (3, 4): the former whole-block width test swept 29, 23 and 20
        # of the 36 blocks, as its bound assumed every other side and the last gap full
        g = full_grid(3, 4).points
        pts = PointSet.from_numerators(3, 4, g if axis is None else g[g[:, axis] != value])
        swept = []  # one entry per block the oracle sweeps
        inside_counts = empty_box._inside_counts
        monkeypatch.setattr(
            empty_box, "_inside_counts", lambda *args: swept.append(args) or inside_counts(*args)
        )
        result = largest_empty_box(pts)
        assert len(swept) == calls
        assert result.volume == (Fraction(1, 8) if axis is None else Fraction(1, 4))
        assert result.witness.format_text() == witness
        swept.clear()
        assert has_empty_box_above(pts, Fraction(1, 16)) == (True, result.witness)
        assert len(swept) <= calls


class TestHasEmptyBoxAbove:
    def test_full_grid_not_above_quarter(self):
        assert not has_empty_box_above(full_grid(2, 2), Fraction(1, 4)).found

    def test_single_point_above_quarter(self):
        found, witness = has_empty_box_above(
            PointSet.from_numerators(2, 1, [(2,)]), Fraction(1, 4)
        )
        assert found
        assert witness.volume() > Fraction(1, 4)

    def test_empty_set_above_half(self):
        assert has_empty_box_above(PointSet.from_numerators(2, 2, []), Fraction(1, 2)).found

    def test_agrees_with_largest(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randrange(0, 7)
            pts = PointSet.from_numerators(
                2, 2, [(rng.randrange(1, 4), rng.randrange(1, 4)) for _ in range(n)]
            )
            vol = largest_empty_box(pts).volume
            for threshold in (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                assert has_empty_box_above(pts, threshold).found == (vol > threshold)

    def test_non_dyadic_float_thresholds_on_grid_input(self):
        # grid volumes are exact rationals, compared with a float threshold's exact binary value
        rng = random.Random(4)
        cases = [full_grid(4, 1), full_grid(4, 2)]  # dispersion 1/16, below 0.1
        for _ in range(80):
            k, d = rng.choice([2, 3]), rng.choice([1, 2, 3])
            rows = [tuple(rng.randrange(1, 2**k) for _ in range(d)) for _ in range(rng.randrange(40))]
            cases.append(PointSet.from_numerators(k, d, rows))
        outcomes = {0.1: set(), 1 / 3: set()}
        for pts in cases:
            result = largest_empty_box(pts)
            below = math.nextafter(float(result.volume), 0)
            for t in (0.1, 1 / 3, float(result.volume), below):
                above = result.volume > t
                assert has_empty_box_above(pts, t) == ((True, result.witness) if above else (False, None))
                outcomes.get(t, set()).add(above)
        assert outcomes == {0.1: {True, False}, 1 / 3: {True, False}}

    def test_fraction_thresholds_on_real_input(self):
        # real volumes are floats, compared with the threshold rounded to a float
        rng = random.Random(5)
        outcomes = {Fraction(1, 10): set(), Fraction(1, 3): set()}
        for _ in range(80):
            d = rng.choice([1, 2, 3])
            rows = [tuple(rng.random() for _ in range(d)) for _ in range(rng.randrange(30))]
            pts = PointSet.from_reals(d, rows)
            result = largest_empty_box(pts)
            exact = Fraction(result.volume)
            for t in (Fraction(1, 10), Fraction(1, 3), exact, exact / 2):
                above = result.volume > float(t)
                assert above == (result.volume > t)
                assert has_empty_box_above(pts, t) == ((True, result.witness) if above else (False, None))
                outcomes.get(t, set()).add(above)
        assert outcomes == {Fraction(1, 10): {True, False}, Fraction(1, 3): {True, False}}

    def test_real_input_rounds_a_fraction_threshold_to_a_float(self):
        # [0, 0.9) holds the float 0.9, just above 9/10, but 9/10 rounds to that same float
        pts = PointSet.from_reals(1, [(0.9,)])
        assert largest_empty_box(pts).volume == 0.9 > Fraction(9, 10)
        assert has_empty_box_above(pts, Fraction(9, 10)) == (False, None)
        assert has_empty_box_above(pts, Fraction(89, 100)).found
