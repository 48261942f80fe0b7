import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dispgrid import (
    Box,
    BoxClass,
    anchor_formula_count,
    certify_dispersion,
    classify_box,
    count_audit,
    enumerate_feasible_classes,
    ln_class_count_bound,
    sample_grid_points,
    short_side_threshold,
)
from dispgrid import partition
from dispgrid.guards import DEFAULT_ENUMERATION_LIMIT, GuardExceeded
from dispgrid.partition import feasible_class_table

from oracles import (
    box_in_class,
    classes_from_fine_mesh,
    core_contains,
    core_grid_points,
    cores_inside,
    reference_class_table,
    reference_feasible_classes,
    reference_feasible_spans,
    reference_is_feasible,
)


def table_entries(k, d):
    """Entries built for the feasible-class table, span by span: the minimal classes' anchors, spans and corners."""
    m = 2**k
    spans = [
        span for span in itertools.product(range(1, m), repeat=d)
        if math.prod(s + 1 for s in span) > m ** (d - 1)
    ]
    # a span below 2^k - 1 admits an anchor above 1, whose corner below the core is a column
    columns = 2 ** max(sum(s < m - 1 for s in span) for span in spans)
    feasible = set(spans)
    minimal = sum(
        math.prod(m - s for s in span)
        for span in spans
        if not any(span[:i] + (span[i] - 1,) + span[i + 1 :] in feasible for i in range(d))
    )
    return minimal * (2 * d + columns)


def random_large_box(rng, k, d):
    """Random box with dyadic endpoints on the 2^-(k+3) mesh and volume > 2^-k."""
    q = 2 ** (k + 3)
    threshold = Fraction(1, 2**k)
    while True:
        lower, upper = [], []
        for _ in range(d):
            # bias toward long sides so the volume condition is hit often
            length = rng.randrange(q // 2**k + 1, q + 1)
            lo = rng.randrange(0, q - length + 1)
            lower.append(Fraction(lo, q))
            upper.append(Fraction(lo + length, q))
        vol = math.prod(u - l for l, u in zip(lower, upper))
        if vol > threshold:
            return Box.closed_box(lower, upper)


def random_member_box(rng, cls):
    """Random member of a feasible class: random infimum window position, maximal length."""
    m = 2**cls.k
    q = 2 ** (cls.k + 3)
    threshold = Fraction(1, m)
    for _ in range(64):
        lower, upper = [], []
        for a, s in zip(cls.anchor, cls.span):
            window_lo = (a - 1) * (q // m)
            lo = Fraction(rng.randrange(window_lo, window_lo + q // m), q)
            length = min(Fraction(s + 1, m), 1 - lo)
            lower.append(lo)
            upper.append(lo + length)
        vol = math.prod(u - l for l, u in zip(lower, upper))
        if vol > threshold:
            open_lo = tuple(rng.random() < 0.5 for _ in range(cls.dim))
            open_hi = tuple(rng.random() < 0.5 for _ in range(cls.dim))
            return Box(tuple(lower), tuple(upper), open_lo, open_hi)
    # fall back to the maximal member at the lowest infimum
    lower = [Fraction(a - 1, m) for a in cls.anchor]
    upper = [lo + min(Fraction(s + 1, m), 1 - lo) for lo, s in zip(lower, cls.span)]
    return Box.closed_box(lower, upper)


class TestClassifyBox:
    def test_half_length_interval(self):
        box = Box.closed_box([Fraction(3, 10)], [Fraction(4, 5)])
        cls = classify_box(box, 2)
        assert cls.span == (1,)
        assert cls.anchor == (2,)  # anchor value 1/2

    def test_full_interval(self):
        box = Box.open_box([0], [1])
        cls = classify_box(box, 2)
        assert cls.span == (3,)
        assert cls.anchor == (1,)  # anchor value 1/4

    def test_product_box(self):
        box = Box.closed_box([Fraction(3, 10), 0], [Fraction(4, 5), 1])
        cls = classify_box(box, 2)
        assert cls.anchor == (2, 1)
        assert cls.span == (1, 3)

    def test_rejects_small_box(self):
        box = Box.open_box([0], [Fraction(1, 4)])
        with pytest.raises(ValueError):
            classify_box(box, 2)

    @pytest.mark.parametrize("k,d", [(2, 1), (3, 1), (2, 2), (3, 2)])
    def test_partition_property(self, k, d):
        # the classified class matches, and no other feasible class does
        rng = random.Random(100 * k + d)
        classes = list(enumerate_feasible_classes(k, d))
        for _ in range(250):
            box = random_large_box(rng, k, d)
            cls = classify_box(box, k)
            assert box_in_class(box, cls)
            matches = [c for c in classes if box_in_class(box, c)]
            assert matches == [cls]


class TestFeasibility:
    def test_full_span_low_anchor(self):
        assert BoxClass(2, (1,), (3,)).is_feasible()

    def test_anchor_too_high(self):
        # 4 * (3/4) = 3 >= 4 + 1 - 3
        assert not BoxClass(2, (3,), (3,)).is_feasible()

    def test_zero_span(self):
        assert not BoxClass(2, (1, 1), (1, 0)).is_feasible()

    def test_volume_condition_in_d2(self):
        # every span-(1,1) class maxes out at volume 1/4, not above it
        for a1, a2 in itertools.product(range(1, 4), repeat=2):
            assert not BoxClass(2, (a1, a2), (1, 1)).is_feasible()

    @pytest.mark.parametrize("k,d", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_matches_the_capped_volume_form(self, k, d):
        # every (anchor, span) pair, infeasible anchors and span 0 included
        m = 2**k
        verdicts = set()
        for anchor in itertools.product(range(1, m), repeat=d):
            for span in itertools.product(range(m), repeat=d):
                cls = BoxClass(k, anchor, span)
                verdicts.add(cls.is_feasible())
                assert cls.is_feasible() == reference_is_feasible(cls), cls
        assert verdicts == {True, False}


class TestCoreBox:
    def test_degenerate_singleton(self):
        core = BoxClass(2, (2,), (1,)).core_box()
        assert core.lo == core.hi == (2,)
        assert core_grid_points(core) == [(2,)]

    def test_interval_core(self):
        core = BoxClass(2, (1,), (3,)).core_box()
        assert core.lo == (1,) and core.hi == (3,)
        assert len(core_grid_points(core)) == 3

    def test_product_core(self):
        core = BoxClass(2, (1, 2), (2, 1)).core_box()
        assert core_grid_points(core) == [(1, 2), (2, 2)]

    def test_infeasible_class_has_no_core(self):
        with pytest.raises(ValueError):
            BoxClass(2, (3,), (3,)).core_box()

    @pytest.mark.parametrize("k,d", [(2, 1), (2, 2), (3, 2)])
    def test_core_grid_points_inside_every_member(self, k, d):
        rng = random.Random(7 * k + d)
        for cls in enumerate_feasible_classes(k, d):
            core = cls.core_box()
            m = 2**k
            for _ in range(3):
                box = random_member_box(rng, cls)
                assert classify_box(box, k).anchor == cls.anchor
                for nums in core_grid_points(core):
                    point = tuple(Fraction(a, m) for a in nums)
                    assert box.contains(point)


class TestEmptyBox:
    def test_infeasible_class_has_no_empty_box(self):
        with pytest.raises(ValueError):
            BoxClass(2, (3,), (3,)).empty_box()

    @pytest.mark.parametrize("k,d", [(2, 2), (2, 3), (3, 2)])
    def test_core_widened_by_one_step(self, k, d):
        # open on every side, volume prod(span+1)/m^d > 2^-k, grid points exactly the core's
        m = 2**k
        grid = list(itertools.product(range(1, m), repeat=d))
        for cls in enumerate_feasible_classes(k, d):
            box = cls.empty_box()
            assert all(box.open_lower) and all(box.open_upper)
            assert box.volume() == Fraction(math.prod(s + 1 for s in cls.span), m**d)
            assert box.volume() > Fraction(1, m)
            core = cls.core_box()
            for nums in grid:
                point = tuple(Fraction(a, m) for a in nums)
                assert box.contains(point) == core_contains(core, nums)

    @pytest.mark.parametrize("k,d,n", [(2, 2, 6), (2, 3, 12), (3, 2, 30)])
    def test_witness_of_a_failing_set_is_empty(self, k, d, n):
        m = 2**k
        fails = 0
        for seed in range(30):
            points = sample_grid_points(k, d, n, seed)
            cert = certify_dispersion(points, k)
            if cert.passed:
                continue
            fails += 1
            box = cert.witness.empty_box()
            for nums in points.points.tolist():
                assert not box.contains(tuple(Fraction(a, m) for a in nums))
        assert fails > 0


class TestShortSides:
    def test_all_maximal(self):
        assert BoxClass(2, (1, 1), (3, 3)).short_sides == 0

    def test_both_short(self):
        assert BoxClass(2, (1, 1), (2, 1)).short_sides == 2

    def test_threshold_value(self):
        assert short_side_threshold(2) == pytest.approx(math.log(2) * 2 * 4, abs=1e-12)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_feasible_implies_below_threshold(self, k, d):
        threshold = short_side_threshold(k)
        for cls in enumerate_feasible_classes(k, d):
            assert cls.short_sides < threshold


class TestEnumeration:
    def test_k2_d1_class_list(self):
        got = {(c.anchor[0], c.span[0]) for c in enumerate_feasible_classes(2, 1)}
        assert got == {(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (1, 3)}

    def test_k2_d1_counts_match_anchor_formula(self):
        by_span = {}
        for c in enumerate_feasible_classes(2, 1):
            by_span[c.span] = by_span.get(c.span, 0) + 1
        assert by_span == {(1,): 3, (2,): 2, (3,): 1}
        for span, count in by_span.items():
            assert count == math.prod(4 - s for s in span)

    @pytest.mark.parametrize("k,d", [(2, 1), (3, 1), (2, 2)])
    def test_matches_fine_mesh_oracle(self, k, d):
        enumerated = {(c.anchor, c.span) for c in enumerate_feasible_classes(k, d)}
        assert enumerated == classes_from_fine_mesh(k, d)

    @pytest.mark.parametrize(
        "k,d", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (2, 4), (4, 2), (5, 1)]
    )
    def test_matches_reference_walk_in_order(self, k, d):
        assert list(enumerate_feasible_classes(k, d)) == list(reference_feasible_classes(k, d))

    def test_guard(self, monkeypatch):
        # the guard holds even once the table is cached
        feasible_class_table(2, 2)
        with pytest.raises(GuardExceeded):
            list(enumerate_feasible_classes(2, 2, limit=10))
        with pytest.raises(GuardExceeded):
            count_audit(2, 2, limit=10)
        monkeypatch.setenv("DISPGRID_ENUM_LIMIT", "10")
        with pytest.raises(GuardExceeded):
            list(enumerate_feasible_classes(2, 2))

    @pytest.mark.parametrize(
        "k,d,what,count",
        [
            (2, 17, "span grid", 129_140_163),
            (10, 2, "box-class table", 461_319_872),
            (3, 7, "box-class table", 722_180_192),
        ],
    )
    def test_default_guard_refuses_with_exact_counts(self, monkeypatch, k, d, what, count):
        # each stage counts before it builds: the span vectors, then the
        # minimal classes, from the feasible prefixes before any vector is expanded
        partition._feasible_spans.cache_clear()
        built = []
        for name, step in [("_feasible_spans", "grid"), ("_class_table", "table")]:
            original = getattr(partition, name)
            monkeypatch.setattr(
                partition, name, lambda *args, f=original, s=step: built.append(s) or f(*args)
            )
        with pytest.raises(GuardExceeded) as info:
            feasible_class_table(k, d)
        assert (info.value.what, info.value.count) == (what, count)
        assert built == ([] if what == "span grid" else ["grid"])
        if what == "box-class table":
            assert count == reference_feasible_spans(k, d)[2]

    @pytest.mark.parametrize("k,d,count", [(9, 2, 77_034_304), (3, 6, 76_106_856)])
    def test_default_guard_admits_with_exact_counts(self, monkeypatch, k, d, count):
        # admitted by the default limit, pinned one below their count so that no table is built
        partition._feasible_spans.cache_clear()
        built = []
        table = partition._class_table
        monkeypatch.setattr(partition, "_class_table", lambda *args: built.append(args) or table(*args))
        assert table_entries(k, d) == count <= DEFAULT_ENUMERATION_LIMIT
        with pytest.raises(GuardExceeded) as info:
            feasible_class_table(k, d, limit=count - 1)
        assert (info.value.what, info.value.count, built) == ("box-class table", count, [])

    @pytest.mark.parametrize("k,d", [(2, 1), (2, 8), (2, 13), (3, 3), (5, 2)])
    def test_guard_counts_the_built_table(self, k, d):
        # the minimal classes' anchors and spans, expanded to build their
        # corner matrix; the larger stage decides, the span vectors at (2, 13)
        table = feasible_class_table(k, d)
        entries = len(table.witness_rows[:-1]) * 2 * d + table.minimal_corners.size
        assert entries == table_entries(k, d)
        need = max((2**k - 1) ** d, entries)
        assert feasible_class_table(k, d, limit=need) is table
        with pytest.raises(GuardExceeded) as info:
            feasible_class_table(k, d, limit=need - 1)
        assert info.value.count == need

    @pytest.mark.parametrize("k,d", [(2, 8), (3, 3), (5, 2)])
    def test_table_refusal_builds_no_table(self, monkeypatch, k, d):
        # the minimal classes' count refuses before the table is built, and admits it at that count
        partition._feasible_spans.cache_clear()
        partition._class_table.cache_clear()
        built = []
        table = partition._class_table
        monkeypatch.setattr(partition, "_class_table", lambda *args: built.append(args) or table(*args))
        entries = table_entries(k, d)
        assert entries > (2**k - 1) ** d
        with pytest.raises(GuardExceeded) as info:
            feasible_class_table(k, d, limit=entries - 1)
        assert (info.value.what, info.value.count, built) == ("box-class table", entries, [])
        assert feasible_class_table(k, d, limit=entries).count == len(reference_class_table(k, d)[0])
        assert built == [(k, d)]

    @pytest.mark.parametrize(
        "k,d",
        [(2, d) for d in range(1, 13)]
        + [(3, d) for d in range(1, 6)]
        + [(4, 1), (4, 2), (4, 3), (5, 2), (6, 2), (7, 2), (9, 2), (12, 1)],
    )
    def test_feasible_spans_match_the_span_grid_filter(self, k, d):
        prefixes, low, minimal, entries = partition._feasible_spans(k, d)
        spans, want_minimal, want_entries = reference_feasible_spans(k, d)
        table_spans = feasible_class_table(k, d).span_vectors
        assert table_spans.dtype == spans.dtype and np.array_equal(table_spans, spans)
        # run j is prefix j followed by each last span low[j] .. 2^k - 1; its head alone may be minimal
        runs = [(*p, last) for p, a in zip(prefixes.tolist(), low.tolist()) for last in range(a, 2**k)]
        assert np.array_equal(np.array(runs), spans)
        heads = np.cumsum(2**k - low) - (2**k - low)
        assert np.array_equal(np.flatnonzero(want_minimal), heads[minimal])
        assert entries == want_entries

    def test_entries_exact_past_int64_volumes(self):
        # prod(span + 1) reaches 4^32 = 2^64 at (2, 32); at k = 2 and d >= 4 the
        # minimal classes number 36 C(d,3) + 16 C(d,4), with at most 4 anchors above 1
        minimal = 36 * math.comb(32, 3) + 16 * math.comb(32, 4)
        assert partition._feasible_spans(2, 32)[3] == minimal * (2 * 32 + 2**4)

    @pytest.mark.parametrize("d", [*range(4, 25), 48])
    def test_entries_match_the_k2_closed_form(self, d):
        # at k = 2 and d >= 4 the minimal classes are the (1,2,2) shapes on 3 axes and the
        # (2,2,2,2) shapes on 4, each with 2d anchor and span entries and 2^4 corner columns;
        # uncached, so that the 246,563 prefixes of (2, 48) are not kept
        minimal = 36 * math.comb(d, 3) + 16 * math.comb(d, 4)
        assert partition._feasible_spans.__wrapped__(2, d)[3] == minimal * (2 * d + 16)

    @pytest.mark.parametrize("k,d", [(2, 16), (2, 32), (3, 6), (5, 3), (8, 2)])
    def test_minimal_heads_match_the_every_span_test(self, k, d):
        # a head is minimal when each of its spans is 1 or leaves a volume of at most
        # 2^(k(d-1)) one lower; the largest span binds, as the test of every span agrees
        prefixes, low, minimal, _ = partition._feasible_spans(k, d)
        heads = np.column_stack((prefixes, low))
        volume = np.prod(heads.astype(object) + 1, axis=1)
        every = (heads == 1) | (volume[:, None] // (heads + 1) * heads <= 2 ** (k * (d - 1)))
        assert minimal.dtype == bool and np.array_equal(minimal, every.all(axis=1))

    def test_cache_holds_no_span_grid(self):
        # the cache lives as long as the process; it keeps the feasible
        # prefixes and their runs, nothing the size of the 3^12 span vectors
        partition._feasible_spans.cache_clear()
        cached = partition._feasible_spans(2, 12)
        arrays = [item for item in cached if isinstance(item, np.ndarray)]
        assert len(arrays) == 3 and all(a.size < 3**12 for a in arrays)

    def test_table_build_holds_no_span_grid(self):
        # the (3^11, 11) span grid alone is 15.6 MB of int64
        partition._feasible_spans.cache_clear()
        partition._class_table.cache_clear()
        tracemalloc.start()
        try:
            feasible_class_table(2, 11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_table_build_at_d16_holds_no_span_grid(self):
        # one byte per span vector of (2, 16) alone is 41 MB; the table holds ~20 MB
        partition._feasible_spans.cache_clear()
        partition._class_table.cache_clear()
        tracemalloc.start()
        try:
            feasible_class_table(2, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_table_refusal_builds_no_span_grid(self):
        # the 8191^2 span vectors of (13, 2) are 67M; the count needs only their 8191 prefixes
        partition._feasible_spans.cache_clear()
        tracemalloc.start()
        try:
            with pytest.raises(GuardExceeded) as info:
                feasible_class_table(13, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (info.value.what, info.value.count) == ("box-class table", 91_194_946_592)
        assert peak < 16 * 2**20

    def test_cached_table_is_read_only(self):
        table = feasible_class_table(2, 2)
        assert feasible_class_table(2, 2) is table
        arrays = (table.span_vectors, table.starts, table.witness_rows, table.minimal_corners)
        for array in arrays:
            with pytest.raises(ValueError):
                array[0] = 3

    @pytest.mark.parametrize("k,d", [(2, 3), (3, 2)])
    def test_witness_rows_are_built_with_the_table(self, k, d, monkeypatch):
        # the minimal rows followed by the count, read by first_misses without a copy
        table = feasible_class_table(k, d)
        assert table.witness_rows[-1] == table.count
        full = np.indices((2**k - 1,) * d).reshape(d, -1).T + 1
        sets = np.stack((full, np.ones_like(full)))
        monkeypatch.setattr(np, "append", lambda *_, **__: pytest.fail("row lookup rebuilt"))
        passed, missed = table.first_misses(sets).tolist()
        assert passed == table.count and missed in table.witness_rows[:-1].tolist()

    @pytest.mark.parametrize("k,d", [(2, 1), (2, 2), (3, 2)])
    def test_volume_sandwich_on_members(self, k, d):
        rng = random.Random(13 * k + d)
        m = 2**k
        for cls in enumerate_feasible_classes(k, d):
            upper = math.prod(Fraction(s + 1, m) for s in cls.span)
            for _ in range(2):
                box = random_member_box(rng, cls)
                vol = box.volume()
                assert Fraction(1, m) < vol <= upper


class TestMinimalCores:
    @pytest.mark.parametrize(
        "k,d", [(2, d) for d in range(1, 6)] + [(3, d) for d in range(1, 4)] + [(4, 2), (5, 2)]
    )
    def test_minimal_corners_read_the_inclusion_minimal_cores(self, k, d):
        # the classes whose span cannot drop by one on any axis and stay feasible
        table = feasible_class_table(k, d)
        anchors, spans = reference_class_table(k, d)
        feasible = set(map(tuple, spans.tolist()))
        minimal = {
            span: not any(span[:i] + (span[i] - 1,) + span[i + 1 :] in feasible for i in range(d))
            for span in feasible
        }
        keep = np.array([minimal[span] for span in map(tuple, spans.tolist())])
        lo, hi = anchors, anchors + spans - 1
        # they hold no other feasible core, every feasible core holds one of them,
        # and no one of them holds another
        assert np.array_equal(cores_inside(k, lo, hi, lo, hi) == 1, keep)
        inside = cores_inside(k, lo, hi, lo[keep], hi[keep])
        assert (inside >= 1).all() and (inside[keep] == 1).all()
        assert np.array_equal(table.witness_rows[:-1], np.flatnonzero(keep))
        corners = partition._corner_matrix(k, anchors, spans, np.arange(len(spans)))
        assert np.array_equal(table.minimal_corners, corners[keep])
        assert table.minimal_corners.flags.f_contiguous

    @pytest.mark.parametrize(
        "k,d,classes,minimal",
        [(3, 2, 581, 92), (2, 7, 2472, 1820), (5, 2, 203_552, 5889), (4, 3, 655_930, 63_051)],
    )
    def test_minimal_counts(self, k, d, classes, minimal):
        table = feasible_class_table(k, d)
        assert (table.count, len(table.minimal_corners)) == (classes, minimal)


COUNT_GRID = [(2, d) for d in range(1, 7)] + [(3, d) for d in range(1, 4)] + [(4, 1), (4, 2)]


class TestCounts:
    def test_anchor_formula_vs_exact(self):
        # d = 1: the accounting is exact; d = 2: it overcounts volume-infeasible spans
        assert anchor_formula_count(2, 1) == 6
        audit1 = count_audit(2, 1)
        assert audit1.exact_feasible_count == audit1.anchor_formula_count == 6
        audit2 = count_audit(2, 2)
        assert audit2.anchor_formula_count == 36
        assert audit2.exact_feasible_count == 27
        assert audit2.exact_feasible_count <= audit2.anchor_formula_count

    def test_ln_class_count_bound_value(self):
        assert ln_class_count_bound(2, 2) == pytest.approx(32 * math.log(2), abs=1e-12)

    @pytest.mark.parametrize("k,d", COUNT_GRID)
    def test_anchor_formula_between_exact_and_crude_counts(self, k, d):
        # the crude union bound counts 2^(2kd) classes: it stands on this sandwich
        count = feasible_class_table(k, d).count
        assert 2 ** (2 * k * d) >= anchor_formula_count(k, d) >= count

    @pytest.mark.parametrize("k,d", COUNT_GRID)
    def test_exact_count_below_class_count_bound(self, k, d):
        exact = sum(1 for _ in enumerate_feasible_classes(k, d))
        assert math.log(exact) <= ln_class_count_bound(k, d)
