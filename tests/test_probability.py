import itertools
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest

from dispgrid import (
    BoxClass,
    PointSet,
    audit_hit_probabilities,
    check_hit_factor_inequality,
    class_miss_probability_bound,
    enumerate_feasible_classes,
    exact_failure_probability,
    hit_factor_lhs,
    hit_probability,
    ln_union_failure_bound,
    ln_union_failure_bound_crude,
    min_hit_probability_bound,
)
from dispgrid import partition, probability
from dispgrid.guards import DEFAULT_ENUMERATION_LIMIT, DEFAULT_OUTCOME_LIMIT, GuardExceeded
from dispgrid.partition import BLOCK_CLASSES, CHUNK_ELEMENTS, ClassTable, feasible_class_table

from oracles import (
    brute_force_hit_probability,
    coverage_failure_probability,
    decimal_hit_factor_inequality,
    per_outcome_failure_probability,
    reference_exact_failure_probability,
    reference_hit_audit,
    scan_hit_factor_inequality,
    support_loop_failure_probability,
)


def covering_supports(k, d, low, top):
    """Every support of low .. top grid points that takes each value 1 .. 2^k - 1 on each axis."""
    values = set(range(1, 2**k))
    grid = list(itertools.product(sorted(values), repeat=d))
    return [
        frozenset(support)
        for s in range(low, top + 1)
        for support in itertools.combinations(grid, s)
        if all({p[axis] for p in support} == values for axis in range(d))
    ]


def spy_first_misses(monkeypatch):
    """Record, per ClassTable.first_misses call, each trial's set of distinct points."""
    calls = []
    kernel = ClassTable.first_misses

    def counting(table, numerators):
        calls.append([frozenset(map(tuple, rows)) for rows in numerators.tolist()])
        return kernel(table, numerators)

    monkeypatch.setattr(ClassTable, "first_misses", counting)
    return calls


def spy_listing_chunks(monkeypatch):
    """Record the number of supports in each listing chunk that _support_chunks yields."""
    chunks = []
    listing = probability._support_chunks

    def counting(*args):
        for picks, sizes in listing(*args):
            chunks.append(len(sizes))
            yield picks, sizes

    monkeypatch.setattr(probability, "_support_chunks", counting)
    return chunks


class TestHitProbability:
    def test_singleton_core_d1(self):
        assert hit_probability(BoxClass(2, (2,), (1,))) == Fraction(1, 3)

    def test_full_span_d2(self):
        assert hit_probability(BoxClass(2, (1, 1), (3, 3))) == 1

    def test_product_example(self):
        assert hit_probability(BoxClass(2, (1, 2), (2, 1))) == Fraction(2, 9)

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError):
            hit_probability(BoxClass(2, (3,), (3,)))

    @pytest.mark.parametrize("k,d", [(2, 1), (3, 1), (2, 2), (3, 2)])
    def test_formula_matches_brute_force(self, k, d):
        for cls in enumerate_feasible_classes(k, d):
            want = brute_force_hit_probability(cls.core_box(), k, d)
            assert hit_probability(cls) == want


class TestBoundConstants:
    def test_bound_k2(self):
        assert min_hit_probability_bound(2) == Fraction(1, 64)

    def test_bound_k3(self):
        assert min_hit_probability_bound(3) == Fraction(1, 128)

    def test_miss_bound_k2(self):
        assert class_miss_probability_bound(2) == pytest.approx(math.exp(-1 / 64), abs=1e-15)
        assert class_miss_probability_bound(2) == pytest.approx(0.98449, abs=1e-5)


class TestHitProbabilityAudit:
    def test_k2_d1_minimum(self):
        audit = audit_hit_probabilities(2, 1)
        assert audit.passed
        assert audit.classes_checked == 6
        assert audit.min_hit_probability == Fraction(1, 3)
        assert audit.min_hit_probability > Fraction(1, 64)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_audit_passes(self, k, d):
        audit = audit_hit_probabilities(k, d)
        assert audit.passed
        assert audit.violations == ()
        assert audit.min_hit_probability > min_hit_probability_bound(k)

    @pytest.mark.parametrize(
        "k,d", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 2), (5, 1)]
    )
    def test_matches_per_class_reference(self, k, d):
        assert audit_hit_probabilities(k, d) == reference_hit_audit(k, d)

    @pytest.mark.parametrize("k,d", [(2, 2), (2, 3), (3, 2), (4, 2)])
    def test_matches_reference_with_violations(self, k, d, monkeypatch):
        monkeypatch.setattr(probability, "min_hit_probability_bound", lambda k: Fraction(1, 4))
        monkeypatch.setattr(probability, "class_miss_probability_bound", lambda k: 0.5)
        monkeypatch.setattr(probability, "CHAIN_SLACK", -0.05)
        audit = audit_hit_probabilities(k, d)
        assert not audit.passed
        assert {reason for _, reason in audit.violations} == {
            "hit probability not above 2^-(k+4)",
            "intermediate chain inequality",
            "miss probability bound",
        }
        assert audit == reference_hit_audit(k, d)

    def test_no_class_proved_feasible_again(self, monkeypatch):
        calls = []
        is_feasible = BoxClass.is_feasible

        def counted(cls):
            calls.append(cls)
            return is_feasible(cls)

        monkeypatch.setattr(BoxClass, "is_feasible", counted)
        assert audit_hit_probabilities(3, 2).passed
        assert calls == []

    @pytest.mark.parametrize("k,d", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_miss_probability_below_class_bound(self, k, d):
        miss_bound = class_miss_probability_bound(k)
        for cls in enumerate_feasible_classes(k, d):
            assert 1 - float(hit_probability(cls)) < miss_bound


class TestFactorInequality:
    def test_k2_values(self):
        check = check_hit_factor_inequality(2)
        assert check.holds
        assert check.min_j == 2
        assert abs(check.lhs_min - 2 / 9) <= 1e-12
        assert abs(check.rhs - 21 / 128) <= 1e-12

    def test_lhs_helper(self):
        assert hit_factor_lhs(2, 1) == pytest.approx(0.25, abs=1e-15)
        assert hit_factor_lhs(2, 2) == pytest.approx(2 / 9, abs=1e-15)

    @pytest.mark.parametrize("k", range(2, 21))
    def test_holds_through_k20(self, k):
        check = check_hit_factor_inequality(k)
        assert check.holds
        assert check.min_j in (1, 2**k - 2)

    @pytest.mark.parametrize("k", range(2, 21))
    def test_matches_the_scan_of_every_j(self, k):
        # the scan's margin is a difference of two floats near rhs, so it is read to 1e-13 of rhs
        check, scan = check_hit_factor_inequality(k), scan_hit_factor_inequality(k)
        assert (check.k, check.min_j, check.holds) == (scan.k, scan.min_j, scan.holds)
        assert math.isclose(check.lhs_min, scan.lhs_min, rel_tol=1e-13)
        assert math.isclose(check.rhs, scan.rhs, rel_tol=1e-13)
        assert math.isclose(check.margin, scan.margin, rel_tol=1e-13, abs_tol=1e-13 * scan.rhs)

    @pytest.mark.parametrize("k", [*range(2, 65), 1015])
    def test_matches_a_decimal_reference(self, k):
        # from k = 47 the sides differ by about an ulp, and from k = 1015 k 2^k has no float
        check = check_hit_factor_inequality(k)
        for got, want in zip((check.lhs_min, check.rhs, check.margin), decimal_hit_factor_inequality(k)):
            assert abs(Decimal(got) - want) <= Decimal("1e-12") * abs(want)

    def test_holds_through_k1100(self):
        assert all(check_hit_factor_inequality(k).holds for k in range(2, 1101))

    @pytest.mark.parametrize("k", [55, 62])
    def test_min_j_is_an_exact_endpoint(self, k):
        # 2^k - 2 has no float form from k = 55, so j is reported from the integers
        assert check_hit_factor_inequality(k).min_j in (1, 2**k - 2)

    def test_memory_does_not_grow_with_k(self):
        # a scan of every j would hold 8 (2^24 - 2) bytes, 128 MiB, at k = 24
        tracemalloc.start()
        try:
            check = check_hit_factor_inequality(24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert check.holds and check.min_j in (1, 2**24 - 2)
        assert peak < 2**20


class TestFailureBounds:
    def test_union_bound_at_sufficient_n(self):
        value = ln_union_failure_bound(2, 2, 2048)
        assert value == pytest.approx(32 * math.log(2) - 32, abs=1e-9)
        assert value < 0

    def test_union_bound_vacuous_at_zero(self):
        assert ln_union_failure_bound(2, 2, 0) == pytest.approx(32 * math.log(2), abs=1e-9)
        assert ln_union_failure_bound(2, 2, 0) > 0

    def test_crude_bound(self):
        value = ln_union_failure_bound_crude(2, 2, 2048)
        assert value == pytest.approx(8 * math.log(2) - 32, abs=1e-9)


class TestExactFailureProbability:
    def test_single_point_always_fails(self):
        assert exact_failure_probability(2, 1, 1) == 1

    def test_three_points_d1(self):
        assert exact_failure_probability(2, 1, 3) == Fraction(7, 9)

    def test_matches_surjection_oracle(self):
        for n in range(1, 7):
            got = exact_failure_probability(2, 1, n)
            assert got == coverage_failure_probability(2, n)

    def test_below_union_bound(self):
        for n in range(1, 7):
            got = exact_failure_probability(2, 1, n)
            cap = min(1.0, math.exp(ln_union_failure_bound(2, 1, n)))
            assert float(got) <= cap

    def test_non_increasing_in_n(self):
        values = [exact_failure_probability(2, 1, n) for n in range(1, 7)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_small_d2_instance(self):
        # n=1 in d=2 always fails: a single point cannot hit disjoint cores
        assert exact_failure_probability(2, 2, 1) == 1

    @pytest.mark.parametrize(
        "k,d,n",
        [(2, 1, 3), (2, 1, 5), (2, 2, 3), (2, 2, 4), (2, 2, 5), (3, 1, 4), (3, 1, 8), (3, 2, 2),
         (2, 3, 2)],
    )
    def test_matches_per_outcome_search(self, k, d, n):
        assert exact_failure_probability(k, d, n) == per_outcome_failure_probability(k, d, n)

    @pytest.mark.parametrize(
        "k,d,n",
        # both sides of n = 2^k - 1, below which every support fails untested
        [(2, 1, 3), (2, 1, 5), (2, 2, 3), (2, 2, 4), (2, 2, 5), (2, 2, 6), (2, 2, 7),
         (3, 1, 4), (3, 1, 8), (3, 2, 2), (3, 2, 3), (2, 3, 2), (2, 3, 3), (4, 2, 2),
         (5, 2, 1), (7, 2, 1)],
    )
    def test_matches_every_support_on_its_candidate_boxes(self, k, d, n):
        assert exact_failure_probability(k, d, n) == reference_exact_failure_probability(k, d, n)

    def test_one_point_at_fine_resolution_always_fails(self):
        # one point always leaves a box of volume >= 1/2 empty; 16,129 outcomes
        assert exact_failure_probability(7, 2, 1) == 1

    def test_guard(self):
        with pytest.raises(GuardExceeded, match="79792266297612001 items"):
            exact_failure_probability(3, 2, 10)

    def test_outcome_guard_refuses_below_the_coverage_size(self):
        # n = 1 < 2^12 - 1 fails for sure, but the outcomes are still counted first
        with pytest.raises(GuardExceeded, match="16769025 items"):
            exact_failure_probability(12, 2, 1)

    @pytest.mark.parametrize("k,d,n", [(7, 2, 1), (8, 2, 1), (2, 7, 1), (3, 1, 6)])
    def test_small_supports_build_nothing(self, k, d, n, monkeypatch):
        calls = []
        for name in ("feasible_class_table", "full_grid"):
            monkeypatch.setattr(probability, name, lambda *_, name=name, **__: calls.append(name))
        monkeypatch.setattr(ClassTable, "first_misses", lambda *_: calls.append("first_misses"))
        assert exact_failure_probability(k, d, n) == 1
        assert calls == []

    def test_outcome_guard_keeps_the_full_grid_admitted(self):
        # n = 1 has the fewest outcomes, g^d, against the d g^d numerators of the full grid
        for k in range(2, 24):
            g = 2**k - 1
            d = 1
            while g**d <= DEFAULT_OUTCOME_LIMIT:
                assert d * g**d <= DEFAULT_ENUMERATION_LIMIT
                d += 1

    def test_benchmark_instance_value(self):
        assert exact_failure_probability(2, 2, 7) == Fraction(1406723, 1594323)

    def test_benchmark_instance_makes_one_kernel_call(self, monkeypatch):
        # the 456 supports of 3 to 7 of the 9 grid points fit one listing chunk,
        # and their 255 covering supports one kernel call
        chunks = spy_listing_chunks(monkeypatch)
        calls = spy_first_misses(monkeypatch)
        assert exact_failure_probability(2, 2, 7) == Fraction(1406723, 1594323)
        assert chunks == [456]
        assert [len(call) for call in calls] == [255]

    def test_listing_chunks_stay_within_the_kernel_bound(self, monkeypatch):
        # (2, 4, 3): 85,320 supports of 3 points of 4 numerators, CHUNK_ELEMENTS // 12 at a time
        chunks = spy_listing_chunks(monkeypatch)
        assert exact_failure_probability(2, 4, 3) == 1
        rows = CHUNK_ELEMENTS // 12
        assert sum(chunks) == math.comb(81, 3) and len(chunks) == -(-math.comb(81, 3) // rows) == 16
        assert set(chunks[:-1]) == {rows} and chunks[-1] <= rows

    @pytest.mark.parametrize(
        "k,d,n,listed,trials",
        # `listed` supports per listing chunk; `trials` per kernel call, or the kernel's own bound
        [(2, 2, 7, 1, None), (2, 2, 7, 7, 3), (2, 2, 7, 50, 4), (2, 3, 4, 40, 4),
         (2, 3, 4, 300, None)],
    )
    def test_many_listing_chunks(self, k, d, n, listed, trials, monkeypatch):
        top = min(n, (2**k - 1) ** d)
        want = support_loop_failure_probability(k, d, n)
        table = feasible_class_table(k, d)
        if trials:
            per_support = max(min(len(table.minimal_corners), BLOCK_CLASSES), (2**k - 1) ** d + 1, n * d)
            monkeypatch.setattr(partition, "CHUNK_ELEMENTS", trials * per_support)
        bound = table.trials_per_chunk(top)
        assert bound == (trials or bound)
        monkeypatch.setattr(probability, "CHUNK_ELEMENTS", listed * top * d)
        chunks = spy_listing_chunks(monkeypatch)
        calls = spy_first_misses(monkeypatch)
        assert exact_failure_probability(k, d, n) == want
        supports = sum(math.comb((2**k - 1) ** d, s) for s in range(2**k - 1, top + 1))
        assert sum(chunks) == supports and max(chunks) == listed and len(chunks) == -(-supports // listed)
        tested = list(itertools.chain.from_iterable(calls))
        covering = covering_supports(k, d, 2**k - 1, top)
        assert len(tested) == len(set(tested)) == len(covering)
        assert set(tested) == set(covering)
        assert max(len(call) for call in calls) <= bound

    @pytest.mark.parametrize(
        "k,d,n,covering",
        # (2, 2, 7): 255 of the 456 supports of 3 to 7 of the 9 grid points, against
        # 6,435 multisets of 7; (2, 4, 3): 216 = 6^4 / 3! of 85,320 supports of 3 points
        [(2, 2, 7, 255), (2, 2, 4, 51), (2, 3, 4, 1926), (2, 4, 3, 216), (3, 1, 8, 1)],
    )
    def test_each_support_tested_once(self, k, d, n, covering, monkeypatch):
        # a support reaches the kernel exactly when it takes every value on every axis;
        # every other one misses a value, so an empty slab of volume 2^(1-k), and fails untested
        calls = spy_first_misses(monkeypatch)
        exact_failure_probability(k, d, n)
        tested = list(itertools.chain.from_iterable(calls))
        want = covering_supports(k, d, 2**k - 1, min(n, (2**k - 1) ** d))
        assert len(tested) == len(set(tested)) == len(want) == covering
        assert set(tested) == set(want)

    @pytest.mark.parametrize("chunk", [4, 10])
    def test_chunk_mixes_support_sizes(self, chunk, monkeypatch):
        # (2, 2, 6): covering supports of 3 to 6 points, filled into one chunk across sizes
        want = support_loop_failure_probability(2, 2, 6)
        corners = feasible_class_table(2, 2).minimal_corners
        monkeypatch.setattr(partition, "CHUNK_ELEMENTS", chunk * max(len(corners), 10, 12))
        calls = spy_first_misses(monkeypatch)
        assert exact_failure_probability(2, 2, 6) == want
        sizes = [[len(support) for support in call] for call in calls]
        assert all(len(call) == chunk for call in sizes[:-1]) and 0 < len(sizes[-1]) <= chunk
        assert any(len(set(call)) > 1 for call in sizes)
        flat = list(itertools.chain.from_iterable(sizes))
        assert flat == sorted(flat)

    @pytest.mark.parametrize("k,d,n", [(2, 2, 4), (2, 2, 7)])
    @pytest.mark.parametrize("chunk", [1, 3, 5, 7])
    def test_chunk_size_does_not_change_value(self, k, d, n, chunk, monkeypatch):
        # chunks of 5 straddle the 84 supports of three points and the next size
        want = exact_failure_probability(k, d, n)
        corners = feasible_class_table(k, d).minimal_corners
        per_support = max(len(corners), (2**k - 1) ** d + 1, n * d)
        monkeypatch.setattr(partition, "CHUNK_ELEMENTS", chunk * per_support)
        sizes = []
        kernel = ClassTable.first_misses

        def counting(table, numerators):
            sizes.append(len(numerators))
            return kernel(table, numerators)

        monkeypatch.setattr(ClassTable, "first_misses", counting)
        assert exact_failure_probability(k, d, n) == want
        assert max(sizes) == chunk and len(sizes) == -(-sum(sizes) // chunk)

    @pytest.mark.parametrize(
        "k,d,n",
        [(2, 1, 3), (2, 1, 4), (2, 1, 5), (2, 1, 6), (2, 2, 3), (2, 2, 4), (2, 2, 5), (2, 2, 6),
         (2, 2, 7), (2, 3, 3), (2, 3, 4), (2, 4, 3), (3, 1, 7), (3, 1, 8)],
    )
    def test_matches_support_loop(self, k, d, n):
        assert exact_failure_probability(k, d, n) == support_loop_failure_probability(k, d, n)

    @pytest.mark.parametrize("k,d,n,limit", [(2, 3, 5, 27**5), (2, 2, 9, 9**9)])
    def test_matches_support_loop_at_a_raised_limit(self, k, d, n, limit):
        with pytest.raises(GuardExceeded):
            exact_failure_probability(k, d, n)
        got = exact_failure_probability(k, d, n, limit=limit)
        assert got == support_loop_failure_probability(k, d, n, limit=limit)

    def test_memory_stays_within_a_few_chunks(self):
        # 101,205 supports of 3 to 5 of the 27 grid points, padded to 5 points of 3
        # numerators, would take ~12 MB as int64 at once
        feasible_class_table(2, 3)
        tracemalloc.start()
        try:
            assert exact_failure_probability(2, 3, 5, limit=27**5) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(math.comb(27, s) for s in range(3, 6)) * 5 * 3 * 8 > 12 * 10**6
        assert peak < 4 * 2**20
