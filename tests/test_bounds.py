import math
from fractions import Fraction

import numpy as np
import pytest

from dispgrid import (
    PointSet,
    bounds_table,
    dispersion_lower_bound,
    dispersion_upper_bound,
    generate_certified,
    k_from_epsilon,
    largest_empty_box,
    ln_union_failure_bound,
    ln_union_failure_bound_crude,
    n_required,
    points_for_dispersion,
    points_for_dispersion_coarse,
    points_for_dispersion_lineardim,
)

EPS_GRID = [0.001 + i * (0.498 / 99) for i in range(100)]
D_GRID = [2, 10, 100, 1000, 10000]


class TestNRequired:
    def test_k2_d2(self):
        assert n_required(2, 2) == 2048

    def test_k2_d4(self):
        assert n_required(2, 4) == 2560

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("d", [1, 2, 7, 100])
    def test_union_bound_nonpositive_at_n_required(self, k, d):
        assert ln_union_failure_bound(k, d, n_required(k, d)) <= 0

    @pytest.mark.parametrize("k", range(2, 13))
    @pytest.mark.parametrize("d", [2, 10, 100, 1000])
    def test_below_main_bound_at_dyadic_eps(self, k, d):
        assert n_required(k, d) <= points_for_dispersion(Fraction(1, 2**k), d)


class TestClosedForms:
    def test_main_at_quarter(self):
        assert points_for_dispersion(Fraction(1, 4), 2) == 18432

    def test_coarse_at_quarter(self):
        assert points_for_dispersion_coarse(Fraction(1, 4), 2) == 32768

    def test_lineardim_at_quarter(self):
        assert points_for_dispersion_lineardim(Fraction(1, 4), 2) == 1536

    def test_lineardim_drives_the_crude_union_bound_negative(self):
        for eps in EPS_GRID:
            k = k_from_epsilon(eps).k
            for d in D_GRID:
                n = math.ceil(points_for_dispersion_lineardim(eps, d))
                assert ln_union_failure_bound_crude(k, d, n) < 0

    def test_domain_errors(self):
        for fn in (points_for_dispersion, points_for_dispersion_coarse,
                   points_for_dispersion_lineardim):
            with pytest.raises(ValueError):
                fn(0.75, 2)
            with pytest.raises(ValueError):
                fn(0.25, 1)

    def test_main_below_coarse_on_grid(self):
        for eps in EPS_GRID:
            for d in D_GRID:
                assert points_for_dispersion(eps, d) <= points_for_dispersion_coarse(eps, d)

    def test_proof_chain_on_grid(self):
        # 2^6 (1 + log2(1/eps)) log2(4 d / eps) / eps^2 <= main bound
        for eps in EPS_GRID:
            for d in D_GRID:
                mid = 2**6 * (1 + math.log2(1 / eps)) * math.log2(4 * d / eps) / eps**2
                assert mid <= points_for_dispersion(eps, d) + 1e-12


class TestDispersionLowerBound:
    def test_n100_d2(self):
        assert dispersion_lower_bound(100, 2) == pytest.approx(1 / 404, abs=1e-12)

    def test_n1_d2(self):
        assert dispersion_lower_bound(1, 2) == pytest.approx(1 / 8, abs=1e-12)

    def test_decreasing_in_n(self):
        values = [dispersion_lower_bound(n, 2) for n in (1, 10, 100, 1000, 10000)]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 5), (2, 20), (2, 50), (3, 1), (3, 8), (3, 20)])
    def test_below_the_dispersion_of_real_sets(self, d, n):
        # the bound holds for every set of n points, so for seeded uniform ones
        rng = np.random.default_rng(1000 * d + n)
        for _ in range(3):
            points = PointSet.from_reals(d, rng.random((n, d)))
            assert largest_empty_box(points).volume >= dispersion_lower_bound(n, d)

    def test_below_the_dispersion_of_a_certified_set(self):
        n = n_required(2, 4)
        points = generate_certified(2, 4, n, seed=0).points
        volume = largest_empty_box(points).volume
        assert dispersion_lower_bound(n, 4) <= volume <= Fraction(1, 4)


class TestDispersionUpperBound:
    def test_inverts_main_bound(self):
        assert dispersion_upper_bound(18432, 2) == pytest.approx(0.25, abs=1e-6)

    def test_vacuous_below_threshold(self):
        # cheapest non-vacuous n is the bound at eps just below 1/2, about 2048
        needed = points_for_dispersion(math.nextafter(0.5, 0.0), 2)
        assert dispersion_upper_bound(int(needed), 2) == 0.5
        assert dispersion_upper_bound(int(needed) + 1, 2) < 0.5

    def test_consistency(self):
        for n in (10**4, 10**5, 10**6):
            for d in (2, 100):
                eps = dispersion_upper_bound(n, d)
                if eps < 0.5:
                    assert points_for_dispersion(eps, d) <= n

    def test_sandwich_with_lower_bound(self):
        ns = [int(10 ** (3 + i / 2)) for i in range(9)]  # 10^3 .. 10^7
        for d in (2, 10, 100):
            for n in ns:
                assert dispersion_lower_bound(n, d) <= dispersion_upper_bound(n, d)

    def test_monotone(self):
        ns = [10**3, 10**4, 10**5, 10**6]
        for d in (2, 100):
            values = [dispersion_upper_bound(n, d) for n in ns]
            assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))
        for n in (10**5, 10**6):
            values = [dispersion_upper_bound(n, d) for d in (2, 10, 100, 1000)]
            assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))


class TestBoundsTable:
    def test_quarter_d2_row(self):
        (row,) = bounds_table([Fraction(1, 4)], [2])
        assert row.k == 2
        assert row.n_required == 2048
        assert row.n_logdim == 18432
        assert row.n_coarse == 32768
        assert row.n_lineardim == 1536
        assert row.better == "lineardim"
        assert row.threshold_exceeds_d  # ln(2) * 2 * 4 > 2

    def test_large_d_prefers_logdim(self):
        (row,) = bounds_table([Fraction(1, 4)], [1024])
        assert row.better == "logdim"
        assert not row.threshold_exceeds_d

    def test_main_below_coarse_every_row(self):
        rows = bounds_table([Fraction(1, 4), Fraction(1, 10), Fraction(3, 10)], [2, 10, 100])
        for row in rows:
            assert row.n_logdim <= row.n_coarse
