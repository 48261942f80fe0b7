import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dispgrid import (
    PointSet,
    certify_dispersion,
    full_grid,
    k_from_epsilon,
    read_point_set,
)
from dispgrid.grid import require_k
from dispgrid.guards import GuardExceeded
from dispgrid.pointset_io import PointSetParseError


class TestKFromEpsilon:
    def test_quarter_maps_to_two(self):
        assert k_from_epsilon(Fraction(1, 4)) == 2

    def test_point_three_maps_to_two(self):
        # 1/4 <= 0.3 < 1/2
        assert k_from_epsilon(Fraction(3, 10)) == 2

    def test_point_one_maps_to_four(self):
        # 1/16 <= 0.1 < 1/8
        assert k_from_epsilon(Fraction(1, 10)) == 4

    @pytest.mark.parametrize("k", range(2, 20))
    def test_exact_dyadic_boundary(self, k):
        assert k_from_epsilon(Fraction(1, 2**k)) == k

    @pytest.mark.parametrize("eps", [0, Fraction(1, 2), 1, -0.1, 0.5])
    def test_domain_errors(self, eps):
        with pytest.raises(ValueError):
            k_from_epsilon(eps)

    @given(st.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(499, 1000)))
    def test_round_trip(self, eps):
        k = k_from_epsilon(eps)
        assert Fraction(1, 2**k) <= eps < Fraction(1, 2 ** (k - 1))

    def test_non_increasing_in_eps(self):
        eps_grid = [Fraction(i, 1000) for i in range(499, 0, -7)]
        ks = [k_from_epsilon(e) for e in eps_grid]
        assert all(a <= b for a, b in zip(ks, ks[1:]))


class TestEpsilonRange:
    @pytest.mark.parametrize(
        "k,lo,hi",
        [(2, Fraction(1, 4), Fraction(1, 2)),
         (3, Fraction(1, 8), Fraction(1, 4)),
         (4, Fraction(1, 16), Fraction(1, 8))],
    )
    def test_values(self, k, lo, hi):
        # the accuracies 2^-k <= eps < 2^-(k-1) map to k, and the next one down does not
        for eps in (lo, (lo + hi) / 2, hi - Fraction(1, 2**20)):
            assert k_from_epsilon(eps) == k
        assert k_from_epsilon(lo - Fraction(1, 2**20)) == k + 1

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            require_k(1)


class TestGridValues:
    # the grid values a/2^k on one axis, as the points of the one-dimensional full grid
    def test_k2(self):
        assert list(full_grid(2, 1).values()) == [(Fraction(1, 4),), (Fraction(1, 2),), (Fraction(3, 4),)]

    def test_k3_count(self):
        vals = [v for (v,) in full_grid(3, 1).values()]
        assert len(vals) == 7
        assert vals[0] == Fraction(1, 8) and vals[-1] == Fraction(7, 8)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_strictly_increasing_uniform_gaps(self, k):
        vals = [v for (v,) in full_grid(k, 1).values()]
        assert len(vals) == 2**k - 1
        assert all(0 < v < 1 for v in vals)
        gaps = {b - a for a, b in zip(vals, vals[1:])}
        assert gaps == {Fraction(1, 2**k)}

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            full_grid(40, 1, limit=1000)


class TestRequireK:
    @pytest.mark.parametrize("k", [1, True, 2.0, "3", None, np.int64(3)])
    def test_refuses_all_but_an_int_of_at_least_two(self, k):
        with pytest.raises(ValueError, match=re.escape(f"grid resolution k must be an integer >= 2, got {k!r}")):
            require_k(k)

    @pytest.mark.parametrize("k", [2, 40])
    def test_returns_an_accepted_k(self, k):
        assert require_k(k) == k

    def test_k_from_epsilon_returns_an_int(self):
        assert type(k_from_epsilon(Fraction(1, 10))) is int


class TestPointSet:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            PointSet.from_numerators(2, 1, [(4,)])
        with pytest.raises(ValueError):
            PointSet.from_numerators(2, 2, [(1,)])

    def test_real_validation(self):
        with pytest.raises(ValueError):
            PointSet.from_reals(1, [(1.2,)])

    def test_multiset_semantics(self):
        ps = PointSet.from_numerators(2, 1, [(1,), (1,), (2,)])
        assert ps.n == 3
        assert ps.distinct_count == 2

    def test_values_are_fractions_for_grid(self):
        ps = PointSet.from_numerators(2, 2, [(1, 3)])
        assert list(ps.values()) == [(Fraction(1, 4), Fraction(3, 4))]

    def test_dimension_zero_rejected(self):
        with pytest.raises(ValueError):
            PointSet.from_numerators(2, 0, [])


class TestPointSetArray:
    def test_points_are_a_read_only_array(self):
        ps = PointSet.from_numerators(2, 2, [(1, 3), (2, 2)])
        assert isinstance(ps.points, np.ndarray)
        assert ps.points.dtype == np.int64 and ps.points.shape == (2, 2)
        assert PointSet.from_reals(1, [(0.5,)]).points.dtype == np.float64
        with pytest.raises(ValueError):
            ps.points[0, 0] = 2

    def test_set_is_a_copy_of_the_callers_array(self):
        source = np.array(full_grid(2, 2).points)
        ps = PointSet.from_numerators(2, 2, source)
        before = certify_dispersion(ps, 2)
        assert before.passed
        source[:] = 1
        assert ps == full_grid(2, 2)
        assert certify_dispersion(ps, 2) == before
        reals = np.array([[0.25, 0.5]])
        rs = PointSet.from_reals(2, reals)
        reals[0, 0] = 0.75
        assert rs.points.tolist() == [[0.25, 0.5]]

    def test_equality_by_value(self):
        grid = PointSet.from_numerators(2, 1, [(1,), (3,)])
        assert grid == PointSet.from_numerators(2, 1, np.array([[1], [3]]))
        assert grid != PointSet.from_numerators(2, 1, [(3,), (1,)])
        assert grid != PointSet.from_numerators(3, 1, [(1,), (3,)])
        assert grid != PointSet.from_numerators(2, 2, [(1, 1), (3, 3)])
        assert PointSet.from_reals(1, [(0.25,)]) != PointSet.from_numerators(2, 1, [(1,)])
        assert PointSet.from_reals(1, [(0.25,)]) == PointSet.from_reals(1, [(0.25,)])
        assert PointSet.from_numerators(2, 1, []) != PointSet.from_numerators(2, 2, [])
        assert PointSet.from_reals(1, []) != PointSet.from_reals(2, [])

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(PointSet.from_numerators(2, 1, [(1,)]))

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            PointSet.from_numerators(2, 2, [(1, 2), (3,)])
        with pytest.raises(ValueError):
            PointSet.from_reals(2, [(0.5, 0.5), (0.5,)])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            PointSet.from_reals(2, [(0.5, float("nan"))])

    def test_non_integer_numerators_rejected(self):
        for rows in ([(1.7,)], np.array([[2.5]]), [(float("nan"),)], [(1e30,)]):
            with pytest.raises(ValueError):
                PointSet.from_numerators(2, 1, rows)
        assert PointSet.from_numerators(2, 1, [(1.0,)]).points.tolist() == [[1]]

    def test_numerator_beyond_int64_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            PointSet.from_numerators(70, 1, [(2**63,)])
        assert PointSet.from_numerators(70, 1, [(2**63 - 1,)]).n == 1
        path = tmp_path / "big.txt"
        path.write_text(f"dispgrid v1 d=1 k=70 n=2 repr=grid\n5\n{2**63}\n")
        with pytest.raises(PointSetParseError) as info:
            read_point_set(path)
        assert info.value.line_no == 3
