"""Closed-form sample-size and dispersion bounds, and their numeric inversion.

Three sufficient point counts for reaching dispersion at most eps in
dimension d are provided: the main bound, logarithmic in d and almost
quadratic in 1/eps; a coarser constant-absorbed form of it; and a variant
linear in d. The known lower bound log2(d)/(4(n + log2(d))) on the minimal
dispersion of n points closes the sandwich. All formulas use base-2
logarithms; natural logs appear only inside log-space bound arithmetic
elsewhere in the package.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .grid import exact_fraction, k_from_epsilon, require_k
from .partition import short_side_threshold

_EPS_HALF_OPEN = (0.0, 0.5)
UPPER_BOUND_REL_TOL = 1e-9  # relative precision of dispersion_upper_bound's bisection


def _check_eps(eps) -> float:
    e = float(eps)
    if not (_EPS_HALF_OPEN[0] < e < _EPS_HALF_OPEN[1]):
        raise ValueError(f"eps must lie in (0, 1/2), got {eps!r}")
    return e


def _check_d(d: int, minimum: int = 2) -> int:
    if not isinstance(d, int) or d < minimum:
        raise ValueError(f"dimension must be an integer >= {minimum}, got {d!r}")
    return d


def n_required(k, d: int) -> int:
    """Grid-level sample size ceil(2^4 k 2^(2k) log2(2^(k+1) d)).

    The source paper's n: at and above it ln_union_failure_bound is negative,
    so a certified set of n grid points exists, for every k >= 2 and d >= 1
    at which ln_class_count_bound holds.
    """
    kk = require_k(k)
    _check_d(d, minimum=1)
    return math.ceil(2**4 * kk * 2 ** (2 * kk) * math.log2(2 ** (kk + 1) * d))


def points_for_dispersion(eps, d: int) -> float:
    """The paper's main sufficient count 2^7 log2(d) (1 + log2(1/eps))^2 / eps^2, for eps in (0, 1/2), d >= 2."""
    e = _check_eps(eps)
    _check_d(d)
    return 2**7 * math.log2(d) * (1.0 + math.log2(1.0 / e)) ** 2 / e**2


def points_for_dispersion_coarse(eps, d: int) -> float:
    """The paper's stated N, 2^9 log2(d) (log2(1/eps)/eps)^2, for eps in (0, 1/2), d >= 2; dominates the main bound."""
    e = _check_eps(eps)
    _check_d(d)
    return 2**9 * math.log2(d) * (math.log2(1.0 / e) / e) ** 2


def points_for_dispersion_lineardim(eps, d: int) -> float:
    """Dimension-linear variant 2^6 d (1 + log2(1/eps)) / eps, the crude union bound's n, for eps in (0, 1/2), d >= 2."""
    e = _check_eps(eps)
    _check_d(d)
    return 2**6 * d * (1.0 + math.log2(1.0 / e)) / e


def dispersion_lower_bound(n: int, d: int) -> float:
    """Known lower bound log2(d) / (4 (n + log2(d))) on the minimal dispersion.

    Aistleitner, Hinrichs & Rudolf (2017): it holds for every set of n >= 1 points in d >= 2.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    _check_d(d)
    log2d = math.log2(d)
    return log2d / (4.0 * (n + log2d))


def dispersion_upper_bound(n: int, d: int) -> float:
    """Smallest eps (to relative precision UPPER_BOUND_REL_TOL) whose main point count fits in n.

    Some set of n points has at most this dispersion (n >= 1, d >= 2). The
    main bound is strictly decreasing in eps on (0, 1/2), so a bisection is
    well defined. When even eps just below 1/2 needs more than n points, the
    vacuous bound 1/2 is returned.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    _check_d(d)
    hi = math.nextafter(0.5, 0.0)
    if points_for_dispersion(hi, d) > n:
        return 0.5
    lo = hi / 2.0
    while points_for_dispersion(lo, d) <= n:
        lo /= 2.0
        if lo < 1e-300:
            raise OverflowError("bisection bracket underflow")
    # invariant: count(lo) > n >= count(hi)
    for _ in range(200):
        if hi - lo <= UPPER_BOUND_REL_TOL * hi:
            break
        mid = 0.5 * (lo + hi)
        if points_for_dispersion(mid, d) <= n:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class BoundsRow:
    """All point-count bounds at one (eps, d), with the smaller-bound tag."""

    eps: Fraction
    d: int
    k: int
    n_required: int
    n_logdim: float
    n_coarse: float
    n_lineardim: float
    better: str
    threshold_exceeds_d: bool

    def __post_init__(self):
        if min(self.n_required, self.n_logdim, self.n_coarse, self.n_lineardim) <= 0:
            raise ValueError("bound entries must be positive")


def bounds_table(eps_list, d_list) -> list[BoundsRow]:
    """One row per (eps, d) pair, comparing the log-dimension and linear-dimension bounds.

    ``better`` tags the smaller of the two; ``threshold_exceeds_d`` reports
    whether the short-side threshold ln(2) k 2^k exceeds d, the regime where
    the linear-dimension bound is expected to win.
    """
    rows = []
    for eps in eps_list:
        e = exact_fraction(eps)
        k = k_from_epsilon(e).k
        for d in d_list:
            n_logdim = points_for_dispersion(e, d)
            n_lineardim = points_for_dispersion_lineardim(e, d)
            rows.append(
                BoundsRow(
                    eps=e,
                    d=d,
                    k=k,
                    n_required=n_required(k, d),
                    n_logdim=n_logdim,
                    n_coarse=points_for_dispersion_coarse(e, d),
                    n_lineardim=n_lineardim,
                    better="lineardim" if n_lineardim < n_logdim else "logdim",
                    threshold_exceeds_d=short_side_threshold(k) > d,
                )
            )
    return rows
