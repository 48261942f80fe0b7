"""Dyadic grids in the unit cube and the accuracy/resolution correspondence.

The grid at resolution k consists of the 2^k - 1 interior multiples of 2^-k.
Grid coordinates are stored as integer numerators over the shared denominator
2^k, so every containment and volume comparison is an exact integer
comparison. A target empty-box volume eps in (0, 1/2) selects the resolution
k with 2^-k <= eps < 2^-(k-1), i.e. k = ceil(log2(1/eps)) >= 2.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

MIN_K = 2

GRID_REPR = "grid"
REAL_REPR = "real"


def require_k(k) -> int:
    """Return the grid resolution exponent k when it is an int >= MIN_K.

    Anything else raises ValueError: floats, strings, None and numpy
    integers, and True, which is the int 1.
    """
    if not isinstance(k, int) or k < MIN_K:
        raise ValueError(f"grid resolution k must be an integer >= {MIN_K}, got {k!r}")
    return k


def k_from_epsilon(eps) -> int:
    """Resolution whose cells are finer than the accuracy eps in (0, 1/2).

    Returns the unique k with 2^-k <= eps < 2^-(k-1). The comparison is made
    against exact dyadic thresholds rather than through floating-point
    logarithms, so eps == 2^-k maps to k itself.
    """
    e = Fraction(eps)
    if not (0 < e < Fraction(1, 2)):
        raise ValueError(f"eps must lie in (0, 1/2), got {eps!r}")
    k = MIN_K
    while e < Fraction(1, 2**k):
        k += 1
    return k


@dataclass(frozen=True, eq=False)
class PointSet:
    """Finite multiset of points in [0,1]^d.

    ``points`` is a read-only ``(n, d)`` numpy array, copied from the input:
    int64 numerators over the shared denominator 2^k for grid-valued sets,
    float64 coordinates in [0, 1] for real-valued sets, so numerators must be
    integer values that fit in int64 (a float such as 1.7 is refused, not
    truncated; 1.0 is accepted). Duplicates are kept; `distinct_count` reports
    the deduplicated size. Equality is by value; instances are immutable and
    unhashable.
    """

    dim: int
    points: np.ndarray
    repr: str
    k: int | None = None

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.dim!r}")
        if self.repr == GRID_REPR:
            dtype, low, high = np.int64, 1, 2 ** require_k(self.k) - 1
        elif self.repr == REAL_REPR:
            if self.k is not None:
                raise ValueError("real-valued point sets carry no grid resolution")
            dtype, low, high = np.float64, 0.0, 1.0
        else:
            raise ValueError(f"repr must be {GRID_REPR!r} or {REAL_REPR!r}, got {self.repr!r}")
        source = np.asarray(self.points)
        try:
            if self.repr == GRID_REPR and source.dtype.kind not in "ib":
                # the cast truncates floats, wraps unsigned values past int64 and
                # turns NaN or inf into garbage: the comparison catches all three
                with np.errstate(invalid="ignore"):
                    pts = source.astype(np.int64)
                if not np.array_equal(pts, source):
                    raise ValueError("grid numerators must be integers that fit in int64")
            else:
                pts = np.array(source, dtype=dtype)
        except OverflowError:
            raise ValueError("grid numerators must fit in int64") from None
        if pts.shape == (0,):
            pts = pts.reshape(0, self.dim)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"points of shape {pts.shape} are not rows of dimension {self.dim}")
        # NaN fails both comparisons
        if pts.size and not (low <= pts.min() and pts.max() <= high):
            bad = pts[~((low <= pts) & (pts <= high))][0].item()
            raise ValueError(f"{self.repr} coordinate {bad!r} outside {low} .. {high}")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __eq__(self, other):
        if not isinstance(other, PointSet):
            return NotImplemented
        return ((self.dim, self.repr, self.k) == (other.dim, other.repr, other.k)
                and np.array_equal(self.points, other.points))

    @classmethod
    def from_numerators(cls, k, dim: int, rows) -> "PointSet":
        return cls(dim=dim, points=rows, repr=GRID_REPR, k=require_k(k))

    @classmethod
    def from_reals(cls, dim: int, rows) -> "PointSet":
        return cls(dim=dim, points=rows, repr=REAL_REPR, k=None)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def distinct_count(self) -> int:
        return len(np.unique(self.points, axis=0))

    def values(self) -> Iterator[tuple]:
        """Point coordinates as values: Fractions a/2^k for grid, floats for real."""
        rows = self.points.tolist()
        if self.repr == GRID_REPR:
            m = 2**self.k
            for row in rows:
                yield tuple(Fraction(a, m) for a in row)
        else:
            yield from map(tuple, rows)
