"""Exact largest-empty-box search over a finite point set in [0,1]^d.

The dispersion of a point set is the supremum volume of an axis-parallel box
containing none of its points. The supremum is insensitive to endpoint
openness, so we fix a convention that attains it on a finite candidate
family: per-axis candidate endpoints are the input coordinates plus the
domain boundary 0 and 1; a candidate face sitting on a point coordinate is
open, a face on an untouched domain boundary is closed. Under that
convention a point lies in a candidate box exactly when it is strictly
inside on every axis, and the maximum over candidates equals the supremum
over all boxes.

Both searches run one pruned scan over the candidates in lexicographic
endpoint order, after an enumeration guard that counts candidates from the
per-axis endpoint counts alone. Ties resolve to the lexicographically
smallest witness.

For grid-valued inputs the whole search runs on integer numerators and the
result is exact (an arbitrary-precision integer over 2^(k*d)); real-valued
inputs use float arithmetic.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .grid import GRID_REPR, PointSet, exact_fraction
from .guards import DEFAULT_ENUMERATION_LIMIT, check_enumeration


@dataclass(frozen=True)
class Box:
    """Axis-parallel box in [0,1]^d with per-face openness flags."""

    lower: tuple
    upper: tuple
    open_lower: tuple[bool, ...]
    open_upper: tuple[bool, ...]

    def __post_init__(self):
        d = len(self.lower)
        if d < 1:
            raise ValueError("box dimension must be at least 1")
        if not (len(self.upper) == len(self.open_lower) == len(self.open_upper) == d):
            raise ValueError("box field lengths disagree")
        for lo, hi in zip(self.lower, self.upper):
            if not (0 <= lo < hi <= 1):
                raise ValueError(f"need 0 <= {lo} < {hi} <= 1 on every axis")

    @classmethod
    def open_box(cls, lower, upper) -> "Box":
        lo, hi = _coerce_endpoints(lower), _coerce_endpoints(upper)
        d = len(lo)
        return cls(lo, hi, (True,) * d, (True,) * d)

    @classmethod
    def closed_box(cls, lower, upper) -> "Box":
        lo, hi = _coerce_endpoints(lower), _coerce_endpoints(upper)
        d = len(lo)
        return cls(lo, hi, (False,) * d, (False,) * d)

    @property
    def dim(self) -> int:
        return len(self.lower)

    def side_lengths(self) -> tuple:
        return tuple(hi - lo for lo, hi in zip(self.lower, self.upper))

    def volume(self):
        """Product of side lengths; openness flags do not affect volume."""
        vol = None
        for side in self.side_lengths():
            vol = side if vol is None else vol * side
        return vol

    def contains(self, point) -> bool:
        """Membership respecting per-face openness; exact for rational inputs."""
        if len(point) != self.dim:
            raise ValueError(f"point dimension {len(point)} != box dimension {self.dim}")
        for x, lo, hi, olo, ohi in zip(
            point, self.lower, self.upper, self.open_lower, self.open_upper
        ):
            if (x <= lo if olo else x < lo):
                return False
            if (x >= hi if ohi else x > hi):
                return False
        return True

    def format_text(self) -> str:
        """Per-axis interval text, e.g. ``[0,1/4) x (1/2,1]``."""
        parts = []
        for lo, hi, olo, ohi in zip(self.lower, self.upper, self.open_lower, self.open_upper):
            left = "(" if olo else "["
            right = ")" if ohi else "]"
            parts.append(f"{left}{lo},{hi}{right}")
        return " x ".join(parts)


def _coerce_endpoints(values) -> tuple:
    out = []
    for v in values:
        out.append(Fraction(v) if isinstance(v, int) else v)
    return tuple(out)


@dataclass(frozen=True)
class DispersionResult:
    """Maximum empty-box volume together with a witness box attaining it."""

    volume: object
    witness: Box


class ThresholdWitness(NamedTuple):
    found: bool
    witness: Box | None


def _candidate_axes(points: PointSet, limit: int | None):
    """Per-axis candidate intervals in scan units, built after the enumeration guard.

    Scan units are integer numerators over 2^k for grid input and floats
    otherwise. The guard counts candidate boxes from the per-axis endpoint
    counts alone, so it refuses before any per-point work. Each axis then lists
    (lo, hi, mask) for every endpoint pair in lexicographic order; bit i of mask
    is set when point i lies strictly inside (lo, hi) on that axis. Also returns
    the unit and the coordinate columns as Python numbers, so volumes are exact.
    """
    unit = 2**points.k if points.repr == GRID_REPR else 1.0
    cols = points.points.T.tolist()
    cands = [sorted({0 * unit, unit, *col}) for col in cols]
    count = math.prod(len(c) * (len(c) - 1) // 2 for c in cands)
    check_enumeration("candidate boxes", count, limit, DEFAULT_ENUMERATION_LIMIT)

    axes = []
    for col, values in zip(cols, cands):
        index = {v: i for i, v in enumerate(values)}
        at = [0] * len(values)
        for bit, x in enumerate(col):
            at[index[x]] |= 1 << bit
        below = [0]  # below[j]: points with coordinate < values[j]
        for mask in at[:-1]:
            below.append(below[-1] | mask)
        every = below[-1] | at[-1]
        pairs = []
        for i, lo in enumerate(values):
            above = every ^ (below[i] | at[i])
            pairs.extend((lo, values[j], above & below[j]) for j in range(i + 1, len(values)))
        axes.append(pairs)
    return axes, unit, cols


def _scan(axes, unit, n: int, best, *, first: bool = False):
    """Empty candidate box of largest volume strictly above `best`.

    Visits boxes in lexicographic endpoint order, skips a subtree whose bound
    vol * unit^remaining cannot strictly beat the best so far, and replaces
    the best only on strict improvement, so the result is the lexicographically
    smallest maximal witness. With `first` set it stops at the first box above
    `best`. Returns (volume, endpoints); endpoints is None when no box beats
    `best`.
    """
    d = len(axes)
    caps = [unit ** (d - axis) for axis in range(d + 1)]
    full = (0 * unit, unit)
    chosen = []
    found = None

    def visit(axis, vol, mask):
        nonlocal best, found
        bound = vol * caps[axis]
        if bound <= best:
            return False
        if mask == 0:
            # every completion is empty; the full-range one is the subtree's only maximiser
            best = bound
            found = chosen + [full] * (d - axis)
            return first
        if axis == d:
            return False
        for lo, hi, pmask in axes[axis]:
            chosen.append((lo, hi))
            stop = visit(axis + 1, vol * (hi - lo), mask & pmask)
            chosen.pop()
            if stop:
                return True
        return False

    visit(0, caps[d], (1 << n) - 1)
    visit = None  # break the closure's reference to itself so the masks are freed now, not by gc
    return best, found


def _witness_box(endpoints, cols, unit) -> Box:
    """Box for scan-unit endpoints; a face is open exactly where it sits on a coordinate."""
    lower, upper, olo, ohi = [], [], [], []
    for (lo, hi), col in zip(endpoints, cols):
        coordset = set(col)
        if isinstance(unit, int):
            lower.append(Fraction(lo, unit))
            upper.append(Fraction(hi, unit))
        else:
            lower.append(lo)
            upper.append(hi)
        olo.append(lo in coordset)
        ohi.append(hi in coordset)
    return Box(tuple(lower), tuple(upper), tuple(olo), tuple(ohi))


def largest_empty_box(points: PointSet, *, limit: int | None = None) -> DispersionResult:
    """Exact dispersion of a point set with a witness box.

    Searches every candidate box (per-axis endpoint pairs drawn from the
    coordinates plus {0, 1}) in one pruned scan; refuses before any per-point
    work when the candidate count exceeds the enumeration limit. Ties resolve
    to the lexicographically smallest witness endpoint vector, as an
    exhaustive scan that keeps only strict improvements would find.
    """
    axes, unit, cols = _candidate_axes(points, limit)
    best, endpoints = _scan(axes, unit, points.n, 0 * unit)
    witness = _witness_box(endpoints, cols, unit)
    volume = Fraction(best, unit**points.dim) if isinstance(unit, int) else best
    return DispersionResult(volume=volume, witness=witness)


def has_empty_box_above(
    points: PointSet, threshold, *, limit: int | None = None
) -> ThresholdWitness:
    """Whether some candidate box with volume strictly above `threshold` is empty.

    Equivalent to ``largest_empty_box(points).volume > threshold``. Runs the
    same pruned scan with the threshold as the starting best and stops at the
    first empty box above it, so the witness is some empty box above the
    threshold, not necessarily a maximal one. The guard is checked first, as
    in ``largest_empty_box``.
    """
    axes, unit, cols = _candidate_axes(points, limit)
    if isinstance(unit, int):
        # integer volume numerators beat threshold * 2^(k*d) exactly when they beat its floor
        thr = math.floor(exact_fraction(threshold) * unit**points.dim)
    else:
        thr = float(threshold)
    _, endpoints = _scan(axes, unit, points.n, thr, first=True)
    if endpoints is None:
        return ThresholdWitness(False, None)
    return ThresholdWitness(True, _witness_box(endpoints, cols, unit))
