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

Both searches share one numpy kernel, run after an enumeration guard that
counts its work from the per-axis endpoint counts alone. The points are
binned into an occupancy tensor over the candidate endpoints. A grid set
with more points than 2^k bins through a lookup table from each numerator
0 .. 2^k to its endpoint index, one gather per axis, since that table is no
longer than a point column; real input, and a grid set with no more points
than 2^k, bin by binary search (``np.searchsorted``), whose cost does not
grow with the resolution. The tensor's exclusive prefix sums C along an axis
give the points strictly inside the endpoint index pair (i, j) on that axis
as C[j] - C[i+1]. Endpoint pairs are enumerated on axes 0 .. d-2 only,
taking that difference axis by axis, which leaves for every box prefix its
slab's occupancy per last-axis endpoint. The last axis is swept instead of
enumerated: in one dimension the widest empty interval ending at an
endpoint starts at the last occupied endpoint below it (or at 0), so a
running maximum over the occupied endpoints gives every prefix's best box,
its height times its widest gap. That is prod_{a<d-1} C(c_a, 2) * c_{d-1}
elements where enumerating every candidate box would take prod_a C(c_a, 2).
The running maximum is one whole-row ``np.maximum`` per endpoint when a
block holds at least as many prefixes as endpoints, and
``np.maximum.accumulate`` down the endpoints otherwise: the accumulate runs
one short inner loop per prefix, the row form one numpy call per endpoint.
Prefixes are evaluated in blocks of consecutive axis-0 pairs in
lexicographic endpoint order, and the first maximiser is kept, so ties
resolve to the lexicographically smallest witness. An axis-0 pair is swept
only when its bound can beat the best so far: per prefix, its height times
the widest last-axis gap that the same axis-0 start left at its last swept
pair. Widening the axis-0 pair widens the slab, which can only occupy more
last-axis endpoints, so the gaps can only shrink; float subtraction and
multiplication are monotone, so the bound holds exactly in float as in
integers, and a pair it skips could not have strictly beaten the best.

For grid-valued inputs the whole search runs on integer numerators and the
result is exact (an arbitrary-precision integer over 2^(k*d); int64 while
2^(k*d) < 2^63, Python integers beyond); real-valued inputs use float
arithmetic, with volumes multiplied in axis order.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .grid import GRID_REPR, PointSet, exact_fraction
from .guards import DEFAULT_ENUMERATION_LIMIT, check_enumeration

# Boxes evaluated at once (box prefixes times last-axis endpoints), but never
# less than one axis-0 endpoint pair: a block's counts and volumes are
# materialised whole, so this bounds the kernel's temporary arrays and with
# them its peak memory.
BLOCK_BOXES = 2**14


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


def _occupancy_prefix(occupancy: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums of an occupancy tensor along every axis after the first.

    Each of those axes gains a leading zero, so entry t along it sums the
    cells with index below t. The first axis indexes a batch of tensors and
    is kept as it is.
    """
    shape = occupancy.shape[:1] + tuple(c + 1 for c in occupancy.shape[1:])
    prefix = np.zeros(shape, dtype=np.int64)
    prefix[(slice(None),) + (slice(1, None),) * (occupancy.ndim - 1)] = occupancy
    for axis in range(1, occupancy.ndim):
        np.cumsum(prefix, axis=axis, out=prefix)
    return prefix


def _inside_counts(prefix: np.ndarray, pairs) -> np.ndarray:
    """Points strictly inside every box formed from per-axis endpoint index pairs.

    `pairs` holds one (i, j) pair of index arrays per axis of `prefix` after
    the first. Along each such axis the result has one entry per pair,
    counting the points whose cell index lies strictly between i and j: the
    difference C[j] - C[i+1] of the prefix sums, taken one axis at a time.
    """
    counts = prefix
    for axis, (i, j) in enumerate(pairs, 1):
        counts = counts.take(j, axis=axis) - counts.take(i + 1, axis=axis)
    return counts


def _box_volumes(widths) -> np.ndarray:
    """Volume of every box in the outer product of per-axis widths, multiplied in axis order."""
    volumes = widths[0]
    for w in widths[1:]:
        volumes = volumes[..., None] * w
    return volumes


def _pairs(count: int):
    """Index pairs i < j of `count` endpoints in lexicographic order.

    Equal to ``np.triu_indices(count, 1)``, at a fraction of its fixed cost.
    """
    steps = np.arange(count)
    return np.nonzero(np.less.outer(steps, steps))


def _unit(points: PointSet):
    """Scan units: integer numerators over 2^k for grid input, floats otherwise."""
    return 2**points.k if points.repr == GRID_REPR else 1.0


def _distinct(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values, without ``np.unique``: it imports ``numpy.ma``, ~2 MB resident."""
    values = np.sort(values)
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def _search(points: PointSet, limit: int | None):
    """Empty candidate box of largest volume, in scan units.

    Endpoint pairs are enumerated on axes 0 .. d-2 only; each such box prefix
    spans a slab, and the last axis is swept instead. The slab's occupancy per
    last-axis endpoint t is a difference of prefix sums taken with the last
    axis first, so that one t is one contiguous row over the prefixes. With
    endpoint 0 counted as occupied, a running maximum along t gives the last
    occupied endpoint at or below each t, so the widest empty interval ending
    at endpoint t + 1 starts there, and a prefix's best box is its height
    times its widest such gap. ``np.maximum.accumulate`` along t runs one
    short inner loop per prefix, so a block with at least as many prefixes
    as last-axis endpoints takes the maximum with one whole-row
    ``np.maximum`` per endpoint instead; a taller block keeps the
    accumulate, where the per-row calls would cost more. The enumeration
    guard counts the prefixes times the last-axis endpoints, before any
    point is binned. A grid set with more than 2^k points bins through a
    numerator-to-endpoint lookup table, no longer than a point column and
    filled from the int64 numerators; other input bins by
    ``np.searchsorted``, whose cost does not grow with 2^k.

    Blocks of consecutive axis-0 endpoint pairs are visited in lexicographic
    order. `ceiling` holds, per axis-0 start i and prefix p on axes 1 .. d-2,
    the widest last-axis gap of the last pair (i, j') swept so far, or unit
    before any: a wider pair (i, j) spans a superset slab, whose occupied
    last-axis endpoints are a superset too, so each running maximum can only
    rise and gaps(i, j, p) <= gaps(i, j', p). As float subtraction and
    multiplication are monotone, height(i, j, p) * ceiling[i, p] bounds the
    pair's volume exactly for int64, Python-int and float volumes alike. A
    block sweeps only its pairs whose bound, the maximum over their prefixes,
    strictly beats the best so far, and is skipped when none does; each
    swept start's ceiling then takes the gaps of its last pair in the block,
    the widest. A skipped pair cannot strictly beat the best, so neither
    the volume nor the witness changes. A block's first maximal prefix
    replaces the best only on strict improvement, and the winning prefix's
    last-axis pair is the first maximiser among that row's pairs, found in
    one pass over its endpoints without listing the pairs, so the result is
    the lexicographically smallest maximal witness; volumes are
    multiplied in axis order, so float ties resolve as over all pairs.
    Returns (volume, witness box or None when no box has positive volume).
    """
    unit = _unit(points)
    best = 0 * unit
    cols = points.points.T
    if isinstance(unit, int) and unit**points.dim >= 2**63:
        cols = cols.astype(object)  # volume numerators outgrow int64: use Python integers
    values = [_distinct(np.concatenate((col, [0, unit]))) for col in cols]
    *head, last = values
    count = math.prod(len(v) * (len(v) - 1) // 2 for v in head) * len(last)
    check_enumeration("box prefixes x last-axis endpoints", count, limit, DEFAULT_ENUMERATION_LIMIT)

    if isinstance(unit, int) and unit < len(points.points):
        # endpoint index per numerator 0 .. unit, a table no longer than a point column
        lut = np.empty(unit + 1, dtype=np.intp)
        cells = []
        for v, col in zip(values, points.points.T):
            lut[v.astype(np.intp)] = np.arange(len(v))
            cells.append(lut[col])
    else:
        cells = [np.searchsorted(v, col) for v, col in zip(values, cols)]
    shape = tuple(len(v) for v in values)
    occupancy = np.bincount(np.ravel_multi_index(cells, shape), minlength=math.prod(shape))
    prefix = _occupancy_prefix(np.moveaxis(occupancy.reshape(shape), -1, 0))
    pairs = [_pairs(len(v)) for v in head]
    widths = [v[hi] - v[lo] for v, (lo, hi) in zip(head, pairs)]

    rows = math.prod(len(w) for w in widths[1:])  # box prefixes per axis-0 pair
    step = max(1, BLOCK_BOXES // (rows * len(last)))
    # per axis-0 start and prefix, a bound on the widest gap of every pair from it not yet swept
    ceiling = np.full((len(values[0]), rows), unit, dtype=last.dtype)
    found = None
    for start in range(0, len(widths[0]) if widths else 1, step):
        if widths:
            block = slice(start, start + step)
            heights = _box_volumes([widths[0][block], *widths[1:]]).reshape(-1, rows)
            lo, hi = (ends[block] for ends in pairs[0])
            keep = np.flatnonzero((heights * ceiling[lo]).max(axis=1) > best)
            if not len(keep):
                continue
            lo, hi, heights = lo[keep], hi[keep], heights[keep].ravel()
            counts = _inside_counts(prefix, [(lo, hi), *pairs[1:]]).reshape(len(last), -1)
        else:
            heights, keep, counts = np.ones(1, last.dtype), [0], prefix.reshape(len(last), 1)
        # last occupied endpoint value at or below each endpoint; last[0] is 0
        below = (counts > 0) * last[:, None]
        # accumulate runs one inner loop per prefix; whole rows cost less once they are as long
        if below.shape[1] >= len(below):
            for t in range(1, len(below)):
                np.maximum(below[t], below[t - 1], out=below[t])
        else:
            np.maximum.accumulate(below, axis=0, out=below)
        gaps = (last[1:, None] - below[:-1]).max(axis=0)
        volumes = heights * gaps
        at = np.argmax(volumes)
        if volumes[at] > best:
            best = type(unit)(volumes[at])  # a Python int or float, as the callers expect
            found = (start + keep[at // rows]) * rows + at % rows, counts[:, at], heights[at]
        if widths:
            # each start's last pair here is its widest so far, so its gaps bound the start's later pairs
            tail = np.flatnonzero(np.append(lo[1:] != lo[:-1], True))
            ceiling[lo[tail]] = gaps.reshape(-1, rows)[tail]
    if found is None:
        return best, None
    at, row, height = found
    found = (*np.unravel_index(at, [len(w) for w in widths]), 0)
    pair_last = _first_widest_pair(row > 0, last, height)
    return best, _witness_box(found, values, [*pairs, pair_last], cells, unit)


def _first_widest_pair(occupied: np.ndarray, last: np.ndarray, height):
    """First maximiser (i, j) of height * (last[j] - last[i]) over the empty pairs of one row.

    A pair i < j is empty when no endpoint strictly between them is occupied,
    so the empty pairs from i end at j <= next(i), the first occupied
    endpoint above i (or the last endpoint). Their volumes are non-decreasing
    in j, floats included, so each i's best is at next(i), the first i whose
    best equals the maximum holds the lexicographically first maximiser, and
    its j is the first in i+1 .. next(i) reaching the maximum: the pair a
    scan of all the row's pairs keeps, in O(c) work. Returns ([i], [j]).
    """
    ends = np.arange(len(last))
    nearest = np.minimum.accumulate(np.where(occupied, ends, len(last) - 1)[::-1])[::-1]
    reach = nearest[1:]  # next(i) for i = 0 .. c-2
    volumes = height * (last[reach] - last[:-1])
    top = volumes.max()
    i = int(np.argmax(volumes == top))
    span = height * (last[i + 1 : reach[i] + 1] - last[i])
    return [i], [i + 1 + int(np.argmax(span == top))]


def _witness_box(found, values, pairs, cells, unit) -> Box:
    """Box for per-axis endpoint pair indices; a face is open exactly on a coordinate."""
    lower, upper, olo, ohi = [], [], [], []
    for p, v, (lo, hi), c in zip(found, values, pairs, cells):
        for ends, flags, end in ((lower, olo, lo[p]), (upper, ohi, hi[p])):
            ends.append(Fraction(int(v[end]), unit) if isinstance(unit, int) else float(v[end]))
            flags.append(bool((c == end).any()))
    return Box(tuple(lower), tuple(upper), tuple(olo), tuple(ohi))


def largest_empty_box(points: PointSet, *, limit: int | None = None) -> DispersionResult:
    """Exact dispersion of a point set with a witness box.

    Searches every candidate box (per-axis endpoint pairs drawn from the
    coordinates plus {0, 1}) with the prefix-sum kernel, sweeping the last
    axis by its widest empty gaps; refuses before any per-point work when
    the box prefixes times the last-axis endpoints exceed the enumeration
    limit. Ties resolve to the lexicographically smallest witness endpoint
    vector, as an exhaustive scan that keeps only strict improvements would
    find.
    """
    unit = _unit(points)
    best, witness = _search(points, limit)
    volume = Fraction(best, unit**points.dim) if isinstance(unit, int) else best
    return DispersionResult(volume=volume, witness=witness)


def has_empty_box_above(
    points: PointSet, threshold, *, limit: int | None = None
) -> ThresholdWitness:
    """Whether some candidate box with volume strictly above `threshold` is empty.

    Runs the search of ``largest_empty_box``, guard first, and compares its
    volume with the threshold: exactly on grid input, where the threshold's
    exact rational value meets the volume's, and in float on real input.
    The witness, when found, is ``largest_empty_box(points).witness``.
    """
    unit = _unit(points)
    best, witness = _search(points, limit)
    if isinstance(unit, int):
        above = Fraction(best, unit**points.dim) > exact_fraction(threshold)
    else:
        above = best > float(threshold)
    return ThresholdWitness(True, witness) if above else ThresholdWitness(False, None)
