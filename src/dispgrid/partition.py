"""Grouping of large boxes by per-axis shape on a dyadic grid.

Every axis-parallel box with volume above 2^-k is grouped, per axis, by a
length bucket ``span`` (side length in (span/2^k, (span+1)/2^k]) and an
``anchor`` grid value just above its infimum (inf in [anchor - 2^-k,
anchor)). The groups partition the family of large boxes. All members of one
group contain the group's closed *core box*

    prod_axes [anchor, anchor + (span - 1)/2^k],

whose grid section has exactly prod(span) points. Hitting every core box
with a point set therefore certifies that no box of volume above 2^-k is
empty. This module provides the classification, feasibility, enumeration,
and the counting formulas entering the union-bound failure estimates.

Within a class's anchor range, anchor <= 2^k - span, the room left of 1 is
never the binding cap on a side (2^k - anchor + 1 >= span + 1), so
feasibility depends on the span vector alone: every span is at least 1 and
prod(span + 1) > 2^(k(d-1)), found from the feasible prefixes of the span
vectors. The feasible classes of one (k, d) form one cached read-only table of
the feasible span vectors and the first row of each one's anchors. Lowering one
span by one at the same anchor shrinks the core, so every core contains the
core of a class with minimal spans, none of which can be lowered by one and
stay feasible; the table expands only those classes, as they decide whether
a point set hits every core and name the first core it misses. The
certificate kernel, ClassTable.first_misses, counts the points in those
cores by inclusion-exclusion over the corners of a prefix-sum occupancy
table on the grid numerators 1 .. 2^k - 1, for one point set or for a chunk
of Monte Carlo trials at once, and returns each set's witness row. A set
whose prefix hits every core hits them all, so the kernel reads the points
in doubling prefixes and stops at the first prefix that hits every minimal
core. That pays where n lies far above the table's cells and corner
entries, at low d and fine k; a set of a few points in high d, such as
n_required(2, d) at d >= 7, is read in one pass.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .empty_box import Box
from .grid import require_k
from .guards import check_enumeration

# Rows of the corner matrix per pass of the certificate kernel: a trial stops
# after the first block of classes that holds an empty core of its own.
BLOCK_CLASSES = 2**14
# Bound on the elements of each array of one Monte Carlo chunk (trials times
# the class block, the occupancy table or the sampled numerators).
CHUNK_ELEMENTS = 2**16


@dataclass(frozen=True)
class CoreBox:
    """Closed grid-aligned box shared by every member of a box class.

    Bounds are inclusive integer numerators over 2^k; axes with lo == hi are
    degenerate (a single grid slice), which is the common case.
    """

    k: int
    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
        m = 2**require_k(self.k)
        for lo, hi in zip(self.lo, self.hi):
            if not (1 <= lo <= hi <= m - 1):
                raise ValueError(f"core bounds {lo}..{hi} outside the grid 1..{m - 1}")

    @property
    def dim(self) -> int:
        return len(self.lo)


@dataclass(frozen=True)
class BoxClass:
    """One group of large boxes: per-axis anchors and length buckets.

    ``anchor`` holds grid numerators in 1 .. 2^k - 1, ``span`` holds length
    buckets in 0 .. 2^k - 1. A class is *feasible* when it actually contains
    a box of volume above 2^-k.
    """

    k: int
    anchor: tuple[int, ...]
    span: tuple[int, ...]

    def __post_init__(self):
        m = 2**require_k(self.k)
        if len(self.anchor) != len(self.span) or not self.anchor:
            raise ValueError("anchor and span must be nonempty vectors of equal length")
        for a in self.anchor:
            if not (1 <= a <= m - 1):
                raise ValueError(f"anchor numerator {a} outside 1 .. {m - 1}")
        for s in self.span:
            if not (0 <= s <= m - 1):
                raise ValueError(f"span {s} outside 0 .. {m - 1}")

    @property
    def dim(self) -> int:
        return len(self.anchor)

    @property
    def short_sides(self) -> int:
        """Number of axes whose length bucket is below the maximal 2^k - 1."""
        m = 2**self.k
        return sum(1 for s in self.span if s < m - 1)

    def is_feasible(self) -> bool:
        """Whether the class contains any box of volume above 2^-k.

        Requires every span to be at least 1 and every anchor to leave room
        for a side longer than span/2^k inside [0,1] (anchor <= 2^k - span);
        then each side reaches (span + 1)/2^k, so the largest member volume
        prod(span + 1)/2^(kd) must exceed 2^-k.
        """
        m = 2**self.k
        for a, s in zip(self.anchor, self.span):
            if s < 1 or a > m - s:
                return False
        return math.prod(s + 1 for s in self.span) > m ** (self.dim - 1)

    def core_box(self) -> CoreBox:
        """The closed box [anchor, anchor + (span-1)/2^k] per axis."""
        if not self.is_feasible():
            raise ValueError(f"infeasible class has no core box: {self}")
        hi = tuple(a + s - 1 for a, s in zip(self.anchor, self.span))
        return CoreBox(k=self.k, lo=self.anchor, hi=hi)

    def empty_box(self) -> Box:
        """The open box prod((anchor - 1)/2^k, (anchor + span)/2^k), the core widened by one grid step.

        Its grid points are exactly the core's, so a grid point set that
        misses the core leaves this box empty; its volume prod(span + 1)/2^(kd)
        exceeds 2^-k.
        """
        if not self.is_feasible():
            raise ValueError(f"infeasible class has no empty box: {self}")
        m = 2**self.k
        lower = [Fraction(a - 1, m) for a in self.anchor]
        upper = [Fraction(a + s, m) for a, s in zip(self.anchor, self.span)]
        return Box.open_box(lower, upper)


def short_side_threshold(k) -> float:
    """Strict upper bound ln(2) * k * 2^k on the short-side count of any feasible class, for every k and d."""
    kk = require_k(k)
    return math.log(2) * kk * 2**kk


def classify_box(box: Box, k) -> BoxClass:
    """The unique class whose per-axis length and infimum conditions the box satisfies.

    Endpoints are taken at their exact rational values (floats contribute
    their exact binary value). Rejects boxes with volume <= 2^-k, which
    belong to no class.
    """
    kk = require_k(k)
    m = 2**kk
    lower = [Fraction(x) for x in box.lower]
    upper = [Fraction(x) for x in box.upper]
    volume = math.prod(u - l for l, u in zip(lower, upper))
    if not volume > Fraction(1, m):
        raise ValueError(f"box volume {volume} is not above 2^-{kk}; no class matches")
    anchor = []
    span = []
    for lo, hi in zip(lower, upper):
        length = hi - lo
        s = math.ceil(length * m) - 1
        a = math.floor(lo * m) + 1
        if a >= m:
            raise AssertionError(
                "infimum within 2^-k of 1 cannot occur for a box of volume above 2^-k"
            )
        anchor.append(a)
        span.append(s)
    return BoxClass(k=kk, anchor=tuple(anchor), span=tuple(span))


@dataclass(frozen=True, eq=False)
class ClassTable:
    """Every feasible class of one (k, d): the feasible span vectors and the first row of each one's anchors.

    Rows run over the (vectors, d) ``span_vectors`` in lexicographic order,
    vector j's anchors in lexicographic order from row ``starts[j]``, and
    ``starts`` ends with the class count. A set's witness, the first class in
    this order whose core it misses, has minimal spans. Take that class (s, a)
    and lower its spans by one at a time while it stays feasible: the anchor a
    stays valid and the core only shrinks, so this ends at a class (s', a) of
    minimal spans whose core the set misses too. As s' <= s on every axis,
    (s', a) comes no later in table order, so s' = s. The first missed class
    of minimal spans, at its table row, is therefore the witness. Only those
    classes are expanded, into their ``minimal_corners`` (see _corner_matrix)
    and their rows, ascending, which ``witness_rows`` follows with ``count``,
    the row first_misses reports for a trial that misses no core. Every
    array is read-only.
    """

    k: int
    span_vectors: np.ndarray
    starts: np.ndarray
    witness_rows: np.ndarray
    minimal_corners: np.ndarray

    @property
    def count(self) -> int:
        """The number of feasible classes."""
        return int(self.starts[-1])

    def block(self, j: int) -> np.ndarray:
        """The anchors of span vector j's classes, in table order, as a (classes, d) array."""
        return _expand(self.k, self.span_vectors[j : j + 1])[2]

    def row(self, i: int) -> BoxClass:
        """The class at table row i, its anchor decoded from the row's offset in its span vector's block."""
        j = int(np.searchsorted(self.starts, i, side="right")) - 1
        span = self.span_vectors[j].tolist()
        anchor = np.unravel_index(i - int(self.starts[j]), [2**self.k - s for s in span])
        return BoxClass(self.k, tuple(int(a) + 1 for a in anchor), tuple(span))

    def first_misses(self, numerators: np.ndarray) -> np.ndarray:
        """Table row of each trial's witness, its first empty core, or ``count`` for a trial that hits every core.

        ``numerators`` is a (trials, n, d) array of grid numerators. Only the
        minimal cores are counted: the first of them that a trial misses is
        its witness (see ClassTable).
        """
        first = _first_misses(numerators, self.k, self.minimal_corners)
        return self.witness_rows[first]

    def trials_per_chunk(self, n: int) -> int:
        """Trials of n points per first_misses call, so that each of the kernel's arrays stays within CHUNK_ELEMENTS."""
        d = self.span_vectors.shape[1]
        per_trial = max(min(len(self.minimal_corners), BLOCK_CLASSES), (2**self.k - 1) ** d + 1, n * d)
        return max(1, CHUNK_ELEMENTS // per_trial)


def _expand(k: int, spans: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The anchor blocks of span vectors, in order: each row's vector, its offset in the block, and its anchor."""
    radix = 2**k - spans  # anchors 1 .. 2^k - span per axis, decoded last axis fastest
    block = np.prod(radix, axis=1)
    owner = np.repeat(np.arange(len(spans)), block)
    offsets = np.arange(len(owner)) - np.repeat(np.cumsum(block) - block, block)
    anchors = np.empty((len(owner), spans.shape[1]), dtype=spans.dtype)
    rest = offsets.copy()
    for axis in reversed(range(spans.shape[1])):
        base = radix[owner, axis]
        anchors[:, axis] = rest % base + 1
        rest //= base
    return owner, offsets, anchors


def _corner_matrix(k: int, anchors: np.ndarray, spans: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Cells of the certificate kernel's table that sum to each class's core count, for rows of anchors and the spans[owner] of each row.

    A read-only (classes, 2^L) matrix of cell indices into the row-major
    cumulative table over the numerators 1 .. 2^k - 1 per axis, whose
    (2^k - 1)^d cells are followed by one zero cell. L is the largest number
    of axes with anchor > 1 in any class. Column t starts at the core's top
    cell, anchor + span - 1 on every axis, and steps to the cell below the
    core, anchor - 1, on the class's anchor>1 axes picked by the set bits of
    t; it enters the count with sign (-1)^popcount(t). A corner below anchor 1
    lies outside the table and counts zero, so it has no column. Columns past
    a class's own 2^l corners read the zero cell.
    """
    d = anchors.shape[1]
    g = 2**k - 1
    strides = g ** np.arange(d - 1, -1, -1)
    low = anchors > 1
    depth = low.sum(axis=1)
    width = int(depth.max(initial=0))
    # a class's steps on its anchor>1 axes in axis order; the steps past its
    # own depth belong to other axes and only feed columns that read zero
    order = np.argsort(~low, axis=1, kind="stable")[:, :width]
    steps = (spans * strides)[owner[:, None], order]
    top = anchors @ strides + ((spans - 2) @ strides)[owner]
    # built one column at a time, to hold no (classes, 2^L) temporaries, and
    # returned column-major, so that each column the kernel reads is contiguous
    corners = np.empty((2**width, len(top)), dtype=top.dtype)
    for column, cells in enumerate(corners):
        np.subtract(top, steps @ (column >> np.arange(width) & 1), out=cells)
        cells[depth < column.bit_length()] = g**d
    corners.flags.writeable = False
    return corners.T


def _first_misses(numerators: np.ndarray, k: int, corners: np.ndarray) -> np.ndarray:
    """Row of each trial's first class with an empty core, in a corner matrix.

    ``numerators`` is a (trials, n, d) array of grid numerators and
    ``corners`` a corner matrix (see ClassTable.minimal_corners); a trial
    that hits every core gets ``len(corners)``. A prefix of a set that hits
    every core leaves the whole set passing, so the points are read in
    prefixes: the first holds max(cells + 1, corner entries) points, so
    that binning it costs no less than one scan of the cores, and each
    later one doubles the points read, or takes the rest once fewer than
    twice those remain. Each round bins only the new points of the trials
    still live into a running count table and scans the minimal cores on a
    copy of it; a trial that hits every core has passed and leaves, and the
    last round, over all n points, names the first miss of every trial
    left. Where the first prefix covers n, as for a few points in high d,
    this is one pass over every point, with neither a running table nor a
    copy. A set that hits every core only with its last points pays one
    more scan and table copy for each earlier round, each over no more
    cells and corners than that round binned points.
    """
    trials, n, d = numerators.shape
    g = 2**k - 1
    end = max(g**d + 1, corners.size)
    counts = _occupancy(numerators[:, :end], g, d)
    if end >= n:
        return _scan(counts, g, d, corners)
    first = np.full(trials, len(corners))
    live = np.arange(trials)
    while True:
        missed = _scan(counts.copy(), g, d, corners) < len(corners)
        if not missed.any():
            return first
        live, counts = live[missed], counts[:, missed]
        read, end = end, (n if n - end < 2 * end else 2 * end)
        # basic slicing while every trial is live: a fancy index copies the points
        part = numerators[:, read:end] if live.size == trials else numerators[live, read:end]
        counts += _occupancy(part, g, d)
        if end == n:
            first[live] = _scan(counts, g, d, corners)
            return first


def _occupancy(numerators: np.ndarray, g: int, d: int) -> np.ndarray:
    """Point counts of each trial in a (g^d + 1, trials) table on the numerators 1 .. g per axis plus a trailing zero cell.

    The trial is the last axis, so that reading one cell for every trial is
    one contiguous row. A point's cell reads its numerators minus one as
    base-g digits, formed by one multiply-add per axis rather than a
    product with the digit weights, which numpy computes for integers
    without BLAS at several times the cost. Read as digits, the numerators
    themselves overshoot each cell by the all-ones digit string, so that
    many leading counts are cut off the bincount rather than subtracted from
    every point.
    """
    trials = numerators.shape[0]
    cells = g**d
    bins = numerators[..., 0].astype(np.int64)
    for axis in range(1, d):
        bins *= g
        bins += numerators[..., axis]
    if trials > 1:
        bins *= trials
        bins += np.arange(trials)[:, None]
    below = sum(g**axis for axis in range(d)) * trials
    flat = np.bincount(bins.ravel(), minlength=below + (cells + 1) * trials)[below:]
    return flat.reshape(cells + 1, trials)


def _scan(flat: np.ndarray, g: int, d: int, corners: np.ndarray) -> np.ndarray:
    """Row of each trial's first empty core, or ``len(corners)``, from a (g^d + 1, trials) count table, summed in place.

    The cumulative sums are taken along every grid axis, and each core count
    is the signed sum of its row of corner cells, BLOCK_CLASSES classes at a
    time; a trial leaves after the block holding its first empty core.
    """
    _prefix_sums(flat[:-1], g, d)
    first = np.full(flat.shape[1], len(corners))
    live = np.arange(flat.shape[1])
    for start in range(0, len(corners), BLOCK_CLASSES):
        block = corners[start : start + BLOCK_CLASSES]
        counts = flat.take(block[:, 0], axis=0)
        for column in range(1, block.shape[1]):
            if column.bit_count() % 2:
                counts -= flat.take(block[:, column], axis=0)
            else:
                counts += flat.take(block[:, column], axis=0)
        empty = counts == 0
        missed = empty.any(axis=0)
        if missed.any():
            first[live[missed]] = start + empty[:, missed].argmax(axis=0)
            live = live[~missed]
            if not live.size:
                break
            flat = flat[:, ~missed]
    return first


def _prefix_sums(table: np.ndarray, g: int, d: int) -> None:
    """Cumulative sums, in place, along every axis of a row-major (g^d, trials) table.

    np.cumsum along one axis runs one g-long loop per cell of the other axes,
    so where each of an axis's g slices is long, adding whole slices, g - 1
    adds per axis, is faster.
    """
    trials = table.shape[1]
    if len(table) // g * trials >= 64 * g:
        for axis in range(d):
            view = table.reshape(g**axis, g, -1)
            for i in range(1, g):
                view[:, i] += view[:, i - 1]
    else:
        cube = table.reshape((g,) * d + (trials,))
        for axis in range(d):
            np.cumsum(cube, axis=axis, out=cube)


def feasible_class_table(k, d: int, *, limit: int | None = None) -> ClassTable:
    """The cached table of every feasible class at resolution k in dimension d.

    The guard counts what is built, on every call: the (2^k - 1)^d span
    vectors, which bound the feasible ones and the certificate kernel's
    occupancy table per trial, before any exists; then the classes of minimal
    spans times their 2d anchor and span entries and the 2^L columns of their
    corner matrix, from the feasible prefixes, before any vector is expanded.
    """
    kk = require_k(k)
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    check_enumeration("span grid", (2**kk - 1) ** d, limit)
    check_enumeration("box-class table", _feasible_spans(kk, d)[3], limit)
    return _class_table(kk, d)


def _extend(rows: np.ndarray, low: np.ndarray, m: int) -> np.ndarray:
    """Each row followed by each value low .. m - 1, for that row's low, in order."""
    owner = np.repeat(np.arange(len(rows)), m - low)
    return np.column_stack((rows[owner], np.arange(len(owner)) - (np.cumsum(m - low) - m)[owner]))


@functools.lru_cache(maxsize=8)
def _feasible_spans(k: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The feasible span vectors, in order, as each feasible prefix of d - 1 spans followed by last spans low .. 2^k - 1, which runs' heads are minimal, and the table's entries.

    Each span adds a factor of at most 2^k to prod(span + 1), so every prefix
    of a feasible vector is feasible in its own dimension, and after a prefix
    of volume V the next axis admits spans max(1, 2^(k axis) // V) .. 2^k - 1.
    A feasible vector is minimal when no vector one below it on one axis is
    feasible: only a head (prefix, low) can be, and it is when each of its
    spans is 1 or leaves a volume of at most 2^(k(d-1)) one lower. The entries
    are the minimal vectors' classes times 2d + 2^L, where L is the most spans
    below 2^k - 1, which admit anchors above 1, in one of them.
    """
    m = 2**k
    prefixes = np.empty((1, 0), dtype=np.int64)
    volume = np.ones(1, dtype=object)  # each prefix's prod(span + 1), in Python ints: it reaches 2^(kd)
    for axis in range(d):
        low = np.maximum(m**axis // volume, 1).astype(np.int64)
        if axis < d - 1:
            prefixes = _extend(prefixes, low, m)
            volume = np.repeat(volume, m - low) * (prefixes[:, -1] + 1)
    heads = np.column_stack((prefixes, low))
    volume = volume * (low + 1)
    # volume // (s + 1) * s = volume s / (s + 1) grows with s, so a head's largest span binds
    top = heads.max(axis=1)
    minimal = (top == 1) | (volume // (top + 1) * top <= m ** (d - 1))
    columns = 2 ** int((heads[minimal] < m - 1).sum(axis=1).max())
    entries = int(np.prod(m - heads[minimal], axis=1).sum()) * (2 * d + columns)
    return prefixes, low, minimal, entries


@functools.lru_cache(maxsize=8)
def _class_table(k: int, d: int) -> ClassTable:
    prefixes, low, minimal, _ = _feasible_spans(k, d)
    spans = _extend(prefixes, low, 2**k)
    starts = np.concatenate(([0], np.cumsum(np.prod(2**k - spans, axis=1))))
    heads = (np.cumsum(2**k - low) - (2**k - low))[minimal]
    owner, offsets, anchors = _expand(k, spans[heads])
    rows = np.append(starts[heads][owner] + offsets, starts[-1])
    corners = _corner_matrix(k, anchors, spans[heads], owner)
    for array in (spans, starts, rows):
        array.flags.writeable = False
    return ClassTable(k, spans, starts, rows, corners)


def enumerate_feasible_classes(k, d: int, *, limit: int | None = None) -> Iterator[BoxClass]:
    """All feasible classes at resolution k in dimension d, in table order, one anchor block at a time."""
    table = feasible_class_table(k, d, limit=limit)
    for j, span in enumerate(table.span_vectors.tolist()):
        for anchor in table.block(j).tolist():
            yield BoxClass(k=table.k, anchor=tuple(anchor), span=tuple(span))


def anchor_formula_count(k, d: int) -> int:
    """Sum of the per-axis anchor counts over all spans with every side >= 1.

    Factorizes as (sum_{s=1}^{2^k-1} (2^k - s))^d = (2^(k-1) (2^k - 1))^d.
    Counts (anchor, span) pairs by the per-axis rule alone, so for every k
    and d it lies between the feasible-class count (equal at d = 1) and the
    2^(2kd) pairs that ln_union_failure_bound_crude counts.
    """
    kk = require_k(k)
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    m = 2**kk
    return (m * (m - 1) // 2) ** d


def ln_class_count_bound(k, d: int) -> float:
    """Natural log of the paper's feasible-class bound 2^(k 2^k log2(2^(k+1) d)); tested up to k = 4, not proved."""
    kk = require_k(k)
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    return math.log(2) * kk * 2**kk * math.log2(2 ** (kk + 1) * d)


@dataclass(frozen=True)
class CountAudit:
    """Exact feasible-class count against the per-axis formula and the log-space bound."""

    k: int
    d: int
    exact_feasible_count: int
    anchor_formula_count: int
    ln_class_count_bound: float


def count_audit(k, d: int, *, limit: int | None = None) -> CountAudit:
    exact = feasible_class_table(k, d, limit=limit).count
    return CountAudit(
        k=require_k(k),
        d=d,
        exact_feasible_count=exact,
        anchor_formula_count=anchor_formula_count(k, d),
        ln_class_count_bound=ln_class_count_bound(k, d),
    )
