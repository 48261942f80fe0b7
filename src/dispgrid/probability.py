"""Hit probabilities, failure bounds, and their exact desk-scale oracles.

A point drawn uniformly from the grid lands in a class's core box with
probability prod(span/(2^k - 1)), which is bounded below by 2^-(k+4)
uniformly over feasible classes. Chaining that bound through a union over
all classes gives computable failure bounds for random point sets; this
module evaluates them in log space and, for instances small enough to
enumerate, computes the exact failure probability as a rational number.
Whether a point set leaves a large box empty depends only on its distinct
points, so the exact value decides each support (set of distinct grid
points) once and weights it by the number of ordered outcomes with exactly
that support, a surjection count. A support that misses a grid value on
some axis always fails: those of fewer than 2^k - 1 points are counted
without being listed, and the others are listed in bulk, a chunk of at
most CHUNK_ELEMENTS numerators at a time, so that only the supports taking
every value on every axis are decided by the certificate kernel, which is
exact on grid sets at their own k.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .construct import full_grid
from .grid import require_k
from .guards import DEFAULT_OUTCOME_LIMIT, check_enumeration
from .partition import CHUNK_ELEMENTS, BoxClass, feasible_class_table, ln_class_count_bound

CHAIN_SLACK = 1e-12


def hit_probability(cls: BoxClass) -> Fraction:
    """Chance that one uniform grid point lands in the class's core box.

    Equals prod(span / (2^k - 1)); axes with maximal span contribute 1.
    """
    if not cls.is_feasible():
        raise ValueError(f"hit probability undefined for infeasible class {cls}")
    g = 2**cls.k - 1
    num = math.prod(cls.span)
    return Fraction(num, g**cls.dim)


def min_hit_probability_bound(k) -> Fraction:
    """The paper's uniform lower bound 2^-(k+4) on the hit probability of feasible classes; audited per (k, d)."""
    kk = require_k(k)
    return Fraction(1, 2 ** (kk + 4))


def class_miss_probability_bound(k) -> float:
    """Upper bound exp(-2^-(k+4)) on the chance of missing some class's core, where min_hit_probability_bound holds."""
    kk = require_k(k)
    return math.exp(-(2.0 ** -(kk + 4)))


@dataclass(frozen=True)
class HitProbabilityAudit:
    """Result of sweeping every feasible class at one (k, d)."""

    k: int
    d: int
    classes_checked: int
    min_hit_probability: Fraction
    argmin_class: BoxClass
    lower_bound: Fraction
    passed: bool
    violations: tuple


def audit_hit_probabilities(k, d: int, *, limit: int | None = None) -> HitProbabilityAudit:
    """Verify the hit-probability bounds over every feasible class.

    Works on the span vectors of ``feasible_class_table``, which are feasible
    by construction, so a class's attainable maximum volume is
    V = prod(span + 1) / 2^(kd) and its hit probability prod(span) / (2^k - 1)^d.
    Checks three claims per class: the exact hit probability exceeds
    2^-(k+4) (an integer comparison); it dominates the intermediate chain
    value (1 - 1/(k 2^k))^short_sides * V^(k/(k-1)) (float comparison with
    1e-12 slack); and the complementary miss probability stays below
    exp(-2^-(k+4)). Violations are reported in table order, not raised.
    """
    kk = require_k(k)
    bound = min_hit_probability_bound(kk)
    miss_bound = class_miss_probability_bound(kk)
    shrink = 1.0 - 1.0 / (kk * 2**kk)
    exponent = kk / (kk - 1)

    table = feasible_class_table(kk, d, limit=limit)
    spans = table.span_vectors
    g = 2**kk - 1
    hits = np.prod(spans, axis=1)
    hit_prob = hits / g**d
    volume = np.prod(spans + 1, axis=1) / 2 ** (kk * d)
    chain = shrink ** np.count_nonzero(spans < g, axis=1) * volume**exponent
    # hits / g^d > bound exactly when hits > floor(g^d bound), as hits are integers
    hit_floor = g**d * bound.numerator // bound.denominator
    failed = {
        "hit probability not above 2^-(k+4)": hits <= hit_floor,
        "intermediate chain inequality": ~(hit_prob >= chain - CHAIN_SLACK),
        "miss probability bound": ~(1.0 - hit_prob < miss_bound),
    }
    violations = []
    for j in np.flatnonzero(np.any(list(failed.values()), axis=0)).tolist():
        for anchor in table.block(j).tolist():
            cls = BoxClass(kk, tuple(anchor), tuple(spans[j].tolist()))
            violations.extend((cls, reason) for reason, vectors in failed.items() if vectors[j])
    # the first class of least hit probability leads the block of the first such span vector
    j = int(np.argmin(hits))
    return HitProbabilityAudit(
        k=kk,
        d=d,
        classes_checked=table.count,
        min_hit_probability=Fraction(int(hits[j]), g**d),
        argmin_class=table.row(int(table.starts[j])),
        lower_bound=bound,
        passed=not violations,
        violations=tuple(violations),
    )


def hit_factor_lhs(k, j: int) -> float:
    """Per-axis factor j / (j+1)^(k/(k-1)) entering the hit-probability bound.

    Elementwise when j is a numpy array.
    """
    kk = require_k(k)
    return j / (j + 1.0) ** (kk / (kk - 1.0))


@dataclass(frozen=True)
class FactorInequalityCheck:
    """Outcome of the per-axis factor inequality at one resolution."""

    k: int
    holds: bool
    min_j: int
    lhs_min: float
    rhs: float
    margin: float


def check_hit_factor_inequality(k) -> FactorInequalityCheck:
    """Check min_j j/(j+1)^(k/(k-1)) >= (2^k - 1) 2^(-k^2/(k-1)) (1 - 1/(k 2^k)).

    The per-axis step of the paper's hit-probability bound. The left side
    over j = 1 .. 2^k - 2 is unimodal with an interior maximum, so its
    minimum sits at one of the endpoints: only those two are evaluated.
    There the sides differ by about 2^-k/k relative, a few ulps by k = 46,
    so they are compared in a form without cancellation. With
    x = 2^-k the right side is 2^(-k/(k-1)) (1 - x)(1 - x/k), and ln(lhs/rhs)
    is -log1p(-x) - log1p(-x/k) at j = 1 and
    log1p(-(x/(1-x))^2) - log1p(-x)/(k-1) - log1p(-x/k) at j = 2^k - 2,
    whose one negative term is of order x^2 against x/k for the others. The
    margin is rhs expm1(ln(lhs/rhs)) at the smaller one, and the reported j
    is that endpoint as an integer; when both logarithms underflow to zero
    it is 2^k - 2, whose left side is the smaller at every k >= 2. The
    inequality holds for every k up to 1100 (tested).
    """
    kk = require_k(k)
    x = 2.0**-kk
    rhs = 2.0 ** (-kk / (kk - 1)) * (1.0 - x) * (1.0 - x / kk)
    ln_first = -math.log1p(-x) - math.log1p(-x / kk)
    ln_last = math.log1p(-((x / (1.0 - x)) ** 2)) - math.log1p(-x) / (kk - 1) - math.log1p(-x / kk)
    min_j, ln_ratio = (1, ln_first) if ln_first < ln_last else (2**kk - 2, ln_last)
    margin = rhs * math.expm1(ln_ratio)
    return FactorInequalityCheck(
        k=kk, holds=margin >= 0.0, min_j=min_j, lhs_min=rhs + margin, rhs=rhs, margin=margin
    )


def ln_union_failure_bound(k, d: int, n: int) -> float:
    """Natural log of the union failure bound for n random grid points.

    The bound multiplies the class-count bound 2^(k 2^k log2(2^(k+1) d)) by
    the per-class miss bound exp(-n 2^-(k+4)):

        ln bound = ln(2) k 2^k log2(2^(k+1) d) - n 2^-(k+4).

    It bounds ln P(fail) wherever ln_class_count_bound and min_hit_probability_bound
    hold. Negative means a point set intersecting every large box exists.
    """
    kk = require_k(k)
    if d < 1 or n < 0:
        raise ValueError(f"need d >= 1 and n >= 0, got d={d}, n={n}")
    return ln_class_count_bound(kk, d) - n * 2.0 ** -(kk + 4)


def ln_union_failure_bound_crude(k, d: int, n: int) -> float:
    """Natural log of the crude variant 2^(2kd) exp(-n 2^-(k+4)).

    Counts every (anchor, span) pair instead of only spans with few short
    sides; smaller than the main bound once the short-side threshold
    exceeds d. As 2^(2kd) >= anchor_formula_count, it bounds ln P(fail)
    wherever min_hit_probability_bound holds.
    """
    kk = require_k(k)
    if d < 1 or n < 0:
        raise ValueError(f"need d >= 1 and n >= 0, got d={d}, n={n}")
    return 2.0 * kk * d * math.log(2) - n * 2.0 ** -(kk + 4)


def exact_failure_probability(k, d: int, n: int, *, limit: int | None = None) -> Fraction:
    """Exact chance that n i.i.d. uniform grid points leave some box of volume > 2^-k empty.

    Sums over the ordered outcome space of size (2^k - 1)^(d n), grouped by
    support: the set of distinct points an outcome holds. Repeated points
    never change which boxes are empty, so each support of s points counts
    for the surj(n, s) = sum_j (-1)^j C(s, j) (s - j)^n ordered outcomes
    whose distinct points are exactly it.

    A support that misses some value a of 1 .. 2^k - 1 on some axis fails
    without a test: it leaves empty the open slab (a - 1, a + 1) / 2^k on
    that axis, whose volume 2^(1-k) exceeds 2^-k. Every support of
    s < 2^k - 1 points misses a value on axis 0, so the C(g^d, s) supports
    of each such size, g^d being the number of grid points, all count as
    failures, and below n = 2^k - 1 the chance is 1 without building
    anything. The larger supports are listed in bulk, a chunk of at most
    CHUNK_ELEMENTS numerators at a time (see _covering_supports), and only
    those that take every value on every axis are certified by the
    certificate kernel, ClassTable.first_misses, in slices of its
    trials_per_chunk: on a grid set at its own k the certificate fails
    exactly when some box of volume above 2^-k is empty (see
    ``certify_dispersion``). So one listing chunk and its covering supports
    are all that is held at once. The supports that pass are tallied per
    size, and all others of that size fail. ``limit`` guards the ordered
    outcomes first, also below n = 2^k - 1; at n >= 2^k - 1 it then guards
    the class table and the full grid.
    """
    kk = require_k(k)
    if d < 1 or n < 1:
        raise ValueError(f"need d >= 1 and n >= 1, got d={d}, n={n}")
    g = 2**kk - 1
    total = (g**d) ** n
    check_enumeration("failure-probability outcomes", total, limit, DEFAULT_OUTCOME_LIMIT)

    cells = g**d
    top = min(n, cells)
    # surj(n, s), the ordered n-tuples whose distinct points are exactly one s-point support
    weights = [sum((-1) ** j * math.comb(s, j) * (s - j) ** n for j in range(s + 1))
               for s in range(top + 1)]
    # the supports of each size that hit every core; below g points there are none
    passed = np.zeros(top + 1, dtype=np.int64)
    if n >= g:
        table = feasible_class_table(kk, d, limit=limit)
        grid = full_grid(kk, d, limit=limit).points
        trials = table.trials_per_chunk(top)
        for nums, sizes in _covering_supports(grid, g, top):
            for at in range(0, len(sizes), trials):
                hit = table.first_misses(nums[at : at + trials]) == table.count
                passed += np.bincount(sizes[at : at + trials][hit], minlength=top + 1)
    failures = sum((math.comb(cells, s) - int(passed[s])) * weights[s] for s in range(1, top + 1))
    return Fraction(failures, total)


def _covering_supports(grid: np.ndarray, g: int, top: int):
    """The supports of g .. top grid points that take every value 1 .. g on every axis, a listing chunk at a time.

    The supports are listed by size, then lexicographically, by
    _support_chunks, in chunks of CHUNK_ELEMENTS // (top d) rows (no more
    than there are supports), so that a chunk's numerators stay within
    CHUNK_ELEMENTS, the bound the certificate kernel keeps on each of its
    arrays. A chunk may span several sizes. Yields, for each chunk with any
    support that covers every value, those supports' numerators, an array of
    shape (supports, top, d) in which a support of s < top points repeats
    its first point, and each one's size.
    """
    cells, d = grid.shape
    # the bit of each grid point's value on each axis, packed into bytes
    masks = np.packbits((grid[:, :, None] == np.arange(1, g + 1)).reshape(cells, d * g), axis=1)
    full = np.packbits(np.ones(d * g, dtype=bool))
    supports = sum(math.comb(cells, s) for s in range(g, top + 1))
    rows = min(CHUNK_ELEMENTS // (top * d), supports)
    for picks, sizes in _support_chunks(cells, g, top, rows):
        seen = masks.take(picks[:, 0], axis=0)
        for column in range(1, top):
            seen |= masks.take(picks[:, column], axis=0)
        keep = (seen == full).all(axis=1)
        if keep.any():
            yield grid.take(picks[keep], axis=0), sizes[keep]


def _support_chunks(cells: int, low: int, top: int, rows: int):
    """Every support of low .. top of `cells` grid points, by size, then lexicographically, as (rows, top) index arrays and each row's size.

    A row of s < top points repeats its first point. Each size's supports
    are filled in by one np.fromiter per chunk they reach, so a chunk may
    span several sizes; only the last chunk may hold fewer rows. The arrays
    yielded are overwritten by the next chunk.
    """
    picks = np.empty((rows, top), dtype=np.int64)
    size = np.empty(rows, dtype=np.int64)
    fill = 0
    for s in range(low, top + 1):
        supports = itertools.combinations(range(cells), s)
        left = math.comb(cells, s)
        while left:
            take = min(rows - fill, left)
            part = picks[fill : fill + take]
            flat = itertools.chain.from_iterable(itertools.islice(supports, take))
            part[:, :s] = np.fromiter(flat, dtype=np.int64, count=take * s).reshape(take, s)
            part[:, s:] = part[:, :1]
            size[fill : fill + take] = s
            fill += take
            left -= take
            if fill == rows:
                yield picks, size
                fill = 0
    if fill:
        yield picks[:fill], size[:fill]
