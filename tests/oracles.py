"""Independent oracles used by the test suite.

Each oracle recomputes a quantity by a different route than the library:
plain unpruned and shrunken closed-box scans and a recursive pruned bitmask
scan and the former pair-enumerating block scan for the dispersion,
inclusion-exclusion surjection counts, a
per-outcome empty-box search, the former batched candidate-box count over
every support and the former one-support-at-a-time certificate loop for
exact failure probabilities, grid
enumeration for hit probabilities, a per-class loop over rebuilt classes
for the hit-probability audit, a scan of every j for the per-axis factor
inequality, classification of a fine mesh of boxes
and a per-class feasibility walk for the feasible class set, a filter of
the whole span grid for the feasible and the minimal span vectors, the
former table build that expands every class's anchors and spans, a
table of the cores inside every core for the inclusion-minimal cores, a
per-class core-box scan for the certificate, the former certificate kernel that reads
all 2^d corners of every core off a 2^k-per-axis table for its first-miss
positions, the former single-pass certificate kernel that bins every point
before it scans a core, and one certificate per trial for Monte Carlo
success counts.
"""

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from dispgrid import (
    Box,
    BoxClass,
    PointSet,
    certify_dispersion,
    classify_box,
    enumerate_feasible_classes,
    hit_probability,
    probability,
)
from dispgrid import empty_box
from dispgrid.construct import _draw, _generator, full_grid
from dispgrid.empty_box import (
    _distinct,
    _inside_counts,
    _occupancy_prefix,
    _pairs,
    _unit,
    _witness_box,
)
from dispgrid.grid import require_k
from dispgrid.guards import (
    DEFAULT_ENUMERATION_LIMIT,
    DEFAULT_OUTCOME_LIMIT,
    check_enumeration,
)
from dispgrid.partition import BLOCK_CLASSES, _prefix_sums, feasible_class_table
from dispgrid.probability import FactorInequalityCheck, HitProbabilityAudit, hit_factor_lhs

# Supports (padded to n points) handed to ``batch_has_empty_box_above`` at once
# by ``reference_exact_failure_probability``.
OUTCOME_CHUNK = 128


def shrink_oracle_dispersion(points: PointSet, delta: float = 1e-12) -> float:
    """Float dispersion oracle: closed candidate boxes shrunk by delta per face.

    Scans all per-axis endpoint pairs drawn from the coordinates plus {0, 1}
    and takes the largest volume whose delta-shrunken closed box contains no
    point.
    """
    d = points.dim
    rows = list(points.values())
    cols = [[float(row[axis]) for row in rows] for axis in range(d)]
    cands = [sorted({0.0, 1.0, *col}) for col in cols]
    best = 0.0
    axis_pairs = [
        [(lo, hi) for i, lo in enumerate(c) for hi in c[i + 1 :]] for c in cands
    ]
    for combo in itertools.product(*axis_pairs):
        vol = math.prod(hi - lo for lo, hi in combo)
        if vol <= best:
            continue
        empty = True
        for row in rows:
            inside = all(
                lo + delta <= float(x) <= hi - delta for x, (lo, hi) in zip(row, combo)
            )
            if inside:
                empty = False
                break
        if empty:
            best = vol
    return best


def exhaustive_largest_empty_box(points: PointSet):
    """Exact dispersion and its witness by a plain scan of every candidate box.

    Candidate endpoints per axis are the coordinates plus {0, 1}, and a point
    lies in a candidate box when it is strictly inside on every axis. Boxes
    are visited in lexicographic endpoint order and only a strictly larger
    volume replaces the best, so the witness is the lexicographically first
    maximiser. Returns (volume, witness box).
    """
    d = points.dim
    rows = list(points.values())
    coords = [{row[axis] for row in rows} for axis in range(d)]
    ends = {Fraction(0), Fraction(1)} if points.repr == "grid" else {0.0, 1.0}
    axis_pairs = [list(itertools.combinations(sorted(c | ends), 2)) for c in coords]
    best, best_combo = None, None
    for combo in itertools.product(*axis_pairs):
        vol = math.prod(hi - lo for lo, hi in combo)
        if best is not None and vol <= best:
            continue
        if not any(all(lo < x < hi for x, (lo, hi) in zip(row, combo)) for row in rows):
            best, best_combo = vol, combo
    witness = Box(
        tuple(lo for lo, _ in best_combo),
        tuple(hi for _, hi in best_combo),
        tuple(lo in c for (lo, _), c in zip(best_combo, coords)),
        tuple(hi in c for (_, hi), c in zip(best_combo, coords)),
    )
    return best, witness


def pruned_scan_largest_empty_box(points: PointSet):
    """Exact dispersion and its witness by a recursive pruned scan over bitmasks.

    Per axis, every candidate endpoint pair (coordinates plus {0, 1}) carries
    a bitmask of the points strictly inside it; a box's points are the AND of
    its axes' masks. Boxes are visited in lexicographic endpoint order, a
    subtree is skipped when vol * unit^remaining cannot strictly beat the best,
    a point-free prefix is completed with full-range intervals, and only a
    strict improvement replaces the best, so the witness is the
    lexicographically first maximiser. Volumes are integer numerators over
    2^(k*d) for grid input and floats otherwise. Returns (volume, witness box).
    """
    unit = 2**points.k if points.repr == "grid" else 1.0
    cols = points.points.T.tolist()
    axes = []
    for col in cols:
        values = sorted({0 * unit, unit, *col})
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

    d = points.dim
    caps = [unit ** (d - axis) for axis in range(d + 1)]
    full = (0 * unit, unit)
    chosen = []
    best, found = 0 * unit, None

    def visit(axis, vol, mask):
        nonlocal best, found
        bound = vol * caps[axis]
        if bound <= best:
            return
        if mask == 0:
            # every completion is empty; the full-range one is the subtree's only maximiser
            best = bound
            found = chosen + [full] * (d - axis)
            return
        if axis == d:
            return
        for lo, hi, pmask in axes[axis]:
            chosen.append((lo, hi))
            visit(axis + 1, vol * (hi - lo), mask & pmask)
            chosen.pop()

    visit(0, caps[d], (1 << points.n) - 1)
    scale = (lambda v: Fraction(v, unit)) if points.repr == "grid" else (lambda v: v)
    coords = [set(col) for col in cols]
    witness = Box(
        tuple(scale(lo) for lo, _ in found),
        tuple(scale(hi) for _, hi in found),
        tuple(lo in c for (lo, _), c in zip(found, coords)),
        tuple(hi in c for (_, hi), c in zip(found, coords)),
    )
    volume = Fraction(best, unit**d) if points.repr == "grid" else best
    return volume, witness


def _box_volumes(widths, lead: int = 0) -> np.ndarray:
    """Volume of every box in the outer product of per-axis widths, multiplied in axis order.

    Each width array holds `lead` batch axes followed by one axis of widths;
    the batch axes are shared, not multiplied out.
    """
    volumes = widths[0]
    for w in widths[1:]:
        spread = w.shape[:lead] + (1,) * (volumes.ndim - lead) + w.shape[lead:]
        volumes = volumes[..., None] * w.reshape(spread)
    return volumes


def pair_scan_search(points: PointSet, best, limit: int | None = None):
    """Empty candidate box of largest volume strictly above `best`, by enumerating every pair.

    The exact oracle's former kernel, with the signature and scan units of
    ``empty_box._search``: it counts the C(c, 2)^d candidate boxes against the
    enumeration guard, bins the points into prefix sums over the candidate
    endpoints, and evaluates every candidate box in blocks of consecutive
    axis-0 endpoint pairs (``empty_box.BLOCK_BOXES``, read at call time). A
    block is skipped when its widest axis-0 pair times unit^(d-1) cannot
    strictly beat the best, and its first maximiser replaces the best only on
    strict improvement. Returns (volume, witness box or None).
    """
    unit = _unit(points)
    cols = points.points.T
    if isinstance(unit, int) and unit**points.dim >= 2**63:
        cols = cols.astype(object)
    values = [_distinct(np.concatenate((col, [0, unit]))) for col in cols]
    count = math.prod(len(v) * (len(v) - 1) // 2 for v in values)
    check_enumeration("candidate boxes", count, limit, DEFAULT_ENUMERATION_LIMIT)

    cells = [np.searchsorted(v, col) for v, col in zip(values, cols)]
    shape = tuple(len(v) for v in values)
    occupancy = np.bincount(np.ravel_multi_index(cells, shape), minlength=math.prod(shape))
    prefix = _occupancy_prefix(occupancy.reshape((1,) + shape))
    pairs = [_pairs(len(v)) for v in values]
    widths = [v[hi] - v[lo] for v, (lo, hi) in zip(values, pairs)]

    cap = unit ** (points.dim - 1)
    step = max(1, empty_box.BLOCK_BOXES // math.prod(len(w) for w in widths[1:]))
    lo0, hi0 = pairs[0]
    found = None
    for start in range(0, len(widths[0]), step):
        block = slice(start, start + step)
        if widths[0][block].max() * cap <= best:
            continue
        counts = _inside_counts(prefix, [(lo0[block], hi0[block]), *pairs[1:]])[0]
        empty = counts == 0
        volumes = np.where(empty, _box_volumes([widths[0][block], *widths[1:]]), 0)
        at = np.unravel_index(np.argmax(volumes), volumes.shape)
        if empty[at] and volumes[at] > best:
            best = type(unit)(volumes[at])
            found = (start + at[0],) + at[1:]
    if found is None:
        return best, None
    return best, _witness_box(found, values, pairs, cells, unit)


def surjection_count(values: int, draws: int) -> int:
    """Number of surjections from `draws` labelled draws onto `values` values."""
    return sum(
        (-1) ** i * math.comb(values, i) * (values - i) ** draws
        for i in range(values + 1)
    )


def coverage_failure_probability(k: int, n: int) -> Fraction:
    """Exact failure probability in dimension 1 via the surjection count.

    In dimension 1 a set of draws leaves an interval of volume above 2^-k
    empty exactly when some grid value is missed.
    """
    g = 2**k - 1
    return 1 - Fraction(surjection_count(g, n), g**n)


def per_outcome_failure_probability(k: int, d: int, n: int) -> Fraction:
    """Exact failure probability by one empty-box search per point multiset.

    Walks every multiset of n grid points with its multinomial weight, builds
    its point set and counts it as a failure when the pruned scan finds an
    empty box of volume above 2^-k.
    """
    grid_points = list(itertools.product(range(1, 2**k), repeat=d))
    threshold = Fraction(1, 2**k)
    failures = 0
    for combo in itertools.combinations_with_replacement(grid_points, n):
        weight = math.factorial(n)
        for mult in Counter(combo).values():
            weight //= math.factorial(mult)
        volume, _ = pruned_scan_largest_empty_box(PointSet.from_numerators(k, d, combo))
        if volume > threshold:
            failures += weight
    return Fraction(failures, (2**k - 1) ** (d * n))


def batch_has_empty_box_above(
    numerators: np.ndarray, unit: int, threshold: int, *, limit: int | None = None
) -> np.ndarray:
    """Per point set, whether some box with volume numerator above `threshold` is empty.

    `numerators` is an integer array of shape (sets, n, d): a batch of
    same-size grid point sets with numerators in 1 .. unit - 1, and volumes
    are numerators over unit^d. Each set is tested on its own candidate
    endpoints, its distinct coordinates plus {0, unit} per axis, so the
    answer for a set is ``has_empty_box_above`` on it alone. The endpoints are
    stored padded to one count c = min(n, unit - 1) + 2 per axis by repeating
    `unit`, which adds only zero-width pairs and copies of genuine boxes. The
    guard counts the C(c, 2)^d candidate boxes of one set before anything is
    binned. The counting is the same prefix-sum kernel with the set as a
    leading axis, in blocks of about ``BLOCK_BOXES`` boxes. Each set's
    endpoints are binned at the offset set * (unit + 2), so a batch whose
    offsets leave the int64 range is refused with ``ValueError``.
    """
    sets, n, d = numerators.shape
    if sets * (unit + 2) > np.iinfo(np.int64).max:
        raise ValueError(f"{sets} sets at unit {unit} overflow the int64 binning offsets")
    c = min(n, unit - 1) + 2
    lo, hi = _pairs(c)
    check_enumeration("candidate boxes", len(lo) ** d, limit, DEFAULT_ENUMERATION_LIMIT)

    rows = np.arange(sets)[:, None]
    ends = np.broadcast_to(np.array([0, unit]), (sets, 2))
    flat = np.zeros((sets, n), dtype=np.int64)
    widths = []
    for col in np.moveaxis(numerators, 2, 0):
        values = np.sort(np.concatenate((col, ends), axis=1), axis=1)
        repeats = np.zeros(values.shape, dtype=bool)
        repeats[:, 1:] = values[:, 1:] == values[:, :-1]
        values[repeats] = unit + 1  # sorts after every value, then is clipped back to unit
        values = np.minimum(np.sort(values, axis=1)[:, :c], unit)
        # sorted rows offset into disjoint ranges: one searchsorted bins every set
        offset = rows * (unit + 2)
        flat = flat * c + np.searchsorted((values + offset).ravel(), col + offset) - rows * c
        widths.append(values[:, hi] - values[:, lo])
    if unit**d >= 2**63:
        widths = [w.astype(object) for w in widths]  # volume numerators outgrow int64
    occupancy = np.bincount((flat + rows * c**d).ravel(), minlength=sets * c**d)
    prefix = _occupancy_prefix(occupancy.reshape((sets,) + (c,) * d))

    # blocks of whole sets, or of axis-0 pairs of one set when a set alone exceeds a block
    step = max(1, empty_box.BLOCK_BOXES // len(lo) ** d)
    pair_step = max(1, empty_box.BLOCK_BOXES // len(lo) ** (d - 1))
    found = np.zeros(sets, dtype=bool)
    for start in range(0, sets, step):
        block = slice(start, start + step)
        for first in range(0, len(lo), pair_step):
            part = slice(first, first + pair_step)
            counts = _inside_counts(prefix[block], [(lo[part], hi[part])] + [(lo, hi)] * (d - 1))
            volumes = _box_volumes([widths[0][block, part]] + [w[block] for w in widths[1:]], 1)
            empty_large = (counts == 0) & (volumes > threshold)
            found[block] |= empty_large.reshape(len(counts), -1).any(axis=1)
    return found


def reference_exact_failure_probability(k, d: int, n: int, *, limit: int | None = None) -> Fraction:
    """Exact failure probability by testing every support with ``batch_has_empty_box_above``.

    The library's former route: each support (set of distinct grid points)
    of at most n points, small ones included, is padded to n points by
    repeating its first point and tested on its own candidate boxes, in
    chunks of ``OUTCOME_CHUNK``, then weighted by the surjection count of the
    ordered outcomes that hold exactly it. Guards the ordered outcomes, the
    full grid and the candidate boxes of one support, in that order.
    """
    kk = require_k(k)
    if d < 1 or n < 1:
        raise ValueError(f"need d >= 1 and n >= 1, got d={d}, n={n}")
    g = 2**kk - 1
    total = (g**d) ** n
    check_enumeration("failure-probability outcomes", total, limit, DEFAULT_OUTCOME_LIMIT)

    m = 2**kk
    grid = full_grid(kk, d, limit=limit).points

    top = min(n, len(grid))
    weights = [surjection_count(s, n) for s in range(top + 1)]
    supports = itertools.chain.from_iterable(
        itertools.combinations(range(len(grid)), s) for s in range(1, top + 1)
    )
    failures = 0
    while chunk := list(itertools.islice(supports, OUTCOME_CHUNK)):
        padded = itertools.chain.from_iterable(p + p[:1] * (n - len(p)) for p in chunk)
        picks = np.fromiter(padded, dtype=np.int64, count=len(chunk) * n).reshape(-1, n)
        found = batch_has_empty_box_above(grid[picks], m, m ** (d - 1), limit=limit)
        failures += sum(weights[len(p)] for p, hit in zip(chunk, found.tolist()) if hit)
    return Fraction(failures, total)


def support_loop_failure_probability(k, d: int, n: int, *, limit: int | None = None) -> Fraction:
    """Exact failure probability by certifying every support of 2^k - 1 or more points, one support at a time.

    The library's former loop: the supports of fewer than 2^k - 1 points
    fail in a closed sum; each larger one is built as a tuple, padded to n
    points by repeating its first point, certified in chunks of the
    certificate kernel and weighted one at a time by its surjection count.
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
    # every support of fewer than g points misses a value on axis 0
    failures = sum(math.comb(cells, s) * weights[s] for s in range(1, min(top, g - 1) + 1))
    if n < g:
        return Fraction(failures, total)

    table = feasible_class_table(kk, d, limit=limit)
    grid = full_grid(kk, d, limit=limit).points
    supports = itertools.chain.from_iterable(
        itertools.combinations(range(cells), s) for s in range(g, top + 1)
    )
    chunk = table.trials_per_chunk(n)
    while batch := list(itertools.islice(supports, chunk)):
        padded = itertools.chain.from_iterable(p + p[:1] * (n - len(p)) for p in batch)
        picks = np.fromiter(padded, dtype=np.int64, count=len(batch) * n).reshape(-1, n)
        missed = table.first_misses(grid[picks]) < table.count
        failures += sum(weights[len(p)] for p, miss in zip(batch, missed.tolist()) if miss)
    return Fraction(failures, total)


def core_contains(core, nums) -> bool:
    """Whether a core box holds the grid point with numerators nums."""
    return all(lo <= a <= hi for a, lo, hi in zip(nums, core.lo, core.hi))


def core_grid_points(core) -> list:
    """The grid points of a core box, as numerator tuples in lexicographic order."""
    return list(itertools.product(*(range(lo, hi + 1) for lo, hi in zip(core.lo, core.hi))))


def brute_force_hit_probability(core, k: int, d: int) -> Fraction:
    """Fraction of all grid points lying in the core box, by enumeration."""
    g = 2**k - 1
    hits = sum(
        1
        for p in itertools.product(range(1, 2**k), repeat=d)
        if core_contains(core, p)
    )
    return Fraction(hits, g**d)


def reference_max_volume(cls: BoxClass) -> Fraction:
    """Largest volume of a member box of the class, as an exact rational.

    Per axis the length is capped both by the bucket, (span + 1)/2^k, and by
    the room left of 1 from the lowest infimum, (2^k - anchor + 1)/2^k.
    """
    m = 2**cls.k
    num = math.prod(min(s + 1, m - a + 1) for a, s in zip(cls.anchor, cls.span))
    return Fraction(num, m**cls.dim)


def reference_is_feasible(cls: BoxClass) -> bool:
    """Feasibility from the capped maximum volume: spans >= 1, anchors <= 2^k - span, and volume above 2^-k."""
    m = 2**cls.k
    if any(s < 1 or a > m - s for a, s in zip(cls.anchor, cls.span)):
        return False
    return reference_max_volume(cls) > Fraction(1, m)


def reference_hit_audit(k: int, d: int) -> HitProbabilityAudit:
    """Hit-probability audit by a per-class loop with exact rationals.

    Rebuilds every feasible class as a BoxClass, takes its hit probability
    and maximum volume as Fractions (proving it feasible again on the way),
    and checks the three claims of ``audit_hit_probabilities`` one class at a
    time. The bounds and ``CHAIN_SLACK`` are read from the probability module
    at call time, so a test that patches them patches both audits.
    """
    bound = probability.min_hit_probability_bound(k)
    miss_bound = probability.class_miss_probability_bound(k)
    shrink = 1.0 - 1.0 / (k * 2**k)
    exponent = k / (k - 1)
    count = 0
    min_hit = argmin = None
    violations = []
    for cls in enumerate_feasible_classes(k, d):
        count += 1
        hp = hit_probability(cls)
        if min_hit is None or hp < min_hit:
            min_hit, argmin = hp, cls
        if not hp > bound:
            violations.append((cls, "hit probability not above 2^-(k+4)"))
        chain = shrink**cls.short_sides * float(reference_max_volume(cls)) ** exponent
        if not float(hp) >= chain - probability.CHAIN_SLACK:
            violations.append((cls, "intermediate chain inequality"))
        if not 1.0 - float(hp) < miss_bound:
            violations.append((cls, "miss probability bound"))
    return HitProbabilityAudit(
        k=k,
        d=d,
        classes_checked=count,
        min_hit_probability=min_hit,
        argmin_class=argmin,
        lower_bound=bound,
        passed=count > 0 and not violations,
        violations=tuple(violations),
    )


def scan_hit_factor_inequality(k: int) -> FactorInequalityCheck:
    """The per-axis factor inequality with its left side evaluated at every j = 1 .. 2^k - 2.

    The former ``check_hit_factor_inequality``: 8 (2^k - 2) bytes of float64
    j values, where the library evaluates only the two endpoints.
    """
    kk = require_k(k)
    lhs = hit_factor_lhs(kk, np.arange(1, 2**kk - 1, dtype=np.float64))
    i = int(np.argmin(lhs))
    lhs_min = float(lhs[i])
    rhs = (2**kk - 1) * 2.0 ** (-(kk * kk) / (kk - 1.0)) * (1.0 - 1.0 / (kk * 2**kk))
    margin = lhs_min - rhs
    return FactorInequalityCheck(
        k=kk, holds=margin >= 0.0, min_j=i + 1, lhs_min=lhs_min, rhs=rhs, margin=margin
    )


def classes_from_fine_mesh(k: int, d: int) -> set:
    """Distinct classes of every box with endpoints on the 2^-(k+2) mesh and volume > 2^-k."""
    q = 2 ** (k + 2)
    endpoints = [Fraction(i, q) for i in range(q + 1)]
    pairs = [
        (lo, hi) for i, lo in enumerate(endpoints) for hi in endpoints[i + 1 :]
    ]
    threshold = Fraction(1, 2**k)
    found = set()
    for combo in itertools.product(pairs, repeat=d):
        vol = math.prod(hi - lo for lo, hi in combo)
        if vol <= threshold:
            continue
        box = Box.closed_box([lo for lo, _ in combo], [hi for _, hi in combo])
        cls = classify_box(box, k)
        found.add((cls.anchor, cls.span))
    return found


def box_in_class(box: Box, cls) -> bool:
    """Whether the box satisfies the class's per-axis length and infimum conditions."""
    m = 2**cls.k
    for lo, hi, a, s in zip(box.lower, box.upper, cls.anchor, cls.span):
        length = Fraction(hi) - Fraction(lo)
        if not (Fraction(s, m) < length <= Fraction(s + 1, m)):
            return False
        if not (Fraction(a - 1, m) <= Fraction(lo) < Fraction(a, m)):
            return False
    return True


def reference_feasible_classes(k: int, d: int):
    """Feasible classes in (span, anchor) lexicographic order, one BoxClass at a time.

    Walks every span vector with sides 1 .. 2^k - 1 and, per span, every
    anchor in 1 .. 2^k - span, keeping the classes that
    ``reference_is_feasible`` admits.
    """
    m = 2**k
    for span in itertools.product(range(1, m), repeat=d):
        for anchor in itertools.product(*(range(1, m - s + 1) for s in span)):
            cls = BoxClass(k, anchor, span)
            if reference_is_feasible(cls):
                yield cls


def reference_feasible_spans(k: int, d: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The feasible span vectors, filtered from the whole grid of span vectors, which are minimal, and table entries.

    The grid holds d (2^k - 1)^d int64 entries. A feasible span vector is
    minimal when no feasible span vector lies one below it on one axis. The
    table entries are, for each class whose span vector is minimal, its 2d
    anchor and span entries and the 2^L corner columns of the widest class.
    """
    m = 2**k
    spans = np.indices((m - 1,) * d).reshape(d, -1).T + 1
    feasible = np.prod(spans + 1, axis=1) > m ** (d - 1)
    grid = feasible.reshape((m - 1,) * d)
    # pad one infeasible slice below span 1, then look one step down every axis
    below = np.pad(grid, [(1, 0)] * d)
    minimal = feasible.copy()
    for axis in range(d):
        step = np.zeros(d, dtype=int)
        step[axis] = 1
        minimal &= ~below[tuple((spans - step).T)]
    classes = np.prod(m - spans, axis=1)
    columns = 2 ** int((spans[feasible] < m - 1).sum(axis=1).max())
    entries = int(classes[minimal].sum()) * (2 * d + columns)
    return spans[feasible], minimal[feasible], entries


@functools.lru_cache(maxsize=16)
def reference_class_table(k: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Every feasible class in table order, as read-only per-class (count, d) anchor and span arrays.

    The library's former table build: every feasible span vector's anchor
    block expanded, anchors 1 .. 2^k - span per axis decoded by mixed radix
    from each row's offset in its block.
    """
    spans = reference_feasible_spans(k, d)[0]
    radix = 2**k - spans  # anchors 1 .. 2^k - span per axis
    block = np.prod(radix, axis=1)
    owner = np.repeat(np.arange(len(spans)), block)
    offset = np.arange(len(owner)) - np.repeat(np.cumsum(block) - block, block)
    anchors = np.empty((len(owner), d), dtype=spans.dtype)
    for axis in reversed(range(d)):
        base = radix[owner, axis]
        anchors[:, axis] = offset % base + 1
        offset //= base
    spans = spans[owner]
    anchors.flags.writeable = False
    spans.flags.writeable = False
    return anchors, spans


def cores_inside(k: int, lo, hi, inner_lo, inner_hi) -> np.ndarray:
    """How many of the inner cores lie inside each core, for cores given by inclusive bounds.

    Counts the inner cores into one table over all (lo, hi) bound pairs,
    (2^k - 1)^(2d) cells, and sums it over lo' >= lo and hi' <= hi per axis.
    """
    g = 2**k - 1
    d = lo.shape[1]
    table = np.zeros((g,) * (2 * d), dtype=np.int64)
    np.add.at(table, tuple((inner_lo - 1).T) + tuple((inner_hi - 1).T), 1)
    for axis in range(d):
        table = np.flip(np.flip(table, axis).cumsum(axis), axis)
    for axis in range(d, 2 * d):
        table = table.cumsum(axis)
    return table[tuple((lo - 1).T) + tuple((hi - 1).T)]


def reference_certify(point_sets, k: int) -> list:
    """Certificates by a per-class core-box scan that stops at the first miss.

    Takes point sets of one dimension and walks ``reference_feasible_classes``
    once for all of them, dropping each set at its first class whose core box
    holds none of its points. Returns one (passed, classes_checked, witness)
    per set.
    """
    rows = [points.points.tolist() for points in point_sets]
    results = [None] * len(point_sets)
    pending = list(range(len(point_sets)))
    checked = 0
    for cls in reference_feasible_classes(k, point_sets[0].dim):
        if not pending:
            break
        checked += 1
        core = cls.core_box()
        hit = []
        for i in pending:
            if any(core_contains(core, row) for row in rows[i]):
                hit.append(i)
            else:
                results[i] = (False, checked, cls)
        pending = hit
    for i in pending:
        results[i] = (True, checked, None)
    return results


def reference_monte_carlo(k: int, d: int, n: int, trials: int, master_seed: int) -> list:
    """Certificate outcome of every Monte Carlo trial, one trial at a time.

    Trial i samples its own PointSet from spawn index i and is certified on
    its own, as monte_carlo_success did before trials were certified in
    chunks; the successes of the first t trials are the sum of the first t
    outcomes.
    """
    return [
        certify_dispersion(
            PointSet.from_numerators(k, d, _draw(_generator(master_seed, i), k, d, n)), k
        ).passed
        for i in range(trials)
    ]


def gray_code_first_misses(numerators: np.ndarray, k: int, anchors, spans) -> np.ndarray:
    """Table position of each trial's first feasible class with an empty core.

    ``numerators`` is a (trials, n, d) array of grid numerators; a trial that
    hits every core gets ``len(anchors)``. The points are counted into one
    occupancy table on the numerators 0 .. 2^k - 1 per axis (numerator 0
    never occurs, so slice 0 is the empty cell below anchor 1) with the trial
    as last axis, so that reading one cell for every trial is one contiguous
    row, and its cumulative sums are taken along every grid axis. The count
    in each core [anchor, anchor + span - 1] is read off the 2^d corners by
    inclusion-exclusion, BLOCK_CLASSES classes at a time; a trial leaves
    after the block holding its first empty core.
    """
    trials, _, d = numerators.shape
    m = 2**k
    cells = m**d
    bins = np.ravel_multi_index(tuple(numerators.transpose(2, 0, 1)), (m,) * d)
    bins *= trials
    bins += np.arange(trials)[:, None]
    table = np.bincount(bins.ravel(), minlength=cells * trials).reshape((m,) * d + (trials,))
    for axis in range(d):
        np.cumsum(table, axis=axis, out=table)
    flat = table.reshape(cells, trials)
    strides = m ** np.arange(d - 1, -1, -1)
    first = np.full(trials, len(anchors))
    live = np.arange(trials)
    for start in range(0, len(anchors), BLOCK_CLASSES):
        block_spans = spans[start : start + BLOCK_CLASSES]
        # visit the 2^d corners in Gray-code order: each step moves one axis
        # of the cell index between the core's top cell, anchor + span - 1,
        # and the cell below it, anchor - 1; the sign is the parity of the
        # moved axes
        index = (anchors[start : start + BLOCK_CLASSES] + block_spans - 1) @ strides
        moves = [block_spans[:, axis] * stride for axis, stride in enumerate(strides)]
        counts = flat.take(index, axis=0)
        gray = 0
        for step in range(1, 2**d):
            axis = (step & -step).bit_length() - 1
            gray ^= 1 << axis
            if gray >> axis & 1:
                index -= moves[axis]
            else:
                index += moves[axis]
            if gray.bit_count() % 2:
                counts -= flat.take(index, axis=0)
            else:
                counts += flat.take(index, axis=0)
        empty = counts == 0
        missed = empty.any(axis=0)
        if missed.any():
            first[live[missed]] = start + empty[:, missed].argmax(axis=0)
            live = live[~missed]
            if not live.size:
                break
            flat = flat[:, ~missed]
    return first


def single_pass_first_misses(numerators: np.ndarray, k: int, corners: np.ndarray) -> np.ndarray:
    """Row of each trial's first class with an empty core, in a corner matrix, from one pass over every point.

    The library's former certificate kernel: every point of every trial is
    binned into one table on the numerators 1 .. 2^k - 1 per axis plus a
    trailing zero cell, with the trial as last axis, before any core is
    read; its cumulative sums are taken along every grid axis, and each core
    count is the signed sum of its row of corner cells, BLOCK_CLASSES classes
    at a time. A trial that hits every core gets ``len(corners)``.
    """
    trials, _, d = numerators.shape
    g = 2**k - 1
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
    flat = flat.reshape(cells + 1, trials)
    _prefix_sums(flat[:cells], g, d)

    first = np.full(trials, len(corners))
    live = np.arange(trials)
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
