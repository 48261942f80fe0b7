"""Randomized grid constructions with a dispersion certificate.

Sampling draws every coordinate independently and uniformly from the 2^k - 1
grid values, using numpy's PCG64 generator whose bounded-integer sampling is
rejection-based and therefore exactly uniform. Reproducibility contract:
every derived stream is obtained as

    SeedSequence(master_seed, spawn_key=(index,))

so per-trial and per-attempt results depend only on (master_seed, index) and
are identical regardless of execution order or of how trials are grouped
into chunks. The scheme is recorded in output metadata as the ``rng`` tag.
Monte Carlo derives the same SeedSequence state words for a whole block of
trials in one vectorised pass of the seed-sequence hash, and PCG64 seeds
itself from them as from the child SeedSequence, so its streams, and the
``rng`` tag, are those of the scheme above. It reads each stream's raw
words and maps them to grid values itself, for all trials of a chunk at
once, by the 32-bit Lemire step that Generator.integers takes for k <= 32;
a trial whose draw that step would reject and redraw, and every trial past
k = 32, is drawn by Generator.integers, so the values are numpy's own.

The certificate checks that the point set intersects the core box of every
feasible box class; a pass implies every box of volume above 2^-k contains a
point, i.e. dispersion at most 2^-k. On a grid set at its own k it is also
necessary: a fail means dispersion above 2^-k, and a pass means dispersion
exactly 2^-k (see certify_dispersion). For a real-valued set, or a set from
another grid rounded onto this one, a fail implies nothing about the true
dispersion. Every certificate here, for one point set or for a chunk of
Monte Carlo trials, is one call of the feasible-class table's kernel,
ClassTable.first_misses, which returns the table row of each set's witness.
"""

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .bounds import n_required
from .grid import GRID_REPR, PointSet, require_k
from .guards import DEFAULT_ENUMERATION_LIMIT, check_enumeration
from .partition import CHUNK_ELEMENTS, BoxClass, ClassTable, feasible_class_table

RNG_SCHEME = "pcg64-seedsequence-v1"

WILSON_Z_95 = 1.959963984540054


class CertificationError(RuntimeError):
    """All attempts at a certified point set failed."""

    def __init__(self, message: str, attempts: int, best):
        super().__init__(message)
        self.attempts = attempts
        self.best = best


class SearchLimitExceeded(RuntimeError):
    """The doubling search hit its sample-size cap before reaching the target."""


@dataclass(frozen=True)
class CertificateResult:
    """Outcome of the core-box certificate.

    ``passed`` is true exactly when no witness exists; ``classes_checked``
    is the 1-based enumeration position of the witness, or the number of
    feasible classes on a pass.
    """

    passed: bool
    classes_checked: int
    witness: BoxClass | None


@dataclass(frozen=True)
class GeneratedSet:
    points: PointSet
    attempts: int


@dataclass(frozen=True)
class MonteCarloSummary:
    """Certificate success statistics over independently seeded trials."""

    k: int
    d: int
    n: int
    trials: int
    successes: int
    success_rate: float
    ci_low: float
    ci_high: float
    master_seed: int


@dataclass(frozen=True)
class MinNSearch:
    """Smallest sample size whose estimated certificate success reaches the target."""

    n_star: int
    rate_at_n_star: float
    rate_below: float
    n_required: int
    within_required: bool


def _generator(seed: int, index: int | None = None) -> np.random.Generator:
    if index is None:
        seq = np.random.SeedSequence(seed)
    else:
        seq = np.random.SeedSequence(seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(seq))


# Constants of O'Neill's seed-sequence hash as numpy's SeedSequence uses them:
# hashmix while the pool is mixed, the pool mix itself, and the state hash-out.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED


def _spawn_states(master_seed: int, indices) -> np.ndarray:
    """SeedSequence(master_seed, spawn_key=(i,)).generate_state(4, np.uint64) for each index, as rows.

    Every child shares the parent's pool, the mixing of the seed's own words
    (padded with zeros to the pool's 4). A child mixes its one spawn-key word,
    for an index below 2^32, into each pool word after the parent's hashmixes:
    4 for the pool, 12 to mix it, 4 per seed word past the pool. Then it hashes
    out 8 uint32 state words, read in pairs as little-endian uint64. Every
    step is a uint32 operation, wrapping as the hash does, over all indices.
    """
    pool = np.random.SeedSequence(master_seed).pool.tolist()
    words = max(1, -(-int(master_seed).bit_length() // 32))
    const = _INIT_A * pow(_MULT_A, 4 + 12 + 4 * max(words - 4, 0), 2**32) % 2**32
    key = np.asarray(indices, dtype=np.uint32)
    mixed = []
    for pool_word in pool:
        hashed = key ^ np.uint32(const)
        const = const * _MULT_A % 2**32
        hashed *= np.uint32(const)
        hashed ^= hashed >> 16
        mix = np.uint32(_MIX_MULT_L * pool_word % 2**32) - np.uint32(_MIX_MULT_R) * hashed
        mix ^= mix >> 16
        mixed.append(mix)
    state = np.empty((len(key), 8), dtype=np.uint32)
    const = _INIT_B
    for column in range(8):
        word = mixed[column % 4] ^ np.uint32(const)
        const = const * _MULT_B % 2**32
        word *= np.uint32(const)
        word ^= word >> 16
        state[:, column] = word
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _StateWords(ISeedSequence):
    """The PCG64 state words of one derived stream, for PCG64 to seed itself from."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _trial_states(master_seed: int, trials: int):
    """The state words of trials 0 .. trials - 1, one row each, with spawn index i for trial i.

    The words are derived CHUNK_ELEMENTS trials at a time, whatever the
    kernel's chunks, since each derivation has a fixed cost of several
    numpy children.
    """
    for start in range(0, trials, CHUNK_ELEMENTS):
        yield from _spawn_states(master_seed, np.arange(start, min(start + CHUNK_ELEMENTS, trials)))


def _stream(words: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_StateWords(words)))


_LOW_HALF = np.uint64(0xFFFFFFFF)


def _draw_trials(states: list, k: int, d: int, n: int) -> np.ndarray:
    """The (trials, n, d) numerators that _draw gives on the stream of each row of state words.

    For k <= 32 the range 2^k - 2 fits in 32 bits, and Generator.integers(1,
    2^k) reads the stream's raw 64-bit words as 32-bit halves, low half
    first, and maps a half h by Lemire's multiply-shift (numpy's
    buffered_bounded_lemire_uint32): m = h (2^k - 1) gives the value
    (m >> 32) + 1, unless the low 32 bits of m lie below 2^32 mod (2^k - 1),
    where it rejects h and reads the next half. Here every half of
    ceil(nd / 2) raw words per stream is mapped at once, the halves split by
    arithmetic so that no byte order enters; a trial with a half in that
    zone, and every trial past k = 32, where numpy maps whole words, is
    drawn by _draw itself.
    """
    if k > 32:
        return np.stack([_draw(_stream(words), k, d, n) for words in states])
    size = n * d
    raw = np.array([np.random.PCG64(_StateWords(words)).random_raw(-(-size // 2)) for words in states])
    halves = np.empty(raw.shape + (2,), dtype=np.uint64)
    np.bitwise_and(raw, _LOW_HALF, out=halves[..., 0])
    np.right_shift(raw, np.uint64(32), out=halves[..., 1])
    # an odd nd leaves the last word's high half unread
    scaled = halves.reshape(len(raw), -1)[:, :size]
    scaled *= np.uint64(2**k - 1)
    rejected = ((scaled & _LOW_HALF) < np.uint64(2**32 % (2**k - 1))).any(axis=1)
    # values below 2^32, so the int64 view reads the same numbers
    numerators = (scaled >> np.uint64(32)).view(np.int64).reshape(len(raw), n, d)
    numerators += 1
    for trial in np.flatnonzero(rejected):
        numerators[trial] = _draw(_stream(states[trial]), k, d, n)
    return numerators


def _draw(rng: np.random.Generator, k: int, d: int, n: int) -> np.ndarray:
    # high endpoint exclusive: numerators 1 .. 2^k - 1, unbiased
    return rng.integers(1, 2**k, size=(n, d))


def sample_grid_points(k, d: int, n: int, seed: int) -> PointSet:
    """n points with i.i.d. coordinates uniform on the grid, determined by the seed."""
    kk = require_k(k)
    if d < 1 or n < 1:
        raise ValueError(f"need d >= 1 and n >= 1, got d={d}, n={n}")
    return PointSet.from_numerators(kk, d, _draw(_generator(seed), kk, d, n))


def full_grid(k, d: int, *, limit: int | None = None) -> PointSet:
    """All (2^k - 1)^d grid points in lexicographic order, guarded by their d numerators each."""
    kk = require_k(k)
    if d < 1:
        raise ValueError(f"need d >= 1, got d={d}")
    check_enumeration("full grid", d * (2**kk - 1) ** d, limit, DEFAULT_ENUMERATION_LIMIT)
    return PointSet.from_numerators(kk, d, np.indices((2**kk - 1,) * d).reshape(d, -1).T + 1)


def certify_dispersion(points: PointSet, k, *, limit: int | None = None) -> CertificateResult:
    """Decide whether a grid set at resolution k has dispersion at most 2^-k.

    Requires a point inside the core box of every feasible class. The
    certificate kernel counts the points in the inclusion-minimal cores,
    those of the classes whose spans cannot be lowered by one on any axis
    and stay feasible: every other core contains one of them, so they
    decide pass or fail, and the first empty core in table order is one of
    them, so the same scan names the witness. The kernel reads the points
    in doubling prefixes and stops at the first prefix that hits every
    minimal core, which decides a pass (see ClassTable.first_misses); a
    fail is decided, and its witness named, on all n points. A pass implies dispersion
    <= 2^-k, in fact exactly 2^-k: the box (0, 2^-k) x (0, 1)^(d-1) holds no
    grid point. A fail carries as witness the first class, in the order of
    enumerate_feasible_classes, whose core is empty, with ``classes_checked``
    its 1-based position, the same values a scan that stops at the first
    miss reports. A fail implies dispersion above 2^-k: the open box one
    grid step wider than the empty core on every side holds no point of the
    set, and its volume prod(span + 1) / 2^(kd) exceeds 2^-k because the
    class is feasible.
    """
    kk = require_k(k)
    if points.repr != GRID_REPR:
        raise ValueError("certificate requires a grid-valued point set")
    if points.k != kk:
        raise ValueError(f"point set has resolution k={points.k}, certificate asked for k={kk}")
    table = feasible_class_table(kk, points.dim, limit=limit)
    return _certificate(table, int(table.first_misses(points.points[None])[0]))


def _certificate(table: ClassTable, i: int) -> CertificateResult:
    """The certificate of a set whose first empty core is at table row i, or past the last row."""
    if i == table.count:
        return CertificateResult(passed=True, classes_checked=i, witness=None)
    return CertificateResult(passed=False, classes_checked=i + 1, witness=table.row(i))


def generate_certified(
    k, d: int, n: int, seed: int, max_attempts: int = 64, *, limit: int | None = None
) -> GeneratedSet:
    """Sample until the certificate passes; attempt i uses spawn index i.

    The guard is checked once, before the first draw, and only the set that
    passes becomes a PointSet. Raises CertificationError after max_attempts
    failures, carrying the best attempt's certificate (the one that got past
    the most classes).
    """
    kk = require_k(k)
    if d < 1 or n < 1:
        raise ValueError(f"need d >= 1 and n >= 1, got d={d}, n={n}")
    if max_attempts < 1:
        raise ValueError(f"need max_attempts >= 1, got {max_attempts}")
    table = feasible_class_table(kk, d, limit=limit)
    reached = 0
    for attempt in range(max_attempts):
        numerators = _draw(_generator(seed, attempt), kk, d, n)
        i = int(table.first_misses(numerators[None])[0])
        if i == table.count:
            return GeneratedSet(PointSet.from_numerators(kk, d, numerators), attempt + 1)
        reached = max(reached, i)
    best = _certificate(table, reached)
    raise CertificationError(
        f"no certified set in {max_attempts} attempts "
        f"(best attempt missed class {best.witness})",
        attempts=max_attempts,
        best=best,
    )


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval at 95% confidence for a binomial proportion."""
    if not (0 <= successes <= trials) or trials < 1:
        raise ValueError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    phat = successes / trials
    z = WILSON_Z_95
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials)) / denom
    # at the extremes the interval touches the boundary exactly
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


def monte_carlo_success(
    k,
    d: int,
    n: int,
    trials: int,
    master_seed: int,
    *,
    threads: int = 1,
    limit: int | None = None,
) -> MonteCarloSummary:
    """Certificate success rate over independently seeded trials.

    Trial i samples with spawn index i, so the summary is a pure function of
    (master_seed, k, d, n, trials). Spawn indices are one key word each, so
    at most 2^32 trials run. The enumeration guard is checked before any
    trial is drawn; the trials are then certified in chunks, one certificate
    kernel call per chunk. ``threads`` is deprecated and has no effect.
    """
    kk = require_k(k)
    if d < 1 or n < 1:
        raise ValueError(f"need d >= 1 and n >= 1, got d={d}, n={n}")
    if not 1 <= trials <= 2**32:
        raise ValueError(f"need 1 <= trials <= 2**32, got {trials}")
    if threads > 1:
        warnings.warn(
            "monte_carlo_success(threads=) is deprecated and has no effect",
            DeprecationWarning,
            stacklevel=2,
        )
    table = feasible_class_table(kk, d, limit=limit)
    chunk = table.trials_per_chunk(n)
    states = _trial_states(master_seed, trials)
    successes = 0
    for start in range(0, trials, chunk):
        numerators = _draw_trials(list(itertools.islice(states, chunk)), kk, d, n)
        successes += int(np.count_nonzero(table.first_misses(numerators) == table.count))

    low, high = wilson_interval(successes, trials)
    return MonteCarloSummary(
        k=kk,
        d=d,
        n=n,
        trials=trials,
        successes=successes,
        success_rate=successes / trials,
        ci_low=low,
        ci_high=high,
        master_seed=master_seed,
    )


def _per_n_seed(seed: int, n: int) -> int:
    seq = np.random.SeedSequence(seed, spawn_key=(n,))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def empirical_min_n(
    k,
    d: int,
    target_rate: float,
    trials: int,
    seed: int,
    *,
    max_n: int = 1 << 20,
    limit: int | None = None,
) -> MinNSearch:
    """Doubling search then bisection for the smallest n reaching the target rate.

    Each candidate n gets its own derived master seed, so the per-n estimate
    is fixed across the search. On return the estimate at n_star reaches the
    target while the estimate at n_star - 1 does not. The enumeration guard
    is checked once, before any trial. Below 2^k - 1 points the rate is 0
    without sampling: a pass needs every value 1 .. 2^k - 1 on every axis,
    since the class with span 1 at any one anchor on one axis and full spans
    elsewhere is feasible.
    """
    kk = require_k(k)
    if not (0.0 < target_rate < 1.0):
        raise ValueError(f"target rate must lie in (0, 1), got {target_rate}")
    if not 1 <= trials <= 2**32:
        raise ValueError(f"need 1 <= trials <= 2**32, got {trials}")
    if max_n < 1:
        raise ValueError(f"need max_n >= 1, got {max_n}")
    feasible_class_table(kk, d, limit=limit)

    rates: dict[int, float] = {}

    def rate(n: int) -> float:
        if n < 2**kk - 1:
            return 0.0
        if n not in rates:
            rates[n] = monte_carlo_success(
                kk, d, n, trials, _per_n_seed(seed, n), limit=limit
            ).success_rate
        return rates[n]

    # doubling, clamped at max_n; the target lies in (lo, hi] once rate(hi) reaches it
    lo, hi = 0, 1
    while rate(hi) < target_rate:
        if hi >= max_n:
            raise SearchLimitExceeded(
                f"no n <= {max_n} reached target rate {target_rate} (trials={trials})"
            )
        lo, hi = hi, min(2 * hi, max_n)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if rate(mid) >= target_rate:
            hi = mid
        else:
            lo = mid
    req = n_required(kk, d)
    return MinNSearch(
        n_star=hi,
        rate_at_n_star=rate(hi),
        rate_below=rate(lo),
        n_required=req,
        within_required=hi <= req,
    )
