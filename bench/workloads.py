"""The benchmark's workloads: inputs from a seed, one timed operation, output checks.

Every workload derives its inputs from the benchmark seed with numpy's
SeedSequence, so the same seed gives the same inputs; the library only sees
the generated inputs (point sets, or an integer seed for the calls that
sample internally). Operations cycle through a small pool of inputs, so
repeated calls never see one input only.

Checks are of two kinds. Seed-free checks run on every seed: shapes,
determinism across repeats of one input, witness boxes that really are empty
and have the claimed volume, a re-checked certificate. Recorded checks
compare with ``expected.json``, which holds the outputs of the seeds listed
there.
"""

import functools
import hashlib
import operator
from fractions import Fraction

import numpy as np

# Parameters per size. "full" is what the benchmark measures; "toy" exercises
# the same code paths in well under a second each, for the benchmark's tests.
SIZES = {
    "full": {
        "gen": {"k": 2, "d": 7, "inputs": 4},
        "dense": {"k": 5, "d": 2},
        "mc": {"k": 3, "d": 2, "n": 50, "trials": 256, "threads": 2, "inputs": 8},
        "grid": {"k": 3, "d": 4, "n": 18432, "inputs": 4},
        "real": {"d": 2, "n": 50, "inputs": 4},
        "prob": {"k": 2, "d": 2, "n": 7},
    },
    "toy": {
        "gen": {"k": 2, "d": 2, "inputs": 2},
        "dense": {"k": 2, "d": 2},
        "mc": {"k": 2, "d": 2, "n": 12, "trials": 8, "threads": 2, "inputs": 2},
        "grid": {"k": 2, "d": 2, "n": 12, "inputs": 2},
        "real": {"d": 2, "n": 8, "inputs": 2},
        "prob": {"k": 2, "d": 1, "n": 3},
    },
}


def derived_seed(seed: int, tag: int, index: int) -> int:
    """A 32-bit library seed for input ``index`` of workload ``tag``."""
    seq = np.random.SeedSequence(seed, spawn_key=(tag, index))
    return int(seq.generate_state(1, dtype=np.uint32)[0])


def derived_rng(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(tag, index))))


def point_array(points) -> np.ndarray:
    dtype = np.int64 if points.repr == "grid" else np.float64
    return np.asarray(points.points, dtype=dtype).reshape(points.n, points.dim)


def digest(points) -> str:
    arr = point_array(points)
    h = hashlib.sha256(f"{points.repr}:{points.k}:{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()[:16]


def box_inside_count(arr: np.ndarray, box, scale) -> int:
    """Points of ``arr`` inside ``box`` under its per-face openness flags.

    Grid points are numerators over ``scale``; box faces are multiplied by it
    so the comparison stays exact.
    """
    inside = np.ones(len(arr), dtype=bool)
    for axis in range(box.dim):
        lo, hi = box.lower[axis], box.upper[axis]
        if scale is not None:
            lo, hi = lo * scale, hi * scale
            if lo.denominator != 1 or hi.denominator != 1:
                raise ValueError("grid witness face off the grid")
            lo, hi = lo.numerator, hi.numerator
        col = arr[:, axis]
        inside &= (col > lo) if box.open_lower[axis] else (col >= lo)
        inside &= (col < hi) if box.open_upper[axis] else (col <= hi)
    return int(inside.sum())


def core_hits(arr: np.ndarray, lo: np.ndarray, hi: np.ndarray, chunk: int = 64) -> np.ndarray:
    """For each core box (rows of lo/hi, inclusive numerators), whether a point lies in it."""
    hit = np.zeros(len(lo), dtype=bool)
    for start in range(0, len(lo), chunk):
        l = lo[start:start + chunk, None, :]
        h = hi[start:start + chunk, None, :]
        inside = ((arr[None, :, :] >= l) & (arr[None, :, :] <= h)).all(axis=2)
        hit[start:start + chunk] = inside.any(axis=1)
    return hit


def candidate_count(points) -> int:
    """Candidate boxes of the exact oracle: per axis, pairs of distinct coordinates plus {0, 1}."""
    arr = point_array(points)
    ends = (0, 2**points.k) if points.repr == "grid" else (0.0, 1.0)
    total = 1
    for axis in range(points.dim):
        c = len(set(arr[:, axis].tolist()) | set(ends))
        total *= c * (c - 1) // 2
    return total


class Workload:
    """Base: ``build`` makes the inputs, ``call`` is one timed op, ``check`` tests its output."""

    name = ""
    tag = 0

    def __init__(self, dg, size: str, seed: int, expected: dict):
        self.dg = dg
        self.size = size
        self.seed = seed
        self.params = SIZES[size][self.key]
        self.expected = expected.get(size, {}).get(self.name, {})
        self.recorded = self.expected.get("seeds", {}).get(str(seed))
        self.inputs = []
        self.first = {}  # input index -> (summary, output) of its first op

    def build(self) -> None:
        """Create the input pool; called several times in set-up, so it must be repeatable."""

    def input_count(self) -> int:
        return len(self.inputs)

    def call(self, i: int):
        """The library call of op ``i``, looked up on the package at call time."""
        raise NotImplementedError

    def summary(self, result):
        """A comparable summary of one output, used for recorded and repeat checks."""
        raise NotImplementedError

    def check(self, i: int, result) -> list:
        """Failure messages for op ``i``; empty when the output is correct."""
        j = i % self.input_count()
        errors = self.check_output(j, result)
        got = self.summary(result)
        first = self.first.setdefault(j, (got, result))[0]
        if got != first:
            errors.append(f"input {j}: output differs between repeats: {got} vs {first}")
        if self.recorded is not None and got != self.recorded[j]:
            errors.append(f"input {j}: output {got} differs from the recorded {self.recorded[j]}")
        return errors

    def check_output(self, j: int, result) -> list:
        return []

    def finish(self) -> list:
        """Checks made once after the timed loop; failure messages."""
        return []

    def layer_counts(self, i: int) -> dict:
        """Per-op counts the benchmark computes from the input (not from the trace)."""
        return {}


class GenHighD(Workload):
    name = "gen-highd"
    key = "gen"
    tag = 1

    def build(self):
        p = self.params
        self.n = self.dg.n_required(p["k"], p["d"])
        self.inputs = [derived_seed(self.seed, self.tag, j) for j in range(p["inputs"])]

    def call(self, i):
        p = self.params
        seed = self.inputs[i % len(self.inputs)]
        return self.dg.generate_certified(p["k"], p["d"], self.n, seed)

    def summary(self, result):
        return [digest(result.points), result.attempts]

    def check_output(self, j, result):
        p = self.params
        pts = result.points
        errors = []
        if (pts.repr, pts.k, pts.dim, pts.n) != ("grid", p["k"], p["d"], self.n):
            errors.append(f"input {j}: wrong set shape {(pts.repr, pts.k, pts.dim, pts.n)}")
        if result.attempts < 1:
            errors.append(f"input {j}: attempts {result.attempts} < 1")
        return errors

    def finish(self):
        """Re-check the certificate of every generated set with an independent hit test."""
        p = self.params
        classes = list(self.dg.enumerate_feasible_classes(p["k"], p["d"]))
        errors = []
        want = self.expected.get("feasible_classes")
        if want is not None and len(classes) != want:
            errors.append(f"{len(classes)} feasible classes, expected {want}")
        lo = np.array([c.anchor for c in classes], dtype=np.int64)
        hi = lo + np.array([c.span for c in classes], dtype=np.int64) - 1
        for j, (_, result) in sorted(self.first.items()):
            missed = int((~core_hits(point_array(result.points), lo, hi)).sum())
            if missed:
                errors.append(f"input {j}: generated set misses {missed} core boxes")
        return errors


class CertifyDense(Workload):
    name = "certify-dense"
    key = "dense"
    tag = 2

    def build(self):
        p = self.params
        self.inputs = []  # release the previous sample before drawing the next
        n = self.dg.n_required(p["k"], p["d"])
        nums = derived_rng(self.seed, self.tag, 0).integers(1, 2 ** p["k"], size=(n, p["d"]))
        self.inputs = [self.dg.PointSet.from_numerators(p["k"], p["d"], nums.tolist())]

    def call(self, i):
        return self.dg.certify_dispersion(self.inputs[0], self.params["k"])

    def summary(self, result):
        return [result.passed, result.classes_checked]

    def check_output(self, j, result):
        total = self.expected.get("feasible_classes")
        errors = []
        if result.passed:
            if result.witness is not None:
                errors.append("passed certificate carries a witness")
            if total is not None and result.classes_checked != total:
                errors.append(f"passed after {result.classes_checked} classes, expected {total}")
        else:
            w = result.witness
            core = w.core_box()
            arr = point_array(self.inputs[0])
            inside = core_hits(arr, np.array([core.lo]), np.array([core.hi]))
            if inside[0]:
                errors.append(f"witness class {w} is hit by the sample")
            if total is not None and not 1 <= result.classes_checked <= total:
                errors.append(f"classes_checked {result.classes_checked} outside 1..{total}")
        return errors


class McThreshold(Workload):
    name = "mc-threshold"
    key = "mc"
    tag = 3

    def build(self):
        self.inputs = [derived_seed(self.seed, self.tag, j) for j in range(self.params["inputs"])]

    def call(self, i, threads=None):
        p = self.params
        return self.dg.monte_carlo_success(
            p["k"], p["d"], p["n"], p["trials"], self.inputs[i % len(self.inputs)],
            threads=p["threads"] if threads is None else threads,
        )

    def summary(self, result):
        return result.successes

    def check_output(self, j, r):
        p = self.params
        errors = []
        if (r.k, r.d, r.n, r.trials) != (p["k"], p["d"], p["n"], p["trials"]):
            errors.append(f"input {j}: summary echoes {(r.k, r.d, r.n, r.trials)}")
        if not 0 <= r.successes <= r.trials or r.success_rate != r.successes / r.trials:
            errors.append(f"input {j}: inconsistent rate {r.successes}/{r.trials}={r.success_rate}")
        if not r.ci_low <= r.success_rate <= r.ci_high:
            errors.append(f"input {j}: rate outside its interval [{r.ci_low}, {r.ci_high}]")
        return errors


class _Oracle(Workload):
    def call(self, i):
        return self.dg.largest_empty_box(self.inputs[i % len(self.inputs)])

    def check_output(self, j, result):
        pts = self.inputs[j]
        scale = 2**pts.k if pts.repr == "grid" else None
        box = result.witness
        errors = []
        inside = box_inside_count(self.arrays[j], box, scale)
        if inside:
            errors.append(f"input {j}: witness box holds {inside} points")
        sides = [hi - lo for lo, hi in zip(box.lower, box.upper)]
        if functools.reduce(operator.mul, sides) != result.volume:
            errors.append(f"input {j}: witness volume differs from {result.volume}")
        if not 0 < result.volume <= 1:
            errors.append(f"input {j}: volume {result.volume} outside (0, 1]")
        return errors

    def layer_counts(self, i):
        return {"candidates": self.candidates[i % len(self.inputs)]}

    def _finish_build(self):
        self.arrays = [point_array(p) for p in self.inputs]
        self.candidates = [candidate_count(p) for p in self.inputs]


class OracleGrid(_Oracle):
    name = "oracle-grid"
    key = "grid"
    tag = 4

    def build(self):
        p = self.params
        self.inputs = []
        for j in range(p["inputs"]):
            nums = derived_rng(self.seed, self.tag, j).integers(1, 2 ** p["k"], size=(p["n"], p["d"]))
            self.inputs.append(self.dg.PointSet.from_numerators(p["k"], p["d"], nums.tolist()))
        self._finish_build()

    def summary(self, result):
        return str(result.volume)


class OracleReal(_Oracle):
    name = "oracle-real"
    key = "real"
    tag = 5

    def build(self):
        p = self.params
        self.inputs = [
            self.dg.PointSet.from_reals(
                p["d"], derived_rng(self.seed, self.tag, j).random((p["n"], p["d"])).tolist()
            )
            for j in range(p["inputs"])
        ]
        self._finish_build()

    def summary(self, result):
        return float(result.volume).hex()


class OracleProb(Workload):
    name = "oracle-prob"
    key = "prob"
    tag = 6

    def build(self):
        # the instance is fixed: the exact probability has no randomness to seed
        self.inputs = [(self.params["k"], self.params["d"], self.params["n"])]

    def call(self, i):
        return self.dg.exact_failure_probability(*self.inputs[0])

    def summary(self, result):
        return str(result)

    def check_output(self, j, result):
        errors = []
        if not isinstance(result, Fraction) or not 0 <= result <= 1:
            errors.append(f"failure probability {result!r} is not a Fraction in [0, 1]")
        want = self.expected.get("value")
        if want is not None and str(result) != want:
            errors.append(f"failure probability {result} differs from the recorded {want}")
        return errors


WORKLOADS = {w.name: w for w in (GenHighD, CertifyDense, McThreshold, OracleGrid, OracleReal, OracleProb)}
