"""In-memory span tracer that wraps dispgrid's public names from outside the package.

`Tracer.installed()` replaces selected functions of the imported package with
timing wrappers and puts the originals back when the block ends. Two kinds of
wrapper exist:

* a *span* wrapper (generate_certified, monte_carlo_success,
  certify_dispersion, largest_empty_box, exact_failure_probability) opens a
  frame that is kept as a span record: name, wall start and end, parent, op
  id and thread;
* a *leaf* wrapper (each ``next`` of enumerate_feasible_classes,
  BoxClass.core_box, PointSet.from_numerators, has_empty_box_above) is
  called too often to keep one record per call, so its time and call count
  are added to the frame it runs in.

Time is attributed in thread CPU seconds (``time.thread_time``): at every
wrapper boundary the CPU a thread used since its previous boundary is charged
to the innermost open frame on that thread. A worker thread with no open
frame (a Monte Carlo trial run by the thread pool) charges the innermost open
frame of the thread that started the op. Under the interpreter lock only one
thread computes at a time, so the charges of all threads add up to the op's
wall time even with two threads. The tracer's own bookkeeping is charged to a
separate ``overhead`` field of the frames.
"""

import contextlib
import itertools
import threading
import time
import types
from collections import defaultdict

_cpu = time.thread_time
_wall = time.perf_counter

# Frames whose self time belongs to a layer, by span name.
SPAN_NAMES = {
    "generate_certified": "construct.generate_certified",
    "monte_carlo_success": "construct.monte_carlo_success",
    "certify_dispersion": "construct.certify_dispersion",
    "largest_empty_box": "empty_box.largest_empty_box",
    "exact_failure_probability": "probability.exact_failure_probability",
}

LEAF_ENUM = "partition.enum"
LEAF_CORE_BOX = "partition.core_box"
LEAF_POINTSET = "grid.from_numerators"
LEAF_THRESHOLD = "empty_box.has_empty_box_above"


class Frame:
    """One open or closed span. Fields named ``x_*`` hold charges made by other threads."""

    __slots__ = (
        "id", "name", "op", "thread", "parent", "start", "end",
        "self_cpu", "overhead", "leaves", "x_cpu", "x_overhead", "x_leaves", "attrs",
    )

    def __init__(self, span_id, name, op, thread, parent, start):
        self.id = span_id
        self.name = name
        self.op = op
        self.thread = thread
        self.parent = parent
        self.start = start
        self.end = None
        self.self_cpu = 0.0
        self.overhead = 0.0
        self.leaves = defaultdict(lambda: [0.0, 0])
        self.x_cpu = 0.0
        self.x_overhead = 0.0
        self.x_leaves = defaultdict(lambda: [0.0, 0])
        self.attrs = {}

    def total_self(self) -> float:
        return self.self_cpu + self.x_cpu

    def total_overhead(self) -> float:
        return self.overhead + self.x_overhead

    def leaf_totals(self) -> dict:
        out = {name: list(v) for name, v in self.leaves.items()}
        for name, (cpu, count) in self.x_leaves.items():
            acc = out.setdefault(name, [0.0, 0])
            acc[0] += cpu
            acc[1] += count
        return out

    def record(self, origin: float) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "op": self.op,
            "thread": self.thread,
            "parent": self.parent,
            "start": self.start - origin,
            "end": self.end - origin,
            "self_cpu": self.total_self(),
            "overhead_cpu": self.total_overhead(),
            "leaves": self.leaf_totals(),
            "attrs": self.attrs,
        }


class _ThreadState:
    """Open frames of one thread, its CPU clock at the last boundary, and the
    tracer's own cost at that boundary, charged with the next one so that no
    bookkeeping runs after the clock is read."""

    __slots__ = ("tid", "stack", "last", "pending")

    def __init__(self, tid, last):
        self.tid = tid
        self.stack = []
        self.last = last
        self.pending = 0.0


class _CountingIterator:
    """Iterator over a class enumeration that charges each ``next`` as a leaf."""

    __slots__ = ("_tracer", "_it")

    def __init__(self, tracer, it):
        self._tracer = tracer
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        st, frame, t0 = tracer._leaf_enter()
        try:
            item = next(self._it)
        except StopIteration:
            tracer._leaf_exit(st, frame, t0, LEAF_ENUM, 0)
            raise
        tracer._leaf_exit(st, frame, t0, LEAF_ENUM, 1)
        return item


class Tracer:
    """Keeps spans in memory; install wrappers with ``installed()``."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.origin = _wall()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op = None
        self._op_state = None
        self._originals = []

    # -- per-thread bookkeeping ------------------------------------------

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            # a thread seen for the first time has used CPU since it started
            st = self._local.st = _ThreadState(threading.get_ident(), 0.0)
        return st

    def _target(self, st):
        if st.stack:
            return st.stack[-1]
        if self._op_state is not None and self._op_state.stack:
            return self._op_state.stack[-1]
        return None

    def _charge(self, st, frame, cpu, overhead, leaf=None, leaf_cpu=0.0, leaf_count=0):
        if frame is None:
            return
        if frame.thread == st.tid:
            frame.self_cpu += cpu
            frame.overhead += overhead
            if leaf is not None:
                acc = frame.leaves[leaf]
                acc[0] += leaf_cpu
                acc[1] += leaf_count
            return
        with self._lock:
            frame.x_cpu += cpu
            frame.x_overhead += overhead
            if leaf is not None:
                acc = frame.x_leaves[leaf]
                acc[0] += leaf_cpu
                acc[1] += leaf_count

    def _leaf_enter(self):
        t0 = _cpu()
        st = self._state()
        frame = self._target(st)
        return st, frame, t0

    def _leaf_exit(self, st, frame, t0, name, count):
        t1 = _cpu()
        self._charge(st, frame, t0 - st.last, st.pending, name, t1 - t0, count)
        t2 = _cpu()
        st.pending = t2 - t1
        st.last = t2

    def _open(self, name):
        t0 = _cpu()
        st = self._state()
        parent = self._target(st)
        self._charge(st, parent, t0 - st.last, st.pending)
        frame = Frame(
            next(self._ids), name, self._op, st.tid,
            parent.id if parent is not None else None, _wall(),
        )
        st.stack.append(frame)
        t1 = _cpu()
        st.pending = t1 - t0
        st.last = t1
        return st, frame

    def _close(self, st, frame):
        t0 = _cpu()
        frame.self_cpu += t0 - st.last
        frame.overhead += st.pending
        frame.end = _wall()
        st.stack.pop()
        self.spans.append(frame)
        t1 = _cpu()
        st.pending = t1 - t0
        st.last = t1

    # -- ops --------------------------------------------------------------

    def run_op(self, op_id, fn, *args):
        """Run one benchmark operation under a root span named ``bench.op``."""
        self._op = op_id
        st = self._state()
        st.last = _cpu()
        st.pending = 0.0
        self._op_state = st
        st, frame = self._open("bench.op")
        try:
            return fn(*args)
        finally:
            self._close(st, frame)
            self._op_state = None
            self._op = None

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn, annotate=None):
        def wrapper(*args, **kwargs):
            st, frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(st, frame)
            if annotate is not None:
                frame.attrs.update(annotate(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            st, frame, t0 = self._leaf_enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leaf_exit(st, frame, t0, name, 1)

        wrapper.__wrapped__ = fn
        return wrapper

    def _enum_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            return _CountingIterator(self, fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    def _replacements(self):
        pkg = self.package
        construct = pkg.construct
        return {
            "generate_certified": self._span_wrapper(
                SPAN_NAMES["generate_certified"], construct.generate_certified,
                lambda r: {"attempts": r.attempts},
            ),
            "monte_carlo_success": self._span_wrapper(
                SPAN_NAMES["monte_carlo_success"], construct.monte_carlo_success,
                lambda r: {"trials": r.trials, "successes": r.successes},
            ),
            "certify_dispersion": self._span_wrapper(
                SPAN_NAMES["certify_dispersion"], construct.certify_dispersion,
                lambda r: {"passed": r.passed, "classes_checked": r.classes_checked},
            ),
            "largest_empty_box": self._span_wrapper(
                SPAN_NAMES["largest_empty_box"], pkg.empty_box.largest_empty_box
            ),
            "exact_failure_probability": self._span_wrapper(
                SPAN_NAMES["exact_failure_probability"],
                pkg.probability.exact_failure_probability,
            ),
            "has_empty_box_above": self._leaf_wrapper(
                LEAF_THRESHOLD, pkg.empty_box.has_empty_box_above
            ),
            "enumerate_feasible_classes": self._enum_wrapper(
                pkg.partition.enumerate_feasible_classes
            ),
        }

    def _patch(self, owner, attr, new):
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every module attribute of the package bound to one of the traced functions."""
        if self._originals:
            raise RuntimeError("tracer is already installed")
        pkg = self.package
        reps = self._replacements()
        originals = {name: rep.__wrapped__ for name, rep in reps.items()}
        try:
            for module in package_modules(pkg):
                for name, rep in reps.items():
                    if module.__dict__.get(name) is originals[name]:
                        self._patch(module, name, rep)
            box_class = pkg.partition.BoxClass
            core_box = box_class.__dict__["core_box"]
            self._patch(box_class, "core_box", self._leaf_wrapper(LEAF_CORE_BOX, core_box))
            point_set = pkg.grid.PointSet
            from_numerators = point_set.__dict__["from_numerators"]
            self._patch(
                point_set, "from_numerators",
                classmethod(self._leaf_wrapper(LEAF_POINTSET, from_numerators.__func__)),
            )
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def records(self) -> list:
        return [f.record(self.origin) for f in self.spans]


def package_modules(package) -> list:
    """The package and its imported submodules: every namespace a traced name may be bound in."""
    return [package] + [v for _, v in sorted(vars(package).items()) if isinstance(v, types.ModuleType)]


def snapshot_targets(package) -> dict:
    """Identity of every object the tracer may replace, for a restore check."""
    names = set(SPAN_NAMES) | {"has_empty_box_above", "enumerate_feasible_classes"}
    out = {}
    for module in package_modules(package):
        for name in names:
            if name in module.__dict__:
                out[(module.__name__, name)] = module.__dict__[name]
    out[("BoxClass", "core_box")] = package.partition.BoxClass.__dict__["core_box"]
    out[("PointSet", "from_numerators")] = package.grid.PointSet.__dict__["from_numerators"]
    return out


def restored(package, before: dict) -> list:
    """Names whose object differs from the snapshot; empty when everything is back."""
    after = snapshot_targets(package)
    return sorted(
        f"{owner}.{name}" for (owner, name), obj in before.items()
        if after.get((owner, name)) is not obj
    )
