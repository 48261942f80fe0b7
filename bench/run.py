"""Benchmark of dispgrid's user paths, run from the root of a checkout.

    python3 bench/run.py --workload gen-highd --seed 0 --seconds 15 --trace 0

One process runs one workload as a closed loop: a single caller makes one
call at a time and waits for it. With ``--trace 0`` it prints the end-to-end
metrics (seconds per call, set-up seconds, peak resident memory). With
``--trace 1`` it runs every call once untraced and once with the span tracer
of ``spans.py`` installed, and prints the per-layer split. The last line of
standard output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
OUT_DIR = ".bench_out"

# The layer that owns a span's self time.
SELF_LAYER = {
    "bench.op": "bench",
    spans.SPAN_NAMES["generate_certified"]: "construct.sample",
    spans.SPAN_NAMES["monte_carlo_success"]: "construct.sample",
    spans.SPAN_NAMES["certify_dispersion"]: "construct.hit",
    spans.SPAN_NAMES["largest_empty_box"]: "empty_box.scan",
    spans.SPAN_NAMES["exact_failure_probability"]: "probability.self",
}


def load_spec() -> dict:
    """Metric names and units, from BENCHMARK.json at the checkout root."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def import_package():
    """Import dispgrid from this checkout's ``src``; None when the sources are absent."""
    src = ROOT / "src"
    if not (src / "dispgrid" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import dispgrid

    if Path(dispgrid.__file__).resolve().parent != (src / "dispgrid").resolve():
        return None
    return dispgrid


def load_expected() -> dict:
    with open(HERE / "expected.json") as fh:
        return json.load(fh)


def upper_quartile(times) -> float:
    """The call time that three calls in four beat.

    Host speed drifts with short bursts of speed-up on a slower baseline, so
    the upper quartile of a run tracks the baseline and varies less from run
    to run than the median.
    """
    return statistics.quantiles(times, n=4, method="inclusive")[2] if len(times) > 1 else times[0]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Loop:
    """Runs and checks ops of one workload, counting attempts and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def one(self, i, call) -> float:
        """Time and check op ``i``; returns its wall seconds."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = call(i)
        except Exception as exc:  # a failed op is counted, the run goes on
            elapsed = time.perf_counter() - t0
            self.fail(f"op {i}: {type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - t0
        errors = self.workload.check(i, result)
        if errors:
            self.fail(f"op {i}: " + "; ".join(errors))
        return elapsed

    def fail(self, message):
        self.failed += 1
        print(f"FAIL {self.workload.name} {message}", file=sys.stderr)

    def until(self, seconds, call):
        """Ops 0, 1, ... until ``seconds`` have passed; at least one."""
        times = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < seconds:
            times.append(self.one(len(times), call))
        return times


def op_layers(records, workload) -> dict:
    """Per op: the layer metrics of its spans."""
    acc = defaultdict(lambda: defaultdict(float))
    for r in records:
        a = acc[r["op"]]
        a[SELF_LAYER[r["name"]]] += r["self_cpu"]
        a["attributed"] += r["self_cpu"] + r["overhead_cpu"]
        for leaf, (cpu, count) in r["leaves"].items():
            a[leaf + ".s"] += cpu
            a[leaf + ".n"] += count
            a["attributed"] += cpu
        attrs = r["attrs"]
        if r["name"] == spans.SPAN_NAMES["certify_dispersion"]:
            a["certify_calls"] += 1
            a["passed"] += attrs["passed"]
            a["checked"] += attrs["classes_checked"]
        elif r["name"] == spans.SPAN_NAMES["generate_certified"]:
            a["generate_calls"] += 1
            a["attempts"] += attrs["attempts"]
        elif r["name"] == "bench.op":
            a["wall"] += r["end"] - r["start"]

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for op, a in acc.items():
        m = {
            "partition.enum_s": a[spans.LEAF_ENUM + ".s"],
            "partition.classes": a[spans.LEAF_ENUM + ".n"],
            "partition.core_box_s": a[spans.LEAF_CORE_BOX + ".s"],
            "construct.hit_s": a["construct.hit"],
            "construct.sample_s": a["construct.sample"],
            "grid.pointset_s": a[spans.LEAF_POINTSET + ".s"],
            "construct.certify_calls": a["certify_calls"],
            "construct.pass_ratio": ratio(a["passed"], a["certify_calls"]),
            "construct.classes_checked_mean": ratio(a["checked"], a["certify_calls"]),
            "construct.attempts": ratio(a["attempts"], a["generate_calls"]),
            "empty_box.threshold_calls": a[spans.LEAF_THRESHOLD + ".n"],
            "empty_box.threshold_s": a[spans.LEAF_THRESHOLD + ".s"],
            "probability.self_s": a["probability.self"],
        }
        m["partition.classes_per_s"] = ratio(m["partition.classes"], m["partition.enum_s"])
        candidates = workload.layer_counts(op).get("candidates")
        if candidates is not None:
            kind = workload.key  # "grid" or "real"
            m[f"empty_box.candidates_{kind}"] = candidates
            m[f"empty_box.candidates_per_s_{kind}"] = ratio(candidates, a["empty_box.scan"])
        out[op] = (m, a["attributed"], a["wall"])
    return out


def traced_run(dg, workload, loop, seconds, seed):
    """Each op untraced and traced, in alternating order; returns the per-layer metrics.

    Pairing the two runs of one op keeps drifts in machine speed out of the
    overhead estimate. On mc-threshold each op also runs with one thread.
    """
    before = spans.snapshot_targets(dg)
    tracer = spans.Tracer(dg)

    def traced(i):
        with tracer.installed():
            return tracer.run_op(i, workload.call, i)

    def single(i):
        return workload.call(i, threads=1)

    mc = workload.key == "mc"
    plain, with_trace, one_thread = [], [], []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        i = len(plain)
        order = ((plain, workload.call), (with_trace, traced))
        for times, call in order if i % 2 == 0 else order[::-1]:
            times.append(loop.one(i, call))
        if mc:
            one_thread.append(loop.one(i, single))
        left = spans.restored(dg, before)
        if left:
            loop.fail("tracer left wrappers in place: " + ", ".join(left))
            break

    metrics = {
        "trace.overhead_frac": statistics.median(t / p for t, p in zip(with_trace, plain)) - 1.0,
    }
    if mc:
        trials = workload.params["trials"] * len(plain)
        metrics["construct.mc_trials_per_s"] = trials / sum(plain)
        metrics["construct.mc_trials_per_s_1t"] = trials / sum(one_thread)
        metrics["construct.thread_speedup"] = statistics.median(
            s / p for s, p in zip(one_thread, plain)
        )

    records = tracer.records()
    per_op = op_layers(records, workload)
    for name in next(iter(per_op.values()))[0] if per_op else ():
        metrics[name] = statistics.median(m[name] for m, _, _ in per_op.values())
    attributed = sum(v[1] for v in per_op.values())
    wall = sum(v[2] for v in per_op.values())
    metrics["trace.unattributed_frac"] = (wall - attributed) / wall if wall else 0.0

    out = ROOT / OUT_DIR
    out.mkdir(exist_ok=True)
    with open(out / f"spans-{workload.name}-seed{seed}.json", "w") as fh:
        json.dump({"workload": workload.name, "seed": seed, "spans": records}, fh)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)

    dg = import_package()
    if dg is None:
        print(f"error: no dispgrid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0
    spec = load_spec()

    workload = WORKLOADS[args.workload](dg, args.size, args.seed, load_expected())
    builds = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.build()
        builds.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(builds)

    loop = Loop(workload)
    if args.trace:
        values = traced_run(dg, workload, loop, args.seconds, args.seed)
    else:
        times = loop.until(args.seconds, workload.call)
        values = {
            "call_p75_s": upper_quartile(times),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
        }
    finish_errors = workload.finish()
    for message in finish_errors:
        print(f"FAIL {workload.name} {message}", file=sys.stderr)

    # a layer the workload does not exercise reports 0
    units = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": loop.failed == 0 and not finish_errors,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
