"""Tests of the benchmark itself, at toy size.

    python3 -m pytest bench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

dg = run.import_package()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert SPEC["command"][1] == "bench/run.py"
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_toy_run(workload, trace):
    res = result_of(bench("--workload", workload, "--seed", "0", "--seconds", "0.2",
                          "--trace", trace, "--size", "toy"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    key = "per_layer" if trace == "1" else "end_to_end"
    assert {m["name"]: m["unit"] for m in SPEC[key]} == {
        name: v["unit"] for name, v in res["metrics"].items()
    }
    values = {name: v["value"] for name, v in res["metrics"].items()}
    if trace == "0":
        assert all(v > 0 for v in values.values())
        return
    exercised = {
        "gen-highd": ["partition.classes", "construct.attempts", "grid.pointset_s"],
        "certify-dense": ["partition.enum_s", "partition.core_box_s", "construct.hit_s"],
        "mc-threshold": ["construct.certify_calls", "construct.sample_s",
                         "construct.mc_trials_per_s_1t", "construct.thread_speedup"],
        "oracle-grid": ["empty_box.candidates_grid", "empty_box.candidates_per_s_grid"],
        "oracle-real": ["empty_box.candidates_real", "empty_box.candidates_per_s_real"],
        "oracle-prob": ["empty_box.threshold_calls", "probability.self_s"],
    }[workload]
    assert all(values[name] > 0 for name in exercised)
    spans_file = ROOT / run.OUT_DIR / f"spans-{workload}-seed0.json"
    assert json.loads(spans_file.read_text())["spans"]


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "oracle-prob", "--seconds", "0.1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_restores_originals_even_after_an_error():
    before = spans.snapshot_targets(dg)
    tracer = spans.Tracer(dg)
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            assert dg.construct.certify_dispersion is not before[("dispgrid.construct", "certify_dispersion")]
            assert spans.restored(dg, before)
            1 / 0
    assert spans.restored(dg, before) == []


def test_threaded_spans_nest_under_the_monte_carlo_span():
    tracer = spans.Tracer(dg)
    with tracer.installed():
        summary = tracer.run_op(0, lambda: dg.monte_carlo_success(2, 2, 12, 16, 3, threads=2))
    assert spans.restored(dg, spans.snapshot_targets(dg)) == []
    records = tracer.records()
    mc = [r for r in records if r["name"] == spans.SPAN_NAMES["monte_carlo_success"]]
    certs = [r for r in records if r["name"] == spans.SPAN_NAMES["certify_dispersion"]]
    assert len(mc) == 1 and len(certs) == 16
    assert all(r["parent"] == mc[0]["id"] and r["op"] == 0 for r in certs)
    assert {r["thread"] for r in certs} - {mc[0]["thread"]}
    assert sum(r["attrs"]["passed"] for r in certs) == summary.successes
    # every class a certificate checked was yielded by a traced next
    enum = sum(r["leaves"].get(spans.LEAF_ENUM, [0, 0])[1] for r in certs)
    assert enum == sum(r["attrs"]["classes_checked"] for r in certs)
    # pool threads build their point sets outside any span of their own
    assert mc[0]["leaves"][spans.LEAF_POINTSET][1] == 16


def workload(name, expected=None, seed=0):
    w = WORKLOADS[name](dg, "toy", seed, run.load_expected() if expected is None else expected)
    w.build()
    return w


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_recorded_values_are_checked(name):
    w = workload(name)
    result = w.call(0)
    assert w.check(0, result) == []
    if name == "oracle-prob":
        w.expected = {"value": str(Fraction(1, 3))}
    else:
        w.recorded = [["tampered"]] * w.input_count()
    assert w.check(0, result)


def test_oracle_witness_must_be_empty():
    w = workload("oracle-grid")
    result = w.call(0)
    full = dg.Box.closed_box([0, 0], [1, 1])
    bad = type(result)(volume=result.volume, witness=full)
    errors = w.check_output(0, bad)
    assert any("holds" in e for e in errors) and any("volume" in e for e in errors)


def test_repeats_must_agree_on_unrecorded_seeds():
    w = workload("mc-threshold", expected={}, seed=12345)
    first = w.call(0)
    assert w.recorded is None and w.check(0, first) == []
    changed = type(first)(**{**first.__dict__, "successes": first.successes + 1})
    assert any("repeats" in e for e in w.check(0, changed))
