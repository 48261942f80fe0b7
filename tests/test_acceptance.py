"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import itertools
import math
import random
import warnings
from fractions import Fraction

import dispgrid as dg
from dispgrid.cli import main as cli_main

from oracles import brute_force_hit_probability, coverage_failure_probability


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} [{name}]: {verdict}{suffix}")


def test_criterion_1_hit_probability_audit():
    audits_ok = True
    for k, d in itertools.product((2, 3), (1, 2, 3)):
        audit = dg.audit_hit_probabilities(k, d)
        audits_ok &= audit.passed
        audits_ok &= audit.min_hit_probability > dg.min_hit_probability_bound(k)
    formula_ok = True
    for k, d in itertools.product((2, 3), (1, 2)):
        for cls in dg.enumerate_feasible_classes(k, d):
            formula_ok &= dg.hit_probability(cls) == brute_force_hit_probability(
                cls.core_box(), k, d
            )
    ok = audits_ok and formula_ok
    report(1, "hit-probability audit", ok)
    assert ok


def test_criterion_2_factor_inequality():
    all_hold = all(dg.check_hit_factor_inequality(k).holds for k in range(2, 21))
    check2 = dg.check_hit_factor_inequality(2)
    margins_ok = (
        abs(check2.lhs_min - 2 / 9) <= 1e-12 and abs(check2.rhs - 21 / 128) <= 1e-12
    )
    ok = all_hold and margins_ok
    report(2, "factor inequality k=2..20", ok, f"k=2 margin {check2.margin:.6f}")
    assert ok


def test_criterion_3_sample_size_formula():
    n_ok = dg.n_required(2, 2) == 2048
    ln_value = dg.ln_union_failure_bound(2, 2, 2048)
    ln_ok = abs(ln_value - (32 * math.log(2) - 32)) <= 1e-9
    ok = n_ok and ln_ok
    report(3, "sample-size formula", ok, f"n_required=2048, ln bound {ln_value:.5f}")
    assert ok


def test_criterion_4_construction_succeeds_at_sufficient_n():
    summary = dg.monte_carlo_success(2, 2, 2048, trials=200, master_seed=20240)
    ok = summary.success_rate == 1.0 and summary.successes == 200
    report(4, "construction at sufficient n", ok, f"rate {summary.success_rate}")
    assert ok


def test_criterion_5_exact_failure_vs_bound():
    expected = {1: Fraction(1), 3: Fraction(7, 9), 4: Fraction(45, 81)}
    ok = True
    for n in range(1, 7):
        value = dg.exact_failure_probability(2, 1, n)
        ok &= value == coverage_failure_probability(2, n)
        if n in expected:
            ok &= value == expected[n]
        cap = min(1.0, math.exp(dg.ln_union_failure_bound(2, 1, n)))
        ok &= float(value) <= cap
    report(5, "exact failure probability vs bound", ok)
    assert ok


def test_criterion_6_certificate_soundness():
    rng = random.Random(777)
    violations = 0
    passes = 0
    for _ in range(500):
        k = rng.choice([2, 3])
        d = rng.choice([1, 2])
        n = rng.randrange(3, 13)
        pts = dg.sample_grid_points(k, d, n, seed=rng.randrange(2**32))
        if dg.certify_dispersion(pts, k).passed:
            passes += 1
            if dg.largest_empty_box(pts).volume > Fraction(1, 2**k):
                violations += 1
    ok = violations == 0 and passes > 0
    report(6, "certificate soundness", ok, f"{passes} passes, {violations} violations")
    assert ok


def test_criterion_7_dispersion_ground_truth():
    full = dg.largest_empty_box(dg.full_grid(2, 2)).volume == Fraction(1, 4)
    empty = dg.largest_empty_box(dg.PointSet.from_numerators(2, 2, [])).volume == 1
    mid = dg.largest_empty_box(
        dg.PointSet.from_numerators(2, 1, [(2,)])
    ).volume == Fraction(1, 2)
    ok = full and empty and mid
    report(7, "dispersion ground truth", ok)
    assert ok


def test_criterion_8_bound_table_identities():
    values_ok = (
        dg.points_for_dispersion(Fraction(1, 4), 2) == 18432
        and dg.points_for_dispersion_coarse(Fraction(1, 4), 2) == 32768
        and dg.points_for_dispersion_lineardim(Fraction(1, 4), 2) == 1536
    )
    eps_grid = [0.001 + i * (0.498 / 99) for i in range(100)]
    d_grid = [2, 10, 100, 1000, 10000]
    dominance_ok = all(
        dg.points_for_dispersion(eps, d) <= dg.points_for_dispersion_coarse(eps, d)
        for eps in eps_grid
        for d in d_grid
    )
    ns = [int(10 ** (3 + i / 2)) for i in range(9)]
    sandwich_ok = all(
        dg.dispersion_lower_bound(n, d) <= dg.dispersion_upper_bound(n, d)
        for n in ns
        for d in (2, 10, 100)
    )
    ok = values_ok and dominance_ok and sandwich_ok
    report(8, "bound-table identities", ok)
    assert ok


def test_criterion_9_mc_determinism_across_threads(tmp_path):
    # the CLI runs one thread; the library's threads= is a deprecated no-op
    base = ["mc", "--k", "2", "--d", "1", "--n", "3", "--trials", "400", "--seed", "31"]
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    code1 = cli_main(base + ["--out", str(out1)])
    code2 = cli_main(base + ["--out", str(out2)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        threaded = dg.monte_carlo_success(2, 1, 3, 400, 31, threads=8)
    successes = out1.read_text().splitlines()[-1].split(",")[4]
    ok = (
        code1 == 0 and code2 == 0 and out1.read_bytes() == out2.read_bytes()
        and successes == str(threaded.successes)
    )
    report(9, "mc determinism across threads", ok)
    assert ok
