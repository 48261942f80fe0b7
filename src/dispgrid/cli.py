"""Command-line surface: reproducible runs of every library capability.

Every output starts with a metadata header (package version, command,
canonical config echo, RNG scheme where randomness is involved) sufficient
to reproduce the run byte-for-byte. Exit codes: 0 success, 2 usage error,
3 certificate or audit failure (or a min-n search that reaches --max-n),
4 enumeration guard exceeded, 5 I/O or parse error.
"""

import argparse
import csv
import io
import itertools
import json
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from . import __version__
from .bounds import bounds_table
from .construct import (
    RNG_SCHEME,
    CertificationError,
    SearchLimitExceeded,
    certify_dispersion,
    empirical_min_n,
    generate_certified,
    monte_carlo_success,
)
from .empty_box import largest_empty_box
from .grid import GRID_REPR, k_from_epsilon
from .guards import GuardExceeded
from .partition import count_audit
from .pointset_io import PointSetParseError, read_point_set, write_point_set
from .probability import audit_hit_probabilities, check_hit_factor_inequality

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CHECK_FAIL = 3
EXIT_GUARD = 4
EXIT_IO = 5

FORMATS = ("csv", "jsonl")


def _eps_value(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not (0 < value < Fraction(1, 2)):
        raise argparse.ArgumentTypeError(f"eps must lie in (0, 1/2), got {text}")
    return value


def _positive_int(name: str, minimum: int = 1):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{name} must be >= {minimum}, got {text}")
        return value

    return parse


def _target_value(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not (0.0 < value < 1.0):
        raise argparse.ArgumentTypeError(f"target rate must lie in (0, 1), got {text}")
    return value


def _int_list(name: str, minimum: int):
    inner = _positive_int(name, minimum)

    def parse(text: str) -> tuple[int, ...]:
        return tuple(inner(part) for part in text.split(","))

    return parse


def _eps_list(text: str) -> tuple[Fraction, ...]:
    return tuple(_eps_value(part) for part in text.split(","))


def _add_resolution_group(sub, *, required: bool = True):
    group = sub.add_mutually_exclusive_group(required=required)
    group.add_argument("--k", type=_positive_int("k", 2), help="grid resolution exponent (>= 2)")
    group.add_argument("--eps", type=_eps_value, help="target dispersion in (0, 1/2)")


def _add_output(sub):
    sub.add_argument("--out", dest="out_path", help="output path (default: stdout)")
    sub.add_argument("--format", dest="fmt", choices=FORMATS, default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dispgrid",
        description="dispersion-certified point sets on dyadic grids",
    )
    parser.add_argument("--version", action="version", version=f"dispgrid {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="emit a certified point set file")
    gen.set_defaults(run=_run_gen)
    _add_resolution_group(gen)
    gen.add_argument("--d", type=_positive_int("d"), required=True)
    gen.add_argument("--n", type=_positive_int("n"), required=True)
    gen.add_argument("--seed", type=_positive_int("seed", 0), required=True)
    gen.add_argument("--max-attempts", type=_positive_int("max-attempts"), default=64)
    gen.add_argument("--out", dest="out_path", required=True)
    gen.add_argument("--enum-limit", type=_positive_int("enum-limit"))

    cert = subs.add_parser("certify", help="check a point-set file against the certificate")
    cert.set_defaults(run=_run_certify)
    cert.add_argument("--in", dest="in_path", required=True)
    cert.add_argument("--k", type=_positive_int("k", 2),
                      help="resolution (default: from file header)")
    cert.add_argument("--confirm-exact", action="store_true",
                      help="on any outcome also run the exact empty-box oracle")
    cert.add_argument("--enum-limit", type=_positive_int("enum-limit"))

    disp = subs.add_parser("disp", help="exact dispersion of a point-set file")
    disp.set_defaults(run=_run_disp)
    disp.add_argument("--in", dest="in_path", required=True)
    disp.add_argument("--enum-limit", type=_positive_int("enum-limit"))

    mc = subs.add_parser("mc", help="Monte Carlo certificate success rate")
    mc.set_defaults(run=_run_mc)
    _add_resolution_group(mc)
    mc.add_argument("--d", type=_positive_int("d"), required=True)
    mc.add_argument("--n", type=_positive_int("n"), required=True)
    mc.add_argument("--trials", type=_positive_int("trials"), required=True)
    mc.add_argument("--seed", type=_positive_int("seed", 0), required=True)
    mc.add_argument("--enum-limit", type=_positive_int("enum-limit"))
    _add_output(mc)

    minn = subs.add_parser("min-n", help="empirical smallest n reaching a success target")
    minn.set_defaults(run=_run_min_n)
    _add_resolution_group(minn)
    minn.add_argument("--d", type=_positive_int("d"), required=True)
    minn.add_argument("--target", type=_target_value, required=True)
    minn.add_argument("--trials", type=_positive_int("trials"), required=True)
    minn.add_argument("--seed", type=_positive_int("seed", 0), required=True)
    minn.add_argument("--max-n", type=_positive_int("max-n"), default=1 << 20)
    minn.add_argument("--enum-limit", type=_positive_int("enum-limit"))
    _add_output(minn)

    bounds = subs.add_parser("bounds", help="sample-size bound table")
    bounds.set_defaults(run=_run_bounds)
    bounds.add_argument("--eps-list", type=_eps_list, required=True)
    bounds.add_argument("--d-list", type=_int_list("d", 2), required=True)
    _add_output(bounds)

    prob = subs.add_parser("prob-audit", help="hit-probability audit over feasible classes")
    prob.set_defaults(run=_run_prob_audit)
    prob.add_argument("--k-list", type=_int_list("k", 2), required=True)
    prob.add_argument("--d-list", type=_int_list("d", 1), required=True)
    prob.add_argument("--enum-limit", type=_positive_int("enum-limit"))
    _add_output(prob)

    count = subs.add_parser("count-audit", help="exact class counts vs. counting formulas")
    count.set_defaults(run=_run_count_audit)
    count.add_argument("--k-list", type=_int_list("k", 2), required=True)
    count.add_argument("--d-list", type=_int_list("d", 1), required=True)
    count.add_argument("--enum-limit", type=_positive_int("enum-limit"))
    _add_output(count)

    ineq = subs.add_parser("ineq-check", help="per-axis factor inequality across resolutions")
    ineq.set_defaults(run=_run_ineq_check)
    ineq.add_argument("--k-max", type=_positive_int("k", 2), default=20)
    _add_output(ineq)

    return parser


def parse_cli(argv) -> argparse.Namespace:
    """Parse and validate argv; a given eps is converted to k and both kept."""
    args = build_parser().parse_args(argv)
    if getattr(args, "eps", None) is not None:
        args.k = k_from_epsilon(args.eps).k
    return args


# Execution details that do not affect results, left out of the config echo.
_NOT_ECHOED = {"command", "run", "out_path", "enum_limit", "confirm_exact"}


def _config_echo(config: argparse.Namespace) -> str:
    """Canonical echo of every option that affects results, sorted by name."""
    parts = []
    for key, value in sorted(vars(config).items()):
        if key in _NOT_ECHOED or value is None:
            continue
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        parts.append(f"{key}={value}")
    return " ".join(parts)


def _meta_lines(config: argparse.Namespace) -> list[str]:
    lines = [
        f"dispgrid {__version__}",
        f"command: {config.command}",
        f"config: {_config_echo(config)}",
    ]
    if "seed" in config:
        lines.append(f"rng: {RNG_SCHEME}")
    return lines


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_cell(value):
    if isinstance(value, Fraction):
        return str(value)
    return value


def _write_table(rows: list[dict], config: argparse.Namespace, *, passed: bool = True) -> int:
    """Write the metadata header and one record per row; columns are the row keys, in order."""
    meta = _meta_lines(config)
    buffer = io.StringIO()
    if config.fmt == "csv":
        for line in meta:
            buffer.write(f"# {line}\n")
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow([_cell(value) for value in row.values()])
    else:
        buffer.write(json.dumps({"meta": meta}, sort_keys=True) + "\n")
        for row in rows:
            record = {key: _json_cell(value) for key, value in row.items()}
            buffer.write(json.dumps(record, sort_keys=True) + "\n")
    text = buffer.getvalue()
    if config.out_path:
        Path(config.out_path).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if passed else EXIT_CHECK_FAIL


def _run_gen(config: argparse.Namespace) -> int:
    try:
        result = generate_certified(
            config.k, config.d, config.n, config.seed,
            config.max_attempts, limit=config.enum_limit,
        )
    except CertificationError as exc:
        print(f"gen: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAIL
    points = result.points
    metadata = {
        "version": __version__,
        "config": _config_echo(config),
        "rng": RNG_SCHEME,
        "attempts": result.attempts,
        "distinct": points.distinct_count,
        "certified_dispersion_at_most": Fraction(1, 2**config.k),
    }
    write_point_set(points, config.out_path, metadata=metadata)
    print(
        f"certified {points.n} points (distinct {points.distinct_count}) with "
        f"dispersion <= 1/{2**config.k} after {result.attempts} attempt(s): {config.out_path}"
    )
    return EXIT_OK


def _run_certify(config: argparse.Namespace) -> int:
    points = read_point_set(config.in_path)
    if points.repr != GRID_REPR:
        print("certify: certificate requires a grid-valued point set", file=sys.stderr)
        return EXIT_IO
    k = config.k if config.k is not None else points.k
    cert = certify_dispersion(points, k, limit=config.enum_limit)
    print("\n".join(f"# {line}" for line in _meta_lines(config)))
    if cert.passed:
        print(f"pass: all {cert.classes_checked} core boxes hit; dispersion <= 1/{2**k}")
    else:
        witness = cert.witness
        print(
            f"fail: core box of class anchor={witness.anchor} span={witness.span} "
            f"missed after {cert.classes_checked} classes"
        )
        box = witness.empty_box()
        print(f"empty box: {box.format_text()} volume: {box.volume()}")
    if config.confirm_exact:
        exact = largest_empty_box(points, limit=config.enum_limit)
        print(f"exact dispersion: {exact.volume} witness: {exact.witness.format_text()}")
    return EXIT_OK if cert.passed else EXIT_CHECK_FAIL


def _run_disp(config: argparse.Namespace) -> int:
    points = read_point_set(config.in_path)
    result = largest_empty_box(points, limit=config.enum_limit)
    print("\n".join(f"# {line}" for line in _meta_lines(config)))
    print(f"dispersion: {result.volume}")
    print(f"witness: {result.witness.format_text()}")
    return EXIT_OK


def _run_mc(config: argparse.Namespace) -> int:
    summary = monte_carlo_success(
        config.k, config.d, config.n, config.trials, config.seed, limit=config.enum_limit
    )
    return _write_table([asdict(summary)], config)


def _run_min_n(config: argparse.Namespace) -> int:
    try:
        result = empirical_min_n(
            config.k, config.d, config.target, config.trials, config.seed,
            max_n=config.max_n, limit=config.enum_limit,
        )
    except SearchLimitExceeded as exc:
        print(f"min-n: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAIL
    search = {"k": config.k, "d": config.d, "target": config.target, "trials": config.trials}
    return _write_table([search | asdict(result)], config)


def _run_bounds(config: argparse.Namespace) -> int:
    rows = [asdict(row) for row in bounds_table(config.eps_list, config.d_list)]
    return _write_table(rows, config)


def _run_prob_audit(config: argparse.Namespace) -> int:
    audits = [
        audit_hit_probabilities(k, d, limit=config.enum_limit)
        for k, d in itertools.product(config.k_list, config.d_list)
    ]
    rows = [
        {"k": audit.k, "d": audit.d, "min_hit_probability": audit.min_hit_probability,
         "lower_bound": audit.lower_bound, "pass": audit.passed}
        for audit in audits
    ]
    return _write_table(rows, config, passed=all(audit.passed for audit in audits))


def _run_count_audit(config: argparse.Namespace) -> int:
    rows = [
        asdict(count_audit(k, d, limit=config.enum_limit))
        for k, d in itertools.product(config.k_list, config.d_list)
    ]
    return _write_table(rows, config)


def _run_ineq_check(config: argparse.Namespace) -> int:
    checks = [check_hit_factor_inequality(k) for k in range(2, config.k_max + 1)]
    rows = [
        {"k": check.k, "lhs_min": check.lhs_min, "rhs": check.rhs, "margin": check.margin,
         "min_j": check.min_j, "pass": check.holds}
        for check in checks
    ]
    return _write_table(rows, config, passed=all(check.holds for check in checks))


def run(config: argparse.Namespace) -> int:
    """Dispatch a validated config; exceptions map to the documented exit codes."""
    try:
        return config.run(config)
    except GuardExceeded as exc:
        print(f"{config.command}: guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (PointSetParseError, OSError) as exc:
        print(f"{config.command}: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"{config.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main(argv=None) -> int:
    try:
        config = parse_cli(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    return run(config)


def console() -> None:
    sys.exit(main(sys.argv[1:]))
