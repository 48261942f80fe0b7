"""Alternate benchmark runs of two checkouts and compare their end-to-end metrics.

    python3 bench/compare.py PARENT_ROOT CHANGE_ROOT --workload gen-highd --seeds 10

Both roots must hold the same ``bench/`` and ``BENCHMARK.json``. Pair i uses
seed i for both sides; even pairs run the parent first, odd pairs the change.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def one_run(root: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{root}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{root}: incorrect output on seed {seed}\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    runs = {"parent": [], "change": []}
    for seed in range(args.seeds):
        order = ["parent", "change"] if seed % 2 == 0 else ["change", "parent"]
        for side in order:
            root = args.parent if side == "parent" else args.change
            runs[side].append(one_run(root, args.workload, seed, spec["run_seconds"]))

    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        p = [r[name] for r in runs["parent"]]
        c = [r[name] for r in runs["change"]]
        wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        for side, values in (("parent", p), ("change", c)):
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            print(f"{args.workload} {name} {side}: median {med:.6g} quartiles {q1:.6g} {q3:.6g}")
        print(f"{args.workload} {name}: change better in {wins}/{len(p)} pairs (bound {metric['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
