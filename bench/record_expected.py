"""Write ``expected.json``: the outputs of every workload input for the recorded seeds.

    python3 bench/record_expected.py

Run it from the root of a checkout whose outputs are known to be right, and
only when an output is meant to change; the benchmark compares every run on
a recorded seed with this file. Oracle workloads record volumes only, not
witness boxes, because ties between maximal boxes may resolve differently.
"""

import json
import sys

from run import HERE, import_package
from workloads import SIZES, WORKLOADS

SEEDS = {"full": range(10), "toy": range(1)}


def feasible_classes(dg, params) -> int:
    return sum(1 for _ in dg.enumerate_feasible_classes(params["k"], params["d"]))


def main() -> int:
    dg = import_package()
    if dg is None:
        print("error: no dispgrid sources in this checkout", file=sys.stderr)
        return 2
    out = {}
    for size, seeds in SEEDS.items():
        out[size] = {}
        for name, cls in WORKLOADS.items():
            entry = {}
            params = SIZES[size][cls.key]
            if cls.key in ("gen", "dense"):
                entry["feasible_classes"] = feasible_classes(dg, params)
            if cls.key == "prob":
                entry["value"] = str(dg.exact_failure_probability(params["k"], params["d"], params["n"]))
            else:
                entry["seeds"] = {}
                for seed in seeds:
                    w = cls(dg, size, seed, {})
                    w.build()
                    entry["seeds"][str(seed)] = [w.summary(w.call(j)) for j in range(w.input_count())]
                    print(f"{size} {name} seed {seed}", file=sys.stderr)
            out[size][name] = entry
    with open(HERE / "expected.json", "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
