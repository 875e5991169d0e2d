"""Self-test of the benchmark.

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

For each workload it makes one untraced and two traced runs with one seed
(one round each) and asserts that

- every answer check passed,
- the untraced run prints exactly the end-to-end metrics of BENCHMARK.json
  and the traced runs exactly its per-layer metrics, with their units,
- the computed work counts (calls, states, flops, tensor sizes, steps)
  of the two traced runs are identical,
- the library spans account for the traced round's query time.

Run it from the root of the checkout.  It takes a few minutes.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_UNITS = ("count", "flop", "MB")


def run(workload, seed, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def units(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        plain = run(workload, args.seed, 0)
        first = run(workload, args.seed, 1)
        second = run(workload, args.seed, 1)
        for label, result in (("untraced", plain), ("traced", first),
                              ("traced again", second)):
            if not result["correct"]:
                problems.append("%s %s: an answer check failed"
                                % (workload, label))
        if units(plain) != end_to_end:
            problems.append("%s: end-to-end metrics differ from "
                            "BENCHMARK.json" % workload)
        if units(first) != per_layer:
            problems.append("%s: per-layer metrics differ from "
                            "BENCHMARK.json" % workload)
        counts = sorted(k for k, u in per_layer.items() if u in COUNT_UNITS)
        for name in counts:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                problems.append("%s: %s is %r, then %r" % (workload, name,
                                                           a, b))
        for result in (first, second):
            coverage = result["metrics"]["trace.coverage"]["value"]
            if not 0.99 <= coverage <= 1.01:
                problems.append("%s: span self times cover %.4f of the "
                                "traced round" % (workload, coverage))
        print("%s: %d counts compared, %s" % (
            workload, len(counts), "ok" if not problems else "problems"))
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
