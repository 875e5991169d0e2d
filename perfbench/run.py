"""kmerwait benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kmerwait checkout; the library is imported from its
``src`` directory.  One caller, a closed loop: each query is sent after the
previous one returned, nothing runs concurrently, and BLAS is pinned to one
thread.  Queries run in rounds (see round.py), one fresh interpreter per
round, one round after the other, while another round fits in
``--seconds`` (at least one).  A query's latency is its fastest round.

Every answer is checked against an independent route outside the timed
calls.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of one extra traced round
with ``--trace 1``.  The lines before it list the environment and every
metric with its unit; the run record, and with ``--trace 1`` the spans, go
to ``perfbench/out``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

# fresh interpreters timed for setup_s: half before the rounds, half after,
# so that the median does not hang on the host's speed in one moment
SETUP_REPEATS = 8
# a run must end within 180 s; a round still going at this mark is killed
# and the run exits without a result
DEADLINE_S = 170
SETUP_PROBE = ("import kmerwait.cli\n"
               "from kmerwait.evolution import load_params\n"
               "load_params(%r)\n")


def _percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least a share q
    of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def measure_setup(params_name, count):
    """Wall times of fresh interpreters that import the command line
    package and load the parameters, that is, everything a user waits for
    before the first query."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE % params_name],
                       env=env, cwd=str(ROOT), check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def environment(seed):
    import mpmath
    import numpy

    import kmerwait.gfcore

    digest = hashlib.sha256()
    for path in sorted((SRC / "kmerwait").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              stdin=subprocess.DEVNULL)
        commit = done.stdout.strip() or None
    backend = type(kmerwait.gfcore.QONE)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "exact_backend": "%s.%s" % (backend.__module__, backend.__qualname__),
    }


def run_round(workload, seed, round_no, trace, deadline):
    """Run one round in a fresh interpreter and return its report."""
    done = subprocess.run(
        [sys.executable, str(HERE / "round.py"), "--workload", workload,
         "--seed", str(seed), "--round", str(round_no),
         "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True,
        stdin=subprocess.DEVNULL,
        timeout=max(1.0, deadline - time.perf_counter()))
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError("round %d of %s exited with %d"
                           % (round_no, workload, done.returncode))
    report = json.loads(done.stdout)
    report["wrong"] = {int(k): v for k, v in report["wrong"].items()}
    return report


class Outcome:
    """Latencies and failures of every query execution of a run."""

    def __init__(self, plan):
        self.plan = plan
        self.best = {}      # qid -> fastest latency over the run's rounds
        self.attempted = 0
        self.failures = []  # (round, label, reason)
        self.wrong = 0      # answers returned but wrong

    def add(self, round_no, report, timed=True):
        for qid, seconds, error in report["calls"]:
            self.attempted += 1
            if timed:
                self.best[qid] = min(seconds, self.best.get(qid, seconds))
            if error is not None:
                self.failures.append((round_no, self.plan[qid].label, error))
        for qid, reason in sorted(report["wrong"].items()):
            self.failures.append((round_no, self.plan[qid].label,
                                  "wrong answer: " + reason))
            self.wrong += 1

    def latencies(self, kind=None):
        return [t for qid, t in sorted(self.best.items())
                if kind is None or self.plan[qid].kind == kind]


def end_to_end(outcome, setup_s):
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(outcome.latencies()), "s"),
        "ok_frac": (1 - len(outcome.failures) / outcome.attempted, "ratio"),
        "peak_rss_mb": (peak, "MB"),
    }


def by_kind(outcome):
    """Figures per query kind, printed and recorded but not gated: their
    run-to-run spread on a shared host exceeds any bound worth having."""
    out = {"failed_frac": (len(outcome.failures) / outcome.attempted,
                           "ratio")}
    wait = outcome.latencies("wait")
    if wait:
        out["wait_p50_s"] = (_percentile(wait, 0.5), "s")
        out["wait_p90_s"] = (_percentile(wait, 0.9), "s")
    scans = [(q.info["words"], outcome.best[q.qid]) for q in outcome.plan
             if q.kind == "scan"]
    if scans:
        out["scan_words_per_s"] = (sum(w for w, _ in scans)
                                   / sum(t for _, t in scans), "words/s")
    for kind in ("asym", "gf"):
        lat = outcome.latencies(kind)
        if lat:
            out[kind + "_s"] = (statistics.mean(lat), "s")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not (SRC / "kmerwait" / "__init__.py").is_file():
        print("run.py: no kmerwait sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("run.py: unknown workload %r (known: %s)" % (
            args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    env = environment(args.seed)
    setup_samples = []
    if not args.trace:
        setup_samples = measure_setup(workload.params_name,
                                      SETUP_REPEATS // 2)

    # Rounds repeat while another one fits in --seconds, and each query is
    # credited with its fastest round.  A traced run makes one untraced
    # round, then the traced one.
    outcome = Outcome(workload.plan)
    walls = []
    begin = time.perf_counter()
    while True:
        started = time.perf_counter()
        report = run_round(args.workload, args.seed, len(walls), 0,
                           deadline)
        outcome.add(len(walls), report)
        walls.append(report["wall"])
        took = time.perf_counter() - started
        if args.trace or time.perf_counter() - begin + took > args.seconds:
            break

    if not args.trace:
        setup_samples += measure_setup(workload.params_name,
                                       SETUP_REPEATS - len(setup_samples))
    record = {"workload": args.workload, "seed": args.seed, "env": env,
              "inputs": workload.inputs(), "round_walls": walls,
              "setup_samples": setup_samples}
    OUT.mkdir(exist_ok=True)
    if args.trace:
        report = run_round(args.workload, args.seed, 0, 1, deadline)
        outcome.add(len(walls), report, timed=False)
        spans = report.pop("spans")
        metrics = tracing.per_layer(spans, report["wall"], walls[0])
        record["traced_wall"] = report["wall"]
        with open(OUT / ("trace-%s-s%d.json" % (args.workload, args.seed)),
                  "w") as fh:
            json.dump({"env": env, "workload": args.workload,
                       "fields": ["name", "start", "end", "parent", "query",
                                  "facts"],
                       "queries": [q.label for q in workload.plan],
                       "spans": spans}, fh)
    else:
        metrics = end_to_end(outcome, statistics.median(setup_samples))
    detail = by_kind(outcome)
    record["best_latency"] = {q.label: outcome.best[q.qid]
                              for q in workload.plan}
    record["failures"] = outcome.failures
    record["metrics"] = metrics
    record["by_kind"] = detail
    with open(OUT / ("run-%s-s%d-t%d.json" % (args.workload, args.seed,
                                              args.trace)), "w") as fh:
        json.dump(record, fh, indent=1)

    for round_no, label, reason in outcome.failures:
        print("failed: round %d, %s: %s" % (round_no, label, reason),
              file=sys.stderr)
    print("env %s" % json.dumps(env, sort_keys=True))
    print("workload %s, seed %d: %d untraced round(s)%s, %d queries asked, "
          "%d failed" % (args.workload, args.seed, len(walls),
                         " and 1 traced" if args.trace else "",
                         outcome.attempted, len(outcome.failures)))
    for name, (value, unit) in list(metrics.items()) + list(detail.items()):
        print("  %-44s %.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": outcome.wrong == 0,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
