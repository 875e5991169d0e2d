"""One measured round of a benchmark workload, in a fresh interpreter.

    python3 perfbench/round.py --workload NAME --seed N --round K --trace 0|1

run.py starts one of these per round, so no cache of the library survives
from one round to the next; the round inherits run.py's environment, which
pins BLAS to one thread.  The round loads the parameters, then times
each query of the workload on its own, in the order the seed and the round
number give.  Afterwards, outside the timed calls, it checks the answers.
It prints one JSON object: per-query latencies and errors, the answers
that missed their checks, the round's time (the sum of its query
latencies), and with ``--trace 1`` the spans of every library call.
"""

import argparse
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_round(workload, round_no, tracer=None):
    from kmerwait import evolution

    calls = []
    values = {}
    clock = time.perf_counter
    params = evolution.load_params(workload.params_name)
    queries = workload.queries(params, round_no)
    for q in queries:
        if tracer is not None:
            tracer.query = q.qid
        start = clock()
        try:
            value = q.call()
        except Exception as exc:  # a raised error is a failed query
            calls.append([q.qid, clock() - start,
                          "%s: %s" % (type(exc).__name__, exc)])
            continue
        calls.append([q.qid, clock() - start, None])
        values[q.qid] = value
    if tracer is not None:
        tracer.query = None
    wall = sum(c[1] for c in calls)
    return wall, params, queries, calls, values


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    out = {}
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            with tracer.span("bench.round"):
                wall, params, queries, calls, values = run_round(
                    workload, args.round, tracer)
        finally:
            tracer.uninstall()
        out["spans"] = tracer.spans
    else:
        wall, params, queries, calls, values = run_round(workload,
                                                         args.round)
    out["wall"] = wall
    out["calls"] = calls
    out["wrong"] = workload.check(queries, values, params)
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
