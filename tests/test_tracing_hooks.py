"""The library names that the benchmark's span tracer (perfbench/tracing.py)
reads: TransferMatrix.rows for the nnz fact, the positional signature of
clump_moment_series for the span name, the (words, n, params) signature
of bnn_scan for its facts, and RatFun.dt_at_one as a method."""

import importlib.util
import json
from pathlib import Path

import kmerwait.languages  # noqa: F401  (the tracer wraps every layer)
from kmerwait import automata, evolution, gfcore

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks(table1, binu):
    tracing = _load_tracing()
    original = automata.transfer_matrix
    original_dt = vars(gfcore.RatFun)["dt_at_one"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        evolution.waiting_time("ACGTA", 1000, table1, "CLUMP")
        evolution.asymptotics("AAA", binu)
        ca = automata.clump_automaton("AAA", binu.alphabet)
        automata.gf_from_clump_automaton(ca, binu.nu).dt_at_one()
        automata.clump_moment_series(ca, binu.nu, 10, None, False)
        evolution.scan_kmers(3, 1000, table1)
    finally:
        tracer.uninstall()
    assert automata.transfer_matrix is original
    assert vars(gfcore.RatFun)["dt_at_one"] is original_dt

    spans = tracer.spans
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = tracing.per_layer(spans, 1.0, 1.0)
    assert list(layers) == [m["name"] for m in spec["per_layer"]]

    names = [s[tracing.NAME] for s in spans]
    build = "automata.transfer_matrix"
    builds = [s for s, name in zip(spans, names) if name == build]
    assert len(builds) == 2
    assert all(type(s[tracing.FACTS]["nnz"]) is int for s in builds)
    assert "automata.clump_moment_series.float" in names
    assert "gfcore.RatFun.dt_at_one" in names
    kids = tracing.children(spans)
    walk = names.index("automata.clump_moment_series.float")
    assert [names[j] for j in kids[walk]].count(build) == 1
    asym = names.index("evolution.asymptotics")
    assert build not in [names[j] for j in kids[asym]]
    scans = [s for s, name in zip(spans, names) if name == "automata.bnn_scan"]
    assert [s[tracing.FACTS] for s in scans] == [
        {"words": 64, "k": 3, "n": 1000}]
