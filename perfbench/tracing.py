"""Span tracing of the kmerwait layers, installed from outside the library.

The tracer replaces every public function of the traced modules by a thin
wrapper that records one span per call: name, start, end, parent span and
the query id of the benchmark call that caused it.  The wrapper is set on
every module attribute that refers to the function, so a call through an
import site (``kmerwait.evolution.bnn_probability``) is traced exactly like
a call through the defining module (``kmerwait.automata.bnn_probability``).
Nothing in the library is edited, and ``uninstall`` restores every
attribute.  Spans stay in memory until the benchmark writes them out.

A few wrappers also note small facts about the call (a word length, an
automaton size) after the timed interval ends.  The per-layer work counts
are computed from those facts after the round, never inside a span.
"""

import contextlib
import functools
import inspect
import sys
import time

TRACED_MODULES = ("automata", "gfcore", "languages", "evolution", "words")
TRACED_METHODS = (("gfcore", "RatFun", "dt_at_one"),)

# span fields
NAME, START, END, PARENT, QUERY, FACTS = range(6)


def _moment_series_name(args, kwargs):
    exact = kwargs.get("exact", args[4] if len(args) > 4 else True)
    return "automata.clump_moment_series." + ("exact" if exact else "float")


def _moment_series_facts(args, kwargs, result):
    vectors = kwargs.get("mark_vectors", args[3] if len(args) > 3 else None)
    return {"n": args[2], "vectors": 1 if vectors is None else len(vectors)}


SPAN_NAMES = {"automata.clump_moment_series": _moment_series_name}

FACTS_OF = {
    "automata.kmp_automaton": lambda a, k, r: {"states": r.n_states},
    "automata.product": lambda a, k, r: {"states": r.n_states},
    "automata.clump_automaton": lambda a, k, r: {"states": r.dfa.n_states},
    "automata.transfer_matrix": lambda a, k, r: {
        "nnz": sum(len(row) for row in r.rows)},
    "automata.clump_moment_series": _moment_series_facts,
    "automata.bnn_probability": lambda a, k, r: {"n": a[1]},
    "automata.bnn_scan": lambda a, k, r: {
        "words": len(a[0]), "k": len(a[0][0]), "n": a[1]},
    "gfcore.bareiss_det": lambda a, k, r: {"n": len(a[0])},
}


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans = []
        self.query = None
        self._stack = []
        self._patches = []

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        rec = self._open(name)
        rec[START] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def _open(self, name):
        stack = self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.query, None]
        stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _wrap(self, name, fn):
        namer = SPAN_NAMES.get(name)
        facts = FACTS_OF.get(name)
        clock = time.perf_counter
        stack = self._stack
        opener = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = opener(name if namer is None else namer(args, kwargs))
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if facts is not None:
                rec[FACTS] = facts(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap the public functions of the traced modules at every site."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short in TRACED_MODULES:
            mod = sys.modules["kmerwait." + short]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(short + "." + attr, obj)
        sites = [m for name, m in sorted(sys.modules.items())
                 if m is not None and (name == "kmerwait"
                                       or name.startswith("kmerwait."))]
        for mod in sites:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for short, cls_name, meth in TRACED_METHODS:
            cls = getattr(sys.modules["kmerwait." + short], cls_name)
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(
                "%s.%s.%s" % (short, cls_name, meth), orig))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)


def self_times(spans):
    """Each span's duration minus the time its direct children cover.

    Calls are nested and single-threaded, so children never overlap and
    the subtraction is exact."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def children(spans):
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            kids[s[PARENT]].append(i)
    return kids


# per-layer metrics reported by a traced run, in BENCHMARK.json order
SELF_TIMED = (
    "automata.bnn_probability", "automata.bnn_scan", "automata.kmp_automaton",
    "automata.product", "automata.clump_automaton", "automata.state_marks",
    "automata.transfer_matrix", "automata.clump_moment_series.float",
    "automata.clump_moment_series.exact", "automata.gf_from_clump_automaton",
    "gfcore.bareiss_det", "gfcore.adjugate_poly", "gfcore.rfm_inverse",
    "gfcore.RatFun.dt_at_one", "languages.clump_gf_language",
    "languages.rs_solve", "evolution.asymptotics", "evolution.bv_probability",
    "evolution.clump_probability", "evolution.scan_kmers",
    "evolution.load_params", "words.correlation_set",
)
CALL_COUNTED = (
    "automata.bnn_probability", "automata.kmp_automaton",
    "automata.clump_automaton", "gfcore.bareiss_det",
    "languages.clump_gf_language", "evolution.bv_probability",
    "words.correlation_set",
)
LAYERS = TRACED_MODULES + ("bench",)


def per_layer(spans, wall, untraced_wall):
    """Self times, call counts and computed work counts of one traced round.

    wall is the traced round's query time, measured like an untraced
    round's, and untraced_wall the same round's time without tracing.  The
    computed work counts follow from call arguments and automaton sizes,
    so they repeat exactly from run to run."""
    selfs = self_times(spans)
    kids = children(spans)
    self_by = {}
    calls = {}
    for s, t in zip(spans, selfs):
        self_by[s[NAME]] = self_by.get(s[NAME], 0.0) + t
        calls[s[NAME]] = calls.get(s[NAME], 0) + 1

    def child_fact(i, name, key):
        # 0 when the call no longer builds that child
        return next((spans[j][FACTS][key] for j in kids[i]
                     if spans[j][NAME] == name and spans[j][FACTS]), 0)

    bnn_flops = scan_flops = steps = states = 0
    tensor_mb = 0.0
    max_n = 0
    for i, s in enumerate(spans):
        name, facts = s[NAME], s[FACTS]
        if facts is None:
            continue
        if name == "automata.bnn_probability":
            pair = child_fact(i, "automata.product", "states")
            single = child_fact(i, "automata.kmp_automaton", "states")
            bnn_flops += 2 * facts["n"] * (pair ** 2 + single ** 2)
        elif name == "automata.bnn_scan":
            dim = (facts["k"] + 1) ** 2
            scan_flops += 2 * facts["n"] * facts["words"] * (dim ** 2 + dim)
            tensor_mb = max(tensor_mb, facts["words"] * dim ** 2 * 8 / 1e6)
        elif name.startswith("automata.clump_moment_series."):
            nnz = child_fact(i, "automata.transfer_matrix", "nnz")
            steps += (facts["n"] + 1) * nnz * (facts["vectors"] + 1)
        elif name == "automata.clump_automaton":
            states += facts["states"]
        elif name == "gfcore.bareiss_det":
            max_n = max(max_n, facts["n"])

    out = {}
    for name in SELF_TIMED:
        out[name + ".self_s"] = (self_by.get(name, 0.0), "s")
    for name in CALL_COUNTED:
        out[name + ".calls"] = (calls.get(name, 0), "count")
    out["automata.bnn_probability.dense_flops"] = (bnn_flops, "flop")
    out["automata.bnn_scan.dense_flops"] = (scan_flops, "flop")
    out["automata.bnn_scan.tensor_mb"] = (tensor_mb, "MB")
    out["automata.clump_automaton.states"] = (states, "count")
    out["automata.clump_moment_series.steps"] = (steps, "count")
    out["gfcore.bareiss_det.max_n"] = (max_n, "count")
    for layer in LAYERS:
        out[layer + ".self_s"] = (sum(
            t for s, t in zip(spans, selfs)
            if s[NAME].split(".", 1)[0] == layer), "s")
    library = sum(t for s, t in zip(spans, selfs)
                  if s[QUERY] is not None
                  and s[NAME].split(".", 1)[0] != "bench")
    out["trace.wall_s"] = (wall, "s")
    out["trace.untraced_wall_s"] = (untraced_wall, "s")
    out["trace.overhead_s"] = (wall - untraced_wall, "s")
    out["trace.self_sum_s"] = (sum(selfs), "s")
    out["trace.coverage"] = (library / wall, "ratio")
    out["trace.spans"] = (len(spans), "count")
    return out
