"""The benchmark's workloads: inputs drawn from a seed, the timed queries,
and the answer checks.

A workload is a fixed plan of queries.  Each query is one call a user
makes through the library (what the ``wait``, ``scan``, ``asym`` and ``gf``
subcommands of the command line print), timed on its own.  Every round of
a run asks every query, in an order drawn from the seed and the round
number.  Queries look their library function up through the module at call
time, so the tracer's wrappers are seen when installed.

Answer checks compare every returned value with an independent route or a
published reference, outside the timed calls.
"""

import random
from itertools import product as iproduct

from kmerwait import automata, evolution, oracle

DNA = "ACGT"

# E(T_n)/10^6 at n = 1000 under table1: word -> (BNN, BV, BNN/BV), the
# reference table that acceptance criterion 1 reproduces
REFERENCE_FIVE_MERS = {
    "CCCCC": (9.105, 6.304, 1.44),
    "GGGGG": (9.570, 6.666, 1.44),
    "TTTTT": (10.401, 7.457, 1.39),
    "AAAAA": (10.656, 7.654, 1.39),
    "CGCGC": (7.047, 6.446, 1.09),
    "TCCCC": (7.076, 6.477, 1.09),
    "CCCCT": (7.076, 6.477, 1.09),
    "GCGCG": (7.127, 6.518, 1.09),
    "CTCTC": (7.263, 6.679, 1.09),
    "CACAC": (7.337, 6.750, 1.09),
}

# Words drawn per run from each autocorrelation class of DNA 5-mers, keyed
# by the word's border lengths.  The class fixes the overlap structure and
# with it the clump automaton size (no border: 143-199 states, {1}:
# 461-501, {2}: 315-327, {1,3}: 397, {1,2}: 582, homopolymers: 350), so a
# fixed quota per class gives every seed the same mix of cheap and dense
# CLUMP queries.  The quotas follow the class sizes (720, 228, 48, 12, 12,
# 4 of 1024 words) with each rare class kept once.
WAIT_QUOTAS = (((), 12), ((1,), 4), ((2,), 1), ((1, 3), 1), ((1, 2), 1),
               ((1, 2, 3, 4), 1))
WAIT_SHORT, WAIT_LONG = 1000, 100000
# the long tier: CLUMP at 1e4 and BNN at 1e6, where float64 BNN breaks
LONG_WORDS = ("CCCCC", "ACGTA")
LONG_CLUMP, LONG_BNN = 10000, 1000000
# BNN at n >= 1e5 must follow the line through BNN at 2000 and 4000 of the
# same word; the measured curvature gap is 0.25% per 1e5 letters
LINE_POINTS = (2000, 4000)
LINE_TOL_PER_1E5 = 0.005

SCAN_N = 1000
SCAN_KS = (5, 6)
SCAN_METHODS = ("BNN", "BV")
SCAN_ROWS_CHECKED = 8

# asymptotics word: ACAC or its letter swap (same constants, about the
# same cost)
ASYM_WORDS = ("ACAC", "CACA")
ASYM_C1 = 0.2452503893
# closed-form generating function word: a swap pair of 30-state binary
# 4-mers.  Words of 40-43 states take four times as long and would make
# runs under different seeds incomparable.
GF_WORDS = ("ACCC", "CAAA")
CENSUS_MAX_N = 12


class Query:
    """One planned library call: its kind (the command line subcommand it
    stands for), a label, and the inputs its checks need."""

    __slots__ = ("qid", "kind", "label", "info", "call")

    def __init__(self, kind, label, **info):
        self.qid = None
        self.kind = kind
        self.label = label
        self.info = info
        self.call = None


def borders(word):
    return tuple(m for m in range(1, len(word)) if word[:m] == word[-m:])


def _rel(got, want):
    return abs(got - want) / abs(want)


class Workload:
    name = None
    params_name = None

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random("%s:%d" % (self.name, seed))
        self.plan = []

    def _add(self, query):
        query.qid = len(self.plan)
        self.plan.append(query)

    def bind(self, query, params):
        """The zero-argument callable that asks the query."""
        raise NotImplementedError

    def queries(self, params, round_no):
        """The queries of one round, bound to params, in the round's order."""
        picked = list(self.plan)
        random.Random("%s:%d:%d" % (self.name, self.seed, round_no)).shuffle(
            picked)
        for q in picked:
            q.call = self.bind(q, params)
        return picked

    def check(self, queries, values, params):
        """Return {qid: reason} for every returned answer that is wrong."""
        raise NotImplementedError

    def inputs(self):
        """The drawn inputs, for the run record."""
        raise NotImplementedError


class DnaWait(Workload):
    """Single-word waiting times under table1 at n = 1e3 ... 1e6."""

    name = "dna_wait"
    params_name = "table1"

    def __init__(self, seed):
        super().__init__(seed)
        classes = {}
        for letters in iproduct(DNA, repeat=5):
            w = "".join(letters)
            classes.setdefault(borders(w), []).append(w)
        self.words = []
        for key, count in WAIT_QUOTAS:
            self.words += self.rng.sample(classes[key], count)
        tiers = [(w, n, m) for w in self.words
                 for n, m in ((WAIT_SHORT, "BV"), (WAIT_SHORT, "BNN"),
                              (WAIT_SHORT, "CLUMP"), (WAIT_LONG, "BV"),
                              (WAIT_LONG, "BNN"))]
        tiers += [(w, n, m) for w in LONG_WORDS
                  for n, m in ((LONG_CLUMP, "CLUMP"), (LONG_BNN, "BNN"))]
        for w, n, m in tiers:
            self._add(Query("wait", "wait %s n=%d %s" % (w, n, m), word=w,
                            n=n, method=m))

    def inputs(self):
        return {"words": self.words, "long_words": list(LONG_WORDS)}

    def bind(self, query, params):
        w, n, m = (query.info[k] for k in ("word", "n", "method"))
        return lambda: evolution.waiting_time(w, n, params, m)

    def references(self, queries, params):
        words = {q.info["word"] for q in queries}
        refs = {}
        for w in sorted(words):
            for n in LINE_POINTS:
                refs[("BNN", w, n)] = automata.bnn_probability(w, n, params)
        for q in queries:
            if q.info["n"] == LONG_CLUMP:
                refs[("BNN", q.info["word"], LONG_CLUMP)] = (
                    automata.bnn_probability(q.info["word"], LONG_CLUMP,
                                             params))
        return refs

    def check(self, queries, values, params):
        refs = self.references(queries, params)
        got = {}
        for q in queries:
            if q.qid in values:
                got[(q.info["method"], q.info["word"], q.info["n"])] = (
                    q.qid, values[q.qid].p_n)
        bad = {}

        def p(method, w, n):
            hit = got.get((method, w, n))
            return None if hit is None else hit[1]

        for (method, w, n), (qid, pn) in sorted(got.items()):
            if method == "CLUMP":
                want = p("BNN", w, n) if n == WAIT_SHORT else refs[
                    ("BNN", w, n)]
                tol = 1e-4 if n == WAIT_SHORT else 1e-3
                if want is not None and _rel(pn, want) > tol:
                    bad[qid] = "CLUMP off BNN by %.3g" % _rel(pn, want)
            elif method == "BNN" and n >= WAIT_LONG:
                (n1, n2) = LINE_POINTS
                p1, p2 = refs[("BNN", w, n1)], refs[("BNN", w, n2)]
                line = p1 + (p2 - p1) * (n - n1) / (n2 - n1)
                tol = LINE_TOL_PER_1E5 * n / 1e5
                if _rel(pn, line) > tol:
                    bad[qid] = "BNN off the linear law by %.3g" % _rel(
                        pn, line)
                bv_long, bnn_short, bv_short = (
                    p("BV", w, n), p("BNN", w, WAIT_SHORT),
                    p("BV", w, WAIT_SHORT))
                if None not in (bv_long, bnn_short, bv_short):
                    drift = _rel(pn / bv_long, bnn_short / bv_short)
                    if drift > 0.01:
                        bad[qid] = "BNN/BV ratio drifted by %.3g" % drift
            if n == WAIT_SHORT and w in REFERENCE_FIVE_MERS:
                e_bnn, e_bv, ratio = REFERENCE_FIVE_MERS[w]
                want = {"BNN": e_bnn, "BV": e_bv}.get(method)
                if want is not None and abs(1e-6 / pn - want) > 1e-3:
                    bad[qid] = "E/10^6 = %.4f, table %.3f" % (1e-6 / pn, want)
                pb, pv = p("BNN", w, n), p("BV", w, n)
                if method == "BNN" and pv is not None and \
                        abs(pv / pb - ratio) > 5e-3:
                    bad[qid] = "BNN/BV ratio %.4f, table %.2f" % (pv / pb,
                                                                  ratio)
        return bad


class DnaScan(Workload):
    """Full k-mer scans under table1 at n = 1000."""

    name = "dna_scan"
    params_name = "table1"

    def __init__(self, seed):
        super().__init__(seed)
        self.rows = {(k, m): sorted(self.rng.sample(range(len(DNA) ** k),
                                                    SCAN_ROWS_CHECKED))
                     for k in SCAN_KS for m in SCAN_METHODS}
        for k in SCAN_KS:
            for m in SCAN_METHODS:
                self._add(Query("scan", "scan k=%d %s" % (k, m), k=k,
                                method=m, words=len(DNA) ** k))

    def bind(self, query, params):
        k, m = query.info["k"], query.info["method"]
        return lambda: evolution.scan_kmers(k, SCAN_N, params, m)

    def references(self, queries, params):
        refs = {}
        for q in queries:
            key = (q.info["k"], q.info["method"])
            refs[key] = []
            for i in self.rows[key]:
                w = _scan_word(i, key[0])
                if key[1] == "BNN":
                    want = automata.bnn_probability(w, SCAN_N, params)
                else:
                    want = evolution.bv_probability(w, SCAN_N, params)
                refs[key].append((i, w, want))
        return refs

    def inputs(self):
        return {"checked_rows": {"k=%d %s" % key: [_scan_word(i, key[0])
                                                   for i in rows]
                                 for key, rows in self.rows.items()}}

    def check(self, queries, values, params):
        refs = self.references(queries, params)
        bad = {}
        by_key = {}
        for q in queries:
            if q.qid not in values:
                continue
            k, m = q.info["k"], q.info["method"]
            rows = values[q.qid]
            by_key[(k, m)] = rows
            reason = _scan_shape(rows, k)
            for i, w, want in refs[(k, m)]:
                if reason is None and (rows[i].word != w
                                       or _rel(rows[i].p_n, want) > 1e-9):
                    reason = "row %s: %r, single-word %r" % (
                        w, rows[i].p_n, want)
            if reason is not None:
                bad[q.qid] = reason
        bnn, bv = by_key.get((5, "BNN")), by_key.get((5, "BV"))
        if bnn is not None:
            slowest = {r.word for r in bnn if r.rank >= len(bnn) - 3}
            if slowest != {"AAAAA", "CCCCC", "GGGGG", "TTTTT"}:
                bad[_qid(queries, 5, "BNN")] = "slowest BNN words %s" % sorted(
                    slowest)
        if bv is not None:
            by_rank = {r.rank: r.word for r in bv}
            if by_rank.get(1) != "CCCCC" or by_rank.get(len(bv)) != "AAAAA":
                bad[_qid(queries, 5, "BV")] = "BV ranks 1/%d are %s/%s" % (
                    len(bv), by_rank.get(1), by_rank.get(len(bv)))
        return bad


def _scan_word(i, k):
    # row i of a scan, which lists words in alphabet order
    return "".join(DNA[(i // len(DNA) ** j) % len(DNA)]
                   for j in reversed(range(k)))


def _qid(queries, k, method):
    return next(q.qid for q in queries
                if q.info["k"] == k and q.info["method"] == method)


def _scan_shape(rows, k):
    if len(rows) != len(DNA) ** k:
        return "%d rows" % len(rows)
    ranks = sorted(r.rank for r in rows)
    if ranks != list(range(1, len(rows) + 1)):
        return "ranks are not a permutation"
    for r in rows:
        if not 0.0 < r.p_n < 1.0:
            return "p_n %r out of range for %s" % (r.p_n, r.word)
    order = sorted(rows, key=lambda r: r.rank)
    if any(a.p_n < b.p_n for a, b in zip(order, order[1:])):
        return "ranks disagree with p_n"
    return None


class BinaryExact(Workload):
    """Exact growth constants and a closed-form generating function."""

    name = "binary_exact"
    params_name = "binary-uniform"

    def __init__(self, seed):
        super().__init__(seed)
        self.asym_word = self.rng.choice(ASYM_WORDS)
        self.gf_word = self.rng.choice(GF_WORDS)
        self._add(Query("asym", "asym %s" % self.asym_word,
                        word=self.asym_word))
        self._add(Query("gf", "gf %s" % self.gf_word, word=self.gf_word))

    def inputs(self):
        return {"asym_word": self.asym_word, "gf_word": self.gf_word}

    def bind(self, query, params):
        word = query.info["word"]
        if query.kind == "asym":
            return lambda: evolution.asymptotics(word, params)

        def gf():
            ca = automata.clump_automaton(word, params.alphabet)
            return automata.gf_from_clump_automaton(ca, params.nu)

        return gf

    def check(self, queries, values, params):
        bad = {}
        a = values.get(0)
        if a is not None:
            b = self.asym_word
            hi = evolution.expected_hits(b, 200, params).conditioned
            lo = evolution.expected_hits(b, 199, params).conditioned
            slope, icept = float(hi - lo), float(hi - 200 * (hi - lo))
            if not abs(a.C1 - ASYM_C1) <= 1e-9:
                bad[0] = "C1 = %r, published %r" % (a.C1, ASYM_C1)
            elif not (abs(a.C1 - slope) < 1e-8 and abs(a.C2 - icept) < 1e-8):
                bad[0] = "C1, C2 = %r, %r; exact fit %r, %r" % (
                    a.C1, a.C2, slope, icept)
        f = values.get(1)
        if f is not None:
            rows = f.taylor_tpolys(CENSUS_MAX_N)
            for n in range(CENSUS_MAX_N + 1):
                want = dict(oracle.enumerate_census(
                    self.gf_word, n, params.alphabet, params.nu).census)
                got = {m: c for m, c in rows[n].items() if c}
                if got != want:
                    bad[1] = "z^%d coefficient differs from the census" % n
                    break
        return bad


WORKLOADS = {w.name: w for w in (DnaWait, DnaScan, BinaryExact)}

