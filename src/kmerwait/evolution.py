"""Waiting times for a k-mer to appear after one round of point mutations.

The model draws an ancestral sequence of n i.i.d. letters and substitutes
every position independently for one generation.  Conditioned on the k-mer
being absent from the ancestor, the number of generations until it first
appears is geometric with success probability p_n, so the expected waiting
time is 1/p_n.  Three estimates of p_n are provided: a truncated
inclusion-exclusion sum (bv), the paired automaton quotient (bnn), and the
clump census of putative-hit positions weighted by the mutation rates
(clump).  BNN and CLUMP run one law kernel over BNN's pair states
(automata._law), which reads each method's quantity off row 0 of the
powers of their step matrices until its linear law in n certifies.  The
asymptotics routine takes the quasi-linear growth constants of the
conditioned hit expectations, on any alphabet, as closed forms in the
blocks of clump's step matrix over those pair states, with dense linear
algebra on k x k and (k^2 - k) x (k^2 - k) matrices, and certifies them
against the lines that the same kernel reads off the same matrices; the
decay B of the terms the linear law leaves out is the spectral gap
|lam2|/lam of the k x k avoidance matrix, which is that of the clump
automaton's transfer matrix.
"""

import math
import sys
import warnings
from collections import namedtuple
from fractions import Fraction
from importlib import resources
from itertools import product as iproduct

import numpy as np

from .automata import _clump_matrices, _clump_route, _hit_count, \
    _in_range, _kmp_tables, _law, _one_word, _range_message, \
    bnn_probability, bnn_scan, clump_automaton, clump_moment_series, \
    clump_scan, state_marks
from .gfcore import QONE, QZERO, as_q
from .words import Alphabet, check_text_length, letter_distribution, \
    neighbors, text_length

ROW_SUM_TOL = 1e-7
REGIME_LIMIT = 1e-2
# A scan holds about 360 bytes per word at its peak: the word strings,
# their letter codes and the rows (tracemalloc over a BV scan under
# table1: 5.5 MB for the 16,384 7-mers, 22.6 MB for the 65,536 8-mers).
# So the cap, every DNA 9-mer, takes about 94 MB, where the DNA 14-mers
# would ask for about 97 GB before any check.
MAX_SCAN_WORDS = 4 ** 9
# The certificate of asymptotics checks its constants against the lines
# of the law kernel (automata._law) within 1e-8 of their size plus
# PERRON_TOL.  Past L = 2 log(PERRON_TOL)/log(B) letters plus the degree
# of Phi, the terms the law leaves out are below PERRON_TOL squared.  The
# kernel may read up to 4 P letters, P the least power of two at least L
# (and 2k), so that the first of its three readings at the last lies
# past L.  A B that makes L pass PERRON_STEPS raises: 3000 letters allow
# a gap |lam2|/lam up to about 0.977, and the kernel then reads at most
# 2**14 letters.
PERRON_TOL = 1e-15
PERRON_STEPS = 3000


class ModelParams:
    """Letter distribution and single-generation substitution matrix.

    nu maps each letter to an exact rational probability; p1[a][b] is the
    probability that letter a is substituted by b in one generation.  The
    distribution must sum to 1 (a drift below 1e-12, as produced by rounded
    decimal files, is renormalized away).  Substitution rows must sum to 1
    within ROW_SUM_TOL and every entry must be nonnegative.  Each diagonal
    is then set to 1 minus its row's off-diagonal entries, exactly, so that
    every row sums to 1: table1's rounded rows sum to 1 + 2e-8 to
    1 + 3.1e-8, a surplus of staying mass that BNN would carry through
    every position of the text.  A diagonal that this makes negative
    raises.
    """

    def __init__(self, alphabet, nu, p1, name="custom"):
        if not isinstance(alphabet, Alphabet):
            alphabet = Alphabet(alphabet)
        self.alphabet = alphabet
        self.name = name
        self.nu = nuq = letter_distribution(alphabet, nu)
        rows = {}
        for a in alphabet:
            if a not in p1:
                raise ValueError("substitution matrix misses row %r" % a)
            row = {}
            for c in alphabet:
                if c not in p1[a]:
                    raise ValueError("substitution matrix misses entry (%r, %r)" % (a, c))
                v = as_q(p1[a][c])
                if v < 0:
                    raise ValueError("negative substitution probability (%r, %r)" % (a, c))
                row[c] = v
            s = sum(row.values(), QZERO)
            if abs(float(s - QONE)) > ROW_SUM_TOL:
                raise ValueError("substitution row %r sums to %.12g" % (a, float(s)))
            row[a] -= s - QONE
            if row[a] < 0:
                raise ValueError("substitution row %r leaves a negative "
                                 "diagonal %.12g" % (a, float(row[a])))
            rows[a] = row
        # every row and entry of the alphabet is present, so a longer row
        # or matrix mentions another letter
        if any(len(x) != len(alphabet) for x in (p1, *p1.values())):
            raise ValueError("substitution matrix mentions letters outside the alphabet")
        self.p1 = rows
        # per-letter factors of the one-position appearance probability:
        # the mutated letter distribution and the chance a letter stays
        self.mutated = {c: sum((nuq[a] * rows[a][c] for a in alphabet), QZERO)
                        for c in alphabet}
        self.stay = {c: nuq[c] * rows[c][c] for c in alphabet}
        # the substitution rates of the mutation types, in alphabet order
        self.rates = {(a, c): float(rows[a][c])
                      for a in alphabet for c in alphabet if a != c}
        # the letter weights of automata.bnn_scan in float64: nu(a), and
        # nu(a) p1(a, c) for a letter a that the mutant reads as c
        nu_f = np.array([float(nuq[a]) for a in alphabet])
        self.bnn_weights = (nu_f, nu_f[:, None] * np.array(
            [[float(rows[a][c]) for c in alphabet] for a in alphabet]))

    def mutation_types(self):
        """Ordered letter pairs (a, c) with a != c, in alphabet order."""
        return list(self.rates)

    def max_mutation(self):
        """Largest off-diagonal substitution probability, as a float."""
        return max(self.rates.values())

    def __repr__(self):
        return "ModelParams(%r, %d letters)" % (self.name, len(self.alphabet))


_BUILTIN = {
    "table1": "table1.params",
    "binary-uniform": "binary_uniform.params",
    "binary_uniform": "binary_uniform.params",
}


def _decimal(tok):
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ValueError("bad number %r" % tok)


def load_params(source="table1"):
    """Read model parameters from a bundled name or a parameter file.

    Files hold `nu <letter> <value>` and `p <from> <to> <value>` lines with
    `#` comments; the alphabet is the order of the nu lines.  Values are
    parsed as exact decimals.  Bundled sources: "table1" (the default DNA
    model) and "binary-uniform" (uniform letters, certain swap mutations).
    """
    name = str(source)
    if name in _BUILTIN:
        text = resources.files(__package__).joinpath(
            "data/" + _BUILTIN[name]).read_text()
    else:
        with open(name) as handle:
            text = handle.read()
    order = []
    nu = {}
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        try:
            if toks[0] == "nu" and len(toks) == 3:
                sym = toks[1]
                if len(sym) != 1:
                    raise ValueError("letter %r must be a single symbol" % sym)
                if sym in nu:
                    raise ValueError("duplicate letter %r" % sym)
                order.append(sym)
                nu[sym] = _decimal(toks[2])
            elif toks[0] == "p" and len(toks) == 4:
                key = (toks[1], toks[2])
                if key in entries:
                    raise ValueError("duplicate substitution entry %r" % (key,))
                entries[key] = _decimal(toks[3])
            else:
                raise ValueError("malformed line %r" % line)
        except ValueError as exc:
            raise ValueError("%s, line %d: %s" % (name, lineno, exc)) from None
    if len(order) < 2:
        raise ValueError("%s: need at least two nu lines" % name)
    known = set(order)
    for a, c in entries:
        if a not in known or c not in known:
            raise ValueError("%s: substitution entry (%r, %r) uses an "
                             "undeclared letter" % (name, a, c))
    p1 = {a: {c: entries[(a, c)] for c in order if (a, c) in entries}
          for a in order}
    try:
        return ModelParams(Alphabet("".join(order)), nu, p1, name=name)
    except ValueError as exc:
        raise ValueError("%s: %s" % (name, exc)) from None


WaitingTimeResult = namedtuple("WaitingTimeResult",
                               "word n p_n expected_T method")

ExpectedHits = namedtuple("ExpectedHits", "raw conditioned fbar")

ScanRow = namedtuple("ScanRow",
                     "word method p_n expected_T rank minimal_period")

AsymptoticConstants = namedtuple(
    "AsymptoticConstants", "tau psi phi1 phi2 c1 c2 C1 C2 B")


def bv_probability(b, n, params):
    """Inclusion-exclusion estimate of the appearance probability.

    The chance that b shows up at one fixed position after the mutation
    round, without having been there before, is
    p = prod_i m(b_i) - prod_i nu(b_i) p1(b_i, b_i) with m the mutated
    letter distribution.  Occurrences at positions at least k apart are
    treated as independent, giving the alternating sum over the number of
    disjoint occurrences.  Terms below 1e-30 of the partial sum are
    dropped.  Overlapping occurrences are double counted by design; the
    method is kept verbatim as a cross-check.  A value outside (0, 1)
    raises ArithmeticError.
    """
    return _in_range(_bv_series(b, n, params))


def _bv_series(b, n, params):
    """The value of bv_probability, unchecked: _bv_scan leaves the range
    check to scan_kmers, whose error names the first bad word."""
    params.alphabet.check_word(b)
    k = len(b)
    check_text_length(b, n)
    # both products as int numerators over int denominators, so that only
    # their difference is reduced to lowest terms
    an = ad = sn = sd = 1
    for c in b:
        appear, stay = params.mutated[c], params.stay[c]
        an *= appear.numerator
        ad *= appear.denominator
        sn *= stay.numerator
        sd *= stay.denominator
    if an * sd <= sn * ad:
        raise ArithmeticError("one-position appearance probability is not positive")
    p_one = Fraction(an * sd - sn * ad, ad * sd)
    # with p_one = a/d, the partial sum through ell terms is total / d**ell;
    # term and total share that scale, so the cutoff compares integers
    a, d = p_one.numerator, p_one.denominator
    total = 0
    power = 1
    scale = 1
    for ell in range(1, n // k + 1):
        power *= a
        scale *= d
        term = math.comb(n - (k - 1) * ell, ell) * power
        if ell % 2 == 0:
            term = -term
        total = total * d + term
        if abs(term) * 10 ** 30 < abs(total):
            break
    return total / scale


def hit_series(b, n_max, params, mark=None):
    """Avoiding mass and expected putative-hit count per text length.

    Returns (fbar, hits) for lengths 0..n_max: fbar[n] is the avoiding
    probability and hits[n] the expected count over all texts, of the
    substitution type mark = (source, target) or of every type with None.
    Binary alphabets are handled in exact rationals, larger ones in
    floats.  Raises unless the mass at n_max is positive (exact) or above
    the smallest normal float, since below that the hit masses divided by
    it lose their digits and then flush to 0; the mass never increases, so
    that check covers every length.
    """
    ca = clump_automaton(b, params.alphabet)
    exact = len(params.alphabet) == 2
    fbar, (hits,) = clump_moment_series(ca, params.nu, n_max,
                                        [state_marks(ca, mark)], exact=exact)
    floor = 0 if exact else sys.float_info.min
    if not fbar[n_max] > floor:
        raise ArithmeticError("avoiding probability %g at length %d is "
                              "not above %g" % (fbar[n_max], n_max, floor))
    return fbar, hits


def expected_hits(b, n, params, mark=None):
    """Expected number of putative-hit positions in a length-n text.

    Returns the expectation over all texts (raw), the expectation
    conditioned on the text avoiding b, and the avoiding probability
    itself, from hit_series.
    """
    fbar, hits = hit_series(b, n, params, mark)
    return ExpectedHits(hits[n], hits[n] / fbar[n], fbar[n])


def clump_probability(b, n, params):
    """Appearance probability from the clump census of putative hits.

    Sums the conditioned expected counts of typed putative-hit positions,
    each weighted by its substitution probability.  This is the leading
    term of p_n when n times the mutation rate is small, since distinct
    putative hits then materialize essentially independently and at most
    one does per generation: it is the term of the BNN quotient that is
    first order in the rates, and automata.clump_scan([b], n, params)
    computes it that way, in float64 over BNN's pair states.  It walks
    row 0 of the step matrix's powers until the conditioned hit count read
    off that row certifies its quasi-linear law C1 n + C2, and extends
    that law to n: on a first call, four squarings of a 30 x 30 matrix
    and seven vector steps on every DNA 5-mer under table1, about 0.17 ms
    at any n from 256 on, and one squaring and 127 steps on a 24-mer,
    about 22 ms (one BLAS thread, shared 2-core host).  The line
    (C1 n + C2 read at letter m) is kept, as for
    automata.bnn_probability, and a later call on the word or its
    reversal at any n with 2 m <= n reads its value off it, bitwise the
    kernel's, in about 3 us.  A word that does not certify, every word at
    a shorter n among them, takes its value off row 0 of the n-th power,
    by about log2(n) squarings.  A word and its reversal get bitwise the
    same float.  A value outside (0, 1) raises ArithmeticError: at n = 100
    under binary-uniform AA's is 44.4.
    """
    return _in_range(_one_word(b, n, params, _clump_route(params)))


def _bv_scan(codes):
    """Scan function of BV over the words whose letter codes are the
    columns of codes (one row per position), as scan_kmers builds them.
    It runs bv_probability's series once per letter composition, on the
    first word of each, since it reads a word only through integer
    products over its letters, which do not depend on their order: every
    word with the same letters gets bitwise the same float."""
    def scan(words, n, params):
        comp = np.sort(codes, axis=0)
        key = len(params.alphabet) ** np.arange(len(comp)) @ comp
        _, first, inverse = np.unique(key, return_index=True,
                                      return_inverse=True)
        return np.array([_bv_series(words[i], n, params)
                         for i in first.tolist()])[inverse]
    return scan


def _route(method, codes=None):
    """Canonical name, p_n function and scan function of a method, from
    the one method table that waiting_time and scan_kmers share.  The scan
    function maps a list of words to their p_n, computing each distinct
    value once: BNN and CLUMP once per reversal class (automata.bnn_scan
    and automata.clump_scan), BV once per letter composition, read off
    codes, the letter codes of the words (_bv_scan)."""
    name = str(method).upper()
    # built per call, so that a function rewrapped on this module (a
    # profiler, a test double) is the one that runs
    table = {"BV": (bv_probability, _bv_scan(codes)),
             "BNN": (bnn_probability, bnn_scan),
             "CLUMP": (clump_probability, clump_scan)}
    if name not in table:
        raise ValueError("unknown method %r (expected BV, BNN or CLUMP)"
                         % (method,))
    return (name, *table[name])


def _check_regime(n, params):
    """Warn when n times the largest mutation rate exceeds REGIME_LIMIT,
    where the single-mutation picture that BV and CLUMP rest on starts to
    degrade.  A length that is no integer raises TypeError first
    (words.text_length)."""
    exposure = text_length(n) * params.max_mutation()
    if exposure > REGIME_LIMIT:
        warnings.warn("n times the mutation rate is %.3g; the "
                      "single-mutation regime ends around 1e-2" % exposure,
                      stacklevel=3)


def waiting_time(b, n, params, method="BNN"):
    """Appearance probability and expected waiting time by one method;
    raises ArithmeticError, through the method's own check, when p_n is
    not in (0, 1).  BV and CLUMP warn past the single-mutation regime, as
    scan_kmers does (_check_regime); BNN, exact in the model, does not:
    at n = 1e8 under table1 CLUMP gives AC 0.438 and BNN 0.355.  BNN and
    CLUMP keep the line that a first call on a word certifies at letter m
    (automata._one_word), so later calls on it at any n with 2 m <= n,
    from 256 on for a DNA 5-mer under table1, cost about 3 us against
    0.14-0.17 ms for the first; BV has no such memo."""
    name, route, _ = _route(method)
    if name != "BNN":
        _check_regime(n, params)
    p = route(b, n, params)
    return WaitingTimeResult(b, n, p, 1.0 / p, name)


def scan_kmers(k, n, params, method="BNN"):
    """Waiting times of every k-mer, ranked by expected appearance time.

    Returns one row per word, in alphabet order; rank 1 is the word that
    appears soonest.  Ranks follow the float p_n, and only equal floats
    fall back to alphabetical order.  Every method gives a word and its
    reversal one float, and bv gives every word with the same letters one
    float, so such ties rank alphabetically.  Emits a warning when n times
    the largest mutation rate exceeds 1e-2, the regime where the
    single-mutation picture starts to degrade, and raises ArithmeticError
    naming the method and the first word, in alphabet order, whose p_n is
    not in (0, 1).  A scan of more than MAX_SCAN_WORDS words raises
    ValueError before it builds any.  clump and bnn run once per reversal
    class (544 of 1024 5-mers, 2080 of 4096 6-mers), in stacks of 145
    (k = 5) or 74 (k = 6) words, through one law kernel
    (automata.clump_scan and automata.bnn_scan): four stacked squarings
    per stack of k (k + 1) x k (k + 1) step matrices, seven stacked
    vector steps, a matrix-vector product for each 1 bit of n below 2**4
    and one per probe, after which every DNA 5-mer and 6-mer under table1
    certifies its linear law at 2**7 letters and extends it to n,
    whatever n from 256 on; at shorter n the squarings go on to about
    2 log2(n) stacked products in all.  bv runs
    one series per letter composition (56 for k = 5, 84 for k = 6), keyed
    by the sorted letter codes that also give the periods.  The ranks
    come from one stable sort and the periods from one comparison per
    shift over all the words.  Under table1 at n = 1000 a full 5-mer scan
    takes about 0.010 s by clump, 0.010 s by bnn and 0.0024 s by bv; a
    6-mer scan takes about 0.066 s by clump, 0.057 s by bnn and 0.007 s
    by bv (one BLAS thread on a shared 2-core host).
    """
    if k < 2:
        raise ValueError("scan needs k >= 2")
    symbols = params.alphabet.symbols
    if len(symbols) ** k > MAX_SCAN_WORDS:
        raise ValueError("a scan of the %d-mers over %d letters has %d "
                         "words, past the cap of %d"
                         % (k, len(symbols), len(symbols) ** k,
                            MAX_SCAN_WORDS))
    _check_regime(n, params)
    words = ["".join(t) for t in iproduct(symbols, repeat=k)]
    # letter i of every word, in the order of iproduct
    codes = np.indices((len(symbols),) * k).reshape(k, -1)
    name, _, scan = _route(method, codes)
    probs = np.array(scan(words, n, params))
    bad = np.flatnonzero(~((probs > 0.0) & (probs < 1.0)))
    if bad.size:
        raise ArithmeticError("%s by %s: %s" % (words[bad[0]], name,
                                                _range_message(probs[bad[0]])))
    # a stable sort of -p_n ranks equal floats in alphabet order
    rank = np.empty(len(words), int)
    rank[np.argsort(-probs, kind="stable")] = np.arange(1, len(words) + 1)
    # the minimal period is the smallest shift i at which a word matches
    # itself
    period = np.full(len(words), k)
    for i in range(k - 1, 0, -1):
        period[(codes[i:] == codes[:k - i]).all(axis=0)] = i
    return [ScanRow(w, name, p, 1.0 / p, r, m)
            for w, p, r, m in zip(words, probs.tolist(), rank.tolist(),
                                  period.tolist())]


def _reached(a, seed):
    """States that the graph of the nonzero entries of the square matrix a
    reaches from seed, seed included."""
    seen = np.eye(1, len(a), seed, dtype=bool)[0]
    while not seen[nxt := (a[seen] != 0).any(axis=0)].all():
        seen |= nxt
    return seen


def asymptotics(b, params):
    """Quasi-linear growth constants of the conditioned hit expectations.

    Per mutation type (a, c), the CLUMP step matrix over BNN's pair states
    (automata._clump_matrices) with the unit rate nu(a) on its one entry
    counts that type's hits.  In the state order diag (k) | hit (k) | rest
    its blocks are the avoidance matrix A (diag to diag, and again hit to
    hit), X_H and X_R (diag to hit and to rest, one mutation), the
    nilpotent R (rest to rest) and F (rest to hit).  With
    Phi(z) = z X_H + z^2 X_R (I - zR)^-1 F, the avoiding mass has the
    generating function e0'(I - zA)^-1 1 and the hit mass
    e0'(I - zA)^-1 Phi(z) (I - zA)^-1 1.  Let lam be A's Perron root, r
    and l its right and left vectors, P = r l'/(l.r), z0 = 1/lam and
    G = (I - A/lam + P)^-1 - P.  Then the avoiding probability decays like
    psi tau^-(n-1) with tau = z0, psi = lam r[0] (l.1)/(l.r), and the
    conditioned hit count grows like c1 n + c2 with c1 = l'Phi(z0) r/(l.r)
    and c2 = c1 + (G Phi(z0) r)[0]/r[0] + l'Phi(z0) G 1/(l.1)
    - z0 l'Phi'(z0) r/(l.r) (Nicodeme, Salvy and Flajolet's
    Markov-additive view); phi = c psi/lam, and the substitution weights
    aggregate c1 and c2 into C1 and C2.  The law's error decays like B^n,
    B = |lam2|/lam over A's eigenvalues.  That is the gap of the clump
    automaton's transfer matrix H too: a clump state's label fixes its
    pattern state, so H lumps onto A, and H is nilpotent on the vectors
    with no mass in any pattern state, since a clump state depends only
    on the last L letters read (L its longest label).

    Phi is summed as the polynomial it is, so its structural zeros are
    exact; l is set to 0 outside the states that A's dominant class
    reaches and r outside those that reach it, so a type whose hits fit
    only in a bounded prefix of the text gets c1 = 0 exactly and its flat
    limit as c2.  The law kernel of clump_scan (automata._law), run once
    over the same step matrices with the conditioned hit count as its
    reading, certifies c1 and c2 for every type: the line x + (n - m) a on
    which it certifies a type at letter m has the slope a and the
    intercept x - m a, each within 1e-8 of its constant's size plus
    PERRON_TOL.  The kernel may read up to four times the least power of
    two at least 2 log(PERRON_TOL)/log(B) + deg Phi; a type that does not
    certify by then raises ArithmeticError, as do a Perron root that is
    not simple and a B that would make that letter pass PERRON_STEPS.  A
    type whose E is flat or 0 certifies its line too.  Under table1 an
    ACGTA call takes 0.8 ms (one BLAS thread, shared 2-core host): 0.14 ms
    for the one build of all twelve step matrices, 0.21 for the closed
    forms and 0.21 for the kernel, which certifies every type at 2**7
    letters.  A random 20-mer takes about 0.13 s, its kernel squaring once
    and walking to 2**8 letters.
    """
    # the constants describe the clump census of the word's substitution
    # neighborhood, which needs a word of the alphabet with k >= 2
    neighbors(b, params.alphabet)
    nu = params.bnn_weights[0]
    s, k = len(nu), len(b)
    # one unit matrix per type, in the order of mutation_types
    units = np.eye(s * s)[~np.eye(s, dtype=bool).ravel()].reshape(-1, s, s)
    step = _clump_matrices(_kmp_tables([b] * len(units), params.alphabet),
                           nu, units * nu[:, None])
    lam, psi, decay, c1, c2, n = _pair_constants(step, k)
    lines, rows = _law(step, k, n, _hit_count)
    if rows is not None:
        raise ArithmeticError("a conditioned hit count reaches no linear "
                              "law by letter %d" % (n // 2))
    e, slope, m = np.array(lines).T
    if not all((np.abs(v - c) <= 1e-8 * np.abs(c) + PERRON_TOL).all()
               for v, c in ((slope, c1), (e - m * slope, c2))):
        raise ArithmeticError("growth constants disagree with the "
                              "conditioned hit count's linear law")
    types = params.mutation_types()
    c1, c2 = (dict(zip(types, v.tolist())) for v in (c1, c2))
    big = [sum(c[ty] * params.rates[ty] for ty in types) for c in (c1, c2)]
    return AsymptoticConstants(
        1 / lam, psi,
        {ty: v * psi / lam for ty, v in c1.items()},
        {ty: v * psi / lam for ty, v in c2.items()},
        c1, c2, *big, decay)


def _pair_constants(step, k):
    """(lam, psi, B, c1, c2, n) of asymptotics from the blocks of the stack
    of unit-rate step matrices of a word of length k, one per mutation
    type: c1 and c2 as arrays in the order of the stack, and n the text
    length that the certificate hands the law kernel (see PERRON_STEPS).
    B = |lam2|/lam over the eigenvalues of the avoidance matrix."""
    a, nil = step[0, :k, :k], step[0, 2 * k:, 2 * k:]
    f = step[0, 2 * k:, k:2 * k]
    x_h, x_r = step[:, :k, k:2 * k], step[:, :k, 2 * k:]
    vals, right = np.linalg.eig(a)
    mod = np.sort(np.abs(vals))
    decay = float(mod[-2] / mod[-1])
    # the B^n terms fall below PERRON_TOL**2 after twice the letters that
    # take them to PERRON_TOL; a root that is not simple gives B = 1, or 1
    # to rounding
    if not decay <= PERRON_TOL ** (2 / PERRON_STEPS):
        raise ArithmeticError("the Perron root is not simple: B = %.17g"
                              % decay)
    letters = math.ceil(math.log(PERRON_TOL)
                        / math.log(max(decay, PERRON_TOL)))
    lam = float(np.abs(vals).max())
    z = 1 / lam
    r = right[:, np.argmax(vals.real)].real
    vals, left = np.linalg.eig(a.T)
    l = left[:, np.argmax(vals.real)].real
    r, l = r / r.sum(), l / l.sum()
    seed = int(np.argmax(l * r))
    l = np.where(_reached(a, seed), l, 0.0)
    r = np.where(_reached(a.T, seed), r, 0.0)
    # eig's vectors are accurate in norm only; k steps of A, each a sum of
    # nonnegative terms, make every entry accurate relative to itself
    for _ in range(k):
        r, l = a @ r / lam, l @ a / lam
    lr = l @ r
    p = np.outer(r, l) / lr
    g = np.linalg.inv(np.eye(k) - a / lam + p) - p
    # z^(j+2) R^j F, until R^j F is 0
    terms = [z * z * f]
    while terms[-1].any():
        terms.append(z * nil @ terms[-1])
    phi = z * x_h + x_r @ sum(terms)
    zdphi = z * x_h + x_r @ sum((j + 2) * t for j, t in enumerate(terms))
    psi = float(lam * r[0] * l.sum() / lr)
    if not psi > 0:
        raise ArithmeticError("avoiding amplitude came out nonpositive")
    lphi = l @ phi
    c1 = lphi @ r / lr
    c2 = (c1 + g[0] @ phi @ r / r[0] + lphi @ g.sum(axis=1) / l.sum()
          - l @ zdphi @ r / lr)
    # the kernel's first of three readings lands at the least power of two
    # at least L = 2 letters + deg Phi (and 2k), its last at four times that
    return lam, psi, decay, c1, c2, 8 << (max(2 * letters + len(terms),
                                              2 * k) - 1).bit_length()
