"""Waiting times for a k-mer to appear after one round of point mutations.

The model draws an ancestral sequence of n i.i.d. letters and substitutes
every position independently for one generation.  Conditioned on the k-mer
being absent from the ancestor, the number of generations until it first
appears is geometric with success probability p_n, so the expected waiting
time is 1/p_n.  Three estimates of p_n are provided: a truncated
inclusion-exclusion sum (bv), the paired automaton quotient (bnn), and the
clump census of putative-hit positions weighted by the mutation rates
(clump).  The asymptotics routine extracts the quasi-linear growth
constants of the conditioned hit expectations from the Perron root and
Perron vectors of the clump automaton's transfer matrix.
"""

import math
import sys
import warnings
from collections import namedtuple
from fractions import Fraction
from importlib import resources
from itertools import product as iproduct

import mpmath
import numpy as np

from .automata import bnn_probability, clump_automaton, \
    clump_moment_series, state_marks, transfer_matrix
from .gfcore import Q, QONE, QZERO, as_q
from .words import Alphabet, minimal_period

ROW_SUM_TOL = 1e-7
NU_SUM_TOL = 1e-12
REGIME_LIMIT = 1e-2
# inverse iteration at a float shift gains ~15 digits a step on a simple
# Perron root; stalling below 2.4 digits a step over 240 digits means the
# root is not simple
PERRON_STEPS = 100


class ModelParams:
    """Letter distribution and single-generation substitution matrix.

    nu maps each letter to an exact rational probability; p1[a][b] is the
    probability that letter a is substituted by b in one generation.  The
    distribution must sum to 1 (a drift below 1e-12, as produced by rounded
    decimal files, is renormalized away).  Substitution rows must sum to 1
    within ROW_SUM_TOL and off-diagonal entries must be nonnegative; rows
    are kept verbatim, without renormalization.
    """

    def __init__(self, alphabet, nu, p1, name="custom"):
        if not isinstance(alphabet, Alphabet):
            alphabet = Alphabet(alphabet)
        self.alphabet = alphabet
        self.name = name
        nuq = {}
        for a in alphabet:
            if a not in nu:
                raise ValueError("distribution misses letter %r" % a)
            v = as_q(nu[a])
            if v <= 0:
                raise ValueError("letter probability for %r must be positive" % a)
            nuq[a] = v
        if len(nu) != len(alphabet):
            raise ValueError("distribution mentions letters outside the alphabet")
        total = sum(nuq.values(), QZERO)
        if total != QONE:
            if abs(float(total - QONE)) > NU_SUM_TOL:
                raise ValueError("letter distribution sums to %s, not 1" % float(total))
            nuq = {a: v / total for a, v in nuq.items()}
        self.nu = nuq
        rows = {}
        for a in alphabet:
            if a not in p1:
                raise ValueError("substitution matrix misses row %r" % a)
            row = {}
            for c in alphabet:
                if c not in p1[a]:
                    raise ValueError("substitution matrix misses entry (%r, %r)" % (a, c))
                v = as_q(p1[a][c])
                if a != c and v < 0:
                    raise ValueError("negative substitution probability (%r, %r)" % (a, c))
                row[c] = v
            s = sum(row.values(), QZERO)
            if abs(float(s - QONE)) > ROW_SUM_TOL:
                raise ValueError("substitution row %r sums to %.12g" % (a, float(s)))
            rows[a] = row
        if len(p1) != len(alphabet):
            raise ValueError("substitution matrix mentions letters outside the alphabet")
        self.p1 = rows

    def mutation_types(self):
        """Ordered letter pairs (a, c) with a != c, in alphabet order."""
        return [(a, c) for a in self.alphabet for c in self.alphabet if a != c]

    def max_mutation(self):
        """Largest off-diagonal substitution probability, as a float."""
        return max(float(self.p1[a][c]) for a, c in self.mutation_types())

    def __repr__(self):
        return "ModelParams(%r, %d letters)" % (self.name, len(self.alphabet))


_BUILTIN = {
    "table1": "table1.params",
    "binary-uniform": "binary_uniform.params",
    "binary_uniform": "binary_uniform.params",
}


def _decimal(tok):
    try:
        f = Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ValueError("bad number %r" % tok)
    return Q(f.numerator, f.denominator)


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


def bv_probability(b, n, params, full_sum=False):
    """Inclusion-exclusion estimate of the appearance probability.

    The chance that b shows up at one fixed position after the mutation
    round, without having been there before, is
    p = prod_i m(b_i) - prod_i nu(b_i) p1(b_i, b_i) with m the mutated
    letter distribution.  Occurrences at positions at least k apart are
    treated as independent, giving the alternating sum over the number of
    disjoint occurrences.  Terms below 1e-30 of the partial sum are
    dropped unless full_sum is set.  Overlapping occurrences are double
    counted by design; the method is kept verbatim as a cross-check.
    """
    params.alphabet.check_word(b)
    k = len(b)
    if k < 1:
        raise ValueError("need a nonempty word")
    mutated = {}
    for beta in params.alphabet:
        mutated[beta] = sum((params.nu[a] * params.p1[a][beta]
                             for a in params.alphabet), QZERO)
    appear = QONE
    stay = QONE
    for c in b:
        appear *= mutated[c]
        stay *= params.nu[c] * params.p1[c][c]
    p_one = appear - stay
    if p_one <= 0:
        raise ArithmeticError("one-position appearance probability is not positive")
    total = QZERO
    power = QONE
    cutoff = Q(1, 10 ** 30)
    for ell in range(1, n // k + 1):
        power *= p_one
        term = math.comb(n - (k - 1) * ell, ell) * power
        if ell % 2 == 0:
            term = -term
        total += term
        if not full_sum and abs(term) < cutoff * abs(total):
            break
    return float(total)


def expected_hits(b, n, params, mark=None):
    """Expected number of putative-hit positions in a length-n text.

    Returns the expectation over all texts (raw), the expectation
    conditioned on the text avoiding b, and the avoiding probability
    itself.  mark selects one substitution type (source, target); None
    counts every type at once.  Binary alphabets are handled in exact
    rationals, larger ones in floats.
    """
    params.alphabet.check_word(b)
    ca = clump_automaton(b, params.alphabet)
    vec = state_marks(ca, mark)
    exact = len(params.alphabet) == 2
    fbar, hits = clump_moment_series(ca, params.nu, n, [vec], exact=exact)
    raw = hits[0][n]
    avoid = _avoiding_mass(fbar, n)
    return ExpectedHits(raw, raw / avoid, avoid)


def _avoiding_mass(fbar, n):
    """fbar[n], checked: an exact mass must be positive, a float mass must
    exceed the smallest normal float, since below that the hit masses
    divided by it lose their digits and then flush to 0."""
    avoid = fbar[n]
    floor = sys.float_info.min if isinstance(avoid, float) else 0
    if not avoid > floor:
        raise ArithmeticError("avoiding probability %g at length %d is "
                              "not above %g" % (avoid, n, floor))
    return avoid


def clump_probability(b, n, params):
    """Appearance probability from the clump census of putative hits.

    Sums the conditioned expected counts of typed putative-hit positions,
    each weighted by its substitution probability.  This is the leading
    term of p_n when n times the mutation rate is small, since distinct
    putative hits then materialize essentially independently and at most
    one does per generation.
    """
    params.alphabet.check_word(b)
    ca = clump_automaton(b, params.alphabet)
    types = params.mutation_types()
    vecs = [state_marks(ca, ty) for ty in types]
    exact = len(params.alphabet) == 2
    fbar, hits = clump_moment_series(ca, params.nu, n, vecs, exact=exact)
    avoid = _avoiding_mass(fbar, n)
    if exact:
        total = sum((hits[i][n] * params.p1[a][c]
                     for i, (a, c) in enumerate(types)), QZERO)
        return float(total / avoid)
    total = sum(hits[i][n] * float(params.p1[a][c])
                for i, (a, c) in enumerate(types))
    return total / avoid


def _route(method):
    """Canonical name and p_n function of a method, from the one method
    table that waiting_time and scan_kmers share."""
    name = str(method).upper()
    # built per call, so that a function rewrapped on this module (a
    # profiler, a test double) is the one that runs
    table = {"BV": bv_probability, "BNN": bnn_probability,
             "CLUMP": clump_probability}
    if name not in table:
        raise ValueError("unknown method %r (expected BV, BNN or CLUMP)"
                         % (method,))
    return name, table[name]


def _in_range(p):
    if not 0.0 < p < 1.0:
        raise ArithmeticError("appearance probability %g is out of range" % p)
    return p


def waiting_time(b, n, params, method="BNN"):
    """Appearance probability and expected waiting time by one method."""
    name, route = _route(method)
    p = _in_range(route(b, n, params))
    return WaitingTimeResult(b, n, p, 1.0 / p, name)


def scan_kmers(k, n, params, method="BNN"):
    """Waiting times of every k-mer, ranked by expected appearance time.

    Returns one row per word, in alphabet order; rank 1 is the word that
    appears soonest.  Ranks follow the float p_n, and only equal floats
    fall back to alphabetical order.  A word and its reversal have
    mathematically equal p_n, so their order may be set by last-bit
    rounding.  Emits a warning when n times the largest mutation rate
    exceeds 1e-2, the regime where the single-mutation picture starts to
    degrade.  The clump method is exact but slow here; prefer bnn or bv
    for full scans.
    """
    if k < 2:
        raise ValueError("scan needs k >= 2")
    exposure = n * params.max_mutation()
    if exposure > REGIME_LIMIT:
        warnings.warn("n times the mutation rate is %.3g; the "
                      "single-mutation regime ends around 1e-2" % exposure,
                      stacklevel=2)
    words = ["".join(t) for t in iproduct(params.alphabet.symbols, repeat=k)]
    name, route = _route(method)
    probs = [_in_range(route(w, n, params)) for w in words]
    order = sorted(range(len(words)), key=lambda i: (-probs[i], i))
    rank = [0] * len(words)
    for pos, i in enumerate(order, start=1):
        rank[i] = pos
    return [ScanRow(w, name, probs[i], 1.0 / probs[i], rank[i],
                    minimal_period(w))
            for i, w in enumerate(words)]


def _mp_ratio(q):
    return mpmath.mpf(int(q.numerator)) / mpmath.mpf(int(q.denominator))


def _fit_decay(points):
    count = len(points)
    if count < 2:
        return mpmath.mpf(0)
    sx = sum(x for x, _ in points)
    sy = sum(y for _, y in points)
    sxx = sum(x * x for x, _ in points)
    sxy = sum(x * y for x, y in points)
    slope = (count * sxy - sx * sy) / (count * sxx - sx * sx)
    return mpmath.exp(slope)


def _solve(lu, vec):
    mat, perm = lu
    return mpmath.mp.U_solve(mat, mpmath.mp.L_solve(mat, vec, perm))


def _inverse_iteration(lu):
    """Eigenvector of the eigenvalue nearest the shift of the matrix
    factored in lu, normalized to sum 1.  Dividing by the sum, not by the
    largest entry, also undoes the sign flip that every step makes when
    the shift lies above the eigenvalue."""
    size = lu[0].rows
    x = mpmath.matrix([mpmath.mpf(1) / size] * size)
    tol = mpmath.mpf(10) ** (20 - mpmath.mp.dps)
    for _ in range(PERRON_STEPS):
        y = _solve(lu, x)
        y = y / sum(y)
        if mpmath.mnorm(y - x, 1) <= tol:
            return y
        x = y
    raise ArithmeticError("the Perron root of the transfer matrix is not "
                          "simple: inverse iteration did not converge")


def _perron(hmat):
    """Perron root lam of hmat with right and left vectors r, l, l.r = 1."""
    size = hmat.rows
    lam0 = mpmath.mpf(max(np.linalg.eigvals(
        np.array(hmat.tolist(), dtype=float)).real))
    shifted = hmat - lam0 * mpmath.eye(size)
    r = _inverse_iteration(mpmath.mp.LU_decomp(shifted))
    l = _inverse_iteration(mpmath.mp.LU_decomp(shifted.T))
    i = max(range(size), key=lambda j: abs(r[j]))
    lam = (hmat * r)[i] / r[i]
    lr = (l.T * r)[0]
    if abs(lr) < mpmath.mpf(10) ** (-mpmath.mp.dps // 2):
        raise ArithmeticError("the Perron root of the transfer matrix is not "
                              "simple: its left and right vectors are "
                              "orthogonal")
    return lam, r, l / lr


def asymptotics(b, params, n_fit=200):
    """Quasi-linear growth constants of the conditioned hit expectations.

    Let H be the clump automaton's substochastic transfer matrix with
    Perron root lam and right and left Perron vectors r, l (l.r = 1).  The
    avoiding probability decays like psi * tau^(-(n-1)) with tau = 1/lam,
    and the raw typed hit expectation grows like tau^(-n) (phi1 n + phi2),
    so the conditioned expectation is asymptotically c1 n + c2 with
    c = phi/(psi tau).  With D the diagonal of a type's state marks, e0 the
    initial state and G the group inverse of I - H/lam,
    c1 = l'D r and c2 = (e0'G D r - e0'D r)/r[e0] + c1 + l'D G 1/sum(l);
    this is the Markov-additive view of Nicodeme, Salvy and Flajolet.
    Aggregating over types with the substitution weights gives the
    appearance probability slope C1 and intercept C2; B bounds the
    relative decay of the neglected terms.

    Everything is computed at 240 digits and checked against a linear fit
    of the exact conditioned series at n_fit at 1e-8.  A constant below
    10^-120 is reported as exactly 0: a type whose hits are confined to a
    bounded prefix of the text has a zero slope and the flat limit as its
    intercept.  A Perron root that is not simple raises ArithmeticError.
    Only binary alphabets are supported; the 240-digit linear algebra and
    the exact series are too heavy beyond that.
    """
    alphabet = params.alphabet
    if len(alphabet) != 2:
        raise ValueError("growth constants are computed exactly for binary "
                         "alphabets only")
    alphabet.check_word(b)
    if n_fit < 60:
        raise ValueError("need n_fit >= 60 to fit the decay bound")
    types = params.mutation_types()
    ca = clump_automaton(b, alphabet)
    vecs = [state_marks(ca, ty) for ty in types]
    fbar, hits = clump_moment_series(ca, params.nu, n_fit, vecs, exact=True)
    with mpmath.workdps(240):
        tm = transfer_matrix(ca, params.nu)
        size = tm.size
        hmat = mpmath.zeros(size, size)
        for i, row in enumerate(tm.rows):
            for j, (coef, _) in row.items():
                hmat[i, j] = _mp_ratio(coef)
        lam, r, l = _perron(hmat)
        e0 = ca.dfa.initial
        lsum = sum(l)
        tau = 1 / lam
        psi = lam * r[e0] * lsum
        if not psi > 0:
            raise ArithmeticError("avoiding amplitude came out nonpositive")
        fund = mpmath.mp.LU_decomp(mpmath.eye(size) - hmat / lam + r * l.T)
        g_one = _solve(fund, mpmath.matrix([1] * size)) - r * lsum
        tiny = mpmath.mpf(10) ** (-mpmath.mp.dps // 2)
        c1 = {}
        c2 = {}
        decay = {}
        for i, (ty, vec) in enumerate(zip(types, vecs)):
            dr = mpmath.matrix([vec[j] * r[j] for j in range(size)])
            c1v = sum(l[j] * dr[j] for j in range(size))
            g_dr = _solve(fund, dr) - r * c1v
            c2v = ((g_dr[e0] - dr[e0]) / r[e0] + c1v
                   + sum(l[j] * vec[j] * g_one[j] for j in range(size))
                   / lsum)
            # a vanishing constant comes out at rounding level (-1e-265
            # for the slope of hits confined to the opening of the text)
            c1[ty], c2[ty] = [v if abs(v) >= tiny else mpmath.mpf(0)
                              for v in (c1v, c2v)]
            series = [_mp_ratio(hits[i][n]) / _mp_ratio(fbar[n])
                      for n in range(n_fit + 1)]
            slope = series[n_fit] - series[n_fit - 1]
            icept = series[n_fit] - n_fit * slope
            ref = max(mpmath.mpf(1), abs(c1[ty]))
            if abs(slope - c1[ty]) > ref * mpmath.mpf(1e-8) or \
                    abs(icept - c2[ty]) > ref * mpmath.mpf(1e-8):
                raise ArithmeticError("growth constants disagree with the "
                                      "linear fit of the exact series")
            floor = mpmath.mpf(10) ** (20 - mpmath.mp.dps)
            pts = []
            for n in range(50, n_fit + 1):
                res = abs(series[n] - (c1[ty] * n + c2[ty]))
                if res > floor * (1 + abs(series[n])):
                    pts.append((n, mpmath.log(res)))
            decay[ty] = _fit_decay(pts)
            if not decay[ty] < 1:
                raise ArithmeticError("residuals of type %r do not decay"
                                      % (ty,))
        weights = {ty: _mp_ratio(params.p1[ty[0]][ty[1]]) for ty in types}
        big1 = sum(c1[ty] * weights[ty] for ty in types)
        big2 = sum(c2[ty] * weights[ty] for ty in types)
        return AsymptoticConstants(
            float(tau), float(psi),
            {ty: float(v * psi * tau) for ty, v in c1.items()},
            {ty: float(v * psi * tau) for ty, v in c2.items()},
            {ty: float(v) for ty, v in c1.items()},
            {ty: float(v) for ty, v in c2.items()},
            float(big1), float(big2),
            float(max(decay.values())) if decay else 0.0)
