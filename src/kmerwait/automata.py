"""Finite automata for avoidance and clump counting.

Two constructions live here.  The pattern automaton of a single word,
built as rows of letter indices by _kmp_tables, serves the two
first-appearance numbers: bnn_scan tracks the original text and its
one-step mutant as a pair of pattern states, and clump_scan takes over
the same pair states the term of that quotient that is first order in
the mutation rate, the CLUMP value.  Both run one law kernel (_law): it
squares a stack of step matrices a few times, walks row 0 of its powers
by vector steps until a reading off that row certifies its linear law,
and takes row 0 of the n-th power where none does.  Single-word calls
keep the lines that they certify, so a repeat at another n reads its line
(_one_word).  The clump automaton walks the overlap structure of the
mutation neighborhood d(b) and carries a t mark on transitions that
reveal a fresh putative-hit position.  Its transfer matrix serves the
exact census and moment series, and the closed-form generating function,
which the word-language route reproduces, the point of building both.
The growth constants of evolution.asymptotics read the blocks of
clump_scan's step matrices and are certified by the kernel's lines over
the same matrices.
"""

import math
import threading
from fractions import Fraction
from functools import cached_property
from itertools import chain

import numpy as np

from .gfcore import Poly, RatFun
from .words import check_text_length, check_type, letter_distribution, \
    neighbor_mismatch, neighbors, text_length


class Dfa:
    """Deterministic automaton with integer states 0..n-1.

    Transitions live in a dict keyed by (state, symbol); a missing key is
    a deliberately pruned transition and kills the run.
    """

    def __init__(self, n_states, symbols, delta, initial):
        self.n_states = n_states
        self.alphabet = tuple(symbols)
        self.delta = dict(delta)
        self.initial = initial

    def step(self, state, symbol):
        return self.delta.get((state, symbol))


def _fresh_hit(label, k, hit_of):
    """Fresh hits of an occurrence state, from its label alone.

    hit_of maps each neighbor v of b (length k) to (m, b[m], v[m]): the
    offset where v differs from b, the target letter there and the text
    letter.  The label ends with a neighbor.  Returns (untyped, typed):
    untyped is 1 when the hit position of that occurrence was not hit by
    an earlier neighbor window of the label, else 0; typed is its (text
    letter, target letter) substitution type when that (position, target)
    pair is new, else None.  The label always covers the whole overlap
    chain that can share hit positions with the occurrence, so scanning it
    decides freshness exactly.
    """
    last = len(label) - k
    m, target, source = hit_of[label[last:]]
    pos = last + m
    earlier = [(start + hit[0], hit[1]) for start in range(last)
               if (hit := hit_of.get(label[start:start + k]))]
    untyped = int(all(p != pos for p, _ in earlier))
    if (pos, target) in earlier:
        return untyped, None
    return untyped, (source, target)


def _theta_word(o, rev, crossing, k, label):
    # backward breadth-first search, at most k layers deep; paths may not
    # cross a marked state except at their endpoints.  Every transition
    # into layer j reads label[-j - 1] (see _check_incoming_letters), so
    # the word read is the suffix of the label as deep as the search goes.
    depth = 0
    layer = {o}
    while depth < k:
        layer = {q for t in layer for q in rev.get(t, ())}
        if not layer:
            break
        depth += 1
        layer -= crossing
        if not layer:
            break
    return label[len(label) - depth:]


class ClumpAutomaton:
    """Pruned automaton over the prefixes of the neighbor overlap words.

    Built by clump_automaton.  Carries the occurrence states O, the
    non-extension states Ebar (clump core E is everything else), per state
    the fresh hits of its label scan (see _fresh_hit), and per state the
    mark exponent for the selected mutation type, which every transition
    into that state carries.  theta, the maximal unique incoming word per
    occurrence state, is computed on demand from the transitions and the
    untyped marks, so it describes the structure and not the type filter;
    no walk over the transfer matrix reads it.
    """

    def __init__(self, b, alphabet, dfa, labels, occ, ebar, fresh_hits,
                 mark, pruned):
        self.b = b
        self.alphabet = alphabet
        self.dfa = dfa
        self.labels = tuple(labels)
        self.O = frozenset(occ)
        self.Ebar = frozenset(ebar)
        self.E = frozenset(range(dfa.n_states)) - self.Ebar
        self.fresh_hits = tuple(fresh_hits)
        self.state_mark = _marks(self.fresh_hits, mark)
        self.mark = mark
        self.pruned = tuple(pruned)

    @cached_property
    def theta(self):
        """theta word per occurrence state, computed on first read.  It
        checks the incoming letters first, since _theta_word reads the
        word off the label only where that check holds."""
        _check_incoming_letters(self.labels, self.dfa.delta)
        rev = {}
        for (q, _), t in self.dfa.delta.items():
            rev.setdefault(t, []).append(q)
        crossing = {i for i, (untyped, _) in enumerate(self.fresh_hits)
                    if untyped}
        k = len(self.b)
        return {o: _theta_word(o, rev, crossing, k, self.labels[o])
                for o in sorted(self.O)}


def _marks(fresh_hits, mark):
    return tuple(untyped if mark is None else int(typed == mark)
                 for untyped, typed in fresh_hits)


def state_marks(ca, mark):
    """Per-state mark exponents of a clump automaton for one mutation type
    (or for every type at once with mark=None).  The automaton structure
    does not depend on the type, so one build serves all types."""
    check_type(ca.alphabet, mark)
    return _marks(ca.fresh_hits, mark)


def clump_automaton(b, alphabet, mark=None):
    """Build the clump automaton of the mutation neighborhood of b.

    States are the b-avoiding prefixes of X, the set of neighbor words
    extended by their correlation words; reading a letter moves to the
    longest suffix that is again such a prefix, and transitions that would
    complete b itself are pruned.  Every state is terminal.  mark selects
    the mutation type whose fresh putative hits carry the t exponent.

    X comes from one overlap table: for each overlap length m in 1..k-1
    the neighbors are indexed by their m-prefix, and each neighbor vi is
    extended by the rest of every neighbor listed under its m-suffix.
    The breadth-first build reaches a label of length m at depth m, after
    its failure label, its longest proper suffix that is again a label.
    So a label's row is its failure label's row with its own extensions
    written in, as in _kmp_tables (Aho and Corasick, CACM 1975).  Ebar, the
    states that the neighbors' proper prefixes reach, is the labels
    shorter than k.
    """
    alphabet.check_word(b)
    d = neighbors(b, alphabet)
    k = len(b)
    hit_of = {v: neighbor_mismatch(b, v) for v in d}  # see _fresh_hit
    xwords = set(d)
    for m in range(1, k):
        tails = {}
        for vj in d:
            tails.setdefault(vj[:m], []).append(vj[m:])
        for vi in d:
            xwords.update(vi + e for e in tails.get(vi[-m:], ()))
    prefixes = {w[:i] for w in xwords for i in range(len(w) + 1)}

    labels = [""]
    # per state its failure state and its target on each letter
    fail = [0]
    rows = []
    delta = {}
    pruned = []
    for src, lab in enumerate(labels):
        back = rows[fail[src]] if src else [0] * len(alphabet)
        row = list(back)
        for i, a in enumerate(alphabet.symbols):
            grown = lab + a
            if grown.endswith(b):
                row[i] = None
                pruned.append((src, a))
                continue
            if grown in prefixes:
                fail.append(back[i])
                row[i] = len(labels)
                labels.append(grown)
            delta[(src, a)] = row[i]
        rows.append(row)
    assert all(b not in lab for lab in labels)
    _check_incoming_letters(labels, delta)

    dfa = Dfa(len(labels), alphabet.symbols, delta, 0)
    occ = frozenset(i for i, lab in enumerate(labels)
                    if len(lab) >= k and lab[-k:] in hit_of)
    ebar = {i for i, lab in enumerate(labels) if len(lab) < k}

    check_type(alphabet, mark)
    # one label scan per occurrence state serves every mutation type
    hits = [_fresh_hit(lab, k, hit_of) if i in occ else (0, None)
            for i, lab in enumerate(labels)]
    return ClumpAutomaton(b, alphabet, dfa, labels, occ, ebar, hits, mark,
                          pruned)


def _check_incoming_letters(labels, delta):
    """Raise unless every transition into a state other than the root
    reads the last letter of that state's label.

    This keeps the Markov property that theta relies on, in O(edges).  A
    transition on a from a state labelled y moves to a suffix of y + a
    (the failure rule), so by induction every state with a path of j
    transitions to a state labelled x has a label ending in x[:len(x) - j].
    An occurrence label has length at least k, so in each layer j < k of
    theta's backward search all labels end in one nonempty word: no layer
    holds the root, every transition into layer j reads x[-j - 1], and the
    letters read spell the suffix of x as deep as the search goes.
    """
    for (q, a), t in delta.items():
        if t and labels[t][-1] != a:
            raise AssertionError(
                "transition %d --%s--> %d does not read the last letter of "
                "%r: Markov property lost" % (q, a, t, labels[t]))


def markov_property_check(ca):
    """Verify that each clump-core state pins down its recent history.

    Collects, for every length up to |b|, the set of words that can lead
    into each state of E from anywhere; the property holds when no such
    set has two members.  Returns False as soon as a collision shows up.
    """
    k = len(ca.b)
    dfa = ca.dfa
    current = {q: {""} for q in range(dfa.n_states)}
    for _ in range(k):
        nxt = {}
        for q, ws in current.items():
            for a in dfa.alphabet:
                t = dfa.delta.get((q, a))
                if t is None:
                    continue
                nxt.setdefault(t, set()).update(w + a for w in ws)
        for e in ca.E:
            if len(nxt.get(e, ())) > 1:
                return False
        current = nxt
    return True


class TransferMatrix:
    """Substochastic transfer matrix H(t) as integers over scale D.

    rows[i] maps a target state j to the int D H_ij at t=1; the t exponent
    of the edge is the target state's mark, ca.state_mark[j].  Row sums
    equal D except on rows that lost a pruned transition.
    """

    def __init__(self, size, scale, rows):
        self.size = size
        self.scale = scale
        self.rows = rows

    def edge_arrays(self):
        """The edges at t=1 as numpy arrays (src, tgt, H_ij), row by row,
        H_ij the correctly rounded float64 of D H_ij / D.  A row vector x
        times H is np.bincount(tgt, x[src] * coef, size); swapping src and
        tgt gives H times a column vector.
        """
        rows = self.rows
        src = np.repeat(np.arange(self.size), [len(row) for row in rows])
        tgt = np.fromiter(chain.from_iterable(rows), int, len(src))
        coef = np.fromiter((c / self.scale for row in rows
                            for c in row.values()), float, len(src))
        return src, tgt, coef


def transfer_matrix(ca, nu):
    """H(t) of a clump automaton in ints over D, nu's common denominator."""
    nuq = letter_distribution(ca.alphabet, nu)
    scale = math.lcm(*(p.denominator for p in nuq.values()))
    weight = {a: int(p * scale) for a, p in nuq.items()}
    rows = [{} for _ in range(ca.dfa.n_states)]
    for (q, a), t in ca.dfa.delta.items():
        rows[q][t] = rows[q].get(t, 0) + weight[a]
    lossy = {q for q, _ in ca.pruned}
    for q, row in enumerate(rows):
        total = sum(row.values())
        assert total < scale if q in lossy else total == scale
    return TransferMatrix(ca.dfa.n_states, scale, rows)


def clump_series(ca, nu, n_max):
    """Distribution of the accumulated mark count over avoiding texts.

    Returns one dict per length n <= n_max, mapping a mark count m to the
    probability that a random text of length n avoids b and its run
    collects exactly m marks.  Everything is exact: integer weights over
    D**n, D the transfer matrix's scale, and one Fraction per entry.
    n_max must be an integer (words.text_length).
    """
    n_max = text_length(n_max)
    if n_max < 0:
        raise ValueError("text length %d is negative" % n_max)
    tm = transfer_matrix(ca, nu)
    # the census at length n <= n_max has nonnegative t-coefficients that
    # sum to D**n <= 2**(bits - 2)
    bits = n_max * tm.scale.bit_length() + 2
    census = _census(_packed_rows(ca, tm, bits), ca.dfa.initial, n_max)
    return [{m: Fraction(w, tm.scale ** n)
             for m, w in _unpack_t(x, bits).items()}
            for n, x in enumerate(census)]


def _packed_rows(ca, tm, bits):
    """The rows of the transfer matrix tm of ca at t = 2**bits (Kronecker
    substitution): an edge into state j carries D H_ij << bits*mark[j]."""
    return [{j: coef << bits * ca.state_mark[j] for j, coef in row.items()}
            for row in tm.rows]


def _census(rows, initial, n_max):
    """The census over packed rows (_packed_rows) from state initial: per
    length n <= n_max the packed int whose t-coefficients are the integer
    weights of clump_series over D**n.  One int per state carries every
    mark count at once."""
    u = [0] * len(rows)
    u[initial] = 1
    out = [1]
    for _ in range(n_max):
        nxt = [0] * len(rows)
        for x, row in zip(u, rows):
            if x:
                for j, coef in row.items():
                    nxt[j] += x * coef
        u = nxt
        out.append(sum(u))
    return out


def clump_moment_series(ca, nu, n_max, mark_vectors=None, exact=True):
    """Avoiding mass and expected accumulated marks per text length.

    mark_vectors is a list of 0/1 state vectors, one per mutation type of
    interest (defaults to the automaton's own marks).  Returns (fbar, hits)
    where fbar[n] is the avoiding probability at length n and hits[v][n]
    the unconditioned expectation of the marks collected for vector v.
    Exact mode steps integer vectors over the transfer matrix's edges, so
    the masses at length n are those integers over D**n, returned as
    rationals.  Float mode runs _float_walk through all n_max letters and
    returns each hit mass as the conditioned expectation times the
    avoiding mass.  The masses are returned unscaled, so they fall to
    subnormal floats and 0 once the avoiding probability leaves the float
    range.  n_max must be an integer (words.text_length).
    """
    n_max = text_length(n_max)
    if n_max < 0:
        raise ValueError("text length %d is negative" % n_max)
    tm = transfer_matrix(ca, nu)
    if mark_vectors is None:
        mark_vectors = [ca.state_mark]
    if exact:
        return _exact_moments(ca, tm, n_max, mark_vectors)
    fbar = []
    hits = [[] for _ in mark_vectors]
    for _, f, e, moments in _float_walk(ca, tm, n_max, mark_vectors):
        fbar.append(math.ldexp(f, e))
        for hit, (cond, _, _) in zip(hits, moments):
            hit.append(cond * fbar[-1])
    return fbar, hits


def _exact_moments(ca, tm, n_max, mark_vectors):
    """clump_moment_series in exact mode, over the transfer matrix tm of ca."""
    # one flat edge list steps small ints faster than the nested rows
    edges = [(i, j, coef) for i, row in enumerate(tm.rows)
             for j, coef in row.items()]

    def step(x):
        y = [0] * len(x)
        for i, j, coef in edges:
            if x[i]:
                y[j] += x[i] * coef
        return y

    u = [0] * tm.size
    u[ca.dfa.initial] = 1
    svecs = [[0] * tm.size for _ in mark_vectors]
    fbar = []
    hits = [[] for _ in mark_vectors]
    for n in range(n_max + 1):
        if n:
            u = step(u)
            svecs = [[s + w if m else s for s, w, m in zip(step(svec), u, mv)]
                     for svec, mv in zip(svecs, mark_vectors)]
        denom = tm.scale ** n
        fbar.append(Fraction(sum(u), denom))
        for hit, svec in zip(hits, svecs):
            hit.append(Fraction(sum(svec), denom))
    return fbar, hits


def _float_walk(ca, tm, n_max, marks):
    """Float64 avoiding vector and, per row of marks, the conditioned
    expected mark count after 0..n_max letters, yielded as
    (u, f, e, moments).

    u is the avoiding vector scaled to mass 1 and f * 2**e the avoiding
    probability, f in [1/2, 1) after the first step.  moments
    holds one triple (E, delta, tau) per row of marks: E the expected
    count conditioned on avoiding, delta its increment over the last
    letter, and tau = s/|v| - E u the centred hit vector, s the hit vector
    of the unconditioned count and v the avoiding vector.  tau has mass 0
    and stays O(1), so nothing cancels or leaves the float range at any n.

    One step sends u and every tau, the rows of one array z, along the
    transfer matrix's edge list with one scatter-add (at most one edge per
    state and letter) over flat indices: the edges of row r read z at
    r * size + source and land in bin r * size + target, in the order of
    the edge list, so each row sums as it would alone.
    With rho = |u H|: u' = u H/rho, w = tau H/rho, delta = sum(w) + u'.marks,
    E' = E + delta and tau' = w + u' o marks - delta u'.  Each step is a
    fixed map of (u, tau) in floats, so once the walk has mixed its state
    settles instead of carrying fresh rounding noise from step to step.
    """
    size = tm.size
    src, tgt, coef = tm.edge_arrays()
    marks = np.asarray(marks, dtype=float).reshape(-1, size)
    rows = len(marks) + 1
    # the flat sources and targets of every row's edges, in edge order
    base = np.arange(0, rows * size, size)[:, None]
    at, src = (base + tgt).ravel(), (base + src).ravel()
    coef = np.tile(coef, rows)
    z = np.zeros((rows, size))
    z[0, ca.dfa.initial] = 1.0
    # the edge weights of every row, in one buffer: fresh memory of that
    # size for every letter would cost page faults
    flow = np.empty(len(src))
    f, e = 1.0, 0
    # per row of marks (E, its rounding error, delta)
    sums = [(0.0, 0.0, 0.0)] * len(marks)
    for _ in range(n_max):
        yield z[0], f, e, [(hi + lo, inc, tau)
                           for (hi, lo, inc), tau in zip(sums, z[1:])]
        np.take(z, src, out=flow)
        flow *= coef
        z = np.bincount(at, flow, rows * size).reshape(rows, size)
        u, w = z[0], z[1:]
        rho = u.sum()
        z /= rho
        f, shift = math.frexp(f * rho)
        e += shift
        um = u * marks
        inc = w.sum(axis=1) + um.sum(axis=1)
        w += um
        w -= inc[:, None] * u
        # E grows by n nearly equal increments, so its sum keeps its
        # rounding error (Knuth's two-sum)
        nxt = []
        for (hi, lo, _), x in zip(sums, inc.tolist()):
            t = hi + x
            d = t - hi
            nxt.append((t, lo + (hi - (t - d)) + (x - d), x))
        sums = nxt
    yield z[0], f, e, [(hi + lo, inc, tau)
                       for (hi, lo, inc), tau in zip(sums, z[1:])]


def _det_one_minus_y(rows):
    """Coefficients [y^0 .. y^n] of det(I - y A) for a square integer
    matrix A given as sparse rows (rows[i] maps j to A_ij), in ints.

    Division-free Berkowitz over the leading principal blocks: write the
    block of order m + 1 as [[M, C], [R, a]], M the block of order m.
    The Schur complement gives its det(I - y .) = det(I - y M)
    (1 - a y - sum_k R M^k C y^(k+2)), a polynomial of degree m + 1, so
    the product is cut there and needs k <= m - 1 only (Berkowitz, IPL
    1984).  R M^k is stepped as a row vector along the
    rows of M: O(n) sparse vector-matrix products and O(n^2) products of
    coefficients per block.
    """
    q = [1]
    for m, row in enumerate(rows):
        col = [(i, rows[i][m]) for i in range(m) if m in rows[i]]
        g = [1, -row.get(m, 0)]
        w = {j: v for j, v in row.items() if j < m}
        while col and w and len(g) < m + 2:
            g.append(-sum(w.get(i, 0) * c for i, c in col))
            nxt = {}
            for i, x in w.items():
                for j, v in rows[i].items():
                    if j < m:
                        nxt[j] = nxt.get(j, 0) + x * v
            w = {j: x for j, x in nxt.items() if x}
        q = [sum(q[i] * g[d - i] for i in range(max(0, d - len(g) + 1),
                                               min(d, m) + 1))
             for d in range(m + 2)]
    return q


def _unpack_t(x, bits):
    """The t-polynomial whose value at t = 2**bits is x, read off in
    balanced base-2**bits digits: the inverse of evaluating a
    t-polynomial at t = 2**bits when every coefficient lies in
    [-2**(bits-1), 2**(bits-1)).  Zero digits are left out."""
    half = 1 << (bits - 1)
    mask = (1 << bits) - 1
    out = {}
    d = 0
    while x:
        c = ((x + half) & mask) - half
        if c:
            out[d] = c
        x = (x - c) >> bits
        d += 1
    return out


MAX_EXACT_STATES = 48


def gf_from_clump_automaton(ca, nu):
    """Generating function of avoiding texts with marks counted by t.

    Returns the initial-state component of y = (I - z H(t))^-1 1 as a
    RatFun whose numerator and denominator are the two Cramer
    determinants, computed in Python ints.  With A(t) = D H(t), D the
    transfer matrix's scale, the denominator is det(I - z H(t)) =
    sum_i c_i(t) (z/D)^i, c_i the coefficients of det(I - y A(t)).
    Cramer's replaced column is z-free, so the numerator has z-degree
    below size and is the denominator times the census series
    sum_n S_n(t) (z/D)^n of clump_series, cut at z^size:
    num_n = sum_{i<=n} c_i S_{n-i}.

    t is packed into one big int (Kronecker substitution, t = 2**bits):
    an edge into state j carries coef << bits*mark[j], one division-free
    Berkowitz pass over those rows (_det_one_minus_y) gives every c_i,
    one walk over the same rows (_census) gives every packed S_n, and the
    numerator is one integer convolution.  The t-coefficients of c_i and
    num_n are read back as balanced base-2**bits digits, coefficient
    (n, d) becoming a / D**n.
    """
    tm = transfer_matrix(ca, nu)
    size = tm.size
    if size > MAX_EXACT_STATES:
        raise ValueError(
            "exact clump generating function capped at %d states" % MAX_EXACT_STATES
        )
    scale = tm.scale
    # With |p| the sum of the absolute t-coefficients of p, every c_i and
    # num_n has |.| <= (2D)**size < 2**(bits-1), so its balanced digits
    # are its coefficients.  A(t) has nonnegative entries and the rows of
    # A(1) sum to at most D, so |c_i| is at most the y^i coefficient of
    # per(I + y A(1)) <= (1 + yD)**size; at y = 1/D that gives
    # sum_i |c_i| D**-i <= 2**size, so |c_i| <= 2**size D**i <= (2D)**size.
    # The census S_n has nonnegative coefficients summing to at most D**n,
    # so for n < size |num_n| <= sum_i |c_i| D**(n-i) <= 2**size D**n.
    bits = size * (2 * scale).bit_length() + 1
    rows = _packed_rows(ca, tm, bits)
    den = _det_one_minus_y(rows)
    census = _census(rows, ca.dfa.initial, size - 1)
    num = [sum(den[i] * census[n - i] for i in range(n + 1))
           for n in range(size)]

    def unpack(coeffs):
        return Poly({(n, d): Fraction(a, scale ** n)
                     for n, c in enumerate(coeffs)
                     for d, a in _unpack_t(c, bits).items()})

    return RatFun(unpack(num), unpack(den))


# A stack of the law kernel (_law), of BNN's pair matrices or of CLUMP's
# step matrices, holds at most this many matrix entries, 1 MiB of float64:
# 145 words of length 5, 74 of length 6 and one word at a time from
# length 16 on, so that the memory of a scan does not grow with the
# number of words.  Per full 6-mer scan under table1 at n = 1000 (one
# BLAS thread, shared 2-core host, best of 5), bnn_scan / clump_scan took
# 0.139/0.164 s at a cap of 1 << 13, 0.087/0.104 s at 1 << 14,
# 0.068/0.079 s at 1 << 15, 0.059/0.072 s at 1 << 16, 0.056/0.066 s at
# 1 << 17, 0.061/0.067 s at 1 << 18 and 0.066/0.072 s at 1 << 19, and
# the peak of the memory numpy took for a bnn_scan (tracemalloc) was 0.46,
# 0.71, 1.2, 2.1, 4.0, 7.8 and 15.5 MB.  A vector step costs little per
# word but a numpy call per stack, so a cap four times the last one's
# buys 17% here for 2.8 MB more; perfbench's dna_scan peak RSS rose by
# 0.7 MB (1.9%).
_STACK_ENTRIES = 1 << 17

# The cost rule of the law kernel (_law).  Per entry, a squaring of s x s
# matrices costs about _SQUARE_PER_STEP s times what a vector step does,
# and each numpy call costs about what _CALL_ENTRIES entries of a step do.
# Measured with one BLAS thread on a shared 2-core host: a stacked
# squaring of 74 matrices of 42 x 42 took 218 us and a stacked step
# 24 us, 0.21 s steps per squaring; single matrices of 272 x 272 and
# 420 x 420 gave 0.22 s and 0.24 s, and of 600 x 600, where a step runs
# out of cache, 0.13 s.  A step call costs about 1 us on top of 0.15-0.19
# ns per entry, what 5000 to 7000 entries cost; 8192 rounds that up for
# the Python around each step.
_SQUARE_PER_STEP = 0.2
_CALL_ENTRIES = 8192

# A power stack is rescaled only when the mass of one of its slices
# leaves [2**-_DRIFT, 2**_DRIFT]; see _law.
_DRIFT = 64

# A word's readings, BNN's x = -log(1 - p) or CLUMP's E, certify its
# line (_law) when each lies within LAW_TOL of it, relative.  Measured on
# BNN: the readings of x carry rounding of a few 1e-15 at 2**7 letters:
# at 3e-15 a quarter of the DNA 5-mer and 6-mer classes under table1 fail
# there, and from 1e-14 on none does (at 3e-13 five 5-mers certify at
# 2**6 already).  A transient that decays like B'**m and passes the check
# at m / 4 leaves the line read at m / 2 and m off by about
# LAW_TOL B'**(m / 4) / 2 relative at any n, so what is left is the
# readings' rounding: against oracle.bnn_decimal the law is within
# 1.6e-14 on every DNA 5-mer class at n = 1e7.
LAW_TOL = 1e-13


def _stack_words(entries):
    """Number of words that one stack takes, each word with entries matrix
    entries."""
    return max(1, _STACK_ENTRIES // entries)


def _range_message(p):
    """The error text for an appearance probability p outside (0, 1): p by
    %g, or by its repr where %g would print 0 or 1 and p is neither
    (1.0000000000000002 reads "1" by %g)."""
    text = "%g" % p
    if float(text) in (0.0, 1.0) and float(text) != p:
        text = repr(float(p))
    return "appearance probability %s is out of range" % text


def _in_range(p):
    if not 0.0 < p < 1.0:
        raise ArithmeticError(_range_message(p))
    return p


def bnn_probability(b, n, params):
    """First-appearance probability p_n of one word: bnn_scan([b], n,
    params)[0]; raises ArithmeticError if it is not in (0, 1).  Under
    table1 (one BLAS thread, shared 2-core host) a first call on a DNA
    5-mer costs about 0.14 ms at every n from 1e3 to 1e8, since its law
    certifies at m = 2**7 letters, a 12-mer about 0.7 ms and a 24-mer
    about 22 ms, its line certifying at 2**8 letters after one squaring
    and 127 vector steps.  The line (x, a, m) that a call certifies is
    kept (_one_word), and a later call on the word or its reversal at any
    n with 2 m <= n reads p_n off it, bitwise what the kernel gives, in
    about 3 us at any k; at n < 2 m the kernel runs again."""
    return _in_range(_one_word(b, n, params, _bnn_route(params)))


def _reversal_classes(words, n, alphabet, name):
    """Check words for a scan by name and return (classes, runs): per word
    its reversal class min(w, w[::-1]), and the distinct classes in order.

    The words must have one length and fit a length-n text.  Letters are
    i.i.d. and mutate independently per position, so reversing both texts
    shows that a word and its reversal have the same p_n by either route:
    a scan runs each class once and hands every word of it that value.
    """
    words = list(words)
    if not words:
        raise ValueError("no words to scan")
    k = len(words[0])
    if any(len(w) != k for w in words):
        raise ValueError("%s needs words of one length" % name)
    check_text_length(words[0], n)
    # the first symbol outside the alphabet is that of the first bad word
    alphabet.check_word("".join(words))
    classes = [min(w, w[::-1]) for w in words]
    return classes, list(dict.fromkeys(classes))


def bnn_scan(words, n, params):
    """First-appearance probabilities p_n of words of one length, in order,
    through the paired product route.

    The product of the avoidance automaton (on the original sequence) with
    the pattern automaton (on the mutant) reads letter pairs, each weighted
    by nu(a) p(a, a'), in the pair matrices of _pair_matrices.  Every
    substitution row sums to 1 (ModelParams), so the mass of row 0 of the
    m-th power is the avoiding mass of the original, and p_m is the mass
    on the hit states (p, k) over that mass (_hit_share).

    x_m = -log(1 - p_m) is a m + b up to terms that decay geometrically in
    m, so the law kernel (_law) walks row 0 of a stack's powers only until
    each word's readings of x (_law_reading) certify that line, at 2**7
    letters on every DNA 5-mer, 6-mer and 7-mer under table1, after four
    squarings and seven vector steps, and extends it to n: a scan
    costs the same at n = 1e3 as at 1e8, and against oracle.bnn_decimal
    its relative error stays near 1e-14 at every n.  A word that does not
    certify by letter n / 2, every word at a shorter n among them, takes
    p_n off row 0 of its n-th power, which the kernel goes on to make, and
    whose relative error grows like n times the machine epsilon.  So does
    a word whose p reads 1 in float before its line certifies, in a stack
    as alone: its readings decide only its own line, and a scan gives
    every word bitwise what bnn_scan([word], n, params) gives.
    oracle.bnn_decimal, which divides by a power of the avoidance matrix
    of its own, is the 40-digit shadow of this quotient.  _run runs the
    stacks, as for clump_scan.
    """
    return _scan(words, n, params, _bnn_route(params))


def clump_scan(words, n, params):
    """CLUMP values p_n of words of one length, in order: the term of the
    BNN quotient that is first order in the mutation rate.

    Split the BNN pair weights into W0 = diag(nu) and W1, the off-diagonal
    nu(a) p1(a, c).  The part of the numerator that is linear in W1 is the
    mass of the texts that avoid b and have one mutated position after
    which the mutant contains b.  Over the avoiding mass, that is the
    expected count E of putative hits given that the text avoids b, each
    hit weighted by its substitution probability: the clump census's
    value, equal to it term by term (oracle.bnn_first_order checks the
    identity in exact arithmetic).  Over the k (k + 1) pair states of
    _clump_matrices, E_m is the hit mass over the avoiding mass of row 0
    of the m-th power (_hit_count), and E_m = C1 m + C2 up to terms that
    decay like B**m, B = |lam2|/lam of the word's avoidance matrix.  So
    CLUMP runs on bnn_scan's law kernel (_law) with E as its reading:
    every DNA 5-mer, 6-mer and 7-mer class under table1 certifies its
    line at 2**7 letters, after four squarings and seven vector steps,
    and a word that does not, such as one whose Perron root is not simple
    (AC under binary-uniform), takes E_n off row 0 of its n-th power.
    _run runs the stacks, as for bnn_scan: every word stays in its stack
    to the end of the kernel's run, whenever its line certifies, and gets
    bitwise the value it gets alone.
    """
    return _scan(words, n, params, _clump_route(params))


def _bnn_route(params):
    """bnn_scan's route under params for _scan: (name, build, read, line,
    last).  build makes a stack of step matrices from the words' pattern
    tables (_kmp_tables), read is the reading of the law kernel (_law),
    line maps a point of a word's line to its value and last(rows, k)
    reads the values of the words that take the powers to n."""
    wgt = params.bnn_weights[1]
    return ("bnn_scan", lambda table: _pair_matrices(table, wgt),
            _law_reading, lambda x: -math.expm1(-x), _hit_share)


def _clump_route(params):
    """clump_scan's route under params for _scan, as _bnn_route."""
    nu, wgt = params.bnn_weights
    return ("clump_scan", lambda table: _clump_matrices(table, nu, wgt),
            _hit_count, float, _hit_count)


def _scan(words, n, params, route):
    """The values at text length n of the words of bnn_scan or of
    clump_scan, by route (_bnn_route or _clump_route), in order.  Each
    reversal class runs once (_reversal_classes) through _run.
    """
    classes, runs = _reversal_classes(words, n, params.alphabet, route[0])
    value = dict(zip(runs, _run(runs, n, params, route)[0]))
    return [value[c] for c in classes]


def _run(runs, n, params, route):
    """The values at text length n of the distinct words runs, checked by
    _reversal_classes, by route, in order, and their lines (x, a, m), or
    None for a word that took the powers.  Each stack of step matrices
    runs the law kernel (_law) with the route's reading.  A word whose law
    certifies gets line(x + a (n - m)), its line extended to n (_on_line);
    a word that does not gets its own entry of last(rows, k), read off row
    0 of its n-th power, since rows holds one row per word of the stack.

    The stacks hold at most _STACK_ENTRIES matrix entries (145 words of
    length 5, 74 of length 6), and their squares share one buffer; a
    word's value does not depend on its stack mates.
    """
    _, build, read, line, last = route
    k = len(runs[0])
    step = _stack_words((k * (k + 1)) ** 2)
    squares = np.empty((2, min(step, len(runs)), k * (k + 1), k * (k + 1)))
    out, laws = [], []
    for start in range(0, len(runs), step):
        table = _kmp_tables(runs[start:start + step], params.alphabet)
        lines, rows = _law(build(table), k, n, read, squares)
        values = None if rows is None else last(rows, k).tolist()
        out += [values[i] if law is None else _on_line(law, n, line)
                for i, law in enumerate(lines)]
        laws += lines
    return out, laws


def _on_line(law, n, line):
    """The value at text length n of the line law = (x, a, m) of _law."""
    x, a, m = law
    return line(x + a * (n - m))


# Single-word calls of bnn_probability and clump_probability (_one_word)
# keep the lines that they certify, at most this many, and drop the
# oldest first.  A first call on a DNA 5-mer costs about 0.15 ms, a
# repeat at another n about 3 us.  An entry takes about 480 bytes, the
# key's two weight strings most of it (tracemalloc over a full memo of
# DNA 6-mer classes under table1, 2080 by BNN and 2016 by CLUMP:
# 1.96 MB), so a full memo stays under 2 MB and holds every DNA 6-mer
# class by one route, or every 5-mer class by both under three models.
# Stores and evictions take _LINES_LOCK, so that threads sharing the memo
# never evict one key twice; a read is one dict lookup.
LINE_MEMO_WORDS = 4096
_LINES = {}
_LINES_LOCK = threading.Lock()


def _one_word(b, n, params, route):
    """p_n of the one word b by route (_bnn_route or _clump_route), before
    the range check, through the memo _LINES of the lines (x, a, m) that
    earlier single-word calls certified.

    The kernel's squarings, walk and readings up to letter m do not depend
    on n, which only decides whether the reading at m is taken (2 m <= n).
    So where 2 m <= n the stored line gives bitwise the kernel's value,
    and elsewhere the kernel runs as in a scan of the one word (_run),
    whose line, if it certifies, is stored.  The key is the route, the
    alphabet, the bytes of both arrays of params.bnn_weights, so that
    weights changed in place never read a stale line, and the reversal
    class, whose value is the word's.  The word and length checks come
    first, so a line never answers what the kernel refuses.  Scans
    neither read nor fill the memo, so a scan does the same work at every
    call and gives each word what a first single-word call gives.
    """
    name, line = route[0], route[3]
    _, (run,) = _reversal_classes([b], n, params.alphabet, name)
    nu, wgt = params.bnn_weights
    key = (name, params.alphabet.symbols, nu.tobytes(), wgt.tobytes(), run)
    law = _LINES.get(key)
    if law is not None and 2 * law[2] <= n:
        return _on_line(law, n, line)
    (value,), (law,) = _run([run], n, params, route)
    if law is not None:
        with _LINES_LOCK:
            while len(_LINES) >= LINE_MEMO_WORDS:
                del _LINES[next(iter(_LINES))]
            _LINES[key] = law
    return value


@np.errstate(divide="ignore", invalid="ignore")
def _law(stack, k, n, read, squares=None):
    """The law kernel of bnn_scan, clump_scan and evolution.asymptotics.
    Per word of the stack of step matrices over pair states (words of
    length k), the linear law of read, a reading taken off row 0 of its
    powers, or row 0 of its n-th power where that law does not certify.
    Returns (lines, rows): per word, as a list, (x, a, m), the line of
    slope a through its reading x at letter m, or None; and None when
    every word certifies, else the stack of row 0 of the n-th power of
    every word, one row per word in stack order, each times a power of two
    of its own.  Callers read only ratios within a slice, and only the
    rows of the words with None.  The kernel runs in three phases, the
    squarings before the walk, the walk, which reads and certifies, and
    the powers of n, and every squaring of all three is one step of the
    binary powers of n (square below).

    Both readings, x = -log(1 - p) of BNN (_law_reading) and CLUMP's
    conditioned hit count (_hit_count), are a m + b up to terms that decay
    geometrically in m.  They are taken at each power of two m from first,
    the least one that is at least 2k (the first hits land at letter k, so
    earlier readings only cost), up to n / 2, off r, row 0 of the m-th
    power.  A word certifies at m when the line through its readings at
    m / 2 and m passes its reading at m / 4, and its reading at m + 1
    (r times the step matrix once), each within LAW_TOL of that reading.
    Its line is then fixed and its later readings are ignored, but it
    stays in the stack: no array changes shape during a run.  The probe
    reads the line off the powers of two: it turns down a term whose
    period divides m / 4, which those readings alone would miss, and BNN
    readings near p = 1, whose rounding grows like eps / (1 - p).  A
    reading of 0 at all four letters certifies the line 0, the value the
    powers give too.

    1. The squarings before the walk.  Only row 0 of each power is read,
    so the kernel squares the stack only as far as pays and walks r from
    power to power by vector steps r <- r y, y = stack**e the last square
    made, e at most first.  One cost rule sets the schedule: a squaring of
    s x s matrices costs about (_SQUARE_PER_STEP s**3 + _CALL_ENTRIES) /
    (s**2 + _CALL_ENTRIES) steps, and halves the steps still to walk.
    Before the walk the kernel squares while a squaring costs less than
    the steps it saves up to the plan letter max(4 first, 128).  4 first
    is the first letter at which a line can certify, and the DNA words
    under table1 certify there, or at 128 letters where that is later
    (from k = 5 to 14).  That gives four squarings, to letter 16, at every
    k <= 8, three at k = 10, two at k = 12 and one from k = 16 to 24:
    in single-word CLUMP calls (one BLAS thread) no other count took more
    than 12% less time at any k from 6 to 24.  Each squaring is the step
    of the binary powers of n: where n has the bit e, y = stack**e is
    multiplied into u, the row vectors of every word, before y is squared,
    so no squaring is done twice.  Only the bits of n below the walk's
    square (below 16 at k <= 8) are multiplied in before a word's line is
    read.

    2. The walk, which reads and certifies.  Reading does not start when n
    is less than 8 first, too short for a third reading.  Otherwise the
    walk reads at every power of two and stops on the first of three
    rules.  A word whose reading is not finite (p = 1 in float) never
    certifies after it and takes the powers to n: its later readings are
    only rounding, and a line through them would be rounding too.  So
    reading stops once no undecided word, one that has neither certified
    nor read a reading that is not finite, has its last reading in
    (0, inf); it stops once every word has decided; and it stops where the
    next reading would pass n / 2.  So each word's readings decide only
    its own line, and a word in a stack stops reading where it would
    alone.  Past the plan letter, before the doubling from m to 2 m, the
    walk squares once more while a squaring costs less than the m / (2 e)
    steps it saves on it.  The rule reads only s, k and n, never how many
    words share the stack, so a scan gives each word the value it gets
    alone.  BNN reads inf at p = 1 by a division by zero, and nan past it,
    so numpy's divide and invalid warnings are off for the whole call:
    turning them off around each reading instead cost about 7 us a call,
    4% of a DNA 5-mer's.  The products, of finite nonnegative entries,
    raise neither, and an overflow still warns.

    3. The powers.  Once reading stops with a word that has not certified,
    the stack goes on from the squares made to the binary powers of n,
    squaring and multiplying up to the top bit of n, so the powers do not
    depend on where the walk went.  A word that does not certify costs its
    walk and readings and no more; its stack mates, certified or not, walk
    with it until it decides and square with it to n where it takes the
    powers.  Every operation acts on the rows of one word, so a word's law
    does not depend on its stack mates.

    A product is rescaled only when the mass of one of its slices leaves
    [2**-_DRIFT, 2**_DRIFT]: then _rescale divides each slice by the power
    of two that brings its mass to about [1/2, 1).  Entries are
    nonnegative, so an entry is at most its slice's mass and a product of
    two slices in the window stays below 2**(2 _DRIFT), far from overflow.
    Dividing by a power of two commutes with every float rounding while
    the values stay normal, so each slice is bitwise, up to its power of
    two, what rescaling after every product gives, as long as no nonzero
    entry or product term of a slice falls below 2**(2 _DRIFT + 2 - 1022)
    times its mass.  _drift checks every square and every product into u.
    The walk checks once per doubling (_walk): the masses of y's slices
    bound its row sums, so they bound how far a step can move r's mass,
    and where those bounds keep every step of a doubling in the window,
    no step would have been rescaled; where they do not, the doubling is
    walked again with every step checked.  Either way the walk is bitwise
    the one that checks every step.  Raises ArithmeticError when a word's
    mass vanishes: a slice without mass stays 0, and so does every later
    vector of that word, since the top bit of n always comes after the
    last squaring.

    The squares take turns in the two stacks of squares, an array of shape
    (2, c, size, size) with c >= len(stack), so that no squaring takes
    fresh memory, and the caller's stack is only read.  A scan passes one
    squares array for all its stacks, since fresh memory for every stack
    costs a page fault per 4 KB (about 14,000 of them in a 6-mer
    bnn_scan).  Without it, the pair is made here.
    """
    count, size = len(stack), stack.shape[2]
    lines = [None] * count
    # the words that have neither certified nor read a reading that is not
    # finite; a word that is neither certified nor undecided takes the
    # powers to n
    undecided = list(range(count))
    first = 1 << (2 * k - 1).bit_length()
    # the letter that the squarings before the walk are planned for, and
    # what a squaring costs in vector steps
    plan = max(4 * first, 128)
    cost = ((_SQUARE_PER_STEP * size ** 3 + _CALL_ENTRIES)
            / (size * size + _CALL_ENTRIES))
    one = np.ones(size * size)
    if squares is None:
        squares = np.empty((2, *stack.shape))
    bufs = [squares[0, :count], squares[1, :count]]
    # y = stack**e, whose slices' masses, and so their row sums, are at
    # most grow[0] (grow, _walk's list of bounds on them); u is row 0 of
    # the product of the squares y at the bits of n below e
    y, u, e, grow = stack, None, 1, [math.inf]

    # the one square-and-multiply step: multiply y into u where n has the
    # bit e, then square y unless e is n's top bit; False at that bit
    def square():
        nonlocal y, u, e, grow
        if n & e:
            # row 0 of y is exactly what e_0 @ y sums to
            u = y[:, :1].copy() if u is None else np.matmul(u, y)
            _drift(u, one)
        if 2 * e > n:
            return False
        y = np.matmul(y, y, out=bufs[bufs[0] is y])
        grow = [max(1.0, _drift(y, one))]
        e *= 2
        return True

    if 8 * first <= n:
        # 1. the squarings before the walk
        while 2 * e <= first and cost < plan / (2 * e):
            square()
        # 2. the walk, which reads and certifies; r is row 0 of stack**m,
        # whose slices' masses are at most high
        r, high = _walk(y[:, :1].copy(), y, first // e - 1, one, grow,
                        grow[0])
        m, reads = first, []
        while True:
            # lists: a stack holds few words, and numpy calls cost more
            reads.append(read(r, k).tolist())
            last = reads[-1]
            undecided = [i for i in undecided if last[i] < math.inf]
            if not any(last[i] > 0.0 for i in undecided):
                break
            if len(reads) >= 3:
                quarter, half = reads[-3:-1]
                near = [i for i in undecided
                        if abs(1.5 * half[i] - 0.5 * last[i] - quarter[i])
                        <= LAW_TOL * quarter[i]]
                if near:
                    probe = read(np.matmul(r, stack), k).tolist()
                for i in near:
                    a = (last[i] - half[i]) / (m // 2)
                    if abs(probe[i] - last[i] - a) <= LAW_TOL * probe[i]:
                        lines[i] = (last[i], a, m)
                        undecided.remove(i)
            # the next reading, at 2 m, would pass n / 2
            if not undecided or 4 * m > n:
                break
            while 2 * e <= m and 2 * m > plan and cost < m / (2 * e):
                square()
            r, high = _walk(r, y, m // e, one, grow, high)
            m *= 2
        if None not in lines:
            return lines, None
    # 3. the powers of n
    while square():
        pass
    return lines, u


def _walk(r, y, steps, one, grow, high):
    """The stack of row vectors r times the stack y, steps times, and the
    largest mass of a slice of the result (_law's walk).

    high bounds the masses of r's slices and grow holds bounds, each at
    least 1, on the row sums of y's slices, so the masses of the j-th
    product lie between those of the last over b**(steps - j) and
    high b**j, b the last bound of grow.  Where that range stays in
    [2**-_DRIFT, 2**_DRIFT], _drift would have left every product as it
    is, and one check of the last stands for all.  Else the walk is taken
    again with each product checked by _drift.  grow starts as the
    largest slice mass of y, which _drift returned; where high b**steps
    passes 2**_DRIFT with that bound, the largest row sum of y, tighter
    by up to y's order and one pass over y, is added to grow for every
    later walk on the same square.
    """
    if not steps:
        return r, high
    if len(grow) == 1 and high * grow[0] ** steps > 2.0 ** _DRIFT:
        grow.append(max(1.0, float(np.add.reduce(y, 2).max())))
    bound = grow[-1] ** steps
    if high * bound <= 2.0 ** _DRIFT:
        v = r
        for _ in range(steps):
            v = np.matmul(v, y)
        masses = (v.reshape(len(v), -1) @ one[:v[0].size]).tolist()
        if min(masses) >= bound * 2.0 ** -_DRIFT:
            return v, max(masses)
    for _ in range(steps):
        r = np.matmul(r, y)
        high = _drift(r, one)
    return r, high


def _hit_share(u, k):
    """p of row 0 of each slice of the stack u, over the pair states of
    _pair_matrices: the mass on the hit states (p, k) over the total
    mass."""
    row = u[:, 0]
    return np.add.reduce(row[:, k::k + 1], 1) / np.add.reduce(row, 1)


def _law_reading(u, k):
    """BNN's reading x = -log(1 - p) of row 0 of each slice of the stack
    u (_hit_share)."""
    return -np.log1p(-_hit_share(u, k))


def _hit_count(u, k):
    """CLUMP's reading E of row 0 of each slice of the stack u, over the
    pair states of _clump_matrices: the mass on the k hit states over the
    mass on the k states (p, p), which hold the avoiding texts."""
    row = u[:, 0]
    return np.add.reduce(row[:, k:2 * k], 1) / np.add.reduce(row[:, :k], 1)


def _clump_matrices(table, nu, wgt):
    """Step matrices of CLUMP over the pair states of words of one length
    k, as a stack, from their pattern tables and wgt, one letter-pair
    matrix for the stack or one per word.  The states are the pair states
    of _pair_matrices in the order the k states (p, p), the k hit states
    (p, k), then the rest.  A row (p, p) holds the unmutated text, which
    W0 = diag(nu) keeps on the diagonal and W1 (wgt off its diagonal)
    mutates once; every other row holds a once-mutated pair and steps by
    W0 alone.  One np.bincount adds the W0 steps of every row, laid out
    (word, row, a), and the W1 steps of the rows (p, p), laid out (word,
    p, a, a'), so each entry gets only W0 or only W1 weights, in letter
    order.  It leaves out the steps that complete the word and the
    mutated steps onto a state (P, P), whose pair can never hit.  The
    stack is C-ordered, as it must be: the layout of a stack picks numpy's
    BLAS kernel, so another layout would round unlike a single word.
    """
    count, k = table.shape[0], table.shape[1] - 1
    s = k * (k + 1)
    p, q = np.divmod(np.arange(s), k + 1)
    order = np.argsort(2 * (p != q) - (q == k), kind="stable")
    # the index in that order of pair state (p, q), at p (k + 1) + q
    pos = np.zeros((k + 1) ** 2, np.intp)
    pos[order] = np.arange(s)
    row = np.arange(0, count * s * s, s).reshape(count, s, 1)
    orig, mut = table[:, p[order]], table[:, q[order]]
    keep = (orig < k) & ((orig != mut) | (np.arange(s) < k)[:, None])
    orig1, mut1 = orig[:, :k, :, None], orig[:, :k, None]
    keep1 = (orig1 < k) & (orig1 != mut1)
    at = np.concatenate(((row + pos[orig * (k + 1) + mut])[keep], (
        row[:, :k, :, None] + pos[orig1 * (k + 1) + mut1])[keep1]))
    weight = np.concatenate((np.broadcast_to(nu, keep.shape)[keep], (
        np.broadcast_to(wgt[..., None, :, :], keep1.shape)[keep1])))
    return np.bincount(at, weight, count * s * s).reshape(count, s, s)


def _kmp_tables(words, alphabet):
    """Transitions of the pattern automata of words of one length k, as
    one int array: table[w, q, i] is the state that the automaton of
    words[w] reaches from q on the i-th letter of the alphabet, state k
    absorbing.

    Built by the failure function in k steps over all the words at once:
    state q copies the row of its failure state, the longest proper border
    of w[:q], and then points its own letter w[q] on to q + 1.
    """
    count, k = len(words), len(words[0])
    index = {ord(c): i for i, c in enumerate(alphabet.symbols)}
    codes = np.frombuffer("".join(words).translate(index).encode("utf-32-le"),
                          "<u4").reshape(count, k)
    table = np.zeros((count, k + 1, len(alphabet)), np.intp)
    table[:, k] = k
    each = np.arange(count)
    back = np.zeros(count, np.intp)
    for q in range(k):
        c = codes[:, q]
        if q:
            table[:, q] = table[each, back]
            back = table[each, back, c]
        table[each, q, c] = q + 1
    return table


def _pair_matrices(table, wgt):
    """Pair matrices of words of one length k, as a stack, from their
    pattern tables.

    Pair state (p, q), at index p (k + 1) + q, has the original text in
    avoiding state p and the mutant in state q; letters a and a' move it
    to (T[p, a], T[q, a']) with weight wgt[a, a'] when T[p, a] < k.  The
    flat index of that entry is x[p, a] + y[q, a'], and one np.bincount
    over indices laid out (word, p, a, q, a') adds each entry's weights
    in (a, a') order; a step on which the original text completes its
    word lands in a spare bin past the end."""
    count, k = table.shape[0], table.shape[1] - 1
    s = k * (k + 1)
    size = count * s * s
    orig = table[:, :k]
    x = np.where(orig < k, np.arange(0, size, s * (k + 1)).reshape(count, k, 1)
                 + orig * (k + 1), size)
    y = np.arange(0, (k + 1) * s, s).reshape(k + 1, 1) + table
    at = x[:, :, :, None, None] + y[:, None, None]
    weight = np.tile(np.broadcast_to(wgt[:, None], at.shape[2:]).ravel(),
                     count * k)
    return np.bincount(at.ravel(), weight, size)[:size].reshape(count, s, s)


def _drift(y, one):
    """Rescale the stack y when the mass of one of its slices has left
    [2**-_DRIFT, 2**_DRIFT]; one holds at least a slice's count of ones.
    Any power of two will do, so the masses come from one matrix-vector
    product.  Returns the largest mass of a slice, to within rounding.
    Raises ArithmeticError when a mass is 0."""
    mass = y.reshape(len(y), -1) @ one[:y[0].size]
    masses = mass.tolist()
    low, high = min(masses), max(masses)
    if not low > 0.0:
        raise ArithmeticError("automaton mass vanished")
    if low < 2.0 ** -_DRIFT or high > 2.0 ** _DRIFT:
        _rescale(y, mass)
        return 1.0
    return high


def _rescale(x, mass):
    """Divide every slice of the stack x in place by the power of two that
    brings its mass (given, to within rounding) near [1/2, 1).  That
    division is exact."""
    np.ldexp(x, -np.frexp(mass)[1][:, None, None], out=x)


def to_dot(obj):
    """Graphviz source for a clump automaton.

    States get their prefix-string names, transitions into marked states a
    tilde after the letter, and each pruned transition a comment.
    """
    lines = ["digraph automaton {", "  rankdir=LR;"]
    for i, lab in enumerate(obj.labels):
        shape = "doublecircle" if i in obj.O else "circle"
        lines.append('  n%d [label="%s" shape=%s];' % (i, lab or "eps", shape))
    for (q, a), t in sorted(obj.dfa.delta.items()):
        tilde = "~" if obj.state_mark[t] else ""
        lines.append('  n%d -> n%d [label="%s%s"];' % (q, t, a, tilde))
    for (q, a) in obj.pruned:
        lines.append(
            "  // pruned: state %d reading %s would complete the pattern"
            % (q, a)
        )
    lines.append("}")
    return "\n".join(lines)
