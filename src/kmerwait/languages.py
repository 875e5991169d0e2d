"""Language decompositions for word avoidance and clump statistics.

For a reduced set of words (no word a factor of another) and a memoryless
letter distribution, the texts avoiding the set, the texts ending with a
first occurrence, the minimal continuations between consecutive
occurrences, and the occurrence-free tails satisfy a linear system whose
generating-function translation, B_ij = (1-z) C_ij + v_j over the word
weights v and correlation polynomials C, is solved here exactly, as
numerators over one denominator delta = det B.  On top of that sit the
code matrices describing how occurrences chain into overlapping clumps,
and F(z, t), counting putative-hit positions (marked by t) in texts that
avoid a given k-mer.  F takes no adjugate of B: the clump chain and the
word system of the neighbors and the k-mer form one block matrix Q, whose
Schur complement on B is the gap-and-clump system, so det Q carries no
spurious power delta^(r-1).  With the parse identity
N + (sum_j R_j) / (1-z) = 1/(1-z) (criterion 6), F is read off one
fraction-free elimination of Q bordered by the word weights.

This is the paper's language route.  It imports nothing from the
automaton route, so the two certify each other.
"""

from collections import namedtuple

from .gfcore import (
    POLY_ONE,
    POLY_Z,
    POLY_ZERO,
    Poly,
    RatFun,
    _bareiss_pivots,
    adjugate_poly,
    mat_mul_poly,
    rfm_inverse,
)
from .words import (
    check_type,
    correlation_set,
    is_reduced,
    letter_distribution,
    neighbor_mismatch,
    neighbors,
    occurrence_starts,
    putative_hit_count,
    word_prob,
)


def _set_gf(ws, nuq):
    p = POLY_ZERO
    for w in ws:
        p = p + Poly.monomial(word_prob(w, nuq), len(w), 0)
    return p


def _word_system(words, nuq):
    """(v, C, B) of a word set: the word weights v_j, the correlation
    polynomials C_ij of (v_i, v_j), and B_ij = (1-z) C_ij + v_j."""
    v = [Poly.monomial(word_prob(w, nuq), len(w), 0) for w in words]
    C = [[_set_gf(correlation_set(vi, vj), nuq) for vj in words] for vi in words]
    one_minus_z = POLY_ONE - POLY_Z
    B = [[one_minus_z * cij + vj for cij, vj in zip(row, v)] for row in C]
    return v, C, B


def _row_det(mat, adj):
    """det(mat) as the expansion along row 0, from the adjugate adj."""
    return sum((mat[0][j] * adj[j][0] for j in range(len(mat))), POLY_ZERO)


class LanguageGFs:
    """Solved language system for a reduced word set.

    N is the generating function of texts avoiding every word of the set;
    R[j] of texts ending with a first occurrence, which is of word j;
    M[i][j] of minimal continuations from an occurrence of word i to the
    next occurrence, of word j; U[i] of tails after an occurrence of word
    i seeing no further occurrence.  R, U and M share the denominator
    delta = det B.  vpolys and C are the word weights and correlation
    polynomials the solve started from, nuq the letter distribution.
    """

    def __init__(self, words, nuq, vpolys, C, delta, R, U, M, N):
        self.words = tuple(words)
        self.nuq = nuq
        self.vpolys = vpolys
        self.C = C
        self.delta = delta
        self.R = R
        self.U = U
        self.M = M
        self.N = N


def rs_solve(words, alphabet, nu):
    """Solve the avoidance/first-occurrence language system exactly.

    The unknowns N, R_j, M_ij, U_i are determined by the overlap structure
    of the word set: with C_ij the generating function of the correlation
    set of (v_i, v_j) and v_j(z) the word weight, the matrix
    B_ij = (1-z) C_ij + v_j(z) encodes the whole system.  Its determinant
    and adjugate give all four families in closed form; the avoiding
    function is recovered once per column and cross-checked.
    """
    words = tuple(words)
    if not words:
        raise ValueError("need at least one word")
    for w in words:
        alphabet.check_word(w)
    if not is_reduced(words):
        raise ValueError("word set is not reduced (some word is a factor of another)")
    nuq = letter_distribution(alphabet, nu)
    r = len(words)
    vpolys, C, B = _word_system(words, nuq)
    one_minus_z = POLY_ONE - POLY_Z
    adjB = adjugate_poly(B)
    delta = _row_det(B, adjB)
    if delta.is_zero():
        raise ArithmeticError("degenerate language system")
    [Rnum] = mat_mul_poly([vpolys], adjB)
    # N v_j = sum_i R_i C_ij for every column j
    [Nnum] = mat_mul_poly([Rnum], C)
    N = RatFun(Nnum[0], delta * vpolys[0])
    for j in range(1, r):
        if not (N == RatFun(Nnum[j], delta * vpolys[j])):
            raise ArithmeticError("avoiding function differs across columns")
    R = [RatFun(num, delta) for num in Rnum]
    U = [RatFun(sum(row, POLY_ZERO), delta) for row in adjB]
    M = [[RatFun((delta if i == j else POLY_ZERO) - one_minus_z * adjB[i][j],
                 delta) for j in range(r)] for i in range(r)]
    return LanguageGFs(words, nuq, vpolys, C, delta, R, U, M, N)


def parse_identity_residual(lang):
    """N + R (I-M)^{-1} U - 1/(1-z); exactly zero for a correct solve."""
    r = len(lang.words)
    one = RatFun.const(1)
    zero = RatFun.const(0)
    imm = [
        [(one if i == j else zero) - lang.M[i][j] for j in range(r)]
        for i in range(r)
    ]
    inv = rfm_inverse(imm)
    total = lang.N
    for i in range(r):
        for j in range(r):
            total = total + lang.R[i] * inv[i][j] * lang.U[j]
    return total - RatFun(POLY_ONE, POLY_ONE - POLY_Z)


ConstrainedLanguages = namedtuple("ConstrainedLanguages", "words extended")


def constrained_languages(b, alphabet, nu):
    """Language system of the substitution neighbors of b within b-avoiding texts.

    Returns (words, extended): the neighbors of b, and the solve of the
    extended set, the neighbors followed by b itself.  Its rows and columns
    0..len(words)-1 are the neighbors', and its avoiding function N is the
    generating function of texts avoiding b and all its neighbors.
    """
    d = neighbors(b, alphabet)
    return ConstrainedLanguages(d, rs_solve(d + (b,), alphabet, nu))


# ---------------------------------------------------------------------------
# code matrices: how occurrences chain into clumps

def _no_internal_occurrence(w, words):
    """True when every occurrence of a set word in w touches an end of w:
    it starts at position 1 or finishes at the last position."""
    n = len(w)
    for v in words:
        for s in occurrence_starts(w, v):
            if s != 1 and s + len(v) - 1 != n:
                return False
    return True


class CodeMatrix:
    """Finite codeword sets for clump chaining over a reduced word set.

    K[i][j] holds the correlation words e of (v_i, v_j) such that v_i.e
    has no internal occurrence of any set word.  On a reduced set that is
    the code proper, prefix-free: if a nonempty proper prefix e' of e were
    in K[i][j], then v_i.e' would end with an occurrence of v_j, internal
    to v_i.e, so e would not be in K[i][j].  Kbar[i][j], present for
    constrained matrices only, further drops extensions that create an
    occurrence of the avoided word.
    """

    def __init__(self, words, K, Kbar=None):
        self.words = tuple(words)
        self.K = K
        self.Kbar = Kbar


def code_matrix(words, alphabet):
    """Codeword sets K_ij for a reduced word set."""
    words = tuple(words)
    for w in words:
        alphabet.check_word(w)
    if not is_reduced(words):
        raise ValueError("word set is not reduced (some word is a factor of another)")
    kmat = tuple(
        tuple(
            tuple(e for e in correlation_set(vi, vj)
                  if e and _no_internal_occurrence(vi + e, words))
            for vj in words
        )
        for vi in words
    )
    return CodeMatrix(words, kmat)


def constrained_code_matrix(b, alphabet):
    """Codeword sets of the neighbor set of b, dropping extensions that
    would create an occurrence of b itself."""
    d = neighbors(b, alphabet)
    cm = code_matrix(d, alphabet)
    r = len(d)
    kbar = tuple(
        tuple(
            tuple(h for h in cm.K[i][j] if b not in d[i] + h)
            for j in range(r)
        )
        for i in range(r)
    )
    return CodeMatrix(d, cm.K, Kbar=kbar)


class MarkedCodes:
    """Generating-function translation of constrained codes.

    codes is the constrained code matrix translated, and words its
    neighbor words.  v[i] is the weight of neighbor i carrying t to the
    power of its own putative-hit count; K[i][j] translates each codeword
    extension with t to the power of newly created putative hits.  Entries
    are bivariate polynomials.
    """

    def __init__(self, codes, v, K, mark):
        self.codes = codes
        self.words = codes.words
        self.v = v
        self.K = K
        self.mark = mark


def marked_code_gf(b, alphabet, nu, mark=None):
    """Translate the constrained codes of b to marked generating functions.

    mark=None marks every putative-hit position; mark=(source, target)
    marks only hits where the text letter `source` would need to mutate to
    `target`.  Exponents count hits of v_i . w beyond those of v_i alone
    and are checked to be nonnegative.
    """
    check_type(alphabet, mark)
    codes = constrained_code_matrix(b, alphabet)
    nuq = letter_distribution(alphabet, nu)
    d = codes.words
    r = len(d)
    k = len(b)
    h0 = [putative_hit_count(v, b, alphabet, mark) for v in d]
    vmark = [
        Poly.monomial(word_prob(v, nuq), k, h0[i]) for i, v in enumerate(d)
    ]
    kmat = []
    for i in range(r):
        row = []
        for j in range(r):
            p = POLY_ZERO
            for wext in codes.Kbar[i][j]:
                h = putative_hit_count(d[i] + wext, b, alphabet, mark)
                dm = h - h0[i]
                if dm < 0:
                    raise ArithmeticError("hit count decreased while extending a clump")
                p = p + Poly.monomial(word_prob(wext, nuq), len(wext), dm)
            row.append(p)
        kmat.append(row)
    return MarkedCodes(codes, vmark, kmat, mark)


def _enriched_chain(b, codes, nuq, mark):
    """Within-clump chain transfer matrix with positional hit memory.

    A codeword extension creates one new occurrence whose hit position can
    coincide with the hit of an occurrence two or more links back (the
    windows still overlap even though the links are not consecutive).
    Marking each step by hits of v_i.w beyond v_i alone would count such a
    position twice, so the chain state is enriched to (word, memory),
    where memory holds the offsets from the clump end, at most k-2, of
    positions whose hit is already counted.  New hits are marked only when
    their position misses the memory; the memory is shifted and pruned on
    every extension.  Returns (entry state per word, state word indices,
    transfer matrix of bivariate polynomials).
    """
    d = codes.words
    k = len(b)
    r = len(d)
    mis = [neighbor_mismatch(b, v) for v in d]

    def type_matches(widx):
        m, target, source = mis[widx]
        return mark is None or (source == mark[0] and target == mark[1])

    def remember(widx):
        # untyped: every hit position is dedup-relevant; typed: only
        # counted pairs can be counted again
        return mark is None or type_matches(widx)

    def entry_state(i):
        off = k - 1 - mis[i][0]
        memory = frozenset({off} if off <= k - 2 and remember(i) else ())
        return (i, memory)

    entries = [entry_state(i) for i in range(r)]
    states = []
    index = {}
    queue = sorted(set(entries))
    for st in queue:
        index[st] = len(states)
        states.append(st)
    edges = []
    pos = 0
    while pos < len(queue):
        j, memory = queue[pos]
        pos += 1
        for l in range(r):
            off_new = k - 1 - mis[l][0]
            for w in codes.Kbar[j][l]:
                dlen = len(w)
                shifted = frozenset(o + dlen for o in memory)
                collide = off_new in shifted
                inc = 0
                if type_matches(l) and not collide:
                    inc = 1
                keep = set(o for o in shifted if o <= k - 2)
                if off_new <= k - 2 and remember(l):
                    keep.add(off_new)
                nxt = (l, frozenset(keep))
                if nxt not in index:
                    index[nxt] = len(states)
                    states.append(nxt)
                    queue.append(nxt)
                edges.append(
                    (
                        index[(j, memory)],
                        index[nxt],
                        Poly.monomial(word_prob(w, nuq), dlen, inc),
                    )
                )
    nstates = len(states)
    kmat = [[POLY_ZERO] * nstates for _ in range(nstates)]
    for a, bidx, w in edges:
        kmat[a][bidx] = kmat[a][bidx] + w
    entry_idx = [index[e] for e in entries]
    state_words = [st[0] for st in states]
    return entry_idx, state_words, kmat


def clump_gf_language(b, alphabet, nu, mark=None):
    """Bivariate generating function F(z, t) over texts avoiding b.

    z tracks text length, t the number of putative-hit positions (of the
    selected mutation type when mark is given).  Let B and v be the word
    system and the word weights of the neighbors and b, and N, R, M and U
    the avoiding, first-occurrence, minimal-continuation and tail
    functions that solve it (rs_solve's; none is built here).  Texts with
    no neighbor occurrence contribute N; the rest split into a prefix R,
    a clump, alternating gaps M - K1 and clumps, and a tail U, with K1
    the marked code matrix at t = 1.  With K the chain matrix, S each
    chain state's word, E each neighbor's entry state and T = diag(t^h0)
    the neighbors' own marks, F = N + R T E G^-1 S U, where
    G = I - K - S (M - K1) T E.  Since (1-z) B^-1 = I - M, G is the
    Schur complement on B of the block matrix

        Q = [[I - K - S (I - K1) T E, (1-z) S], [-T E, B]],

    so no adjugate of B is taken, and det Q = det B det G is F's common
    denominator with no spurious power of det B.  The parse identity
    N + (sum_j R_j) / (1-z) = 1/(1-z) (criterion 6) then gives
    F = (det Q + det Q') / ((1-z) det Q), with Q' the matrix Q bordered by
    the column [0; 1] and the row [0, v].  One fraction-free elimination
    of Q' (gfcore._bareiss_pivots) yields det Q, its leading minor, and
    det Q'.
    """
    mk = marked_code_gf(b, alphabet, nu, mark)
    nuq = letter_distribution(alphabet, nu)
    d = mk.words
    r = len(d)
    v, _, B = _word_system(d + (b,), nuq)
    entry_idx, state_words, kmat = _enriched_chain(b, mk.codes, nuq, mark)
    n = len(state_words)
    one_minus_z = POLY_ONE - POLY_Z
    # T: t^h0_j, the t part of the marked neighbor weight
    tpow = [Poly.monomial(1, 0, vm.valuation_t()) for vm in mk.v]

    # chain state rows: within-clump extensions, the gap from the state's
    # word to each entry state, and the exit to that word's column of B
    rows = []
    for p, i in enumerate(state_words):
        row = [(POLY_ONE if p == q else POLY_ZERO) - kmat[p][q] for q in range(n)]
        for j, q in enumerate(entry_idx):
            gap = (POLY_ONE if i == j else POLY_ZERO) - mk.K[i][j].subs_t(1)
            row[q] = row[q] - gap * tpow[j]
        rows.append(row + [one_minus_z if w == i else POLY_ZERO
                           for w in range(r + 2)])
    # word rows: each neighbor enters the chain at its entry state, and
    # the border column holds 1; the border row holds the word weights
    for i, brow in enumerate(B):
        row = [POLY_ZERO] * n
        if i < r:
            row[entry_idx[i]] = -tpow[i]
        rows.append(row + brow + [POLY_ONE])
    rows.append([POLY_ZERO] * n + v + [POLY_ZERO])
    det_q, det_bordered = _bareiss_pivots(rows)
    if det_q.is_zero():
        raise ArithmeticError("degenerate clump system")
    return RatFun(det_q + det_bordered, one_minus_z * det_q)
