"""Brute-force references for small instances.

Everything here is deliberately naive: full enumeration over texts, a
plain dynamic program over pattern-matching states, straight Monte Carlo,
a decimal shadow of the BNN quotient that powers dense matrices over the
same pattern states, and an exact walk of that quotient's first-order
term in the mutation rate.  These are the independent answers that the
generating-function and automaton routes are tested against, so this
module must not import from those.
"""

import math
from collections import namedtuple
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from itertools import product

import numpy as np

from .gfcore import QONE, QZERO, as_q
from .words import check_text_length, check_type, putative_hit_positions

# Refuse enumerations beyond this many texts.
MAX_ENUM = 1 << 26
# Texts sampled per vectorized Monte Carlo round.
MC_CHUNK = 8192
# Significant digits of the decimal BNN shadow.
DECIMAL_DIGITS = 40


EnumerationReport = namedtuple(
    "EnumerationReport",
    ["b", "n", "avoid_count", "avoid_prob", "census", "hit_sum",
     "typed_hit_sums"],
)


def _text_prob(letters, nuq):
    pr = QONE
    for c in letters:
        pr = pr * nuq[c]
    return pr


def _check_size(sigma, n):
    if n < 0:
        raise ValueError("text length %d is negative" % n)
    if sigma ** n > MAX_ENUM:
        raise ValueError(
            "refusing to enumerate %d^%d texts; use the analytic routes" % (sigma, n)
        )


def enumerate_census(b, n, alphabet, nu, mark=None):
    """Putative-hit census over all length-n texts avoiding b, exactly.

    Returns an EnumerationReport where census maps a hit count m to the
    total probability of avoiding texts with exactly m putative hits
    (typed hits when mark=(source, target) is given).  avoid_prob is the
    total probability of avoiding texts, hit_sum the unconditioned
    expectation of the untyped count, and typed_hit_sums the same split
    by substitution type.
    """
    alphabet.check_word(b)
    check_type(alphabet, mark)
    sigma = len(alphabet)
    _check_size(sigma, n)
    nuq = {c: as_q(nu[c]) for c in alphabet.symbols}
    types = [(a, c) for a in alphabet.symbols for c in alphabet.symbols
             if a != c]
    census = {}
    avoid_count = 0
    avoid_prob = QZERO
    hit_sum = QZERO
    typed = {ty: QZERO for ty in types}
    for letters in product(alphabet.symbols, repeat=n):
        w = "".join(letters)
        if b in w:
            continue
        pr = _text_prob(letters, nuq)
        found = putative_hit_positions(w, b, alphabet)
        avoid_count += 1
        avoid_prob = avoid_prob + pr
        hit_sum = hit_sum + len(found.positions) * pr
        for pos, target in found.pairs:
            typed[(w[pos - 1], target)] += pr
        if mark is None:
            h = len(found.positions)
        else:
            h = sum(1 for pos, target in found.pairs
                    if (w[pos - 1], target) == mark)
        census[h] = census.get(h, QZERO) + pr
    return EnumerationReport(b, n, avoid_count, avoid_prob, census, hit_sum,
                             typed)


def avoid_weight(words, n, alphabet, nu):
    """Total probability of length-n texts containing none of `words`."""
    sigma = len(alphabet)
    _check_size(sigma, n)
    nuq = {c: as_q(nu[c]) for c in alphabet.symbols}
    total = QZERO
    for letters in product(alphabet.symbols, repeat=n):
        w = "".join(letters)
        if any(v in w for v in words):
            continue
        total = total + _text_prob(letters, nuq)
    return total


def _kmp_table(b, alphabet):
    """next_state[q][letter_index] for the pattern automaton of b.

    States 0..k track the longest prefix of b matched so far; state k means
    an occurrence was seen and absorbs.  Built by brute force, which is all
    an oracle needs.
    """
    k = len(b)
    syms = alphabet.symbols
    table = []
    for q in range(k + 1):
        row = []
        for a in syms:
            if q == k:
                row.append(k)
                continue
            if a == b[q]:
                row.append(q + 1)
                continue
            s = b[:q] + a
            best = 0
            for length in range(min(len(s), k - 1), 0, -1):
                if s[-length:] == b[:length]:
                    best = length
                    break
            row.append(best)
        table.append(row)
    return table


def exact_pn_tiny(b, n, params):
    """Exact probability that b first appears after one substitution round.

    Enumerates every initial text of length n avoiding b and, for each,
    runs an exact DP over pattern states of the mutated text, where each
    letter a mutates independently per params.p1[a].  Exponential in n;
    guarded accordingly.
    """
    alphabet = params.alphabet
    alphabet.check_word(b)
    check_text_length(b, n)
    k = len(b)
    sigma = len(alphabet)
    _check_size(sigma, n)
    pq = {
        a: [(a2, params.p1[a][a2]) for a2 in alphabet.symbols
            if params.p1[a][a2] != 0]
        for a in alphabet.symbols
    }
    idx = {a: i for i, a in enumerate(alphabet.symbols)}
    nxt = _kmp_table(b, alphabet)
    fbar = QZERO
    appear = QZERO
    for letters in product(alphabet.symbols, repeat=n):
        w = "".join(letters)
        if b in w:
            continue
        pr0 = _text_prob(letters, params.nu)
        fbar = fbar + pr0
        # survival DP: mass over pattern states 0..k-1 of the mutated text
        states = {0: QONE}
        for c in letters:
            new = {}
            for q, mass in states.items():
                for a2, pa in pq[c]:
                    q2 = nxt[q][idx[a2]]
                    if q2 == k:
                        continue
                    new[q2] = new.get(q2, QZERO) + mass * pa
            states = new
        avoid1 = QZERO
        for v in states.values():
            avoid1 = avoid1 + v
        appear = appear + pr0 * (QONE - avoid1)
    if fbar == 0:
        raise ValueError("every length-%d text contains the pattern" % n)
    return appear / fbar


def monte_carlo_pn(b, n, params, trials=200000, seed=20260815):
    """Monte Carlo estimate of the same probability, with standard error.

    Rejection-samples initial texts avoiding b, applies one round of
    independent per-letter substitution, and counts how often b shows up.
    Useful only with inflated mutation rates: nothing resolves p_n at the
    default ~1e-9 rates in any feasible trial count.  Deterministic for a
    fixed seed.  Returns (estimate, stderr).
    """
    if trials < 10 ** 4:
        raise ValueError("need at least 10^4 trials for a meaningful estimate")
    alphabet = params.alphabet
    alphabet.check_word(b)
    check_text_length(b, n)
    rng = np.random.default_rng(seed)
    sigma = len(alphabet)
    k = len(b)
    nu_vec = np.array([float(params.nu[c]) for c in alphabet.symbols])
    pm = np.array(
        [[float(params.p1[a][c]) for c in alphabet.symbols]
         for a in alphabet.symbols]
    )
    cum = pm.cumsum(axis=1)
    bcode = np.array([alphabet.index(c) for c in b])
    accepted = 0
    hits = 0
    dry_rounds = 0
    while accepted < trials:
        s0 = rng.choice(sigma, size=(MC_CHUNK, n), p=nu_vec)
        occ = np.zeros(MC_CHUNK, dtype=bool)
        for j in range(n - k + 1):
            occ |= (s0[:, j:j + k] == bcode).all(axis=1)
        s0 = s0[~occ]
        if s0.shape[0] == 0:
            dry_rounds += 1
            if dry_rounds > 1000:
                raise ValueError("rejection sampling found no avoiding texts")
            continue
        take = min(trials - accepted, s0.shape[0])
        s0 = s0[:take]
        u = rng.random(s0.shape)
        s1 = (u[..., None] >= cum[s0]).sum(axis=2)
        np.minimum(s1, sigma - 1, out=s1)
        got = np.zeros(take, dtype=bool)
        for j in range(n - k + 1):
            got |= (s1[:, j:j + k] == bcode).all(axis=1)
        hits += int(got.sum())
        accepted += take
    phat = hits / trials
    se = math.sqrt(max(phat * (1.0 - phat), 1e-300) / trials)
    return phat, se


def bnn_decimal(b, n, params):
    """The BNN quotient p_n in decimal arithmetic at DECIMAL_DIGITS digits.

    The denominator is the mass of texts avoiding b, row 0 of the n-th
    power of the avoiding matrix over pattern states 0..k-1; the numerator
    the mass of (original, mutant) pairs whose original avoids b and whose
    mutant contains it, from the pair matrix over (original state < k,
    mutant state <= k), each letter pair weighted by nu(x) p1(x, y).  Both
    come from binary exponentiation over dense matrices built from
    _kmp_table, sharing no code with the float kernel.
    """
    alphabet = params.alphabet
    alphabet.check_word(b)
    check_text_length(b, n)
    k = len(b)
    syms = alphabet.symbols
    nxt = _kmp_table(b, alphabet)
    # the exponent range is widened to the limit, since avoiding masses
    # fall far below decimal's default 10**-999999 at long texts
    with localcontext(Context(prec=DECIMAL_DIGITS, Emin=MIN_EMIN,
                              Emax=MAX_EMAX)):
        def dec(q):
            return Decimal(q.numerator) / q.denominator

        avoid = [[Decimal(0)] * k for _ in range(k)]
        for q in range(k):
            for i, x in enumerate(syms):
                if nxt[q][i] < k:
                    avoid[q][nxt[q][i]] += dec(params.nu[x])
        width = k + 1
        pair = [[Decimal(0)] * (k * width) for _ in range(k * width)]
        for p in range(k):
            for q in range(width):
                for i, x in enumerate(syms):
                    if nxt[p][i] == k:
                        continue
                    for j, y in enumerate(syms):
                        w = params.nu[x] * params.p1[x][y]
                        if w:
                            pair[p * width + q][nxt[p][i] * width
                                                + nxt[q][j]] += dec(w)
        hit = sum(_decimal_row_power(pair, n)[k::width])
        return hit / sum(_decimal_row_power(avoid, n))


def bnn_first_order(b, n, params):
    """The term of the BNN quotient that is first order in the mutation
    rate, exactly: the CLUMP value.

    Each letter pair (x, y) of bnn_decimal's pair states is weighted by
    nu(x) when y = x and by eps nu(x) p1(x, y) when y != x, and the walk
    carries every pair state's mass as (eps**0, eps**1) coefficients in
    Fractions, dropping higher powers of eps.  Returns the eps coefficient
    of the mass whose mutant holds b over the avoiding mass.
    """
    alphabet = params.alphabet
    alphabet.check_word(b)
    check_text_length(b, n)
    k = len(b)
    syms = alphabet.symbols
    nxt = _kmp_table(b, alphabet)
    states = {(0, 0): (QONE, QZERO)}
    for _ in range(n):
        new = {}
        for (p, q), (mass, first) in states.items():
            for i, x in enumerate(syms):
                if nxt[p][i] == k:
                    continue
                for j, y in enumerate(syms):
                    key = (nxt[p][i], nxt[q][j])
                    m0, m1 = new.get(key, (QZERO, QZERO))
                    if x == y:
                        new[key] = (m0 + mass * params.nu[x],
                                    m1 + first * params.nu[x])
                    else:
                        new[key] = (m0, m1 + mass * params.nu[x]
                                    * params.p1[x][y])
        states = new
    hit = sum((first for (_, q), (_, first) in states.items() if q == k),
              QZERO)
    return hit / sum((mass for mass, _ in states.values()), QZERO)


def _decimal_row_power(mat, n):
    """Row 0 of mat**n for n >= 1, by binary exponentiation in the current
    decimal context."""
    def mul(x, y):
        # rows of x times y, skipping zero entries of x
        out = []
        for row in x:
            acc = [Decimal(0)] * len(y[0])
            for a, yrow in zip(row, y):
                if a:
                    acc = [c + a * e for c, e in zip(acc, yrow)]
            out.append(acc)
        return out

    vec = None
    while n:
        if n & 1:
            vec = mat[0] if vec is None else mul([vec], mat)[0]
        n >>= 1
        if n:
            mat = mul(mat, mat)
    return vec
