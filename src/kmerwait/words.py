"""Core combinatorics on words.

Alphabets and letter distributions, occurrence counting, correlation
sets, single-substitution neighborhoods, minimal periods, and putative-hit
positions (positions of a pattern-avoiding text where one substitution
creates an occurrence of the pattern).

Positions are 1-indexed throughout, matching the usual sequence notation
S_1 ... S_n.
"""

import operator
from collections import namedtuple

from .gfcore import QONE, QZERO, as_q

NU_SUM_TOL = 1e-12


class Alphabet:
    """An ordered finite alphabet.

    The order of the symbols is fixed and defines the lexicographic order
    used everywhere (for DNA: A < C < G < T).
    """

    def __init__(self, symbols):
        symbols = tuple(symbols)
        if len(symbols) < 2:
            raise ValueError("alphabet needs at least 2 symbols")
        if len(set(symbols)) != len(symbols):
            raise ValueError("alphabet symbols must be distinct")
        self.symbols = symbols
        self._index = {c: i for i, c in enumerate(symbols)}

    def index(self, c):
        try:
            return self._index[c]
        except KeyError:
            raise ValueError("symbol %r not in alphabet %r" % (c, "".join(self.symbols)))

    def check_word(self, w):
        if not w:
            raise ValueError("empty word")
        for c in w:
            if c not in self._index:
                raise ValueError("symbol %r not in alphabet %r" % (c, "".join(self.symbols)))
        return w

    def sort_key(self, w):
        return tuple(self._index[c] for c in w)

    def __contains__(self, c):
        return c in self._index

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self):
        return len(self.symbols)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self):
        return hash(self.symbols)

    def __repr__(self):
        return "Alphabet(%r)" % ("".join(self.symbols),)


def count_occurrences(w, u):
    """Number of (possibly overlapping) occurrences of u in w.

    Returns 0 when u is longer than w.
    """
    if not u:
        raise ValueError("pattern must be nonempty")
    count = 0
    start = 0
    while True:
        i = w.find(u, start)
        if i < 0:
            return count
        count += 1
        start = i + 1


def occurrence_starts(w, u):
    """1-indexed start positions of all occurrences of u in w."""
    if not u:
        raise ValueError("pattern must be nonempty")
    out = []
    start = 0
    while True:
        i = w.find(u, start)
        if i < 0:
            return out
        out.append(i + 1)
        start = i + 1


def correlation_set(v1, v2):
    """The correlation set of v1 against v2.

    All words e (with |e| < |v2|) such that v1·e ends with v2, the overlap
    being nonempty and proper on the v1 side.  For v1 == v2 this is the
    autocorrelation set and contains the empty word.

    Returned sorted by (length, text) so callers get a stable order.
    """
    out = set()
    if v1 == v2:
        out.add("")
    # overlap length m: suffix of v1 of length m equals prefix of v2 of
    # length m; m < |v1| keeps the leftover prefix of v1 nonempty.
    for m in range(1, min(len(v1) - 1, len(v2)) + 1):
        if v1[len(v1) - m:] == v2[:m]:
            out.add(v2[m:])
    return tuple(sorted(out, key=lambda e: (len(e), e)))


def neighbors(b, alphabet):
    """All words at substitution distance exactly 1 from b, sorted
    lexicographically in the alphabet order.

    The result has |b|*(sigma-1) distinct members and never contains b.
    Words of length 1 are rejected: the clump machinery downstream needs
    patterns of length at least 2.
    """
    alphabet.check_word(b)
    if len(b) < 2:
        raise ValueError("need |b| >= 2 to build a substitution neighborhood")
    out = []
    for i in range(len(b)):
        for c in alphabet.symbols:
            if c != b[i]:
                out.append(b[:i] + c + b[i + 1:])
    out.sort(key=alphabet.sort_key)
    return tuple(out)


def neighbor_mismatch(b, v):
    """(offset, target letter, text letter) of the one position where the
    neighbor v of b differs from b: substituting b[offset] for v[offset]
    turns v into b."""
    m = next(i for i in range(len(b)) if v[i] != b[i])
    return m, b[m], v[m]


def minimal_period(b):
    """Smallest i >= 1 such that b is a prefix of (b[:i]) repeated."""
    if not b:
        raise ValueError("empty word")
    n = len(b)
    return next(i for i in range(1, n + 1) if b[i:] == b[:n - i])


def is_reduced(words):
    """True when no member of the set is a factor of another member."""
    for u in words:
        for w in words:
            if u != w and u in w:
                return False
    return True


PutativeHits = namedtuple("PutativeHits", ["pairs", "positions"])


def putative_hit_positions(w, b, alphabet):
    """Putative-hit positions of b in the b-avoiding text w.

    A pair (i, beta) is a typed putative hit when substituting w[i] := beta
    (beta != w[i]) creates at least one occurrence of b.  The positions set
    is the projection on i (a position counts once even when two target
    letters work, which can happen for sigma >= 3).

    Since w avoids b, a substitution at i creates an occurrence exactly when
    some window of w covering i matches b everywhere except at i; so it is
    enough to scan the windows with exactly one mismatch.
    """
    alphabet.check_word(b)
    k = len(b)
    if count_occurrences(w, b) != 0:
        raise ValueError("text already contains the pattern")
    pairs = set()
    for j in range(len(w) - k + 1):
        mism = -1
        for m in range(k):
            if w[j + m] != b[m]:
                if mism >= 0:
                    mism = -2
                    break
                mism = m
        if mism >= 0:
            pairs.add((j + mism + 1, b[mism]))
    return PutativeHits(
        pairs=frozenset(pairs),
        positions=frozenset(i for i, _ in pairs),
    )


def putative_hit_count(w, b, alphabet, mark=None):
    """Number of putative hits of b in w, optionally restricted to one
    mutation type.

    mark=None counts distinct positions (untyped).  mark=(alpha, beta)
    counts pairs where the text letter is alpha and the target is beta.
    """
    hits = putative_hit_positions(w, b, alphabet)
    if mark is None:
        return len(hits.positions)
    alpha, beta = mark
    return sum(1 for (i, t) in hits.pairs if t == beta and w[i - 1] == alpha)


def word_prob(w, nu):
    """Probability of w under an i.i.d. letter distribution (a mapping
    from symbol to probability)."""
    p = 1
    for c in w:
        p = p * nu[c]
    return p


def text_length(n):
    """n as an int, where it is an integer (numpy ints among them); else
    TypeError naming it, for a float such as 1e5 or a string."""
    try:
        return operator.index(n)
    except TypeError:
        raise TypeError("text length %r is not an integer" % (n,)) from None


def check_text_length(b, n):
    """Raise unless n is an integer text length (text_length) long enough
    to hold b."""
    if text_length(n) < len(b):
        raise ValueError("text length must be at least the pattern length")


def check_type(alphabet, mark):
    """Raise unless mark is None or two distinct letters of the alphabet."""
    if mark is not None:
        src, tgt = mark
        if len(src) != 1 or len(tgt) != 1 or src == tgt:
            raise ValueError("substitution type %s:%s needs two distinct "
                             "single letters" % (src, tgt))
        alphabet.check_word(src + tgt)


def letter_distribution(alphabet, nu):
    """Exact letter probabilities of nu, checked against the alphabet.

    Every letter needs a positive probability and no other key may
    appear.  The probabilities must sum to 1; a drift below 1e-12, as
    produced by rounded decimal files, is renormalized away.
    """
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
    return nuq
