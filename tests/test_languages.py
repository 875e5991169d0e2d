"""Language systems, code matrices, and the clump generating function."""

from fractions import Fraction as F

import pytest

from kmerwait import languages
from kmerwait.automata import clump_automaton, gf_from_clump_automaton
from kmerwait.evolution import asymptotics
from kmerwait.gfcore import POLY_Z, Poly, RatFun, parse_poly
from kmerwait.languages import (
    clump_gf_language,
    code_matrix,
    constrained_code_matrix,
    constrained_languages,
    marked_code_gf,
    parse_identity_residual,
    rs_solve,
)
from kmerwait.oracle import avoid_weight, enumerate_census
from kmerwait.words import Alphabet, letter_distribution, neighbors

from conftest import BIASED, TOYS, UNIFORM


def test_avoiding_gf_single_words(ac):
    """Closed forms for the avoiding functions of ACC and AAA, uniform."""
    lang = rs_solve(("ACC",), ac, UNIFORM)
    assert lang.N == RatFun(parse_poly("1"), parse_poly("1 - z + 1/8*z^3"))
    lang2 = rs_solve(("AAA",), ac, UNIFORM)
    want = RatFun(parse_poly("1 + 1/2*z + 1/4*z^2"),
                  parse_poly("1 - 1/2*z - 1/4*z^2 - 1/8*z^3"))
    assert lang2.N == want


def test_avoiding_series_vs_enumeration(ac):
    lang = rs_solve(("ACAC",), ac, BIASED)
    series = lang.N.taylor(1, 10)
    for n in range(11):
        assert series[n] == avoid_weight(("ACAC",), n, ac, BIASED)


def test_rs_solve_rejects_unreduced(ac):
    with pytest.raises(ValueError):
        rs_solve(("AA", "AAC"), ac, UNIFORM)


def structure_identity_residuals(lang):
    """Residuals of the defining right-extension identities, all exactly zero.

    For each word index i, extending the tail by one letter decomposes as
    U_i * z = sum_j M_ij + U_i - 1.  For each column j, avoiding texts
    followed by word j decompose through first occurrences and overlaps:
    N * v_j = sum_i R_i * C_ij.
    """
    r = len(lang.words)
    z = RatFun(POLY_Z)
    out = []
    for i in range(r):
        rhs = lang.U[i] - RatFun.const(1)
        for j in range(r):
            rhs = rhs + lang.M[i][j]
        out.append(lang.U[i] * z - rhs)
    for j in range(r):
        lhs = lang.N * RatFun(lang.vpolys[j])
        rhs = RatFun.const(0)
        for i in range(r):
            rhs = rhs + lang.R[i] * RatFun(lang.C[i][j])
        out.append(lhs - rhs)
    return out


def test_parse_identity_simple_sets(ac, dna):
    quarter = {c: F(1, 4) for c in "ACGT"}
    for words, alphabet, nu in (
        (("AAA",), ac, UNIFORM),
        (("AAC", "ACA", "CAA"), ac, BIASED),
        (("CATAT", "TATAT"), dna, quarter),
        # seven words, the largest system here; rs_solve takes its
        # adjugate from cofactor minors at every size
        (neighbors("AC", dna) + ("AC",), dna, quarter),
    ):
        lang = rs_solve(words, alphabet, nu)
        assert parse_identity_residual(lang).is_zero()
        for res in structure_identity_residuals(lang):
            assert res.is_zero()


def test_first_occurrence_series(ac):
    """R_j counts texts ending with their very first occurrence."""
    lang = rs_solve(("AAA",), ac, UNIFORM)
    series = lang.R[0].taylor(1, 12)
    for n in range(13):
        total = F(0)
        for x in range(2 ** n):
            w = "".join("AC"[(x >> i) & 1] for i in range(n))
            if w.endswith("AAA") and "AAA" not in w[:-1]:
                total += F(1, 2 ** n)
        assert series[n] == total


def test_code_matrix_periodic_word(ac, dna):
    cm = code_matrix(("AAAA",), ac)
    assert cm.K[0][0] == ("A",)
    # on reduced sets no codeword has a proper prefix among its own
    # codewords, so K is a code
    for words, alphabet in ([(neighbors(b, ac), ac) for b in TOYS]
                            + [(neighbors("ACGT", dna), dna)]):
        cm = code_matrix(words, alphabet)
        for row in cm.K:
            for codes in row:
                assert not any(e[:m] in codes for e in codes
                               for m in range(1, len(e)))


def test_code_matrix_drops_internal_occurrences(dna):
    cm = code_matrix(("CATAT", "TATAT"), dna)
    # ATAT is a correlation word but CATAT.ATAT swallows a TATAT inside
    assert cm.K[0][1] == ("AT",)
    cm2 = code_matrix(("CAA", "AAT", "AAA"), dna)
    i, j = cm2.words.index("CAA"), cm2.words.index("AAT")
    assert cm2.K[i][j] == ("T",)


def test_constrained_code_matrix_kbar(ac):
    cm = constrained_code_matrix("AAA", ac)
    assert cm.words == ("AAC", "ACA", "CAA")
    # extending CAA by A would rebuild AAA itself
    i = cm.words.index("CAA")
    for j in range(3):
        for h in cm.Kbar[i][j]:
            assert "AAA" not in "CAA" + h


# the marked code matrices for the two 4-mers, row by row in the
# lexicographic neighbor order
KBAR_ACAC = [
    ["0", "1/4*z^2*t", "1/4*z^2*t", "1/8*z^3*t"],
    ["1/4*z^2 + 1/8*z^3*t", "1/8*z^3*t", "1/8*z^3*t", "0"],
    ["0", "0", "0", "1/4*z^2 + 1/8*z^3*t"],
    ["0", "1/4*z^2*t", "1/4*z^2*t", "1/8*z^3*t"],
]
KBAR_AACC = [
    ["0", "1/2*z*t", "0", "0"],
    ["1/8*z^3*t", "1/8*z^3*t", "0", "1/4*z^2*t"],
    ["0", "0", "0", "1/8*z^3*t"],
    ["0", "0", "1/2*z*t", "1/8*z^3*t"],
]


@pytest.mark.parametrize("b,table", [("ACAC", KBAR_ACAC), ("AACC", KBAR_AACC)])
def test_marked_code_matrices(ac, b, table):
    mk = marked_code_gf(b, ac, UNIFORM)
    assert len(mk.words) == 4
    for i in range(4):
        for j in range(4):
            assert mk.K[i][j] == parse_poly(table[i][j]), (
                "entry (%s, %s)" % (mk.words[i], mk.words[j]))
    for i in range(4):
        assert mk.v[i] == parse_poly("1/16*z^4*t")


def test_marked_codes_no_new_mark_entries(ac):
    """Two extensions rebuild an overlapping occurrence without creating a
    new hit position, so their weight stays t-free."""
    mk = marked_code_gf("ACAC", ac, UNIFORM)
    i, j = mk.words.index("ACAA"), mk.words.index("AAAC")
    tfree = Poly({(dz, dt): c for (dz, dt), c in mk.K[i][j].terms.items()
                  if dt == 0})
    assert tfree == parse_poly("1/4*z^2")
    i2, j2 = mk.words.index("ACCC"), mk.words.index("CCAC")
    tfree2 = Poly({(dz, dt): c for (dz, dt), c in mk.K[i2][j2].terms.items()
                   if dt == 0})
    assert tfree2 == parse_poly("1/4*z^2")


def test_constrained_languages_extended(ac):
    cons = constrained_languages("AAA", ac, UNIFORM)
    assert cons.words == ("AAC", "ACA", "CAA")
    ext = cons.extended
    assert ext.words == ("AAC", "ACA", "CAA", "AAA")
    assert parse_identity_residual(ext).is_zero()
    # N of the extended system counts texts avoiding the whole set
    series = ext.N.taylor(1, 8)
    for n in range(9):
        assert series[n] == avoid_weight(ext.words, n, ac, UNIFORM)


@pytest.fixture(scope="module")
def acac_gf(ac):
    return clump_gf_language("ACAC", ac, UNIFORM)


def test_clump_gf_solves_no_language_system(ac, acac_gf, monkeypatch):
    """The clump gf builds its word system itself and never runs rs_solve;
    the parse identity it relies on is still certified through rs_solve."""

    def refuse(*args):
        raise AssertionError("clump assembly ran rs_solve")

    monkeypatch.setattr(languages, "rs_solve", refuse)
    got = clump_gf_language("ACAC", ac, UNIFORM)
    assert (got.num, got.den) == (acac_gf.num, acac_gf.den)
    monkeypatch.undo()
    assert parse_identity_residual(
        constrained_languages("ACAC", ac, UNIFORM).extended).is_zero()


def test_clump_gf_is_one_bordered_system(ac, monkeypatch):
    """The clump assembly takes no adjugate and solves no language system:
    the block matrix Q over chain states and words, bordered by the word
    weights, costs one elimination, which reads det Q off its leading
    minor."""
    assert not hasattr(languages, "bareiss_det")
    calls = {"adjugate_poly": 0, "_bareiss_pivots": 0, "rs_solve": 0}
    for name in calls:
        real = getattr(languages, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(languages, name, counted)
    clump_gf_language("ACAC", ac, UNIFORM)
    assert calls == {"adjugate_poly": 0, "_bareiss_pivots": 1, "rs_solve": 0}


@pytest.mark.parametrize("b", TOYS)
def test_clump_gf_denominator_has_no_spurious_factor(ac, b):
    """The denominator is (1-z) det Q.  A chain row of Q has z-degree at
    most k-1 and a word row at most k, so det Q is bounded by their sum.
    A power of the word system's determinant in the denominator (z-degree
    56 for ACAC, against a bound of 33) breaks the bound."""
    nuq = letter_distribution(ac, UNIFORM)
    mk = marked_code_gf(b, ac, UNIFORM)
    n = len(languages._enriched_chain(b, mk.codes, nuq, None)[1])
    k, r = len(b), len(mk.words)
    bound = 1 + n * (k - 1) + (r + 1) * k
    assert clump_gf_language(b, ac, UNIFORM).den.degree_z() <= bound


def test_clump_gf_taylor_off_one(ac):
    """taylor at a fixed t is taylor_tpolys evaluated there."""
    gf = clump_gf_language("AACC", ac, BIASED)
    rows = gf.taylor_tpolys(10)
    want = [sum((c * 2 ** m for m, c in row.items()), F(0)) for row in rows]
    assert gf.taylor(2, 10) == want
    assert any(len(row) > 1 for row in rows)


def test_clump_gf_typed_marks(ac):
    """Counting only one substitution type changes the t exponents."""
    gf = clump_gf_language("AAA", ac, UNIFORM, mark=("C", "A"))
    rows = gf.taylor_tpolys(8)
    for n in range(9):
        want = dict(enumerate_census("AAA", n, ac, UNIFORM,
                                     mark=("C", "A")).census)
        got = {m: c for m, c in rows[n].items() if c}
        assert got == want


THREE = {"A": F(1, 2), "B": F(1, 3), "C": F(1, 6)}


@pytest.mark.parametrize("b", ["AB", "AAB"])
def test_clump_gf_three_letters(b):
    """Over three letters the gf is the automaton route's, and its Taylor
    rows are the exhaustive census."""
    abc = Alphabet("ABC")
    gf = clump_gf_language(b, abc, THREE)
    assert gf == gf_from_clump_automaton(clump_automaton(b, abc), THREE)
    rows = gf.taylor_tpolys(7)
    for n in range(8):
        want = dict(enumerate_census(b, n, abc, THREE).census)
        assert {m: c for m, c in rows[n].items() if c} == want


def test_clump_gf_dna(table1):
    gf = clump_gf_language("AC", table1.alphabet, table1.nu)
    ca = clump_automaton("AC", table1.alphabet)
    assert gf == gf_from_clump_automaton(ca, table1.nu)


def test_clump_gf_t1_is_plain_avoiding(ac, binu, acac_gf):
    avoid = acac_gf.subs_t(1)
    plain = rs_solve(("ACAC",), ac, UNIFORM).N
    assert avoid == plain
    # the transfer matrix's Perron root is the pole of the avoiding GF
    tau = asymptotics("ACAC", binu).tau

    def at_tau(poly):
        terms = [float(c) * tau ** i for i, c in enumerate(poly.zcoeffs())]
        return abs(sum(terms)), sum(abs(x) for x in terms)

    value, scale = at_tau(avoid.den)
    assert value <= 1e-12 * scale
    value, scale = at_tau(avoid.num)
    assert value > 1e-12 * scale
