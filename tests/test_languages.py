"""Language systems, code matrices, and the clump generating function."""

from fractions import Fraction as F

import pytest

from kmerwait.evolution import asymptotics
from kmerwait.gfcore import Poly, Q, RatFun, parse_poly, parse_ratfun
from kmerwait.languages import (
    clump_gf_language,
    code_matrix,
    constrained_code_matrix,
    constrained_languages,
    marked_code_gf,
    parse_identity_residual,
    rs_solve,
    structure_identity_residuals,
)
from kmerwait.oracle import avoid_weight, enumerate_census
from kmerwait.words import Alphabet

from conftest import BIASED, TOYS, UNIFORM


def test_avoiding_gf_single_words(ac):
    """Closed forms for the avoiding functions of ACC and AAA, uniform."""
    lang = rs_solve(("ACC",), ac, UNIFORM)
    assert lang.N == parse_ratfun("(1) / (1 - z + 1/8*z^3)")
    lang2 = rs_solve(("AAA",), ac, UNIFORM)
    want = parse_ratfun(
        "(1 + 1/2*z + 1/4*z^2) / (1 - 1/2*z - 1/4*z^2 - 1/8*z^3)")
    assert lang2.N == want


def test_avoiding_series_vs_enumeration(ac):
    lang = rs_solve(("ACAC",), ac, BIASED)
    series = lang.N.taylor(1, 10)
    for n in range(11):
        assert series[n] == avoid_weight(("ACAC",), n, ac, BIASED)


def test_rs_solve_rejects_unreduced(ac):
    with pytest.raises(ValueError):
        rs_solve(("AA", "AAC"), ac, UNIFORM)


def test_parse_identity_simple_sets(ac, dna):
    quarter = {c: F(1, 4) for c in "ACGT"}
    for words, alphabet, nu in (
        (("AAA",), ac, UNIFORM),
        (("AAC", "ACA", "CAA"), ac, BIASED),
        (("CATAT", "TATAT"), dna, quarter),
    ):
        lang = rs_solve(words, alphabet, nu)
        assert parse_identity_residual(lang).is_zero()
        for res in structure_identity_residuals(lang):
            assert res.is_zero()


def test_first_occurrence_series(ac):
    """R_j counts texts ending with their very first occurrence."""
    lang = rs_solve(("AAA",), ac, UNIFORM)
    series = lang.R[0].taylor(1, 9)
    for n in range(10):
        total = Q(0)
        for x in range(2 ** n):
            w = "".join("AC"[(x >> i) & 1] for i in range(n))
            if w.endswith("AAA") and "AAA" not in w[:-1]:
                total += Q(1, 2 ** n)
        assert series[n] == total


def test_code_matrix_periodic_word(ac):
    cm = code_matrix(("AAAA",), ac)
    assert cm.K[0][0] == ("A",)
    assert cm.B[0][0] == ("A",)


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


@pytest.mark.parametrize("b", TOYS)
@pytest.mark.parametrize("nu", [UNIFORM, BIASED], ids=["uniform", "biased"])
def test_clump_gf_census_vs_enumeration(ac, b, nu):
    gf = clump_gf_language(b, ac, nu)
    rows = gf.taylor_tpolys(9)
    for n in range(10):
        got = {m: c for m, c in rows[n].items() if c}
        want = dict(enumerate_census(b, n, ac, nu).census)
        assert got == want


def test_clump_gf_typed_marks(ac):
    """Counting only one substitution type changes the t exponents."""
    gf = clump_gf_language("AAA", ac, UNIFORM, mark=("C", "A"))
    rows = gf.taylor_tpolys(8)
    for n in range(9):
        want = dict(enumerate_census("AAA", n, ac, UNIFORM,
                                     mark=("C", "A")).census)
        got = {m: c for m, c in rows[n].items() if c}
        assert got == want


def test_clump_gf_t1_is_plain_avoiding(ac, binu):
    gf = clump_gf_language("ACAC", ac, UNIFORM)
    avoid = gf.subs_t1()
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
