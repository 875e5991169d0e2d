"""Exact bivariate polynomials, rational functions, and matrix helpers."""

from fractions import Fraction as F

import pytest

from kmerwait.gfcore import (
    Poly,
    RatFun,
    _bareiss_pivots,
    adjugate_poly,
    as_q,
    bareiss_det,
    gcd_univariate,
    parse_poly,
    render_poly,
    render_ratfun,
    rfm_inverse,
)

Z = Poly.monomial(1, 1, 0)
T = Poly.monomial(1, 0, 1)
ONE = Poly.const(1)


def test_as_q():
    assert as_q(F(2, 4)) == F(1, 2)
    assert as_q(3) == 3
    assert as_q(F(5, 7)) == F(5, 7)


def test_poly_arithmetic():
    p = (ONE + Z) * (ONE + Z)
    assert p == ONE + Z.scale(2) + Z * Z
    assert (p - p).is_zero()
    assert (-Z) + Z == Poly()
    # a zero scale stores no coefficient
    assert Z.scale(0).terms == {}


def test_poly_bivariate_product():
    p = (ONE + Z * T) * (ONE - Z * T)
    assert p == ONE - Poly.monomial(1, 2, 2)
    assert p.degree_z() == 2


def test_poly_subs_and_derivatives():
    p = Poly.monomial(F(1, 2), 2, 1) + Poly.monomial(1, 1, 0)
    # at t=1 the mark disappears
    assert p.subs_t(1) == Poly.monomial(F(1, 2), 2, 0) + Z
    assert p.subs_t(1).terms == {(2, 0): F(1, 2), (1, 0): 1}
    # d/dt at t=1 keeps only the marked term
    assert p.dt1() == Poly.monomial(F(1, 2), 2, 0)
    # cancelling terms store no zero coefficient
    assert (T - ONE).subs_t(1).terms == {}
    assert (Z * T * T - (Z * T).scale(2)).dt1().terms == {}


def test_poly_zcoeffs():
    p = ONE + Z.scale(3) + (Z * Z * Z).scale(-2)
    assert p.zcoeffs() == [1, 3, 0, -2]


def test_poly_divexact():
    a = (ONE + Z) * (ONE - Z + Z * Z)
    assert a.divexact(ONE + Z) == ONE - Z + Z * Z
    with pytest.raises(ValueError):
        (ONE + Z).divexact(Z)


def test_poly_render_parse_roundtrip():
    p = (ONE.scale(F(1, 4)) - Z * T.scale(F(3, 8))) * (ONE + Z * Z)
    assert parse_poly(render_poly(p)) == p
    assert parse_poly("1 - z") == ONE - Z
    assert parse_poly("1/2*z^3*t^2") == Poly.monomial(F(1, 2), 3, 2)


def test_gcd_univariate():
    sq = (ONE + Z) * (ONE + Z)
    g = gcd_univariate(sq.scale(2), sq * Z)
    assert g == sq


def test_ratfun_reduces_common_factors():
    num = ONE - Z * Z
    den = ONE - Z
    f = RatFun(num, den)
    assert f == RatFun(ONE + Z)
    assert render_ratfun(f) == "1 + z"


def test_ratfun_arith():
    f = RatFun(ONE, ONE - Z)
    g = RatFun(Z, ONE - Z)
    assert f - g == RatFun(ONE)
    assert f * (ONE - Z) == RatFun(ONE)
    assert (f / f) == RatFun(ONE)
    assert 1 / RatFun(ONE - Z) == f


def test_ratfun_taylor_geometric():
    f = RatFun(ONE, ONE - Z)
    assert f.taylor(1, 8) == [F(1)] * 9


def test_ratfun_taylor_tpolys():
    # 1/(1 - z t): coefficient of z^n is t^n
    f = RatFun(ONE, ONE - Z * T)
    rows = f.taylor_tpolys(5)
    for n, row in enumerate(rows):
        assert row == {n: F(1)}
    # (1 - zt)/(1 - zt) = 1: the z^1 row cancels in the recurrence
    rows = RatFun(ONE - Z * T, ONE - Z * T).taylor_tpolys(3)
    assert rows == [{0: 1}, {}, {}, {}]


def test_ratfun_subs_t1_and_dt():
    f = RatFun(ONE, ONE - Z * T)
    g = f.subs_t(1)
    assert g == RatFun(ONE, ONE - Z)
    # d/dt 1/(1-zt) at t=1 is z/(1-z)^2, whose coefficients are 0,1,2,3...
    h = f.dt_at_one()
    assert h.taylor(1, 5) == [F(n) for n in range(6)]


def test_bareiss_det_integer():
    m = [[Poly.const(c) for c in row]
         for row in ((2, 0, 1), (1, 3, 2), (0, 1, 4))]
    d = bareiss_det(m)
    assert d == Poly.const(2 * (3 * 4 - 2 * 1) - 0 + 1 * (1 * 1 - 0))


def test_bareiss_det_poly():
    m = [[ONE, Z], [Z, ONE]]
    assert bareiss_det(m) == ONE - Z * Z


def _laplace(m):
    """Determinant by expansion along row 0, the reference."""
    if not m:
        return ONE
    return sum((m[0][j].scale((-1) ** j)
                * _laplace([row[:j] + row[j + 1:] for row in m[1:]])
                for j in range(len(m))), Poly())


def _polys(rows):
    return [[c if isinstance(c, Poly) else Poly.const(c) for c in row]
            for row in rows]


PIVOT_CASES = [
    # no swap, every pivot a different polynomial
    ([[2, Z, 1, 0], [1, 3, Z, 1], [Z, 1, 4, Z * Z], [1, Z, 0, 2]],
     False, False),
    # a swap among the leading rows: both pivots change sign
    ([[0, Z, 2], [1, 3, Z], [Z, 1, 4]], False, False),
    # the last row lifted at step 0 and no swap after it: the pivot on the
    # diagonal after step n - 2 is 1, the leading minor 0
    ([[0, 1, 1], [0, 1, 2], [1, 1, 1]], True, False),
    # the last row lifted at step 0, then a swap among the leading rows
    ([[0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 1, 1], [1, 0, 0, Z]], True, False),
    # a swap at the last step brings up the last row
    ([[1, 0, 0], [0, 0, 1], [0, Z, 0]], True, False),
    # singular with a nonzero leading minor, and with no pivot in column 0
    ([[1, 2, 3], [2, 5, Z], [3, 7, Z + Poly.const(3)]], False, True),
    ([[0, 1, Z], [0, 3, 4], [0, 5, 6]], True, True),
]
PIVOT_IDS = ["no-swap", "lead-swap", "lifted", "lifted-then-swap",
             "last-swap", "singular", "no-pivot"]


@pytest.mark.parametrize("rows, minor_zero, det_zero", PIVOT_CASES,
                         ids=PIVOT_IDS)
def test_bareiss_pivots_are_leading_minor_and_det(rows, minor_zero,
                                                  det_zero):
    """The last two pivots of one elimination are the leading minor of
    order n - 1 and the determinant, as two separate eliminations give."""
    m = _polys(rows)
    lead = [row[:-1] for row in m[:-1]]
    minor, det = _bareiss_pivots(m)
    assert (minor, det) == (bareiss_det(lead), bareiss_det(m))
    assert (minor, det) == (_laplace(lead), _laplace(m))
    assert (minor.is_zero(), det.is_zero()) == (minor_zero, det_zero)


@pytest.mark.parametrize("rows, minor_zero, det_zero", PIVOT_CASES,
                         ids=PIVOT_IDS)
def test_adjugate_is_laplace_cofactors(rows, minor_zero, det_zero):
    """One Gauss-Jordan elimination, row swaps included, gives the
    determinant and every cofactor that Laplace expansion gives; a
    singular matrix raises."""
    m = _polys(rows)
    if det_zero:
        with pytest.raises(ArithmeticError):
            adjugate_poly(m)
        return
    n = len(m)
    cofactors = [[_laplace([row[:i] + row[i + 1:]
                            for r, row in enumerate(m) if r != j])
                  .scale((-1) ** (i + j)) for j in range(n)]
                 for i in range(n)]
    assert adjugate_poly(m) == (_laplace(m), cofactors)


def test_adjugate_identity():
    m = [[ONE, Z, Poly.const(2)],
         [Poly(), ONE - Z, Z * Z],
         [Z, ONE, ONE]]
    det, adj = adjugate_poly(m)
    assert det == bareiss_det(m)
    for i in range(3):
        for j in range(3):
            prod = sum((m[i][l] * adj[l][j] for l in range(3)), Poly())
            assert prod == (det if i == j else Poly())


def test_rfm_inverse_roundtrip():
    one = RatFun(ONE)
    zr = RatFun(Z)
    m = [[one, zr], [zr * zr, one]]
    # det = 1 - z^3, so the inverse is the adjugate over it
    det = ONE - Z * Z * Z
    want = [[RatFun(ONE, det), RatFun(-Z, det)],
            [RatFun(-(Z * Z), det), RatFun(ONE, det)]]
    assert rfm_inverse(m) == want
