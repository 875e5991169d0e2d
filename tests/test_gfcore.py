"""Exact bivariate polynomials, rational functions, and matrix helpers."""

from fractions import Fraction as F

import pytest

from kmerwait.gfcore import (
    Poly,
    Q,
    RatFun,
    adjugate_poly,
    as_q,
    bareiss_det,
    cramer_solve_component,
    gcd_univariate,
    identity_poly,
    mat_mul_poly,
    parse_poly,
    parse_ratfun,
    render_poly,
    render_ratfun,
    rfm_identity,
    rfm_inverse,
    rfm_mul,
)

Z = Poly.monomial(1, 1, 0)
T = Poly.monomial(1, 0, 1)
ONE = Poly.const(1)


def test_as_q():
    assert as_q(F(2, 4)) == Q(1, 2)
    assert as_q(3) == 3
    assert as_q(Q(5, 7)) == Q(5, 7)


def test_poly_arithmetic():
    p = (ONE + Z) * (ONE + Z)
    assert p == ONE + Z.scale(2) + Z * Z
    assert (p - p).is_zero()
    assert (-Z) + Z == Poly()


def test_poly_bivariate_product():
    p = (ONE + Z * T) * (ONE - Z * T)
    assert p == ONE - Poly.monomial(1, 2, 2)
    assert p.degree_z() == 2 and p.degree_t() == 2


def test_poly_subs_and_derivatives():
    p = Poly.monomial(Q(1, 2), 2, 1) + Poly.monomial(1, 1, 0)
    # at t=1 the mark disappears
    assert p.subs_t(1) == Poly.monomial(Q(1, 2), 2, 0) + Z
    assert p.eval_t1() == p.subs_t(1)
    # d/dt at t=1 keeps only the marked term
    assert p.dt1() == Poly.monomial(Q(1, 2), 2, 0)
    assert p.deriv_z() == Poly.monomial(1, 1, 1) + ONE


def test_poly_zcoeffs():
    p = ONE + Z.scale(3) + (Z * Z * Z).scale(-2)
    assert p.zcoeffs() == [1, 3, 0, -2]


def test_poly_divexact():
    a = (ONE + Z) * (ONE - Z + Z * Z)
    assert a.divexact(ONE + Z) == ONE - Z + Z * Z
    with pytest.raises(ValueError):
        (ONE + Z).divexact(Z)


def test_poly_render_parse_roundtrip():
    p = (ONE.scale(Q(1, 4)) - Z * T.scale(Q(3, 8))) * (ONE + Z * Z)
    assert parse_poly(render_poly(p)) == p
    assert parse_poly("1 - z") == ONE - Z
    assert parse_poly("1/2*z^3*t^2") == Poly.monomial(Q(1, 2), 3, 2)


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
    assert f.taylor(1, 8) == [Q(1)] * 9


def test_ratfun_taylor_tpolys():
    # 1/(1 - z t): coefficient of z^n is t^n
    f = RatFun(ONE, ONE - Z * T)
    rows = f.taylor_tpolys(5)
    for n, row in enumerate(rows):
        assert row == {n: Q(1)}


def test_ratfun_subs_t1_and_dt():
    f = RatFun(ONE, ONE - Z * T)
    g = f.subs_t1()
    assert g == RatFun(ONE, ONE - Z)
    # d/dt 1/(1-zt) at t=1 is z/(1-z)^2, whose coefficients are 0,1,2,3...
    h = f.dt_at_one()
    assert h.taylor(1, 5) == [Q(n) for n in range(6)]


def test_bareiss_det_integer():
    m = [[Poly.const(c) for c in row]
         for row in ((2, 0, 1), (1, 3, 2), (0, 1, 4))]
    d = bareiss_det(m)
    assert d == Poly.const(2 * (3 * 4 - 2 * 1) - 0 + 1 * (1 * 1 - 0))


def test_bareiss_det_poly():
    m = [[ONE, Z], [Z, ONE]]
    assert bareiss_det(m) == ONE - Z * Z


def test_adjugate_identity():
    m = [[ONE, Z, Poly.const(2)],
         [Poly(), ONE - Z, Z * Z],
         [Z, ONE, ONE]]
    det = bareiss_det(m)
    adj = adjugate_poly(m)
    prod = mat_mul_poly(m, adj)
    for i in range(3):
        for j in range(3):
            assert prod[i][j] == (det if i == j else Poly())


def test_cramer_component():
    m = [[ONE, Z], [Z, ONE]]
    rhs = [ONE, Poly()]
    # solve (I with z off-diagonal) x = e1; x0 = 1/(1-z^2)
    sol = cramer_solve_component(m, rhs, 0)
    assert sol == RatFun(ONE, ONE - Z * Z)


def test_rfm_inverse_roundtrip():
    one = RatFun(ONE)
    zero = RatFun(Poly())
    zr = RatFun(Z)
    m = [[one, zr], [zr * zr, one]]
    inv = rfm_inverse(m)
    prod = rfm_mul(m, inv)
    ident = rfm_identity(2)
    for i in range(2):
        for j in range(2):
            assert prod[i][j] == ident[i][j]


def test_identity_poly():
    e = identity_poly(3)
    assert e[0][0] == ONE and e[1][2] == Poly()


def test_parse_ratfun():
    f = parse_ratfun("(1 + z) / (1 - z - z^2)")
    assert f == RatFun(ONE + Z, ONE - Z - Z * Z)
    g = parse_ratfun("1/2*z")
    assert g == RatFun(Z.scale(Q(1, 2)))
    f2 = RatFun(Z.scale(Q(1, 2)), ONE - Z.scale(Q(1, 4)))
    assert parse_ratfun(render_ratfun(f2)) == f2
