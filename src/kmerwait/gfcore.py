"""Exact arithmetic backbone.

Arbitrary-precision rationals, bivariate polynomials in (z, t), rational
functions, matrices over those, and Taylor coefficient extraction.

Everything here is exact (the float64 kernels live in automata and
evolution).  The one rational type is fractions.Fraction over Python ints.
"""

import math
import re
from fractions import Fraction

QZERO = Fraction(0)
QONE = Fraction(1)


def as_q(x):
    """Coerce ints, Fractions and decimal strings to a Fraction."""
    if isinstance(x, float):
        raise TypeError("refusing to build an exact rational from a float")
    return Fraction(x)


class Poly:
    """A polynomial in z and t with rational coefficients.

    Stored as a mapping (z_degree, t_degree) -> coefficient with no zero
    entries.  Instances are treated as immutable; all operations return new
    polynomials.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        self.terms = {m: c for m, c in terms.items() if c != 0}

    @staticmethod
    def const(c):
        return Poly({(0, 0): as_q(c)})

    @staticmethod
    def monomial(c, dz, dt=0):
        if dz < 0 or dt < 0:
            raise ValueError("negative degree")
        return Poly({(dz, dt): as_q(c)})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, QZERO) + c
        return Poly(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, QZERO) - c
        return Poly(out)

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        if not self.terms or not other.terms:
            return Poly()
        out = {}
        for (za, ta), ca in self.terms.items():
            for (zb, tb), cb in other.terms.items():
                m = (za + zb, ta + tb)
                out[m] = out.get(m, QZERO) + ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def scale(self, c):
        c = as_q(c)
        return Poly({m: cc * c for m, cc in self.terms.items()})

    def degree_z(self):
        return max((m[0] for m in self.terms), default=-1)

    def valuation_z(self):
        return min((m[0] for m in self.terms), default=0)

    def valuation_t(self):
        return min((m[1] for m in self.terms), default=0)

    def is_t_free(self):
        return all(m[1] == 0 for m in self.terms)

    def subs_t(self, val):
        """Substitute a rational value for t (result is a poly in z only)."""
        val = as_q(val)
        out = {}
        for (dz, dt), c in self.terms.items():
            out[(dz, 0)] = out.get((dz, 0), QZERO) + c * val ** dt
        return Poly(out)

    def dt1(self):
        """Partial derivative in t, then t := 1 (a poly in z only)."""
        out = {}
        for (dz, dt), c in self.terms.items():
            out[(dz, 0)] = out.get((dz, 0), QZERO) + c * dt
        return Poly(out)

    def zcoeffs(self):
        """Dense coefficient list [z^0 .. z^deg]; requires a t-free poly."""
        if not self.is_t_free():
            raise ValueError("polynomial involves t")
        out = [QZERO] * (self.degree_z() + 1)
        for (dz, _), c in self.terms.items():
            out[dz] = c
        return out

    def zcoeff_tpolys(self, n_max):
        """Coefficients of z^0..z^n_max as mappings t_degree -> coefficient."""
        out = [dict() for _ in range(n_max + 1)]
        for (dz, dt), c in self.terms.items():
            if dz <= n_max:
                out[dz][dt] = out[dz].get(dt, QZERO) + c
        return out

    def content(self):
        """Positive rational content (gcd of numerators over lcm of
        denominators); content of 0 is 1."""
        if not self.terms:
            return QONE
        coefs = self.terms.values()
        return Fraction(math.gcd(*(c.numerator for c in coefs)),
                        math.lcm(*(c.denominator for c in coefs)))

    def lowest_coeff(self):
        """Coefficient of the (z,t)-lexicographically smallest monomial."""
        if not self.terms:
            return QZERO
        return self.terms[min(self.terms)]

    def leading(self):
        """(monomial, coefficient) for the lexicographically largest term."""
        m = max(self.terms)
        return m, self.terms[m]

    def divexact(self, other):
        """Exact polynomial division (raises when the division is not exact)."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = dict(self.terms)
        out = {}
        (lz, lt), lc = other.leading()
        while rem:
            (mz, mt) = max(rem)
            c = rem[(mz, mt)]
            qz, qt = mz - lz, mt - lt
            if qz < 0 or qt < 0:
                raise ValueError("inexact polynomial division")
            qc = c / lc
            out[(qz, qt)] = qc
            for (bz, bt), bc in other.terms.items():
                m = (bz + qz, bt + qt)
                s = rem.get(m, QZERO) - bc * qc
                if s == 0:
                    rem.pop(m, None)
                else:
                    rem[m] = s
        return Poly(out)

    def __repr__(self):
        return "Poly(%s)" % render_poly(self)


POLY_ZERO = Poly()
POLY_ONE = Poly.const(1)
POLY_Z = Poly.monomial(1, 1, 0)


def gcd_univariate(a, b):
    """Monic gcd of two t-free polynomials over the rationals."""
    fa, fb = a.zcoeffs(), b.zcoeffs()
    while fb and any(c != 0 for c in fb):
        fa, fb = fb, _polyrem(fa, fb)
    fa = _trim(fa)
    if not fa:
        return POLY_ONE
    lead = fa[-1]
    return Poly({(i, 0): c / lead for i, c in enumerate(fa) if c != 0})


def _trim(cs):
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _polyrem(a, b):
    a = _trim(list(a))
    b = _trim(list(b))
    db = len(b) - 1
    lead = b[-1]
    while len(a) - 1 >= db:
        da = len(a) - 1
        f = a[-1] / lead
        for i in range(db + 1):
            a[da - db + i] -= f * b[i]
        a = _trim(a[:-1])
    return a


class RatFun:
    """A rational function num/den in (z, t), kept in a canonical form.

    Canonical means: common monomial factors of num and den stripped, the
    denominator scaled to have integer coefficients of gcd 1 and a positive
    lowest-order coefficient, and (when both parts are t-free) the pair
    reduced by their univariate gcd.  Equality between two RatFuns is
    decided by cross-multiplication, so it is exact even when a common
    bivariate factor survives canonicalization.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=POLY_ONE):
        if not isinstance(num, Poly):
            num = Poly.const(num)
        if not isinstance(den, Poly):
            den = Poly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num, self.den = POLY_ZERO, POLY_ONE
            return
        vz = min(num.valuation_z(), den.valuation_z())
        vt = min(num.valuation_t(), den.valuation_t())
        if vz or vt:
            num = Poly({(mz - vz, mt - vt): c for (mz, mt), c in num.terms.items()})
            den = Poly({(mz - vz, mt - vt): c for (mz, mt), c in den.terms.items()})
        if num.is_t_free() and den.is_t_free():
            g = gcd_univariate(num, den)
            if g.degree_z() > 0:
                num = num.divexact(g)
                den = den.divexact(g)
        s = den.content()
        if den.lowest_coeff() < 0:
            s = -s
        inv = 1 / s
        self.num = num.scale(inv)
        self.den = den.scale(inv)

    @staticmethod
    def const(c):
        return RatFun(Poly.const(c))

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __add__(self, other):
        other = _as_rf(other)
        return RatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_rf(other)
        return RatFun(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        other = _as_rf(other)
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rf(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFun(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _as_rf(other).__truediv__(self)

    def subs_t(self, val):
        return RatFun(self.num.subs_t(val), self.den.subs_t(val))

    def dt_at_one(self):
        """Exact d/dt at t=1 (quotient rule, then substitute)."""
        n1 = self.num.subs_t(1)
        d1 = self.den.subs_t(1)
        nt = self.num.dt1()
        dt = self.den.dt1()
        return RatFun(nt * d1 - n1 * dt, d1 * d1)

    def taylor(self, at_t, n_max):
        """Coefficients [z^0 .. z^n_max] of the series at a fixed t value."""
        return [row.get(0, QZERO)
                for row in self.subs_t(at_t).taylor_tpolys(n_max)]

    def taylor_tpolys(self, n_max):
        """Coefficients [z^0 .. z^n_max] as polynomials in t (mappings
        t_degree -> rational).  Requires den(0, t) to be a nonzero constant,
        which holds for every generating function assembled here."""
        p = self.num.zcoeff_tpolys(n_max)
        q = self.den.zcoeff_tpolys(self.den.degree_z())
        q0 = q[0]
        if list(q0.keys()) not in ([0], []):
            raise ValueError("denominator constant term involves t")
        q0c = q0.get(0, QZERO)
        if q0c == 0:
            raise ValueError("not expandable at z=0")
        coeffs = []
        for n in range(n_max + 1):
            acc = dict(p[n]) if n < len(p) else {}
            for i in range(1, min(n, len(q) - 1) + 1):
                for dt_i, ci in q[i].items():
                    for dt_a, ca in coeffs[n - i].items():
                        m = dt_i + dt_a
                        acc[m] = acc.get(m, QZERO) - ci * ca
            coeffs.append({m: c / q0c for m, c in acc.items() if c != 0})
        return coeffs

    def __repr__(self):
        return "RatFun(%s)" % render_ratfun(self)


def _as_rf(x):
    if isinstance(x, RatFun):
        return x
    if isinstance(x, Poly):
        return RatFun(x)
    return RatFun(Poly.const(x))


# ---------------------------------------------------------------------------
# matrices

def _bareiss_pivots(mat):
    """(minor, det) of a square Poly matrix, the last two pivots of one
    fraction-free elimination (Bareiss, Math. Comp. 1968): the leading
    minor of order n - 1 and the determinant.  The pivot search runs top
    down, so the last row is swapped into the leading block only when that
    block is singular, and the minor is then 0.  Every division is exact.
    """
    n = len(mat)
    m = [row[:] for row in mat]
    sign, lifted = 1, False
    prev = POLY_ONE
    for p in range(n - 1):
        if m[p][p].is_zero():
            swap = next((r for r in range(p + 1, n) if not m[r][p].is_zero()), None)
            if swap is None:
                return POLY_ZERO, POLY_ZERO
            m[p], m[swap] = m[swap], m[p]
            sign = -sign
            lifted |= swap == n - 1
        piv = m[p][p]
        for i in range(p + 1, n):
            for j in range(p + 1, n):
                num = piv * m[i][j] - m[i][p] * m[p][j]
                m[i][j] = num.divexact(prev)
            m[i][p] = POLY_ZERO
        prev = piv
    minor = POLY_ZERO if lifted else prev
    det = m[n - 1][n - 1]
    return (minor, det) if sign == 1 else (-minor, -det)


def bareiss_det(mat):
    """Determinant of a square Poly matrix, _bareiss_pivots' last pivot."""
    return _bareiss_pivots(mat)[1]


def adjugate_poly(mat):
    """(det, adj) of a square Poly matrix from one fraction-free
    Gauss-Jordan elimination of [mat | I] (Bareiss, Math. Comp. 1968;
    Nakos, Turner & Williams, SIGSAM Bull. 1997).  Step p clears column p
    above the pivot as well as below it and divides by the previous pivot,
    exactly, so the elimination ends at [d I | d mat^-1], d being the last
    pivot: det up to the sign of the row swaps.  Cleared columns are not
    stored.  A singular matrix raises ArithmeticError.
    """
    n = len(mat)
    m = [row[:] + [POLY_ONE if i == j else POLY_ZERO for j in range(n)]
         for i, row in enumerate(mat)]
    sign, prev = 1, POLY_ONE
    for p in range(n):
        swap = next((r for r in range(p, n) if not m[r][p].is_zero()), None)
        if swap is None:
            raise ArithmeticError("singular matrix has no adjugate by elimination")
        if swap != p:
            m[p], m[swap] = m[swap], m[p]
            sign = -sign
        piv = m[p][p]
        for i in range(n):
            if i != p:
                f = m[i][p]
                m[i][p + 1:] = [(piv * a - f * b).divexact(prev)
                                for a, b in zip(m[i][p + 1:], m[p][p + 1:])]
        prev = piv
    adj = [row[n:] for row in m]
    if sign == 1:
        return prev, adj
    return -prev, [[-x for x in row] for row in adj]


def rfm_inverse(mat):
    """Exact inverse of a square RatFun matrix by Gauss-Jordan elimination."""
    n = len(mat)
    a = [row[:] for row in mat]
    one, zero = RatFun.const(1), RatFun.const(0)
    inv = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            inv[col], inv[piv] = inv[piv], inv[col]
        scale = a[col][col]
        a[col] = [x / scale for x in a[col]]
        inv[col] = [x / scale for x in inv[col]]
        for r in range(n):
            if r == col or a[r][col].is_zero():
                continue
            f = a[r][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
            inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


# ---------------------------------------------------------------------------
# rendering and parsing

def render_poly(p):
    if p.is_zero():
        return "0"
    parts = []
    for (dz, dt) in sorted(p.terms):
        c = p.terms[(dz, dt)]
        mono = []
        if dz == 1:
            mono.append("z")
        elif dz > 1:
            mono.append("z^%d" % dz)
        if dt == 1:
            mono.append("t")
        elif dt > 1:
            mono.append("t^%d" % dt)
        neg = c < 0
        cf = abs(c)
        if not mono:
            body = str(cf)
        elif cf == 1:
            body = "*".join(mono)
        else:
            body = str(cf) + "*" + "*".join(mono)
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append((" - " if neg else " + ") + body)
    return "".join(parts)


def render_ratfun(f):
    if f.den == POLY_ONE:
        return render_poly(f.num)
    return "(%s) / (%s)" % (render_poly(f.num), render_poly(f.den))


_TERM_RE = re.compile(r"^(?P<coef>-?\d+(?:/\d+)?)?(?P<rest>(?:\*?[zt](?:\^\d+)?)*)$")


def parse_poly(s):
    s = s.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1].strip()
    if s == "0":
        return POLY_ZERO
    s = s.replace(" ", "")
    s = s.replace("-", "+-")
    if s.startswith("+-"):
        s = s[1:]
    terms = {}
    for chunk in s.split("+"):
        if not chunk:
            continue
        neg = chunk.startswith("-")
        if neg:
            chunk = chunk[1:]
        m = _TERM_RE.match(chunk)
        if not m:
            raise ValueError("cannot parse term %r" % chunk)
        coef = m.group("coef")
        c = QONE if coef is None else Fraction(coef)
        dz = dt = 0
        rest = m.group("rest") or ""
        for factor in re.findall(r"[zt](?:\^\d+)?", rest):
            var = factor[0]
            deg = int(factor[2:]) if "^" in factor else 1
            if var == "z":
                dz += deg
            else:
                dt += deg
        if neg:
            c = -c
        key = (dz, dt)
        terms[key] = terms.get(key, QZERO) + c
    return Poly(terms)

