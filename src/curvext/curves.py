"""Odd-degree hyperelliptic curve model: y^2 = f(x), deg f = 2g+1.

Conventions, fixed once and used everywhere:

* f is squarefree of odd degree 2g+1 >= 3 over a field of characteristic
  not 2, so the smooth model has exactly one point at infinity, a
  Weierstrass point of degree 1;
* at infinity v(x) = -2 and v(y) = -(2g+1); the uniformizer is x^g / y;
* the canonical class is represented by the fixed divisor (2g-2)*infinity;
* an affine closed place is stored by its monic irreducible x-minimal
  polynomial p together with a branch:

  - split:    ybranch b with b^2 = f and b != 0 mod p; two places over p,
  - ramified: b = 0 with p | f (affine Weierstrass places),
  - nonsplit: f is a nonsquare mod p and the residue field of the place
    is the quadratic extension of k[x]/(p) generated by y; such places
    have degree 2*deg(p) and carry no ybranch.

Local expansions develop x and y as exact Laurent series in the
uniformizer with coefficients in the residue field; valuations scan a
numerator expansion for its first nonzero coefficient, raising precision
per the documented policy (start at bound + g + 2, double, hard cap 512).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iproduct
from math import isqrt

from .errors import InputError, PrecisionExceeded
from .fields import (FieldDescriptor, FieldElement, Rationals,
                     field_from_json, field_to_json)
from .polys import Poly, iter_monic_irreducible, residue_inverse, residue_is_square, residue_sqrt

_PRECISION_CAP = 512

_KIND_RANK = {"infinity": 0, "ramified": 1, "split": 2, "nonsplit": 3}


class HyperellipticCurve:
    """y^2 = f(x) with the conventions above.  Build through make_curve."""

    __slots__ = ("field", "f", "genus", "label", "_rr_cache", "_point_cache")

    def __init__(self, field: FieldDescriptor, f: Poly, label: str | None = None):
        self.field = field
        self.f = f
        self.genus = (f.degree - 1) // 2
        self.label = label
        self._rr_cache = {}
        self._point_cache = {}

    def __eq__(self, other):
        return (isinstance(other, HyperellipticCurve)
                and other.field == self.field and other.f == self.f)

    def __hash__(self):
        return hash((self.field, self.f))

    def __repr__(self):
        name = f" '{self.label}'" if self.label else ""
        return f"HyperellipticCurve{name}(y^2 = {self.f!r} over {self.field!r})"

    # -- points ---------------------------------------------------------------

    def infinity(self) -> "CurvePoint":
        return CurvePoint(self, "infinity", None, None)

    def point(self, x, y) -> "CurvePoint":
        """Affine place with rational x-coordinate; pass y=None for the
        nonsplit place over x (requires f(x) to be a nonsquare)."""
        F = self.field
        x0 = F.coerce(x)
        p = Poly(F, [F.neg(x0), F.pone])
        if y is None:
            return self.closed_point(p, None)
        return self.closed_point(p, Poly(F, [F.coerce(y)]))

    def closed_point(self, xminpoly: Poly, ybranch: Poly | None) -> "CurvePoint":
        """General affine closed place; ybranch=None requests the nonsplit
        place over xminpoly."""
        p = xminpoly
        if p.field != self.field:
            raise InputError("xminpoly is over the wrong field")
        if p.degree < 1 or not p.is_monic():
            raise InputError("xminpoly must be monic of degree >= 1")
        _check_irreducible(p)
        fbar = self.f % p
        if fbar.is_zero():
            if ybranch is not None and not (ybranch % p).is_zero():
                raise InputError("place over a root of f must have ybranch 0")
            return CurvePoint(self, "ramified", p, Poly.zero(self.field))
        if ybranch is None:
            _check_nonsquare(fbar, p)
            return CurvePoint(self, "nonsplit", p, None)
        b = ybranch % p
        if b.is_zero():
            raise InputError("zero ybranch over a place where f does not vanish")
        if not ((b * b - self.f) % p).is_zero():
            raise InputError("ybranch^2 != f modulo xminpoly")
        return CurvePoint(self, "split", p, b)

    # -- divisors ---------------------------------------------------------------

    def divisor(self, items) -> "Divisor":
        return Divisor(self, items)

    def infinity_divisor(self, mult: int) -> "Divisor":
        return Divisor(self, [(self.infinity(), mult)])

    def canonical_divisor(self) -> "Divisor":
        """The fixed representative (2g-2) * infinity of the canonical class."""
        return self.infinity_divisor(2 * self.genus - 2)

    def norm_poly(self, a: Poly, b: Poly) -> Poly:
        """(a + b*y)(a - b*y) = a^2 - b^2 f, a polynomial in x."""
        return a * a - b * b * self.f


def make_curve(field: FieldDescriptor, f_coeffs, label: str | None = None) -> HyperellipticCurve:
    """Validate and build y^2 = f(x).

    Rejects characteristic 2, even or too-small degree (genus 0 is out of
    scope), and non-squarefree f.
    """
    if field.characteristic() == 2:
        raise InputError("characteristic 2 is not supported by this model")
    f = Poly.from_values(field, f_coeffs)
    if f.degree < 3 or f.degree % 2 == 0:
        raise InputError(f"deg f = {f.degree}; need odd degree >= 3 (genus >= 1)")
    if not f.is_squarefree():
        raise InputError("f must be squarefree")
    return HyperellipticCurve(field, f, label)


def _check_irreducible(p: Poly):
    """Exact over finite fields; over Q exact through degree 3 (rational
    root criterion), a necessary check only beyond that."""
    if p.field.order() is not None:
        if not p.is_irreducible():
            raise InputError(f"xminpoly {p!r} is reducible")
        return
    if p.degree == 1:
        return
    if not p.is_squarefree():
        raise InputError(f"xminpoly {p!r} is not squarefree")
    if p.rational_roots():
        raise InputError(f"xminpoly {p!r} has a rational root")
    # degree >= 4 over Q: irreducibility is not decided here; callers own it


def _is_rational_square(v) -> bool:
    if v < 0:
        return False
    a, b = v.numerator, v.denominator
    return isqrt(a) ** 2 == a and isqrt(b) ** 2 == b


def _check_nonsquare(fbar: Poly, p: Poly):
    F = fbar.field
    if F.order() is not None:
        if residue_is_square(fbar, p):
            raise InputError("f is a square at this place; it splits")
        return
    if p.degree == 1:
        v = fbar.coeffs[0]
        if _is_rational_square(v):
            raise InputError("f is a rational square at this place; it splits")
    # higher-degree places over Q: squareness in the number field not decided


class CurvePoint:
    """One closed point of the smooth model."""

    __slots__ = ("curve", "kind", "xminpoly", "ybranch", "_key")

    def __init__(self, curve, kind, xminpoly, ybranch):
        self.curve = curve
        self.kind = kind
        self.xminpoly = xminpoly
        self.ybranch = ybranch
        F = curve.field
        if kind == "infinity":
            tail = ((), ())
        else:
            xk = tuple(F.payload_key(c) for c in xminpoly.coeffs)
            yk = (() if ybranch is None
                  else tuple(F.payload_key(c) for c in ybranch.coeffs))
            tail = (xk, yk)
        self._key = (self.degree, _KIND_RANK[kind]) + tail

    @property
    def degree(self) -> int:
        if self.kind == "infinity":
            return 1
        if self.kind == "nonsplit":
            return 2 * self.xminpoly.degree
        return self.xminpoly.degree

    @property
    def ramification(self) -> int:
        """Ramification index of the x-cover at this place (2 at Weierstrass
        places including infinity, else 1)."""
        return 2 if self.kind in ("infinity", "ramified") else 1

    def is_weierstrass(self) -> bool:
        return self.kind in ("infinity", "ramified")

    def conjugate(self) -> "CurvePoint":
        """Image under the hyperelliptic involution y -> -y."""
        if self.kind == "split":
            return CurvePoint(self.curve, "split", self.xminpoly,
                              (-self.ybranch) % self.xminpoly)
        return self

    def key(self):
        return self._key

    def __eq__(self, other):
        return (isinstance(other, CurvePoint) and other.curve == self.curve
                and other._key == self._key)

    def __hash__(self):
        return hash((self.curve, self._key))

    def __repr__(self):
        if self.kind == "infinity":
            return "infinity"
        if self.kind == "nonsplit":
            return f"place({self.xminpoly!r}, nonsplit)"
        return f"place({self.xminpoly!r}, y = {self.ybranch!r})"


class Divisor:
    """Formal integer combination of closed points of one curve."""

    __slots__ = ("curve", "items")

    def __init__(self, curve: HyperellipticCurve, items):
        acc = {}
        for pt, m in items:
            if pt.curve != curve:
                raise InputError("divisor mixes points of different curves")
            if not isinstance(m, int) or isinstance(m, bool):
                raise InputError("multiplicities must be integers")
            if m:
                acc[pt] = acc.get(pt, 0) + m
        pairs = [(pt, m) for pt, m in acc.items() if m]
        pairs.sort(key=lambda im: im[0].key())
        self.curve = curve
        self.items = tuple(pairs)

    @property
    def degree(self) -> int:
        return sum(m * pt.degree for pt, m in self.items)

    def multiplicity(self, pt: CurvePoint) -> int:
        for q, m in self.items:
            if q == pt:
                return m
        return 0

    def support(self):
        return [pt for pt, _ in self.items]

    def is_effective(self) -> bool:
        return all(m > 0 for _, m in self.items)

    def is_zero(self) -> bool:
        return not self.items

    def __add__(self, other):
        if other.curve != self.curve:
            raise InputError("divisors on different curves")
        return Divisor(self.curve, list(self.items) + list(other.items))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Divisor(self.curve, [(pt, -m) for pt, m in self.items])

    def __rmul__(self, k: int):
        if not isinstance(k, int) or isinstance(k, bool):
            raise InputError("divisor scaling needs an integer")
        return Divisor(self.curve, [(pt, k * m) for pt, m in self.items])

    __mul__ = __rmul__

    def positive_part(self) -> "Divisor":
        return Divisor(self.curve, [(pt, m) for pt, m in self.items if m > 0])

    def key(self):
        """Canonical hashable key; equal divisors have equal keys."""
        return tuple((pt.key(), m) for pt, m in self.items)

    def __eq__(self, other):
        return (isinstance(other, Divisor) and other.curve == self.curve
                and other.items == self.items)

    def __hash__(self):
        return hash((self.curve, self.key()))

    def __repr__(self):
        if not self.items:
            return "0"
        return " + ".join(f"{m}*({pt!r})" for pt, m in self.items)


# ---------------------------------------------------------------------------
# residue rings for expansion coefficients
# ---------------------------------------------------------------------------

class _BaseRing:
    """The base field itself, for places whose residue field is the base."""

    def __init__(self, field):
        self.F = field
        self.zero = field.pzero
        self.one = field.pone

    def scalar(self, payload):
        return payload

    def add(self, a, b):
        return self.F.add(a, b)

    def sub(self, a, b):
        return self.F.sub(a, b)

    def mul(self, a, b):
        return self.F.mul(a, b)

    def neg(self, a):
        return self.F.neg(a)

    def inv(self, a):
        return self.F.inv(a)

    def is_zero(self, a):
        return self.F.is_zero(a)

    def mul_int(self, a, k):
        return self.F.mul(a, self.F.coerce(k))

    def coords(self, a):
        return [a]


class _QuotRing:
    """k[x]/(p) for monic irreducible p; elements are reduced Polys."""

    def __init__(self, p: Poly):
        self.p = p
        self.F = p.field
        self.zero = Poly.zero(self.F)
        self.one = Poly.one(self.F)
        self.xbar = Poly.x(self.F) % p

    def scalar(self, payload):
        return Poly(self.F, [payload])

    def reduce(self, q: Poly):
        return q % self.p

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return -a

    def inv(self, a):
        return residue_inverse(a, self.p)

    def is_zero(self, a):
        return a.is_zero()

    def mul_int(self, a, k):
        return a.scale(self.F.coerce(k))

    def coords(self, a):
        return [a.coeff(i) for i in range(self.p.degree)]


class _QuadRing:
    """Quadratic extension of k[x]/(p) by a square root of fbar.

    Elements are pairs (u, v) of reduced Polys meaning u + v*yhat with
    yhat^2 = fbar; a field exactly when fbar is a nonsquare mod p.
    """

    def __init__(self, quot: _QuotRing, fbar: Poly):
        self.q = quot
        self.fbar = fbar % quot.p
        self.zero = (quot.zero, quot.zero)
        self.one = (quot.one, quot.zero)
        self.yhat = (quot.zero, quot.one)

    def scalar(self, payload):
        return (self.q.scalar(payload), self.q.zero)

    def lift(self, a: Poly):
        return (a, self.q.zero)

    def add(self, a, b):
        return (self.q.add(a[0], b[0]), self.q.add(a[1], b[1]))

    def sub(self, a, b):
        return (self.q.sub(a[0], b[0]), self.q.sub(a[1], b[1]))

    def neg(self, a):
        return (self.q.neg(a[0]), self.q.neg(a[1]))

    def mul(self, a, b):
        u = self.q.add(self.q.mul(a[0], b[0]),
                       self.q.mul(self.q.mul(a[1], b[1]), self.fbar))
        v = self.q.add(self.q.mul(a[0], b[1]), self.q.mul(a[1], b[0]))
        return (u, v)

    def inv(self, a):
        n = self.q.sub(self.q.mul(a[0], a[0]),
                       self.q.mul(self.q.mul(a[1], a[1]), self.fbar))
        w = self.q.inv(n)
        return (self.q.mul(a[0], w), self.q.neg(self.q.mul(a[1], w)))

    def is_zero(self, a):
        return a[0].is_zero() and a[1].is_zero()

    def mul_int(self, a, k):
        return (self.q.mul_int(a[0], k), self.q.mul_int(a[1], k))

    def coords(self, a):
        return self.q.coords(a[0]) + self.q.coords(a[1])


# -- truncated power/Laurent series over a residue ring ---------------------

def _s_add(ring, a, b):
    return [ring.add(x, y) for x, y in zip(a, b)]


def _s_sub(ring, a, b):
    return [ring.sub(x, y) for x, y in zip(a, b)]


def _s_mul(ring, a, b, prec):
    out = [ring.zero] * prec
    for i, x in enumerate(a):
        if i >= prec:
            break
        if ring.is_zero(x):
            continue
        for j, y in enumerate(b):
            if i + j >= prec:
                break
            out[i + j] = ring.add(out[i + j], ring.mul(x, y))
    return out


def _s_inv(ring, a, prec):
    """Inverse of a unit power series (a[0] invertible)."""
    inv0 = ring.inv(a[0])
    out = [ring.zero] * prec
    out[0] = inv0
    for n in range(1, prec):
        acc = ring.zero
        for k in range(1, min(n, len(a) - 1) + 1):
            acc = ring.add(acc, ring.mul(a[k], out[n - k]))
        out[n] = ring.neg(ring.mul(inv0, acc))
    return out


def _s_polyval(ring, coeffs, X, prec):
    """Evaluate a polynomial with ring coefficients at a power series."""
    acc = [ring.zero] * prec
    for c in reversed(coeffs):
        acc = _s_mul(ring, acc, X, prec)
        acc[0] = ring.add(acc[0], c)
    return acc


def _s_pad(ring, a, prec):
    if len(a) >= prec:
        return a[:prec]
    return a + [ring.zero] * (prec - len(a))


@dataclass
class _Laurent:
    """Series valid on exponents [offset, offset + len(coeffs))."""
    ring: object
    offset: int
    coeffs: list

    @property
    def end(self):
        return self.offset + len(self.coeffs)

    def mul(self, other):
        end = min(self.offset + other.end, other.offset + self.end)
        off = self.offset + other.offset
        return _Laurent(self.ring, off,
                        _s_mul(self.ring, self.coeffs, other.coeffs, end - off))

    def add(self, other):
        off = min(self.offset, other.offset)
        end = min(self.end, other.end)
        out = [self.ring.zero] * (end - off)
        for src in (self, other):
            for i, c in enumerate(src.coeffs):
                e = src.offset + i
                if off <= e < end:
                    out[e - off] = self.ring.add(out[e - off], c)
        return _Laurent(self.ring, off, out)

    def leading_index(self):
        """Exponent of the first exactly-nonzero coefficient, or None."""
        for i, c in enumerate(self.coeffs):
            if not self.ring.is_zero(c):
                return self.offset + i
        return None


def _laurent_polyval(ring, poly: Poly, X: _Laurent) -> _Laurent:
    """Horner evaluation of a base-coefficient polynomial at a Laurent series."""
    if poly.is_zero():
        return _Laurent(ring, 0, [ring.zero] * len(X.coeffs))
    acc = _Laurent(ring, 0, _s_pad(ring, [ring.scalar(poly.coeffs[-1])],
                                   len(X.coeffs)))
    for c in reversed(poly.coeffs[:-1]):
        acc = acc.mul(X)
        acc = acc.add(_Laurent(ring, 0, _s_pad(ring, [ring.scalar(c)],
                                               len(X.coeffs))))
    return acc


# -- expansion environments ---------------------------------------------------

class _ExpansionEnv:
    """x and y of the curve as Laurent series at one place."""

    __slots__ = ("ring", "x", "y", "uniformizer", "residue_dim")

    def __init__(self, ring, x, y, uniformizer, residue_dim):
        self.ring = ring
        self.x = x
        self.y = y
        self.uniformizer = uniformizer
        self.residue_dim = residue_dim


def _newton_series(ring, coeffs, init, prec, extra_shift=None):
    """Solve P(u) = 0 for a power series u with u(0) = init, where P has
    ring-series coefficients ``coeffs`` (list indexed by u-power, each a
    full-precision series).  Quadratic Newton in the t-adic metric."""
    dcoeffs = [None] * (len(coeffs) - 1)
    for i in range(1, len(coeffs)):
        dcoeffs[i - 1] = [ring.mul_int(c, i) for c in coeffs[i]]
    cur = [init]
    n = 1
    while n < prec:
        n = min(2 * n, prec)
        cur = _s_pad(ring, cur, n)
        cut = [c[:n] for c in coeffs]
        dcut = [c[:n] for c in dcoeffs]
        num = _s_polyval_series(ring, cut, cur, n)
        den = _s_polyval_series(ring, dcut, cur, n)
        step = _s_mul(ring, num, _s_inv(ring, den, n), n)
        cur = _s_sub(ring, cur, step)
    return cur


def _s_polyval_series(ring, coeff_series, X, prec):
    """Horner evaluation where the polynomial coefficients are themselves
    series (lowest u-power first)."""
    acc = [ring.zero] * prec
    for c in reversed(coeff_series):
        acc = _s_mul(ring, acc, X, prec)
        acc = _s_add(ring, acc, _s_pad(ring, list(c), prec))
    return acc


def _series_const(ring, value, prec):
    out = [ring.zero] * prec
    out[0] = value
    return out


def _env_infinity(curve, prec) -> _ExpansionEnv:
    F = curve.field
    ring = _BaseRing(F)
    g = curve.genus
    d = 2 * g + 1
    lead = curve.f.lc()
    # solve u^{2g} = sum_i f_i u^i t^{2(d-i)} for u = t^2 * x
    coeffs = []
    for i in range(d + 1):
        c = [ring.zero] * prec
        e = 2 * (d - i)
        fi = curve.f.coeff(i)
        if e < prec and not F.is_zero(fi):
            c[e] = fi
        coeffs.append(c)
    coeffs[2 * g] = list(coeffs[2 * g])
    coeffs[2 * g][0] = F.sub(coeffs[2 * g][0], F.pone)
    u = _newton_series(ring, coeffs, F.inv(lead), prec)
    ug = _series_const(ring, F.pone, prec)
    for _ in range(g):
        ug = _s_mul(ring, ug, u, prec)
    x = _Laurent(ring, -2, u)
    y = _Laurent(ring, -d, ug)
    return _ExpansionEnv(ring, x, y, "1/t", 1)


def _env_affine(curve, point, prec) -> _ExpansionEnv:
    F = curve.field
    p = point.xminpoly
    quot = _QuotRing(p)
    if point.kind == "ramified":
        # t = y; x solves f(x) = t^2 starting at xbar
        coeffs = []
        for i in range(curve.f.degree + 1):
            c = _series_const(quot, quot.scalar(curve.f.coeff(i)), prec)
            coeffs.append(c)
        coeffs[0] = list(coeffs[0])
        if prec > 2:
            coeffs[0][2] = quot.sub(coeffs[0][2], quot.one)
        elif prec == 2:
            pass  # t^2 is beyond the window; constant term alone drives Newton
        xi = _newton_series(quot, coeffs, quot.xbar, prec)
        x = _Laurent(quot, 0, xi)
        ycoeffs = [quot.zero] * prec
        if prec > 1:
            ycoeffs[1] = quot.one
        y = _Laurent(quot, 0, ycoeffs)
        return _ExpansionEnv(quot, x, y, "y", p.degree)
    # t = p(x); x solves p(x) = t starting at xbar
    coeffs = []
    for i in range(p.degree + 1):
        coeffs.append(_series_const(quot, quot.scalar(p.coeff(i)), prec))
    coeffs[0] = list(coeffs[0])
    if prec > 1:
        coeffs[0][1] = quot.sub(coeffs[0][1], quot.one)
    xi = _newton_series(quot, coeffs, quot.xbar, prec)
    if point.kind == "split":
        fxi = _s_polyval(quot, [quot.scalar(c) for c in curve.f.coeffs], xi, prec)
        y0 = point.ybranch % p
        yser = _newton_sqrt(quot, fxi, y0, prec)
        x = _Laurent(quot, 0, xi)
        y = _Laurent(quot, 0, yser)
        return _ExpansionEnv(quot, x, y, repr(p), p.degree)
    # nonsplit: coefficients live in the quadratic extension by yhat
    ring = _QuadRing(quot, curve.f % p)
    xi2 = [ring.lift(c) for c in xi]
    fxi = _s_polyval(ring, [ring.scalar(c) for c in curve.f.coeffs], xi2, prec)
    yser = _newton_sqrt(ring, fxi, ring.yhat, prec)
    x = _Laurent(ring, 0, xi2)
    y = _Laurent(ring, 0, yser)
    return _ExpansionEnv(ring, x, y, repr(p), 2 * p.degree)


def _newton_sqrt(ring, F_series, init, prec):
    """Square root of a unit series from an exact starting value
    (init^2 = F_series[0]), characteristic != 2."""
    half = None
    cur = [init]
    n = 1
    while n < prec:
        n = min(2 * n, prec)
        cur = _s_pad(ring, cur, n)
        inv_cur = _s_inv(ring, cur, n)
        t = _s_mul(ring, F_series[:n], inv_cur, n)
        s = _s_add(ring, cur, t)
        if half is None:
            half = ring.inv(ring.mul_int(ring.one, 2))
        cur = [ring.mul(c, half) for c in s]
    return cur


def _expansion_env(curve, point, prec) -> _ExpansionEnv:
    if point.kind == "infinity":
        return _env_infinity(curve, prec)
    return _env_affine(curve, point, prec)


@dataclass
class LocalExpansion:
    """Truncated Laurent expansion at a place.

    ``coefficients[i]`` is the coefficient of t**(offset + i) in the
    uniformizer t named by ``uniformizer``.  Each coefficient is a list of
    base FieldElements: the coordinates in the power basis of the residue
    field (length ``residue_dim``; plain places have residue_dim 1).
    """
    point: CurvePoint
    uniformizer: str
    offset: int
    coefficients: list
    precision: int
    residue_dim: int


def _laurent_to_expansion(point, env, L: _Laurent) -> LocalExpansion:
    F = point.curve.field
    coeffs = [[FieldElement(F, c) for c in env.ring.coords(v)] for v in L.coeffs]
    return LocalExpansion(point, env.uniformizer, L.offset, coeffs,
                          len(L.coeffs), env.residue_dim)


def point_expansions(point: CurvePoint, precision: int):
    """Expansions of the coordinate functions x and y at a place."""
    if precision < 1:
        raise InputError("precision must be positive")
    env = _expansion_env(point.curve, point, precision)
    return (_laurent_to_expansion(point, env, env.x),
            _laurent_to_expansion(point, env, env.y))


def verify_expansion(point: CurvePoint, precision: int) -> bool:
    """Residual check: y^2 - f(x) vanishes identically to the precision."""
    env = _expansion_env(point.curve, point, precision)
    lhs = env.y.mul(env.y)
    rhs = _laurent_polyval(env.ring, point.curve.f, env.x)
    diff = lhs.add(rhs.mul(_Laurent(env.ring, 0,
                                    _series_const(env.ring,
                                                  env.ring.mul_int(env.ring.one, -1),
                                                  len(env.x.coeffs)))))
    return diff.leading_index() is None


def _ord_at(poly: Poly, p: Poly) -> int:
    """Multiplicity of the irreducible p in poly (poly nonzero)."""
    n = 0
    while True:
        q, r = poly.divmod(p)
        if not r.is_zero():
            return n
        poly = q
        n += 1


def _den_valuation(curve, c: Poly, point) -> int:
    if point.kind == "infinity":
        return -2 * c.degree
    if c.degree < 1:
        return 0
    return point.ramification * _ord_at(c, point.xminpoly)


def _num_bound(curve, a: Poly, b: Poly, point) -> int:
    """A-priori upper bound for v(a + b*y) at the place."""
    if point.kind == "infinity":
        cands = []
        if not a.is_zero():
            cands.append(-2 * a.degree)
        if not b.is_zero():
            cands.append(-2 * b.degree - (2 * curve.genus + 1))
        return abs(min(cands))
    if b.is_zero():
        target = a
    else:
        target = curve.norm_poly(a, b)
    return point.ramification * _ord_at(target, point.xminpoly)


def _num_series(curve, env, a: Poly, b: Poly) -> _Laurent:
    if b.is_zero():
        return _laurent_polyval(env.ring, a, env.x)
    B = _laurent_polyval(env.ring, b, env.x)
    By = B.mul(env.y)
    if a.is_zero():
        return By
    return _laurent_polyval(env.ring, a, env.x).add(By)


def valuation(fn, point: CurvePoint) -> int:
    """Exact valuation of a nonzero rational function at a place.

    The numerator a + b*y is expanded at the place; precision starts at
    (a-priori bound) + g + 2 and doubles until the leading coefficient is
    certified nonzero, with a hard cap of 512 terms.
    """
    curve = point.curve
    if fn.curve != curve:
        raise InputError("function and point live on different curves")
    a, b, c = fn.a, fn.b, fn.c
    if a.is_zero() and b.is_zero():
        raise InputError("the zero function has no valuation")
    v_den = _den_valuation(curve, c, point)
    bound = _num_bound(curve, a, b, point)
    prec = bound + curve.genus + 2
    while True:
        if prec > _PRECISION_CAP:
            raise PrecisionExceeded(
                f"no certified leading term within {_PRECISION_CAP} terms at {point!r}")
        env = _expansion_env(curve, point, prec)
        num = _num_series(curve, env, a, b)
        v = num.leading_index()
        if v is not None:
            return v - v_den
        prec *= 2


# ---------------------------------------------------------------------------
# enumeration over finite fields
# ---------------------------------------------------------------------------

def enumerate_closed_points(curve: HyperellipticCurve, max_degree: int):
    """All closed points of degree <= max_degree, sorted by point key.

    Finite base fields only.  Nonsplit places over p have degree
    2*deg(p) and are included when that fits the bound.
    """
    if curve.field.order() is None:
        raise InputError("point enumeration requires a finite field")
    if max_degree < 1:
        return []
    key = ("points", max_degree)
    if key in curve._point_cache:
        return curve._point_cache[key]
    out = [curve.infinity()]
    for p in iter_monic_irreducible(curve.field, max_degree):
        fbar = curve.f % p
        if fbar.is_zero():
            out.append(CurvePoint(curve, "ramified", p, Poly.zero(curve.field)))
            continue
        b = residue_sqrt(fbar, p)
        if b is not None:
            out.append(CurvePoint(curve, "split", p, b))
            out.append(CurvePoint(curve, "split", p, (-b) % p))
        elif 2 * p.degree <= max_degree:
            out.append(CurvePoint(curve, "nonsplit", p, None))
    out = [pt for pt in out if pt.degree <= max_degree]
    out.sort(key=lambda pt: pt.key())
    curve._point_cache[key] = out
    return out


def enumerate_effective_divisors(curve: HyperellipticCurve, max_degree: int,
                                 points=None):
    """Every effective divisor of degree <= max_degree, exactly once.

    Deterministic order: total degree ascending; within a degree,
    lexicographic in the multiplicity vector over the key-sorted point
    list (so supports built from later points come first).  ``points``
    restricts the support to an explicit candidate list, which is also
    the only mode available over infinite fields.
    """
    if points is None:
        pts = enumerate_closed_points(curve, max_degree)
    else:
        pts = sorted(set(points), key=lambda pt: pt.key())
        for pt in pts:
            if pt.curve != curve:
                raise InputError("candidate point from a different curve")
    degs = [pt.degree for pt in pts]

    def rec(i, remaining):
        if i == len(pts):
            if remaining == 0:
                yield []
            return
        d = degs[i]
        for m in range(remaining // d + 1):
            for rest in rec(i + 1, remaining - m * d):
                yield ([(pts[i], m)] if m else []) + rest

    for total in range(max_degree + 1):
        for items in rec(0, total):
            yield Divisor(curve, items)


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------

def curve_to_json(curve: HyperellipticCurve):
    out = {"field": field_to_json(curve.field),
           "f": [curve.field.payload_to_json(c) for c in curve.f.coeffs]}
    if curve.label:
        out["label"] = curve.label
    return out


def curve_from_json(obj) -> HyperellipticCurve:
    if not isinstance(obj, dict) or "field" not in obj or "f" not in obj:
        raise InputError("curve JSON needs 'field' and 'f'")
    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise InputError(f"curve label must be a string, got {label!r}")
    field = field_from_json(obj["field"])
    coeffs = [field.payload_from_json(v) for v in _json_list(obj["f"], "f")]
    return make_curve(field, coeffs, label)


def _json_list(v, name):
    if not isinstance(v, list):
        raise InputError(f"'{name}' must be a coefficient list, got {v!r}")
    return v


def point_from_json(curve: HyperellipticCurve, obj) -> CurvePoint:
    if obj == "infinity":
        return curve.infinity()
    if not isinstance(obj, dict):
        raise InputError(f"bad point literal: {obj!r}")
    F = curve.field
    if "xminpoly" in obj:
        p = Poly(F, [F.payload_from_json(v)
                     for v in _json_list(obj["xminpoly"], "xminpoly")])
        yb = obj.get("ybranch")
        if yb is None:
            return curve.closed_point(p, None)
        return curve.closed_point(
            p, Poly(F, [F.payload_from_json(v) for v in _json_list(yb, "ybranch")]))
    if "x" in obj:
        y = obj.get("y")
        if y is None:
            return curve.point(F.payload_from_json(obj["x"]), None)
        return curve.point(F.payload_from_json(obj["x"]), F.payload_from_json(y))
    raise InputError(f"bad point literal: {obj!r}")


def point_to_json(pt: CurvePoint):
    if pt.kind == "infinity":
        return "infinity"
    F = pt.curve.field
    out = {"xminpoly": [F.payload_to_json(c) for c in pt.xminpoly.coeffs]}
    if pt.kind == "nonsplit":
        out["ybranch"] = None
    else:
        out["ybranch"] = [F.payload_to_json(c) for c in pt.ybranch.coeffs]
    return out


def divisor_from_json(curve: HyperellipticCurve, obj) -> Divisor:
    if not isinstance(obj, list):
        raise InputError("divisor JSON must be a list of {point, mult}")
    items = []
    for entry in obj:
        if not isinstance(entry, dict) or "point" not in entry or "mult" not in entry:
            raise InputError(f"bad divisor entry: {entry!r}")
        m = entry["mult"]
        if not isinstance(m, int) or isinstance(m, bool):
            raise InputError("divisor multiplicity must be an integer")
        items.append((point_from_json(curve, entry["point"]), m))
    return Divisor(curve, items)


def divisor_to_json(D: Divisor):
    return [{"point": point_to_json(pt), "mult": m} for pt, m in D.items]
