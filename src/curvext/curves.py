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

Valuations are exact and closed-form: polynomial orders at the place,
the parities of v(x) and v(y) at Weierstrass places, the independence of
1 and y at nonsplit places, and a Hensel lift of the branch at split
places.  No series and no precision policy are involved.
"""

from __future__ import annotations

from bisect import bisect_right

from .errors import InputError
from .fields import FieldDescriptor, field_from_json, field_to_json
from .polys import (Poly, hensel_sqrt, iter_monic_irreducible,
                    residue_is_square, residue_sqrt)

_KIND_RANK = {"infinity": 0, "ramified": 1, "split": 2, "nonsplit": 3}


class HyperellipticCurve:
    """y^2 = f(x) with the conventions above.  Build through make_curve."""

    __slots__ = ("field", "f", "genus", "label", "_hash", "_rr_cache",
                 "_lift_cache", "_ladders")

    def __init__(self, field: FieldDescriptor, f: Poly, label: str | None = None):
        self.field = field
        self.f = f
        self.genus = (f.degree - 1) // 2
        self.label = label
        # points and divisors hash and compare their curve all the time
        self._hash = hash((field, f))
        self._rr_cache = {}
        self._lift_cache = {}
        self._ladders = {}

    def __eq__(self, other):
        return other is self or (
            isinstance(other, HyperellipticCurve) and other._hash == self._hash
            and other.field == self.field and other.f == self.f)

    def __hash__(self):
        return self._hash

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


def _check_nonsquare(fbar: Poly, p: Poly):
    F = fbar.field
    if F.order() is not None:
        if residue_is_square(fbar, p):
            raise InputError("f is a square at this place; it splits")
        return
    # in degree 1, f(x0) is a rational square iff x^2 - f(x0) has a root
    if p.degree == 1 and Poly.from_values(
            F, [-fbar.coeffs[0], 0, 1]).rational_roots():
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

    def conjugate(self) -> "CurvePoint":
        """Image under the hyperelliptic involution y -> -y."""
        if self.kind == "split":
            return CurvePoint(self.curve, "split", self.xminpoly, -self.ybranch)
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
# valuations
# ---------------------------------------------------------------------------

def _ord_at(poly: Poly, p: Poly) -> int:
    """Multiplicity of the irreducible p in poly (poly nonzero)."""
    n = 0
    while True:
        q, r = poly.divmod(p)
        if not r.is_zero():
            return n
        poly = q
        n += 1


def _poly_valuation(poly: Poly, point: CurvePoint) -> int:
    """v_P of a nonzero polynomial in x: -2 deg at infinity, else the
    ramification index times the multiplicity of xminpoly."""
    if point.kind == "infinity":
        return -2 * poly.degree
    return point.ramification * _ord_at(poly, point.xminpoly)


def _xpower(curve: HyperellipticCurve, p: Poly, k: int) -> Poly:
    """p**k from the curve's ladder [1, p, p**2, ...] for the xminpoly p,
    grown by one multiplication by p per missing rung."""
    ladder = curve._ladders.get(p.coeffs)
    if ladder is None:
        ladder = curve._ladders[p.coeffs] = [Poly.one(curve.field), p]
    while len(ladder) <= k:
        ladder.append(ladder[-1] * p)
    return ladder[k]


def _branch_lift(point: CurvePoint, r: int) -> Poly:
    """Y_r = the branch of y at a split place modulo xminpoly^r, r >= 1.

    The curve's lift cache holds, per place, [R, lifts]: the highest
    precision R lifted so far and every Y_r handed out, Y_R among them.
    The lift is unique given Y = branch mod xminpoly, and hensel_sqrt
    returns reduced residues, so for r <= R, Y_r is Y_R mod xminpoly^r;
    only a request above R runs hensel_sqrt again, to precision r.
    """
    curve = point.curve
    key = point.key()
    entry = curve._lift_cache.get(key)
    if entry is None:
        entry = curve._lift_cache[key] = [0, {}]
    top, lifts = entry
    Y = lifts.get(r)
    if Y is None:
        if r <= top:
            Y = lifts[top] % _xpower(curve, point.xminpoly, r)
        else:
            Y = hensel_sqrt(curve.f, point.xminpoly, point.ybranch, r)
            entry[0] = r
        lifts[r] = Y
    return Y


def valuation(fn, point: CurvePoint) -> int:
    """Exact valuation of a nonzero rational function (a + b*y)/c at a place.

    Away from split places v(a + b*y) = min(v(a), v(b) + v(y)): at infinity
    and at ramified places v(a) and v(b*y) differ in parity, and at a
    nonsplit place 1 and y are independent over the residue field.  At a
    split place y agrees with the Hensel lift Y_R of its branch modulo p^R,
    and R = ord_p(a^2 - b^2 f) + 1 exceeds v(a + b*y), since the valuations
    at the place and its conjugate add up to ord_p of that norm.
    """
    curve = point.curve
    if fn.curve != curve:
        raise InputError("function and point live on different curves")
    a, b, c = fn.a, fn.b, fn.c
    if a.is_zero() and b.is_zero():
        raise InputError("the zero function has no valuation")
    v_den = _poly_valuation(c, point)
    if point.kind == "split":
        p = point.xminpoly
        r = _ord_at(curve.norm_poly(a, b), p) + 1
        Y = _branch_lift(point, r)
        return _ord_at((a + b * Y) % _xpower(curve, p, r), p) - v_den
    v_y = {"infinity": -curve.f.degree, "ramified": 1, "nonsplit": 0}[point.kind]
    cands = []
    if not a.is_zero():
        cands.append(_poly_valuation(a, point))
    if not b.is_zero():
        cands.append(_poly_valuation(b, point) + v_y)
    return min(cands) - v_den


# ---------------------------------------------------------------------------
# enumeration over finite fields
# ---------------------------------------------------------------------------

def _check_int_bound(name, bound):
    """Refuse a degree bound that is not an int (a bool, float or str)
    before any comparison or range reads it; each caller owns its rule
    for negative ints."""
    if isinstance(bound, bool) or not isinstance(bound, int):
        raise InputError(f"{name} must be an int, not {bound!r}")


def enumerate_closed_points(curve: HyperellipticCurve, max_degree: int):
    """All closed points of degree <= max_degree, sorted by point key.

    Finite base fields only.  Nonsplit places over p have degree
    2*deg(p) and are included when that fits the bound.
    """
    return [pt for pts in _points_by_degree(curve, max_degree) for pt in pts]


def _points_by_degree(curve: HyperellipticCurve, max_degree: int):
    """For k = 0, 1, ..., max_degree, the closed points of degree exactly
    k, sorted by point key; keys are degree-first, so the lists chain
    into the key-sorted point list.  The places over the irreducibles of
    degree k are found when degree k is drawn, and a nonsplit place over
    p waits until degree 2*deg(p).  Finite base fields only, checked at
    the first draw, as is the bound."""
    _check_int_bound("max_degree", max_degree)
    F = curve.field
    if F.order() is None:
        raise InputError("point enumeration requires a finite field")
    found = {1: [curve.infinity()]}     # degree -> places found so far
    polys = iter_monic_irreducible(F, max_degree)
    p = next(polys, None)
    for k in range(max_degree + 1):
        here = found.setdefault(k, [])
        while p is not None and p.degree == k:
            fbar = curve.f % p
            if fbar.is_zero():
                here.append(CurvePoint(curve, "ramified", p, Poly.zero(F)))
            else:
                b = residue_sqrt(fbar, p)
                if b is not None:
                    here.append(CurvePoint(curve, "split", p, b))
                    here.append(CurvePoint(curve, "split", p, -b))
                elif 2 * k <= max_degree:
                    found.setdefault(2 * k, []).append(
                        CurvePoint(curve, "nonsplit", p, None))
            p = next(polys, None)
        yield sorted(found.pop(k), key=CurvePoint.key)


def enumerate_effective_divisors(curve: HyperellipticCurve, max_degree: int,
                                 points=None):
    """Every effective divisor of degree <= max_degree, exactly once.

    Deterministic order: total degree ascending; within a degree,
    lexicographic in the multiplicity vector over the key-sorted point
    list (so supports built from later points come first).  The
    recursion depth is the support size, at most the total degree, and
    only points of degree <= total are read: the point list grows by the
    places of degree ``total`` as each total starts, so a scan that
    stops early never builds the places of a far degree bound.
    ``points`` restricts the support to an explicit candidate list,
    which is also the only mode available over infinite fields.
    """
    _check_int_bound("max_degree", max_degree)
    if points is None:
        by_degree = _points_by_degree(curve, max_degree)
    else:
        cands = sorted(set(points), key=CurvePoint.key)
        for pt in cands:
            if pt.curve != curve:
                raise InputError("candidate point from a different curve")
        by_degree = ([pt for pt in cands if pt.degree == k]
                     for k in range(max_degree + 1))
    pts, degs = [], []

    def supports(i, total):
        # the first point of the support is the latest one that fits,
        # then earlier ones down to pts[i]; its multiplicity ascends, and
        # the rest of the support lies after it
        if total == 0:
            yield []
            return
        for j in range(bisect_right(degs, total) - 1, i - 1, -1):
            for m in range(1, total // degs[j] + 1):
                for rest in supports(j + 1, total - m * degs[j]):
                    yield [(pts[j], m)] + rest

    for total in range(max_degree + 1):
        new = next(by_degree)
        pts += new
        degs += [total] * len(new)
        for items in supports(0, total):
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
        items.append((point_from_json(curve, entry["point"]), entry["mult"]))
    return Divisor(curve, items)


def divisor_to_json(D: Divisor):
    return [{"point": point_to_json(pt), "mult": m} for pt, m in D.items]
