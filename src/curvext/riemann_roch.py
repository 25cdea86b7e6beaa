"""Riemann-Roch spaces L(D) on odd-model hyperelliptic curves.

Every function on the curve is written as (a(x) + b(x)*y) / c(x).  L(D)
is computed by a pole-constrained ansatz: the denominator c is the
product of xminpoly(P)^{m_P} over the affine positive support of D,
degree caps on a and b come from the allowed pole order at infinity, and
vanishing requirements at affine places become exact linear congruence
constraints (Hensel-lifted branch matching at split places, parity
splitting at Weierstrass places, componentwise divisibility at nonsplit
places).  The kernel of the constraint system is the space; the ansatz
is complete because any member of L(D), written in lowest terms, has
denominator dividing c.

Basis normalization: the pole orders at infinity of the basis elements
are strictly increasing, each element has coefficient 1 at its
highest-pole monomial and 0 at the highest-pole monomials of the
others.  The ansatz columns are ordered by increasing pole order before
the one elimination, whose reduced-echelon kernel basis is then this
normal form, so bases and coordinates are reproducible across runs.  A
basis is those kernel vectors on the ansatz columns, over the ansatz
denominator c.

Coordinates are read off the normal form: coordinate i of a member is
the coefficient of its numerator pair over c at element i's top
monomial, and the combination is checked exactly against the pair, so
a nonmember raises.  h0/h1 read the rank of the constraint rows.  A
subspace L(D - E) of L(D), E effective, is cut out by the same
congruences at raised precision, as rows on coordinates in the basis
of L(D).

The curve keeps one power ladder [1, p, p^2, ...] per xminpoly p, from
which c and every congruence modulus are read, and caches the branch
lift at a split place per (place, r).  Over a finite field the
constraint rows are payloads; over Q they are ints, each congruence
over one common denominator (`_residue_columns`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .curves import Divisor, HyperellipticCurve, _branch_lift, _xpower
from .errors import InputError, MembershipError
from .fields import Rationals
from .linalg import Matrix, kernel_basis, linear_combination, rank
from .polys import Poly

# a larger ansatz of L(D) is refused before anything is built for it
MAX_ANSATZ_COLUMNS = 10_000
# rr_basis refuses D when (deg D + 1) * columns, a bound on the payloads
# of its basis since h0(D) <= deg D + 1, exceeds this
MAX_BASIS_ENTRIES = 10_000_000


class RationalFunction:
    """(a + b*y)/c in normal form: c monic, gcd(gcd(a, b), c) = 1."""

    __slots__ = ("curve", "a", "b", "c")

    def __init__(self, curve: HyperellipticCurve, a: Poly, b: Poly,
                 c: Poly | None = None):
        F = curve.field
        if c is None:
            c = Poly.one(F)
        if c.is_zero():
            raise InputError("zero denominator")
        if a.field != F or b.field != F or c.field != F:
            raise InputError("component over the wrong field")
        g = a.gcd(b).gcd(c)
        if g.degree > 0:
            a = a // g
            b = b // g
            c = c // g
        if not c.is_monic():
            inv = F.inv(c.lc())
            a = a.scale(inv)
            b = b.scale(inv)
            c = c.monic()
        self.curve = curve
        self.a = a
        self.b = b
        self.c = c

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, curve):
        F = curve.field
        return cls(curve, Poly.zero(F), Poly.zero(F))

    @classmethod
    def one(cls, curve):
        F = curve.field
        return cls(curve, Poly.one(F), Poly.zero(F))

    @classmethod
    def x(cls, curve):
        F = curve.field
        return cls(curve, Poly.x(F), Poly.zero(F))

    @classmethod
    def y(cls, curve):
        F = curve.field
        return cls(curve, Poly.zero(F), Poly.one(F))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def __eq__(self, other):
        return (isinstance(other, RationalFunction) and other.curve == self.curve
                and other.a == self.a and other.b == self.b and other.c == self.c)

    def __hash__(self):
        return hash((self.curve, self.a, self.b, self.c))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        a = self.a * other.c + other.a * self.c
        b = self.b * other.c + other.b * self.c
        return RationalFunction(self.curve, a, b, self.c * other.c)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(self.curve, -self.a, -self.b, self.c)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if not isinstance(other, RationalFunction):
            return RationalFunction(self.curve, self.a.scale(other),
                                    self.b.scale(other), self.c)
        if other.curve != self.curve:
            raise InputError("functions on different curves")
        a = self.a * other.a + self.b * other.b * self.curve.f
        b = self.a * other.b + self.b * other.a
        return RationalFunction(self.curve, a, b, self.c * other.c)

    __rmul__ = __mul__

    def _coerce(self, other):
        if not (isinstance(other, RationalFunction) and other.curve == self.curve):
            raise InputError("only a function on the same curve adds to or "
                             "subtracts from a function")
        return other

    def __repr__(self):
        num = f"{self.a!r}"
        if not self.b.is_zero():
            num = f"({self.a!r}) + ({self.b!r})*y"
        if self.c.is_one():
            return num
        return f"({num})/({self.c!r})"


@dataclass(frozen=True)
class RRBasis:
    """Normalized basis of L(D); immutable and safe to share.

    The basis is its kernel vectors: payloads on the ansatz columns,
    the n_a coefficients of a first, then those of b, with element i
    (a + b*y)/denominator.  ``basis`` builds the RationalFunction
    objects on first access.
    """

    curve: HyperellipticCurve
    divisor: Divisor
    dim: int
    denominator: Poly          # the ansatz denominator c
    n_a: int                   # number of a-columns of the ansatz
    vectors: tuple             # payload kernel vectors, a-columns then b
    pole_orders: tuple         # -v_infinity per element, strictly increasing

    @cached_property
    def basis(self) -> tuple:
        F, n_a = self.curve.field, self.n_a
        return tuple(RationalFunction(self.curve, Poly(F, v[:n_a]),
                                      Poly(F, v[n_a:]), self.denominator)
                     for v in self.vectors)

    def __iter__(self):
        return iter(self.basis)

    def __len__(self):
        return self.dim


def _denominator_orders(D: Divisor):
    """ord_p(c) for each xminpoly p of the ansatz denominator c, the
    product of xminpoly(P)^{m_P} over the affine positive support of D.
    deg c and every v_P(c) are read from these; c itself is built only
    by rr_basis, which stores it."""
    ords = {}
    for pt, m in D.items:
        if m > 0 and pt.kind != "infinity":
            ords[pt.xminpoly] = ords.get(pt.xminpoly, 0) + m
    return ords


def _ansatz_denominator(curve: HyperellipticCurve, ords) -> Poly:
    """c = product of p^k over the orders `ords`, the powers read from
    the curve's ladder per xminpoly."""
    c = Poly.one(curve.field)
    for p, k in ords.items():
        c = c * _xpower(curve, p, k)
    return c


def _constraint_points(D: Divisor, ords):
    """Map point -> required numerator valuation r = v_P(c) - m_P, for
    every affine place where r >= 1 (includes conjugates of split
    support, which c covers but D need not).  v_P(c) is the ramification
    index times ord_p(c) from `ords`; nothing is divided."""
    req = {}
    for pt, m in D.items:
        if pt.kind != "infinity":
            req[pt] = pt.ramification * ords.get(pt.xminpoly, 0) - m
    for pt, m in D.items:
        if m > 0 and pt.kind == "split":
            conj = pt.conjugate()
            if conj not in req:
                req[conj] = ords[pt.xminpoly]
    return {pt: r for pt, r in req.items() if r >= 1}


def _residue_columns(modulus: Poly, seeds):
    """Coefficient columns of x^j * s mod modulus for j < count, for each
    (s, count) of seeds in turn, each deg(modulus) long.

    s is reduced once; each next column is the last one times x, whose
    top coefficient t turns into -t * low(modulus) since the modulus is
    monic.  Over a finite field the columns are payloads.  Over Q they
    are ints: every column is its rational value times one factor
    d * e^(n-1), with d the common denominator of the reduced seeds, e
    the lcm of the modulus's denominators (e * modulus is its primitive
    integer multiple) and n the largest count.  Column j is e^(n-1-j)
    times the j-th pseudo-remainder by e * modulus, so every top t but
    the last column's is a multiple of e, and a step subtracts t/e times
    the integer low coefficients of e * modulus.  A degree-0 modulus
    (p^0 = 1) gives empty columns.
    """
    F = modulus.field
    width = modulus.degree
    if width == 0:
        return [[] for _, count in seeds for _ in range(count)]
    low = modulus.coeffs[:width]
    starts = [list((s % modulus).coeffs) for s, _ in seeds]
    zero = F.pzero
    e = 1
    if isinstance(F, Rationals):
        zero = 0
        e = math.lcm(*(v.denominator for v in low))
        low = [v.numerator * (e // v.denominator) for v in low]
        n = max(count for _, count in seeds)
        scale = math.lcm(*(v.denominator for q in starts for v in q)) \
            * e ** max(n - 1, 0)
        starts = [[v.numerator * (scale // v.denominator) for v in q]
                  for q in starts]
    cols = []
    for q, (_, count) in zip(starts, seeds):
        q += [zero] * (width - len(q))
        for j in range(count):
            cols.append(q)
            if j == count - 1:
                break
            top = q[-1]
            q = [zero] + q[:-1]
            if top != zero:
                q = F.axpy(q, top if e == 1 else top // e, low)
    return cols


def _constraint_rows(curve, pt, r, n_a, order):
    """Linear conditions on the ansatz coefficients enforcing
    v_pt(a + b*y) >= r, as congruences a*s + b*t = 0 mod modulus.
    Returns payload rows with the columns a_0.., b_0.. taken in `order`."""
    F = curve.field
    p = pt.xminpoly
    one, zero = Poly.one(F), Poly.zero(F)
    if pt.kind == "split":
        # y is the Hensel-lifted branch Y modulo p^r
        congruences = [(_xpower(curve, p, r), one, _branch_lift(pt, r))]
    elif pt.kind == "ramified":
        # v(y) = 1: a and b*y have valuations of opposite parity
        congruences = [(_xpower(curve, p, (r + 1) // 2), one, zero),
                       (_xpower(curve, p, r // 2), zero, one)]
    else:
        # nonsplit: 1 and yhat are independent over the local ring
        pr = _xpower(curve, p, r)
        congruences = [(pr, one, zero), (pr, zero, one)]
    rows = []
    for modulus, s, t in congruences:
        cols = _residue_columns(modulus, ((s, n_a), (t, len(order) - n_a)))
        rows.extend([cols[j][i] for j in order] for i in range(modulus.degree))
    return rows


def _ansatz(curve: HyperellipticCurve, D: Divisor):
    """The ansatz of L(D) for deg D >= 0, one builder for rr_basis and h0.

    Returns (ords, poles, n_a, order, rows): the orders of the
    denominator c (`_denominator_orders`), the pole order at infinity of
    each column x^j (a) and then x^j*y (b), the number n_a of a-columns,
    the columns sorted by increasing pole order, and the constraint rows
    with their columns in that order.
    """
    ords = _denominator_orders(D)
    g = curve.genus
    degc = sum(k * p.degree for p, k in ords.items())
    m_inf = D.multiplicity(curve.infinity())
    n_a = degc + m_inf // 2 + 1
    n_b = max(degc + (m_inf - (2 * g + 1)) // 2 + 1, 0)
    if n_a + n_b > MAX_ANSATZ_COLUMNS:
        raise InputError(f"L(D) needs {n_a + n_b} ansatz columns, more "
                         f"than the limit of {MAX_ANSATZ_COLUMNS}")
    # pole orders at infinity of the columns x^j (a) and x^j*y (b),
    # all distinct, so sorting by them orders the columns totally
    poles = [2 * j - 2 * degc for j in range(n_a)]
    poles += [2 * j + 2 * g + 1 - 2 * degc for j in range(n_b)]
    order = sorted(range(len(poles)), key=poles.__getitem__)
    rows = []
    req = _constraint_points(D, ords)
    for pt in sorted(req, key=lambda q: q.key()):
        rows.extend(_constraint_rows(curve, pt, req[pt], n_a, order))
    return ords, poles, n_a, order, rows


def _subspace_rows(B: RRBasis, pt, extra: int):
    """Payload rows on coordinates in B whose common kernel is the
    subspace L(D - extra*pt) of L(D), D = B.divisor, for extra >= 1.

    At an affine place they are the congruences of `_constraint_rows` at
    D's own precision at pt raised by extra, applied to the kernel
    vectors of the basis.  At infinity they are unit
    rows on the elements whose pole order exceeds the lowered bound: the
    pole orders are distinct, so a combination's pole order is the
    largest among its nonzero coordinates.  No basis of the subspace is
    built.
    """
    F = B.curve.field
    D = B.divisor
    if pt.kind == "infinity":
        top = D.multiplicity(pt) - extra
        return [[F.pone if j == i else F.pzero for j in range(B.dim)]
                for i, pole in enumerate(B.pole_orders) if pole > top]
    if not B.dim:
        return []
    ords = _denominator_orders(D)
    r = pt.ramification * ords.get(pt.xminpoly, 0) - D.multiplicity(pt) + extra
    cols = range(len(B.vectors[0]))
    return [[F.dot(row, v) for v in B.vectors]
            for row in _constraint_rows(B.curve, pt, r, B.n_a, cols)]


def rr_basis(curve: HyperellipticCurve, D: Divisor) -> RRBasis:
    """Basis of L(D) = {f : div(f) + D >= 0}, canonically normalized.

    Results are cached on the curve by divisor key; bases are immutable,
    so the cache is transparent.
    """
    if D.curve != curve:
        raise InputError("divisor on a different curve")
    key = D.key()
    hit = curve._rr_cache.get(key)
    if hit is not None:
        return hit

    F = curve.field
    n_a, vectors, pole_orders = 0, [], []
    # deg(div f) = 0, so L(D) = 0 when deg D < 0; from deg D >= 0 on the
    # ansatz has at least the column a_0
    if D.degree >= 0:
        ords, poles, n_a, order, rows = _ansatz(curve, D)
        size = (D.degree + 1) * len(order)
        if size > MAX_BASIS_ENTRIES:
            raise InputError(f"a basis of L(D) may hold {size} entries, "
                             f"more than the limit of {MAX_BASIS_ENTRIES}")
        # kernel_basis gives free column j a vector with 1 at j, 0 at the
        # other free columns and nonzeros only left of j: j is its
        # highest-pole monomial, and the vectors are the normal form
        for vec in kernel_basis(Matrix._trusted(F, rows, len(order))):
            coeffs = [None] * len(order)
            for j, v in zip(order, vec):
                coeffs[j] = v
            vectors.append(tuple(coeffs))
            top = max(t for t, v in enumerate(vec) if not F.is_zero(v))
            pole_orders.append(poles[order[top]])
    c = _ansatz_denominator(curve, ords) if vectors else Poly.one(F)
    out = RRBasis(curve, D, len(vectors), c, n_a, tuple(vectors),
                  tuple(pole_orders))
    curve._rr_cache[key] = out
    return out


def h0(curve: HyperellipticCurve, D: Divisor) -> int:
    """dim L(D): the number of ansatz columns less the rank of the
    constraint rows, so no basis is built."""
    if D.curve != curve:
        raise InputError("divisor on a different curve")
    if D.degree < 0:
        return 0
    _, _, _, order, rows = _ansatz(curve, D)
    return len(order) - rank(Matrix._trusted(curve.field, rows, len(order)))


def h1(curve: HyperellipticCurve, D: Divisor) -> int:
    """Computed through Serre duality as h0(K - D); no cocycles anywhere."""
    return h0(curve, curve.canonical_divisor() - D)


def coordinates(fn: RationalFunction, B: RRBasis):
    """Exact coordinates of fn in B as payloads, read off the normal form.

    Over the basis denominator den, fn = (a + b*y)/c has the numerator
    pair (qa, qb) = (a*den, b*den)/c, which must divide exactly.  Element
    i has coefficient 1 at its top monomial, where every other element
    has 0, so coordinate i is the coefficient of (qa, qb) there; the
    combination is then checked exactly against (qa, qb).  No elimination
    runs; membership failures raise and nothing is ever projected.
    """
    if fn.curve != B.curve:
        raise InputError("function on a different curve")
    F = fn.curve.field
    if fn.is_zero():
        return [F.pzero] * B.dim
    if B.dim == 0:
        raise MembershipError("nonzero function against an empty basis")
    den = B.denominator
    qa, ra = (fn.a * den).divmod(fn.c)
    qb, rb = (fn.b * den).divmod(fn.c)
    # pole order 2j - 2 deg den is the monomial x^j of a, pole order
    # 2j + 2g + 1 - 2 deg den the monomial x^j*y of b
    shift = 2 * den.degree
    odd = 2 * fn.curve.genus + 1
    ts = [qa.coeff((pole + shift) // 2) if pole % 2 == 0
          else qb.coeff((pole - odd + shift) // 2) for pole in B.pole_orders]
    n_a, width = B.n_a, len(B.vectors[0])
    if (ra or rb or len(qa.coeffs) > n_a or len(qb.coeffs) > width - n_a
            or linear_combination(F, ts, B.vectors, width)
            != [qa.coeff(k) for k in range(n_a)]
            + [qb.coeff(k) for k in range(width - n_a)]):
        raise MembershipError(f"{fn!r} is not in the span of the basis")
    return ts


@dataclass
class PrincipalityResult:
    principal: bool
    witness: RationalFunction | None

    def __bool__(self):
        return self.principal


def is_principal(curve: HyperellipticCurve, D: Divisor) -> PrincipalityResult:
    """Decide D ~ 0 for a degree-0 divisor; the witness w has div(w) = -D.

    For degree 0 this is exact: h0(D) = 1 forces div(w) + D = 0 on the
    nose, not just >= 0.
    """
    if D.degree != 0:
        raise InputError(f"principality is only defined in degree 0, got {D.degree}")
    B = rr_basis(curve, D)
    if B.dim == 0:
        return PrincipalityResult(False, None)
    return PrincipalityResult(True, B.basis[0])


def function_to_json(fn: RationalFunction):
    """Coefficient-list form {a, b, c} of (a + b*y)/c, constant first."""
    F = fn.curve.field
    return {"a": [F.payload_to_json(v) for v in fn.a.coeffs],
            "b": [F.payload_to_json(v) for v in fn.b.coeffs],
            "c": [F.payload_to_json(v) for v in fn.c.coeffs]}
