"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the library's own elimination and
enumeration code paths: rational-arithmetic row reduction is written
from scratch, and small extension fields are hand-rolled tuples so
point counts can be checked against brute force.
"""

from fractions import Fraction
import functools
import itertools
import random

from curvext import (Divisor, ExtensionClass, ExtensionField,
                     InputError, Matrix, MembershipError, Poly, PrimeField,
                     RationalFunction, Rationals, coordinates,
                     enumerate_effective_divisors, kernel_basis,
                     make_curve, make_datum, rr_basis)
from curvext.linalg import _echelon, linear_combination
from curvext.polys import iter_monic

# ---------------------------------------------------------------------------
# fixture curves (label -> constructor args); all models verified squarefree
# by make_curve itself
# ---------------------------------------------------------------------------

Q = Rationals()
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def curve_g1_q():
    return make_curve(Q, [1, 0, 0, 1], label="g1/Q: y^2 = x^3+1")


def curve_g1_f5():
    return make_curve(F5, [1, 0, 0, 1], label="g1/F5: y^2 = x^3+1")


def curve_g1w_f3():
    return make_curve(F3, [0, 1, 0, 1], label="g1/F3: y^2 = x^3+x")


def curve_g2_q():
    return make_curve(Q, [1, 1, 0, 0, 0, 1], label="g2/Q: y^2 = x^5+x+1")


def curve_g2_f5():
    return make_curve(F5, [1, 1, 0, 0, 0, 1], label="g2/F5: y^2 = x^5+x+1")


def curve_g2_f7():
    # x^5+x+1 is singular mod 7; the substituted model is squarefree
    return make_curve(F7, [1, 2, 0, 0, 0, 1], label="g2/F7: y^2 = x^5+2x+1")


def curve_g2_f3():
    return make_curve(F3, [1, 2, 0, 0, 0, 1], label="g2/F3: y^2 = x^5+2x+1")


def curve_g2_f9():
    # F9 = F3[t]/(t^2+1); f = x(x^4+t) has places of every kind in degree <= 2
    F9 = ExtensionField(3, [1, 0, 1])
    return make_curve(F9, [0, (0, 1), 0, 0, 0, 1], label="g2/F9: y^2 = x^5+tx")


def curve_g3_f5():
    return make_curve(F5, [1, 1, 0, 0, 0, 0, 0, 1], label="g3/F5: y^2 = x^7+x+1")


# ---------------------------------------------------------------------------
# extension data used across extension/secant tests and the acceptance sweep
# ---------------------------------------------------------------------------

def datum_on_infinity(curve, n):
    """N = n*inf, M = (n/2+g-1)*inf; valid on every fixture, u = 1."""
    N = curve.infinity_divisor(n)
    M = curve.infinity_divisor(n // 2 + curve.genus - 1)
    return make_datum(curve, N, M)


def chain_datum(curve, n):
    """Mixed-support datum for the exhaustive soundness sweeps.

    Uses a rational point with 2P ~ 2*inf so that M has affine support:
    g = 1 curves y^2 = x^3+x take M = (0,0) + (n/2-1)*inf; the g = 2
    model over F5 takes M = (2,0) + (n/2)*inf; over F3 (no rational
    Weierstrass point on x^5+2x+1) M = (0,1) + (0,2) + (n/2-1)*inf with
    u = x^2.
    """
    g = curve.genus
    N = curve.infinity_divisor(n)
    inf = curve.infinity()
    if g == 1:
        W = curve.point(0, 0)
        M = Divisor(curve, [(W, 1), (inf, n // 2 - 1)])
    elif curve.field.order() == 5:
        W = curve.point(2, 0)
        M = Divisor(curve, [(W, 1), (inf, n // 2)])
    else:
        P = curve.point(0, 1)
        M = Divisor(curve, [(P, 1), (P.conjugate(), 1), (inf, n // 2 - 1)])
    return make_datum(curve, N, M)


def half_class_helper(curve, B):
    """(N, M) = (2B, B + (g-1)*infinity); the resulting datum always
    validates since 2M - N - K = 0 as a divisor."""
    N = 2 * B
    M = B + curve.infinity_divisor(curve.genus - 1)
    return N, M


def all_classes(datum):
    """Every extension class over a finite field, in payload-lex order."""
    from itertools import product
    F = datum.curve.field
    payloads = list(F.iter_payloads())
    for tup in product(payloads, repeat=datum.class_dim):
        yield ExtensionClass(datum, list(tup))


def evaluation_class(datum, P):
    """The point-evaluation functional w -> w(P) in class coordinates."""
    vals = []
    F = datum.curve.field
    x0 = F.neg(P.xminpoly.coeffs[0])
    y0 = P.ybranch.coeffs[0]
    for w in datum.basis_NK.basis:
        # w = (a + b*y)/c with c(P) != 0 for affine P off the poles
        num = F.add(w.a.evaluate(x0), F.mul(w.b.evaluate(x0), y0))
        vals.append(F.div(num, w.c.evaluate(x0)))
    return ExtensionClass(datum, vals)


def skew_reverification(monkeypatch, j):
    """Make the witness re-verifier disagree with the scan it checks:
    the L(N+K) coordinate map stays exact while divisors are scanned,
    and returns the j-th unit vector while the re-verifier runs."""
    import curvext.extensions as ext
    exact, reverify = ext.coordinates, ext._reverify_annihilation
    skewing = []

    def coordinates(fn, B):
        if skewing:
            F = B.curve.field
            return [F.pone if i == j else F.pzero for i in range(B.dim)]
        return exact(fn, B)

    def second_opinion(*args):
        skewing.append(True)
        try:
            reverify(*args)
        finally:
            skewing.clear()
    monkeypatch.setattr(ext, "coordinates", coordinates)
    monkeypatch.setattr(ext, "_reverify_annihilation", second_opinion)


# ---------------------------------------------------------------------------
# witness scans and secant tables through a Riemann-Roch basis per divisor
# (oracles for the row-span test of extensions._witness_scan and for
# secant.secant_table)
# ---------------------------------------------------------------------------

def witness_scan_by_rr_basis(e, base, bound, multiplier=None, points=None):
    """First effective D of degree <= bound, in enumeration order, with e
    zero on multiplier * L(base - D): one rr_basis(base - D) per divisor,
    each basis function times the multiplier, then its L(N+K)
    coordinates.  Returns (D or None, divisors examined)."""
    datum = e.datum
    curve = datum.curve
    F = curve.field
    examined = 0
    if bound < 0:
        return None, examined
    for D in enumerate_effective_divisors(curve, bound, points=points):
        examined += 1
        if all(F.is_zero(F.dot(e.coords, datum.nk_coordinates(
                w if multiplier is None else w * multiplier)))
               for w in rr_basis(curve, base - D).basis):
            return D, examined
    return None, examined


def secant_member_by_rr_basis(e, d=None, points=None):
    """(witness, examined) of secant_member through the oracle scan."""
    datum = e.datum
    if d is None:
        d = datum.n // 2 - 1
    return witness_scan_by_rr_basis(
        e, datum.N + datum.curve.canonical_divisor(), d, points=points)


def destabilizer_by_rr_basis(e, max_degree=None, points=None):
    """(witness, examined) of brute_force_destabilizer through the oracle
    scan on L(K - L + M - D) and the datum's witness u of M - L - N."""
    datum = e.datum
    curve = datum.curve
    bound = (datum.n - 1) // 2
    if max_degree is not None:
        bound = min(bound, max_degree)
    return witness_scan_by_rr_basis(
        e, curve.canonical_divisor() - datum.L + datum.M, bound, datum.u,
        points)


def secant_table_by_kernel(datum, d):
    """Sigma_d as a frozenset of coordinate tuples: for each effective D
    of degree <= d, every combination of a kernel basis of the L(N+K)
    coordinates of the basis of L(N+K - D)."""
    F = datum.curve.field
    payloads = list(F.iter_payloads())
    NK = datum.N + datum.curve.canonical_divisor()
    members = set()
    for D in enumerate_effective_divisors(datum.curve, d):
        rows = [datum.nk_coordinates(w)
                for w in rr_basis(datum.curve, NK - D).basis]
        kvecs = kernel_basis(Matrix(F, rows, datum.class_dim))
        for cs in itertools.product(payloads, repeat=len(kvecs)):
            members.add(tuple(linear_combination(F, cs, kvecs,
                                                 datum.class_dim)))
    return frozenset(members)


# ---------------------------------------------------------------------------
# small constructors and predicates on curve objects
# ---------------------------------------------------------------------------

def from_parts(curve, a, b, c=None):
    """(a + b*y)/c from coefficient lists (or Polys), low degree first."""
    F = curve.field
    mk = lambda v: v if isinstance(v, Poly) else Poly.from_values(F, v)
    return RationalFunction(curve, mk(a), mk(b),
                            mk(c) if c is not None else None)


def is_weierstrass(P):
    """A fixed point of the hyperelliptic involution."""
    return P.kind in ("infinity", "ramified")


def is_effective(D):
    """Every multiplicity positive (vacuously so for the zero divisor)."""
    return all(m > 0 for _, m in D.items)


def positive_part(D):
    return Divisor(D.curve, [(pt, m) for pt, m in D.items if m > 0])


# ---------------------------------------------------------------------------
# independent exact linear algebra over Fraction (oracle for linalg)
# ---------------------------------------------------------------------------

def frac_rref(rows):
    """Plain textbook reduced row echelon over Fraction; returns
    (reduced nonzero rows, pivot column list)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def frac_det(rows):
    """Determinant by fraction-free-ish elimination over Fraction."""
    rows = [[Fraction(x) for x in r] for r in rows]
    n = len(rows)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        inv = Fraction(1) / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return det


def modp_rank(rows, p):
    """Row rank of an integer matrix mod p, independent elimination."""
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# hand-rolled F_{p^k} as coefficient tuples mod a fixed irreducible
# (independent of curvext.fields.ExtensionField)
# ---------------------------------------------------------------------------

class TinyExt:
    """F_p[t]/(minpoly); elements are length-k int tuples, low degree first."""

    def __init__(self, p, minpoly):
        self.p = p
        self.minpoly = list(minpoly)       # monic, length k+1
        self.k = len(minpoly) - 1

    def elements(self):
        from itertools import product
        return [tuple(t) for t in product(range(self.p), repeat=self.k)]

    def embed(self, a):
        return tuple([a % self.p] + [0] * (self.k - 1))

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def inv(self, a):
        """Brute force over the field: the one b with a*b = 1."""
        one = self.embed(1)
        return next(b for b in self.elements() if self.mul(a, b) == one)

    def mul(self, a, b):
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        # reduce by the monic minpoly
        for i in range(len(prod) - 1, self.k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(self.k + 1):
                    prod[i - self.k + j] = (prod[i - self.k + j]
                                            - c * self.minpoly[j]) % self.p
        return tuple(prod[:self.k])

    def polyval(self, coeffs, x):
        acc = self.embed(0)
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), self.embed(c))
        return acc


def tiny_rref(K, rows):
    """Textbook reduced row echelon over a TinyExt; returns (reduced
    nonzero rows, pivot column list)."""
    zero = K.embed(0)
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != zero), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = K.inv(rows[r][c])
        rows[r] = [K.mul(v, inv) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != zero:
                f = rows[i][c]
                rows[i] = [K.sub(a, K.mul(f, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def tiny_det(K, rows):
    """Leibniz expansion over a TinyExt: a sum over permutations, so it
    shares nothing with elimination."""
    from itertools import permutations
    n = len(rows)
    acc = K.embed(0)
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = K.embed(1)
        for i, j in enumerate(perm):
            term = K.mul(term, rows[i][j])
        acc = K.sub(acc, term) if inversions % 2 else K.add(acc, term)
    return acc


def _trimmed(F, coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == F.pzero:
        coeffs.pop()
    return tuple(coeffs)


def schoolbook_product(F, a, b):
    """Oracle for polynomial products: the coefficient tuple of a*b, for
    payload sequences a and b (low degree first), one coefficient at a
    time, c_k = sum of a_i b_(k-i); only F's add and mul."""
    out = []
    for k in range(len(a) + len(b) - 1):
        c = F.pzero
        for i in range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1):
            c = F.add(c, F.mul(a[i], b[k - i]))
        out.append(c)
    return _trimmed(F, out)


def long_division(F, a, b):
    """Oracle for polynomial division: (quotient, remainder) coefficient
    tuples of a by a nonzero b, payload sequences low degree first.  Each
    step subtracts c*x**k*b, c = lead(a) / lead(b), from the whole
    dividend until its degree is below deg b; only F's sub, mul and inv."""
    rem, db = list(_trimmed(F, a)), len(b) - 1
    quot = [F.pzero] * max(len(rem) - db, 0)
    while len(rem) > db:
        k = len(rem) - 1 - db
        quot[k] = c = F.mul(rem[-1], F.inv(b[-1]))
        rem = list(_trimmed(F, [F.sub(x, F.mul(c, b[i - k])) if i >= k else x
                                for i, x in enumerate(rem)]))
    return _trimmed(F, quot), tuple(rem)


def euclid_inverse(a, modulus):
    """Oracle for polys.residue_inverse: a**-1 mod modulus by the textbook
    extended Euclidean algorithm on coefficient tuples, quotients by
    ``long_division``, cofactor products by ``schoolbook_product``, both
    cofactors carried, and the Bezout identity s*a + t*modulus = g
    asserted at the end.  ZeroDivisionError unless g is constant."""
    F = a.field

    def combine(op, u, v):
        n = max(len(u), len(v))
        u, v = (tuple(w) + (F.pzero,) * (n - len(w)) for w in (u, v))
        return _trimmed(F, [op(x, y) for x, y in zip(u, v)])

    r0, r1 = a.coeffs, modulus.coeffs
    s0, s1, t0, t1 = (F.pone,), (), (), (F.pone,)
    while r1:
        q, r = long_division(F, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, combine(F.sub, s0, schoolbook_product(F, q, s1))
        t0, t1 = t1, combine(F.sub, t0, schoolbook_product(F, q, t1))
    assert combine(F.add, schoolbook_product(F, s0, a.coeffs),
                   schoolbook_product(F, t0, modulus.coeffs)) == r0
    if len(r0) != 1:
        raise ZeroDivisionError(f"{a!r} is not invertible mod {modulus!r}")
    s = [F.mul(x, F.inv(r0[0])) for x in s0]
    return Poly(F, long_division(F, s, modulus.coeffs)[1])


def residue_is_square(a, modulus):
    """Euler criterion in F_q[x]/(modulus) for irreducible modulus, odd q
    (oracle for the squareness decision of polys.residue_sqrt)."""
    F = a.field
    q = F.order()
    if q is None:
        raise InputError("residue_is_square requires a finite field")
    r = a % modulus
    if r.is_zero():
        return True
    qk = q ** modulus.degree
    return r.powmod((qk - 1) // 2, modulus).is_one()


def brute_square_roots(F):
    """Oracle for polys._fq_sqrt: {a: set of every b with b*b = a} over
    the squares a of a finite field F, 0 included; a nonsquare is no key.
    One pass over F's payloads with F's own mul, nothing from polys."""
    roots = {}
    for b in F.iter_payloads():
        roots.setdefault(F.mul(b, b), set()).add(b)
    return roots


def bound_mul(F, limit=10_000):
    """Give the descriptor F a mul that fails an assertion past ``limit``
    products, so a loop that never ends (square and multiply on a negative
    exponent) fails its test instead of hanging it.  F is changed in
    place, so pass a fresh descriptor; it is returned."""
    mul, calls = F.mul, itertools.count(1)

    def bounded(a, b):
        assert next(calls) <= limit, f"more than {limit} products"
        return mul(a, b)

    F.mul = bounded
    return F


def brute_residue_sqrts(modulus):
    """Oracle for polys.residue_sqrt: {coefficient tuple of a: root} for
    every square a of F_q[x]/(modulus).

    One scan of the residue field with the first root kept, so each root
    is the first b in key order of the padded coefficient tuple (c_0
    first) with b**2 = a, exactly what the brute-force residue_sqrt
    returned.  Desk-scale residue fields only.
    """
    F = modulus.field
    payloads = sorted(F.iter_payloads(), key=F.payload_key)
    roots = {}
    for tup in itertools.product(payloads, repeat=modulus.degree):
        b = Poly(F, tup)
        roots.setdefault(((b * b) % modulus).coeffs, b)
    return roots


def nonsquare_power_by_scan(modulus, t, s):
    """Oracle for polys._nonsquare_power: the same candidate order (the
    constants for odd degree, x + c for even degree, then every residue),
    each candidate n tested by raising it to the t and squaring s - 1
    times; returns z = n**t for the first n with z**(2**(s-1)) != 1."""
    F, d = modulus.field, modulus.degree
    family = (Poly(F, [c] if d % 2 else [c, F.pone]) for c in F.iter_payloads())
    rest = (Poly(F, tup) for tup in itertools.product(F.iter_payloads(), repeat=d))
    for n in itertools.chain(family, rest):
        if not n:
            continue
        z = n.powmod(t, modulus)
        c = z
        for _ in range(s - 1):
            c = (c * c) % modulus
        if not c.is_one():
            return z
    raise AssertionError(f"no nonsquare modulo {modulus!r}")


def hensel_sqrt_by_xgcd(f, p, branch, precision):
    """Oracle for polys.hensel_sqrt: Newton doubling on Y <- (Y + f/Y)/2
    with a fresh inverse of Y by ``euclid_inverse`` modulo p**k at every
    step."""
    F = f.field
    y = branch % p
    half = Poly(F, [F.inv(F.coerce(2))])
    k = 1
    while k < precision:
        k = min(2 * k, precision)
        pk = p ** k
        inv_y = euclid_inverse(y, pk)
        y = ((y + (f % pk) * inv_y) * half) % pk
    return y


def ben_or_monic_irreducible(field, max_degree):
    """Oracle for polys.iter_monic_irreducible: every monic of degree
    1..max_degree in iter_monic's order, kept when Ben-Or's test
    (Poly.is_irreducible) passes it."""
    for d in range(1, max_degree + 1):
        for f in iter_monic(field, d):
            if d == 1 or f.is_irreducible():
                yield f


@functools.cache
def _tables(K):
    """K's elements, and a - b*c keyed by (a, b, c); built once per K."""
    elems = K.elements()
    return elems, {(a, b, c): K.sub(a, K.mul(b, c))
                   for a in elems for b in elems for c in elems}


def irreducible_by_trial_division(K, coeffs):
    """Oracle for Poly.is_irreducible: the monic f with TinyExt element
    coefficients ``coeffs`` (low degree first) is irreducible iff its
    degree d is at least 1 and no monic g of degree 1..d/2 leaves
    remainder 0 in schoolbook long division."""
    elems, sub_mul = _tables(K)
    zero = K.embed(0)
    d = len(coeffs) - 1
    for e in range(1, d // 2 + 1):
        for g in itertools.product(elems, repeat=e):     # g + x^e
            rem = list(coeffs)
            for top in range(d, e - 1, -1):
                c = rem[top]
                for j, gj in enumerate(g):
                    rem[top - e + j] = sub_mul[rem[top - e + j], c, gj]
            if all(r == zero for r in rem[:e]):
                return False
    return d >= 1


def count_monic_irreducible(q, d):
    """Necklace count (1/d) * sum_{e | d} mu(e) q^(d/e)."""
    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += _moebius(e) * q ** (d // e)
    return total // d


def _moebius(n):
    out = 1
    for p in _prime_factors(n):
        if n % (p * p) == 0:
            return 0
        out = -out
    return out


def _prime_factors(n):
    """The distinct primes dividing n >= 1, ascending, by trial division."""
    out, ell = [], 2
    while ell * ell <= n:
        if n % ell == 0:
            out.append(ell)
            while n % ell == 0:
                n //= ell
        ell += 1
    return out + [n] if n > 1 else out


def brute_point_count(p, f_coeffs, ext_minpoly=None):
    """#points of y^2 = f(x) over F_p (or F_{p^k} via ext_minpoly),
    including the single point at infinity of the odd-degree model."""
    if ext_minpoly is None:
        count = 1
        for x in range(p):
            fx = sum(c * x ** i for i, c in enumerate(f_coeffs)) % p
            count += sum(1 for y in range(p) if (y * y - fx) % p == 0)
        return count
    K = TinyExt(p, ext_minpoly)
    elems = K.elements()
    squares = {}
    for y in elems:
        squares.setdefault(K.mul(y, y), 0)
        squares[K.mul(y, y)] += 1
    count = 1
    for x in elems:
        fx = K.polyval([c % p for c in f_coeffs], x)
        count += squares.get(fx, 0)
    return count


def random_divisor(curve, rng: random.Random, points, max_abs_degree):
    """Sparse random divisor with |degree| <= max_abs_degree."""
    D = Divisor(curve, [])
    budget = max_abs_degree
    for pt in rng.sample(points, k=min(len(points), 4)):
        if budget <= 0:
            break
        top = max(1, budget // pt.degree)
        mult = rng.randint(-top, top)
        if mult:
            D = D + Divisor(curve, [(pt, mult)])
            budget -= abs(mult) * pt.degree
    return D


# ---------------------------------------------------------------------------
# effective divisors by recursion (oracle for enumerate_effective_divisors)
# ---------------------------------------------------------------------------

def effective_divisors_by_recursion(curve, max_degree, points):
    """Effective divisors of degree <= max_degree supported on `points`,
    in the library's order: total degree ascending, then lexicographic in
    the multiplicity vector over the key-sorted points.  One generator
    frame per point, so only lists well inside the recursion limit fit."""
    pts = sorted(set(points), key=lambda pt: pt.key())
    degs = [pt.degree for pt in pts]

    def rec(i, remaining):
        if i == len(pts):
            if remaining == 0:
                yield []
            return
        for m in range(remaining // degs[i] + 1):
            for rest in rec(i + 1, remaining - m * degs[i]):
                yield ([(pts[i], m)] if m else []) + rest

    for total in range(max_degree + 1):
        for items in rec(0, total):
            yield Divisor(curve, items)


# ---------------------------------------------------------------------------
# rational roots by the rational root theorem (oracle for Poly.rational_roots)
# ---------------------------------------------------------------------------

def _divisors(n):
    """Positive divisors of n >= 1, ascending, from its prime factors (trial
    division up to sqrt(n)); [1] for n = 0."""
    out = [1]
    for ell in _prime_factors(n):
        e = 0
        while n % ell == 0:
            n, e = n // ell, e + 1
        out = [d * ell ** i for d in out for i in range(e + 1)]
    return sorted(out)


def divisor_rational_roots(poly):
    """Roots in Q of a nonzero polynomial over Q: every candidate +-p/q
    with p | constant term and q | leading coefficient, tried exactly."""
    den = 1
    for c in poly.coeffs:
        den = den * Fraction(c).denominator
    ints = [int(Fraction(c) * den) for c in poly.coeffs]
    k = 0
    while ints[k] == 0:
        k += 1
    roots = {Fraction(0)} if k else set()
    for pn in _divisors(abs(ints[k])):
        for qd in _divisors(abs(ints[-1])):
            for cand in (Fraction(pn, qd), Fraction(-pn, qd)):
                if sum(c * cand ** i for i, c in enumerate(ints)) == 0:
                    roots.add(cand)
    return sorted(roots)


# ---------------------------------------------------------------------------
# coordinates by elimination (oracle for riemann_roch.coordinates)
# ---------------------------------------------------------------------------

def from_columns(field, columns):
    """The matrix with the given columns."""
    cols = [list(c) for c in columns]
    if not cols:
        return Matrix(field, [])
    return Matrix(field, [[col[i] for col in cols] for i in range(len(cols[0]))])


def basis_transition(src, dst, mul=None):
    """Matrix whose column i gives mul*src[i] in dst coordinates; with
    mul = None the identity function is used."""
    return from_columns(src.curve.field,
                        [coordinates(fn if mul is None else fn * mul, dst)
                         for fn in src.basis])


def solve(mat, rhs):
    """One exact solution of mat * x = rhs, or None if inconsistent.

    Free variables are set to zero, which makes the returned solution
    deterministic.  ``rhs`` is a sequence of length nrows.
    """
    F = mat.field
    b = [F.coerce(v) for v in rhs]
    if len(b) != mat.nrows:
        raise InputError("right-hand side length mismatch")
    n_cols = mat.ncols
    rows, pivots = _echelon(F, [row + (bv,) for row, bv in zip(mat.rows, b)])
    x = [F.pzero] * n_cols
    # reduced form with free variables at zero: x[c] is row r's rhs, and
    # a pivot in the rhs column means the system is inconsistent
    for r, c in pivots:
        if c == n_cols:
            return None
        x[c] = rows[r][n_cols]
    return x


def basis_pairs(B):
    """The numerator pairs (a, b) of an RRBasis, basis[i] = (a + b*y)/c
    over its denominator c, sliced from its kernel vectors."""
    F = B.curve.field
    return [(Poly(F, v[:B.n_a]), Poly(F, v[B.n_a:])) for v in B.vectors]


def solve_coordinates(fn, B):
    """Coordinates of fn in the basis B by one linear solve over the
    cleared-denominator coefficient identities; MembershipError when the
    system is inconsistent.  Reads nothing off the normal form."""
    F = fn.curve.field
    if fn.is_zero():
        return [F.pzero] * B.dim
    if B.dim == 0:
        raise MembershipError("nonzero function against an empty basis")
    # sum_i t_i (a_i + b_i y)/den = (A + B y)/C  <=>  componentwise poly
    # identities after clearing denominators
    A, Bb, C = fn.a, fn.b, fn.c
    den = B.denominator
    pairs = basis_pairs(B)
    deg_a = max(max(a.degree for a, _ in pairs) + C.degree,
                A.degree + den.degree) + 1
    deg_b = max(max(b.degree for _, b in pairs) + C.degree,
                Bb.degree + den.degree) + 1
    cols = []
    for a, b in pairs:
        pa = a * C
        pb = b * C
        cols.append([pa.coeff(i) for i in range(deg_a)]
                    + [pb.coeff(i) for i in range(deg_b)])
    ra = A * den
    rb = Bb * den
    rhs = [ra.coeff(i) for i in range(deg_a)] + [rb.coeff(i) for i in range(deg_b)]
    sol = solve(from_columns(F, cols), rhs)
    if sol is None:
        raise MembershipError(f"{fn!r} is not in the span of the basis")
    return sol


# ---------------------------------------------------------------------------
# required numerator orders by repeated division (oracle for
# riemann_roch._constraint_points)
# ---------------------------------------------------------------------------

def ansatz_denominator_by_product(D):
    """c = product of xminpoly(P)^{m_P} over the affine positive support."""
    c = Poly.one(D.curve.field)
    for pt, m in D.items:
        if m > 0 and pt.kind != "infinity":
            c = c * pt.xminpoly ** m
    return c


def constraint_points_by_division(D, c):
    """{place: v_P(c) - m_P} where that is >= 1, over the affine support
    and the conjugates of split positive support, with v_P(c) found by
    dividing c by xminpoly(P) until a remainder appears."""
    req = {}
    for pt, m in D.items:
        if pt.kind != "infinity":
            req[pt] = pt.ramification * _ord(c, pt.xminpoly) - m
    for pt, m in D.items:
        if m > 0 and pt.kind == "split":
            conj = pt.conjugate()
            if conj not in req:
                req[conj] = _ord(c, conj.xminpoly)
    return {pt: r for pt, r in req.items() if r >= 1}


# ---------------------------------------------------------------------------
# constraint rows on field payloads, one remainder per column (oracle for
# riemann_roch._constraint_rows, whose rows over Q are ints)
# ---------------------------------------------------------------------------

def residue_columns_on_payloads(s, count, modulus):
    """Coefficient columns of x^j * s mod modulus for j < count, each
    deg(modulus) long, on payloads (Fractions over Q): each column is
    the last one times x, its top coefficient folded back through the
    monic modulus."""
    F = s.field
    width = modulus.degree
    if width == 0:
        return [[] for _ in range(count)]
    low = modulus.coeffs[:width]
    q = list((s % modulus).coeffs)
    q += [F.pzero] * (width - len(q))
    cols = []
    for _ in range(count):
        cols.append(q)
        top = q[-1]
        q = [F.pzero] + q[:-1]
        if not F.is_zero(top):
            q = [F.sub(v, F.mul(top, w)) for v, w in zip(q, low)]
    return cols


def constraint_rows_on_payloads(curve, pt, r, n_a, order):
    """The congruences a*s + b*t = 0 mod modulus enforcing
    v_pt(a + b*y) >= r, as payload rows with the columns a_0.., b_0..
    taken in `order`; the branch is lifted by `hensel_sqrt_by_xgcd` and
    every modulus is a fresh power."""
    F = curve.field
    p = pt.xminpoly
    one, zero = Poly.one(F), Poly.zero(F)
    if pt.kind == "split":
        congruences = [(p ** r, one,
                        hensel_sqrt_by_xgcd(curve.f, p, pt.ybranch, r))]
    elif pt.kind == "ramified":
        congruences = [(p ** ((r + 1) // 2), one, zero), (p ** (r // 2), zero, one)]
    else:
        congruences = [(p ** r, one, zero), (p ** r, zero, one)]
    rows = []
    for modulus, s, t in congruences:
        cols = residue_columns_on_payloads(s, n_a, modulus) \
            + residue_columns_on_payloads(t, len(order) - n_a, modulus)
        rows.extend([cols[j][i] for j in order] for i in range(modulus.degree))
    return rows


# ---------------------------------------------------------------------------
# truncated Laurent expansions at a place (oracle for curves.valuation)
#
# x and y are developed as exact series in a uniformizer with coefficients
# in the residue field, by Newton iteration; a valuation is the exponent of
# the first nonzero coefficient of the numerator's series.  Nothing here
# calls curves.valuation or its order-at-a-place helpers.
# ---------------------------------------------------------------------------

_SERIES_CAP = 512


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

    def __init__(self, p):
        self.p = p
        self.F = p.field
        self.zero = Poly.zero(self.F)
        self.one = Poly.one(self.F)
        self.xbar = Poly.x(self.F) % p

    def scalar(self, payload):
        return Poly(self.F, [payload])

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return -a

    def inv(self, a):
        return euclid_inverse(a, self.p)

    def is_zero(self, a):
        return a.is_zero()

    def mul_int(self, a, k):
        return a.scale(self.F.coerce(k))

    def coords(self, a):
        return [a.coeff(i) for i in range(self.p.degree)]


class _QuadRing:
    """Quadratic extension of k[x]/(p) by a square root of fbar: pairs
    (u, v) of reduced Polys meaning u + v*yhat with yhat^2 = fbar."""

    def __init__(self, quot, fbar):
        self.q = quot
        self.fbar = fbar % quot.p
        self.zero = (quot.zero, quot.zero)
        self.one = (quot.one, quot.zero)
        self.yhat = (quot.zero, quot.one)

    def scalar(self, payload):
        return (self.q.scalar(payload), self.q.zero)

    def lift(self, a):
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


def _s_add(ring, a, b):
    return [ring.add(x, y) for x, y in zip(a, b)]


def _s_sub(ring, a, b):
    return [ring.sub(x, y) for x, y in zip(a, b)]


def _s_mul(ring, a, b, prec):
    out = [ring.zero] * prec
    for i, x in enumerate(a[:prec]):
        if ring.is_zero(x):
            continue
        for j, y in enumerate(b[:prec - i]):
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


def _s_pad(ring, a, prec):
    return a[:prec] + [ring.zero] * (prec - len(a))


def _s_const(ring, value, prec):
    return _s_pad(ring, [value], prec)


def _s_polyval(ring, coeff_series, X, prec):
    """Horner evaluation of a polynomial whose coefficients are series
    (lowest power first) at a power series X."""
    acc = [ring.zero] * prec
    for c in reversed(coeff_series):
        acc = _s_add(ring, _s_mul(ring, acc, X, prec), _s_pad(ring, list(c), prec))
    return acc


class _Laurent:
    """Series valid on exponents [offset, offset + len(coeffs))."""

    def __init__(self, ring, offset, coeffs):
        self.ring = ring
        self.offset = offset
        self.coeffs = coeffs

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


def _laurent_polyval(ring, poly, X):
    """Horner evaluation of a base-coefficient polynomial at a Laurent series."""
    n = len(X.coeffs)
    if poly.is_zero():
        return _Laurent(ring, 0, [ring.zero] * n)
    acc = _Laurent(ring, 0, _s_const(ring, ring.scalar(poly.coeffs[-1]), n))
    for c in reversed(poly.coeffs[:-1]):
        acc = acc.mul(X).add(_Laurent(ring, 0, _s_const(ring, ring.scalar(c), n)))
    return acc


def _newton_series(ring, coeffs, init, prec):
    """Solve P(u) = 0 for a power series u with u(0) = init, where P has
    series coefficients ``coeffs`` (indexed by u-power).  Quadratic Newton
    in the t-adic metric."""
    dcoeffs = [[ring.mul_int(c, i) for c in coeffs[i]] for i in range(1, len(coeffs))]
    cur = [init]
    n = 1
    while n < prec:
        n = min(2 * n, prec)
        cur = _s_pad(ring, cur, n)
        num = _s_polyval(ring, [c[:n] for c in coeffs], cur, n)
        den = _s_polyval(ring, [c[:n] for c in dcoeffs], cur, n)
        cur = _s_sub(ring, cur, _s_mul(ring, num, _s_inv(ring, den, n), n))
    return cur


def _newton_sqrt(ring, F_series, init, prec):
    """Square root of a unit series from init with init^2 = F_series[0]."""
    half = ring.inv(ring.mul_int(ring.one, 2))
    cur = [init]
    n = 1
    while n < prec:
        n = min(2 * n, prec)
        cur = _s_pad(ring, cur, n)
        s = _s_add(ring, cur, _s_mul(ring, F_series[:n], _s_inv(ring, cur, n), n))
        cur = [ring.mul(c, half) for c in s]
    return cur


def _expansion_env(pt, prec):
    """(ring, x series, y series, residue dimension) at the place."""
    curve = pt.curve
    F = curve.field
    if pt.kind == "infinity":
        # u = t^2 x solves u^{2g} = sum_i f_i u^i t^{2(d-i)}; then y = u^g / t^d
        ring = _BaseRing(F)
        g, d = curve.genus, curve.f.degree
        coeffs = []
        for i in range(d + 1):
            c = [ring.zero] * prec
            if 2 * (d - i) < prec:
                c[2 * (d - i)] = curve.f.coeff(i)
            coeffs.append(c)
        coeffs[2 * g][0] = F.sub(coeffs[2 * g][0], F.pone)
        u = _newton_series(ring, coeffs, F.inv(curve.f.lc()), prec)
        ug = _s_const(ring, F.pone, prec)
        for _ in range(g):
            ug = _s_mul(ring, ug, u, prec)
        return ring, _Laurent(ring, -2, u), _Laurent(ring, -d, ug), 1
    p = pt.xminpoly
    quot = _QuotRing(p)
    if pt.kind == "ramified":
        # t = y; x solves f(x) = t^2 starting at xbar
        coeffs = [_s_const(quot, quot.scalar(c), prec) for c in curve.f.coeffs]
        if prec > 2:
            coeffs[0][2] = quot.sub(coeffs[0][2], quot.one)
        xi = _newton_series(quot, coeffs, quot.xbar, prec)
        ys = _s_pad(quot, [quot.zero, quot.one], prec)
        return quot, _Laurent(quot, 0, xi), _Laurent(quot, 0, ys), p.degree
    # t = p(x); x solves p(x) = t starting at xbar
    coeffs = [_s_const(quot, quot.scalar(c), prec) for c in p.coeffs]
    if prec > 1:
        coeffs[0][1] = quot.sub(coeffs[0][1], quot.one)
    xi = _newton_series(quot, coeffs, quot.xbar, prec)
    if pt.kind == "split":
        ring, y0, dim = quot, pt.ybranch % p, p.degree
    else:
        # nonsplit: coefficients live in the quadratic extension by yhat
        ring = _QuadRing(quot, curve.f % p)
        xi = [ring.lift(c) for c in xi]
        y0, dim = ring.yhat, 2 * p.degree
    fxi = _s_polyval(ring, [[ring.scalar(c)] for c in curve.f.coeffs], xi, prec)
    ys = _newton_sqrt(ring, fxi, y0, prec)
    return ring, _Laurent(ring, 0, xi), _Laurent(ring, 0, ys), dim


class SeriesExpansion:
    """``coefficients[i]`` is the coefficient of t**(offset + i): its
    coordinates (payloads) in the power basis of the residue field."""

    def __init__(self, ring, L, residue_dim):
        self.offset = L.offset
        self.coefficients = [ring.coords(v) for v in L.coeffs]
        self.residue_dim = residue_dim


def series_expansions(pt, precision):
    """Expansions of the coordinate functions x and y at a place."""
    ring, x, y, dim = _expansion_env(pt, precision)
    return SeriesExpansion(ring, x, dim), SeriesExpansion(ring, y, dim)


def series_residual_vanishes(pt, precision):
    """Residual check: y^2 - f(x) vanishes identically to the precision."""
    ring, x, y, _ = _expansion_env(pt, precision)
    minus_one = _Laurent(ring, 0, _s_const(ring, ring.mul_int(ring.one, -1),
                                           len(x.coeffs)))
    fx = _laurent_polyval(ring, pt.curve.f, x)
    return y.mul(y).add(fx.mul(minus_one)).leading_index() is None


def _ord(poly, p):
    n = 0
    while (poly % p).is_zero():
        poly, n = poly // p, n + 1
    return n


def series_valuation(fn, pt):
    """v_pt(fn) read off the numerator's expansion.

    Precision starts at an a-priori bound on the numerator's valuation
    plus g + 2 and doubles until the leading coefficient is nonzero.
    """
    curve = pt.curve
    a, b, c = fn.a, fn.b, fn.c
    if pt.kind == "infinity":
        v_den = -2 * c.degree
        cands = [] if a.is_zero() else [2 * a.degree]
        if not b.is_zero():
            cands.append(2 * b.degree + curve.f.degree)
        bound = max(cands)
    else:
        v_den = pt.ramification * _ord(c, pt.xminpoly)
        target = a if b.is_zero() else curve.norm_poly(a, b)
        bound = pt.ramification * _ord(target, pt.xminpoly)
    prec = bound + curve.genus + 2
    while True:
        assert prec <= _SERIES_CAP, f"no leading term within {_SERIES_CAP} terms"
        ring, x, y, _ = _expansion_env(pt, prec)
        if b.is_zero():
            num = _laurent_polyval(ring, a, x)
        else:
            num = _laurent_polyval(ring, b, x).mul(y)
            if not a.is_zero():
                num = _laurent_polyval(ring, a, x).add(num)
        v = num.leading_index()
        if v is not None:
            return v - v_den
        prec *= 2
