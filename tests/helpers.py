"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the library's own elimination and
enumeration code paths: rational-arithmetic row reduction is written
from scratch, and small extension fields are hand-rolled tuples so
point counts can be checked against brute force.
"""

from fractions import Fraction
import itertools
import random

from curvext import (Divisor, ExtensionClass, Poly, PrimeField, Rationals,
                     make_curve, make_datum)

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


def curve_g1w_f5():
    # full rational 2-torsion; W = (0,0) is the workhorse Weierstrass point
    return make_curve(F5, [0, 1, 0, 1], label="g1/F5: y^2 = x^3+x")


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


def all_classes(datum):
    """Every extension class over a finite field, in payload-lex order."""
    from itertools import product
    F = datum.curve.field
    payloads = list(F.iter_payloads())
    for tup in product(payloads, repeat=datum.class_dim):
        yield ExtensionClass(datum, list(tup))


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
