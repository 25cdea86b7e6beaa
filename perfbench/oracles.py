"""Independent checks the benchmark applies to the program's answers.

Nothing here imports curvext: elimination mod p, brute-force point
counts and residue-field arithmetic are written from scratch, so a
wrong answer from the library cannot also be the oracle's answer.
"""

from __future__ import annotations

from itertools import product


def modp_rank(rows, p):
    """Row rank of an integer matrix mod p by plain Gauss-Jordan."""
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
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


class SmallField:
    """F_p (k = 1) or F_p[t]/(minpoly); elements are k-tuples of ints,
    low degree first.  Only what the point checks need."""

    def __init__(self, p, minpoly=None):
        self.p = p
        self.minpoly = list(minpoly) if minpoly else [0, 1]
        self.k = len(self.minpoly) - 1
        self.zero = (0,) * self.k

    def elem(self, v):
        """Accept an int or a coefficient sequence (a payload)."""
        if isinstance(v, int):
            return ((v % self.p),) + (0,) * (self.k - 1)
        v = [c % self.p for c in v] + [0] * self.k
        return tuple(v[:self.k])

    def elements(self):
        return [tuple(t) for t in product(range(self.p), repeat=self.k)]

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.p for x in a)

    def mul(self, a, b):
        p, k, mp = self.p, self.k, self.minpoly
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] = (prod[i + j] + x * y) % p
        for i in range(len(prod) - 1, k - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(k + 1):
                    prod[i - k + j] = (prod[i - k + j] - c * mp[j]) % p
        return tuple(prod[:k])

    def poly_eval(self, coeffs, x):
        acc = self.zero
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), c)
        return acc

    def squares(self):
        """{square: number of square roots} over the whole field."""
        out = {}
        for y in self.elements():
            s = self.mul(y, y)
            out[s] = out.get(s, 0) + 1
        return out

    # polynomials over the field: lists of elements, low degree first

    def poly_mul(self, a, b):
        out = [self.zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = self.add(out[i + j], self.mul(x, y))
        return out

    def poly_mod_monic(self, a, m):
        """Remainder of a modulo a monic polynomial m, as deg m coefficients."""
        d = len(m) - 1
        a = list(a) + [self.zero] * max(0, d - len(a))
        for i in range(len(a) - 1, d - 1, -1):
            c = a[i]
            if c != self.zero:
                for j in range(d + 1):
                    a[i - d + j] = self.add(a[i - d + j],
                                            self.neg(self.mul(c, m[j])))
        return a[:d]

    def has_root(self, coeffs):
        return any(self.poly_eval(coeffs, x) == self.zero
                   for x in self.elements())


def brute_rational_points(F: SmallField, f):
    """#C(F_q) of y^2 = f(x): affine solutions plus the point at infinity."""
    sq = F.squares()
    return 1 + sum(sq.get(F.poly_eval(f, x), 0) for x in F.elements())


def place_is_valid(F: SmallField, f, kind, xminpoly, ybranch):
    """Check one enumerated closed place of degree <= 3 from scratch.

    xminpoly must be monic and, having degree <= 3, irreducible exactly
    when it has no root; the branch must square to f modulo it (split),
    f must vanish modulo it (ramified), or f must be a nonsquare at a
    degree-1 fibre (nonsplit).
    """
    if kind == "infinity":
        return True
    if len(xminpoly) < 2 or xminpoly[-1] != F.elem(1) or len(xminpoly) > 4:
        return False
    if len(xminpoly) > 2 and F.has_root(xminpoly):
        return False
    fbar = F.poly_mod_monic(f, xminpoly)
    if kind == "ramified":
        return all(c == F.zero for c in fbar)
    if kind == "nonsplit":
        if len(xminpoly) != 2:
            return False
        v = F.poly_eval(f, F.neg(xminpoly[0]))
        return v not in F.squares()
    if kind == "split":
        b = F.poly_mod_monic(ybranch, xminpoly)
        return (any(c != F.zero for c in b)
                and F.poly_mod_monic(F.poly_mul(b, b), xminpoly) == fbar)
    return False
