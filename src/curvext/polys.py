"""Dense univariate polynomials over any field descriptor.

Coefficients are stored low degree first as payloads, with no trailing
zeros (the zero polynomial has an empty tuple).  Everything here is exact;
irreducibility testing and enumeration are only offered over finite fields,
with rational roots over Q (by l-adic lifting) for the curve layer.

Monic irreducibles are enumerated by a sieve, one block of constant
term at a time, holding one block's flags and the irreducibles of up to
half the top degree.  A single polynomial given from outside is checked
by Ben-Or's test, ``Poly.is_irreducible``.

Residue fields F_q[x]/(p) of an irreducible p get inverses by the
extended Euclidean sequence, norms (a resultant with p), squareness by
Euler's criterion on the norm in F_q, and square roots of squares: for
deg p <= 2 and q odd by descent to F_q, else by Tonelli-Shanks; a
nonsquare costs no ``powmod``.  Of a root's two signs the first in key
order is returned, so point enumeration is deterministic.  Every sum,
product and division, of a Poly or on the payload lists of inverses,
norms, powers, gcds, Hensel lifts and Tonelli-Shanks rounds, runs one of
three loops: ``_add``, ``_mul`` and ``_divrem``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, product

from .errors import InputError
from .fields import FieldDescriptor, PrimeField, is_prime


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldDescriptor, coeffs):
        cs = list(coeffs)
        while cs and field.is_zero(cs[-1]):
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_values(cls, field, values):
        """Build from caller values, each through ``coerce``, low degree first."""
        return cls(field, [field.coerce(v) for v in values])

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @classmethod
    def one(cls, field):
        return cls(field, [field.pone])

    @classmethod
    def x(cls, field):
        return cls(field, [field.pzero, field.pone])

    # -- basic structure -----------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with deg 0 = -1 by convention."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == self.field.pone

    def lc(self):
        if not self.coeffs:
            raise InputError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.pone

    def coeff(self, i: int):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.pzero

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.field == self.field
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    # -- arithmetic ----------------------------------------------------------

    def _operand(self, other: "Poly"):
        # other's coefficients, once it is a Poly over this field: payloads
        # carry no field tag, so cross-field arithmetic would be garbage
        try:
            field, coeffs = other.field, other.coeffs
        except AttributeError:
            raise InputError(f"not a polynomial: {other!r}") from None
        if field is not self.field and field != self.field:
            raise InputError("polynomials over different fields")
        return coeffs

    def __add__(self, other):
        return Poly(self.field, _add(self.field, True, self.coeffs, self._operand(other)))

    def __sub__(self, other):
        return Poly(self.field, _add(self.field, False, self.coeffs, self._operand(other)))

    def __neg__(self):
        F = self.field
        return Poly(F, [F.neg(c) for c in self.coeffs])

    def __mul__(self, other):
        return Poly(self.field, _mul(self.field, self.coeffs, self._operand(other)))

    def scale(self, value):
        F = self.field
        c = F.coerce(value)
        return Poly(F, [F.mul(x, c) for x in self.coeffs])

    def __pow__(self, e: int):
        if e < 0:
            raise InputError("negative polynomial power")
        out = Poly.one(self.field)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def divmod(self, other: "Poly"):
        F, m = self.field, self._operand(other)
        if not m:
            raise ZeroDivisionError("polynomial division by zero")
        r = list(self.coeffs)
        q = _divrem(F, r, m)
        return Poly(F, q), Poly(F, r)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(self.field.inv(self.lc()))

    def derivative(self) -> "Poly":
        F = self.field
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(F.mul(self.coeffs[i], F.coerce(i)))
        return Poly(F, out)

    def evaluate(self, value):
        """Horner evaluation at a value ``coerce`` takes; returns a payload."""
        F = self.field
        v = F.coerce(value)
        acc = F.pzero
        for c in reversed(self.coeffs):
            acc = F.add(F.mul(acc, v), c)
        return acc

    # -- gcd family ----------------------------------------------------------

    def gcd(self, other: "Poly") -> "Poly":
        F = self.field
        a, b = list(self.coeffs), list(self._operand(other))
        while b:
            _divrem(F, a, b)
            a, b = b, a
        return Poly(F, a).monic()

    def is_squarefree(self) -> bool:
        """gcd with the derivative is constant; valid over Q and perfect F_q.
        The zero polynomial's gcd is 0, of degree -1."""
        return self.gcd(self.derivative()).degree == 0

    def powmod(self, e: int, modulus: "Poly") -> "Poly":
        if e < 0:
            raise InputError("negative polynomial power")
        F, base = self.field, (self % modulus).coeffs
        m, out = modulus.coeffs, [F.pone]
        while e:
            if e & 1:
                out = _mulmod(F, out, base, m)
            e >>= 1
            if e:
                base = _mulmod(F, base, base, m)
        return Poly(F, out)

    def is_irreducible(self) -> bool:
        """Ben-Or's test over a finite field: f of degree d is reducible
        iff gcd(f, x**(q**i) - x) != 1 for some i <= d/2, the early exit
        of distinct-degree factorization (Modern Computer Algebra, 14.2)."""
        q = self.field.order()
        if q is None:
            raise InputError("irreducibility testing is only provided over finite fields")
        d = self.degree
        if d <= 1:
            return d == 1
        f = self.monic()
        x = h = Poly.x(self.field)
        for _ in range(d // 2):
            h = h.powmod(q, f)
            if f.gcd(h - x).degree != 0:
                return False
        return True

    def rational_roots(self):
        """All roots in Q, ascending, by l-adic lifting.  Q coefficients only.

        After x^k and repeated factors are stripped off, P has integer
        coefficients with leading coefficient `lead`, and each rational
        root is k/lead with |k| <= B = |lead| + max |P_i| (Cauchy bound).
        For the least prime l with l not dividing lead and P mod l
        squarefree, every such root reduces to a simple root of P mod l;
        Newton's iteration lifts each of those until l^e > 2B, where the
        symmetric residue of lead*root is k itself.  Each candidate k/lead
        is kept only if P vanishes there exactly.
        """
        F = self.field
        if F.order() is not None:
            raise InputError("rational_roots is a Q-only helper")
        if self.is_zero():
            raise InputError("zero polynomial")
        k = 0
        while F.is_zero(self.coeffs[k]):
            k += 1
        roots = [F.pzero] if k else []
        P = Poly.from_values(F, self.coeffs[k:])
        P = P // P.gcd(P.derivative())
        if P.degree < 1:
            return roots
        den = math.lcm(*(c.denominator for c in P.coeffs))
        ints = [int(c * den) for c in P.coeffs]
        lead = ints[-1]
        bound = abs(lead) + max(abs(c) for c in ints[:-1])
        ell = 2
        while lead % ell == 0 or not Poly(
                PrimeField(ell), [c % ell for c in ints]).is_squarefree():
            ell += 1
            while not is_prime(ell):
                ell += 1
        dints = [i * c for i, c in enumerate(ints)][1:]
        for r in range(ell):
            if _eval_int(ints, r) % ell:
                continue
            m = ell
            while m <= 2 * bound:
                m = m * m
                r = (r - _eval_int(ints, r) * pow(_eval_int(dints, r), -1, m)) % m
            num = lead * r % m
            if num > m // 2:
                num -= m
            cand = Fraction(num, lead)
            if F.is_zero(P.evaluate(cand)):
                roots.append(cand)
        return sorted(roots)

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if self.field.is_zero(c):
                continue
            if i == 0:
                parts.append(f"{c}")
            elif i == 1:
                parts.append(f"{c}*x" if c != self.field.pone else "x")
            else:
                parts.append(f"{c}*x^{i}" if c != self.field.pone else f"x^{i}")
        return " + ".join(reversed(parts))


def _add(F, plus, a, b) -> list:
    """a + b, or a - b if not plus, of payload sequences, zeros trimmed."""
    op, zero = F.add if plus else F.sub, F.pzero
    out = list(a) + [zero] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = op(out[i], c)
    while out and out[-1] == zero:
        out.pop()
    return out


def _mul(F, a, b) -> list:
    """The schoolbook product of payload sequences a and b, as a list."""
    add, mul, zero = F.add, F.mul, F.pzero
    out = [zero] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x != zero:
            for j, y in enumerate(b):
                out[i + j] = add(out[i + j], mul(x, y))
    return out


def _divrem(F, r: list, m) -> list:
    """The quotient of the payload list r by a nonzero m, with r left
    holding the remainder, in place, zeros trimmed.  A monic m takes no
    inverse, and an r already shorter than m costs one length check."""
    dm = len(m) - 1
    if len(r) <= dm:
        return []
    sub, mul, zero = F.sub, F.mul, F.pzero
    inv = None if m[-1] == F.pone else F.inv(m[-1])
    q = [zero] * (len(r) - dm)
    while len(r) > dm:
        c = r.pop()
        if c != zero:
            if inv is not None:
                c = mul(c, inv)
            q[len(r) - dm] = c
            for i in range(dm):
                r[i - dm] = sub(r[i - dm], mul(c, m[i]))
    while r and r[-1] == zero:
        r.pop()
    return q


def _mulmod(F, a, b, m) -> list:
    """a * b mod m on payload sequences."""
    r = _mul(F, a, b)
    _divrem(F, r, m)
    return r


def _eval_int(coeffs, v: int) -> int:
    """Horner evaluation of an integer coefficient list, low degree first."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * v + c
    return acc


# ---------------------------------------------------------------------------
# enumeration and residue arithmetic over finite fields
# ---------------------------------------------------------------------------

def iter_monic(field: FieldDescriptor, degree: int):
    """Monic degree-d polynomials, lexicographic in the payload tuple of
    (c_0, ..., c_{d-1})."""
    if field.order() is None:
        raise InputError("enumeration requires a finite field")
    if degree < 0:
        return
    for tail in product(field.list_payloads(), repeat=degree):
        yield Poly(field, list(tail) + [field.pone])


def iter_monic_irreducible(field: FieldDescriptor, max_degree: int):
    """Monic irreducibles of degree 1..max_degree, by degree then lex.

    The order is ``iter_monic``'s, which varies c_0 slowest, so degree d
    is sieved one block of constant term t at a time.  For d >= 2 the
    block t = 0 is skipped (x divides all of it).  Otherwise every
    product g*h is struck, for g irreducible of degree e <= d/2 with
    g(0) != 0 and h monic of degree d - e with h(0) = t/g(0), by its
    coefficients 1..d-1 alone, the ones that index the block; a reducible
    f has such a factor g, and what is left is yielded.  Each block is
    sieved when it is first drawn from, so memory is one block
    of q**(d-1) flags plus the irreducibles of degree <= max_degree/2,
    and no candidate is tested on its own.
    """
    F = field
    q = F.order()
    if q is None:
        raise InputError("enumeration requires a finite field")
    payloads = F.list_payloads() if max_degree > 0 else []
    rank = {c: i for i, c in enumerate(payloads)}
    one = F.pone
    small = []  # (coeffs, 1/g(0)) of irreducible g, 2 deg g <= max_degree
    for d in range(1, max_degree + 1):
        # coefficient i of g*h, deg g = e, is the sum of g_j h_k over terms[e][i-1]
        terms = {e: [[(j, i - j) for j in range(max(0, i - d + e), min(i, e) + 1)]
                     for i in range(1, d)] for e in range(1, d // 2 + 1)}
        for t in payloads:
            if d > 1 and F.is_zero(t):
                continue
            struck = bytearray(q ** (d - 1))
            for g, g0_inv in small:
                e = len(g) - 1
                if 2 * e > d:
                    break
                h0 = F.mul(t, g0_inv)
                for tail in product(payloads, repeat=d - e - 1):
                    h = (h0,) + tail + (one,)
                    idx = 0
                    for ts in terms[e]:
                        c = F.pzero
                        for j, k in ts:
                            c = F.add(c, F.mul(g[j], h[k]))
                        idx = idx * q + rank[c]
                    struck[idx] = 1
            for tail, hit in zip(product(payloads, repeat=d - 1), struck):
                if not hit:
                    f = Poly(F, (t,) + tail + (one,))
                    if 2 * d <= max_degree and not F.is_zero(t):
                        small.append((f.coeffs, F.inv(t)))
                    yield f


def residue_inverse(a: Poly, modulus: Poly) -> Poly:
    """a**-1 mod modulus by the extended Euclidean remainder sequence on
    payload lists, carrying only a's cofactor.  A zero modulus, or one over
    another field, is refused; an a not coprime to it raises ZeroDivisionError."""
    if not modulus:
        raise InputError("zero modulus")
    F, m = a.field, a._operand(modulus)
    r0, r1, s0, s1 = list(a.coeffs), list(m), [F.pone], []
    while r1:
        q = _divrem(F, r0, r1)
        r0, r1, s0, s1 = r1, r0, s1, _add(F, False, s0, _mul(F, q, s1))
    if len(r0) != 1:
        raise ZeroDivisionError(f"{a!r} is not invertible mod {modulus!r}")
    c = F.inv(r0[0])
    return Poly(F, [F.mul(x, c) for x in s0])


def residue_norm(a: Poly, modulus: Poly):
    """The norm N(a) = Res(p, a) of a mod p, the monic multiple of the
    modulus, by the Euclidean remainder sequence (Modern Computer Algebra,
    6.3), each R = A mod B a ``_divrem`` on payload lists:
    Res(A, B) = (-1)**(deg A deg B) lc(B)**(deg A - deg R) Res(B, R),
    Res(A, c) = c**deg A for a constant c, and 0 once a remainder
    vanishes.  O(d**2) field ops, d = deg modulus.  A zero modulus, or one
    over another field, is refused."""
    if not modulus:
        raise InputError("zero modulus")
    a._operand(modulus)
    F = a.field
    A, B, acc = modulus.monic().coeffs, a.coeffs, F.pone
    while len(B) > 1:
        R = list(A)
        _divrem(F, R, B)
        if (len(A) - 1) * (len(B) - 1) % 2:
            acc = F.neg(acc)
        acc = F.mul(acc, F.power(B[-1], len(A) - len(R)))
        A, B = B, R
    return F.mul(acc, F.power(B[0], len(A) - 1)) if B else F.pzero


def residue_is_square(a: Poly, modulus: Poly) -> bool:
    """Whether a is a square in F_q[x]/(modulus), modulus irreducible of
    degree d (``residue_norm`` takes it as its monic multiple): zero is,
    and so is everything in characteristic 2.  The norm is N(a) =
    a**((q**d-1)/(q-1)), so N(a)**((q-1)/2) = a**((q**d-1)/2): Euler's
    criterion on N(a) in F_q is Euler's on a.  The norm is taken in
    characteristic 2 too, for ``residue_norm``'s refusals."""
    F = a.field
    q = F.order()
    if q is None:
        raise InputError("residue_is_square requires a finite field")
    n = residue_norm(a, modulus)
    return q % 2 == 0 or F.is_zero(n) or F.power(n, (q - 1) // 2) == F.pone


def residue_sqrt(a: Poly, modulus: Poly):
    """A square root of a in F_q[x]/(modulus), or None if a is a nonsquare.

    A zero modulus is refused.  a is reduced only if deg a >= d or its field
    is another object, which ``%`` checks.  A nonsquare, decided by the norm,
    costs no power mod p.  For q odd and d <= 2 a root comes from F_q (d = 1:
    the norm's; d = 2: ``_quadratic_sqrt``), else from ``_shanks`` on payload
    lists.  Of r and -r, returns the one of smaller padded payload-key tuple."""
    F = a.field
    q = F.order()
    if q is None:
        raise InputError("residue_sqrt requires a finite field")
    if not modulus:
        raise InputError("zero modulus")
    modulus = modulus.monic()
    d, mc = modulus.degree, modulus.coeffs
    r = a % modulus if a.degree >= d or modulus.field is not F else a
    if r.is_zero():
        return r
    if d <= 2 and q % 2:
        n = residue_norm(r, modulus)
        nu = _fq_sqrt(F, n)
        if nu is None and n != F.pzero:
            return None
        root = [nu] if d == 1 else _quadratic_sqrt(F, r.coeff(0), r.coeff(1), mc, nu)
    elif not residue_is_square(r, modulus):
        return None
    else:
        root = _shanks(lambda u, v: _mulmod(F, u, v, mc),
                       lambda u, e: r.powmod(e, modulus).coeffs, [F.pone],
                       r.coeffs, q ** d - 1,
                       lambda t: _nonsquare_power(modulus, t).coeffs)
        if root is None:
            raise InputError(f"{modulus!r} is not irreducible")
    return min(Poly(F, root), -Poly(F, root),
               key=lambda y: tuple(F.payload_key(y.coeff(j)) for j in range(d)))


def _shanks(mul, power, one, a, order, nonsquare_power):
    """Tonelli-Shanks (Cohen, GTM 138, Alg. 1.5.1) under ``mul`` for units
    of even order 2**s * t, t odd: a root of a, or None for a nonsquare.
    The guess a**((t+1)/2) is off by b = a**t; each round shrinks b's order
    by a power of z = nonsquare_power(t), asked for when one needs it."""
    s, t = 0, order
    while t % 2 == 0:
        s, t = s + 1, t // 2
    h = power(a, (t - 1) // 2)
    root = mul(h, a)
    b = mul(h, root)
    m, z = s, None
    while b != one:
        # least i with b**(2**i) = 1; below m unless a is a nonsquare
        i, c = 0, b
        while i < m and c != one:
            c, i = mul(c, c), i + 1
        if i == m:
            return None
        if z is None:
            z = nonsquare_power(t)
        w = z
        for _ in range(m - i - 1):
            w = mul(w, w)
        z = mul(w, w)
        root = mul(root, w)
        b = mul(b, z)
        m = i
    return root


def _fq_sqrt(F, a):
    """A square root of the payload a in F_q, q odd, or None if a is 0 or a
    nonsquare, kept in F._sqrts; the rounds' nonsquare is the first Euler refuses."""
    if a not in F._sqrts:
        q, minus_one = F.order(), F.neg(F.pone)
        F._sqrts[a] = _shanks(F.mul, F.power, F.pone, a, q - 1, lambda t: F.power(
            next(c for c in F.iter_payloads() if F.power(c, q // 2) == minus_one), t))
    return F._sqrts[a]


def _quadratic_sqrt(F, a0, a1, m, nu):
    """A root of a square alpha = a0 + a1*x mod m = x**2 + b*x + c, q odd,
    nu**2 = N(alpha), by the complex method (Adj & Rodriguez-Henriquez,
    IEEE Trans. Computers 63(11), 2014): a root beta has norm +-nu and
    trace T, T**2 = Tr(alpha) + 2 N(beta), so beta = (alpha + N(beta))/T.
    T = 0 only for beta = v*(2x + b), v**2 = a0/(b**2 - 4c), alpha = a0 a
    nonsquare of F_q.  A square or zero discriminant is refused."""
    c, b = m[0], m[1]
    two = F.add(F.pone, F.pone)
    disc = F.sub(F.mul(b, b), F.mul(F.mul(two, two), c))
    if F.power(disc, F.order() // 2) != F.neg(F.pone):
        raise InputError(f"{Poly(F, m)!r} is not irreducible")
    trace = F.sub(F.mul(two, a0), F.mul(a1, b))
    for norm in (nu, F.neg(nu)):
        T = _fq_sqrt(F, F.add(trace, F.mul(two, norm)))
        if T is not None:
            inv = F.inv(T)
            return [F.mul(F.add(a0, norm), inv), F.mul(a1, inv)]
    v = _fq_sqrt(F, F.div(a0, disc))
    return [F.mul(v, b), F.mul(v, two)]


def _nonsquare_power(modulus: Poly, t: int) -> Poly:
    """z = n**t, of order exactly 2**s for q**d - 1 = 2**s * t, for the
    first nonsquare n of F_q[x]/(modulus) in a fixed order of residues.

    Each candidate is decided by ``residue_is_square``, and only the
    nonsquare found is raised to the t.  For odd d = deg modulus the
    candidates are the constants c: the norm c**d is a nonsquare iff c
    is, and F_q has one.  For even d every constant is a square; x + c
    comes first instead, whose norm is modulus(-c), and the Weil bound
    guarantees a nonsquare among those once q > (d-1)**2.  Smaller
    cases go on through all residues.
    """
    F, d = modulus.field, modulus.degree
    family = (Poly(F, [c] if d % 2 else [c, F.pone]) for c in F.iter_payloads())
    rest = (Poly(F, tup) for tup in product(F.iter_payloads(), repeat=d))
    for n in chain(family, rest):
        if n and not residue_is_square(n, modulus):
            return n.powmod(t, modulus)
    raise InputError(f"no nonsquare modulo {modulus!r}; it is not irreducible")


def hensel_sqrt(f: Poly, p: Poly, branch: Poly, precision: int) -> Poly:
    """Lift branch to Y with Y**2 = f mod p**precision, Y = branch mod p.

    Requires an int precision >= 1, branch**2 = f mod p and branch
    invertible mod p (split place, odd characteristic).  Newton iteration
    with a carried inverse (von zur Gathen & Gerhard, Modern Computer
    Algebra, section 9.2): from Y correct mod p**k and w = (2Y)**-1 mod
    p**k, the step Y <- Y - (Y**2 - f)*w is correct mod p**(2k), and
    w <- w*(2 - 2Y*w) doubles w's precision for the next step.  Only the
    first w is an inverse, taken mod p.  The precisions run up the chain
    of halvings of ``precision`` rounded up, so each modulus is the last
    one squared, divided by p when odd; the steps run on payload lists."""
    F = f.field
    if F.characteristic() == 2:
        raise InputError("no Hensel square root in characteristic 2")
    if isinstance(precision, bool) or not isinstance(precision, int) or precision < 1:
        raise InputError(f"precision must be an int >= 1, not {precision!r}")
    if p.is_zero():
        raise InputError("zero modulus")
    y = branch % p
    if not ((y * y - f) % p).is_zero():
        raise InputError("branch is not a square root of f at this place")
    try:
        w = residue_inverse(y.scale(2), p).coeffs
    except ZeroDivisionError:
        raise InputError(f"branch is not invertible modulo {p!r}") from None
    precs = []
    while precision > 1:
        precs.append(precision)
        precision = (precision + 1) // 2
    Y, pk, two = list(y.coeffs), p.coeffs, F.add(F.pone, F.pone)
    for target in reversed(precs):
        pk = _mul(F, pk, pk)
        if target % 2:
            pk = _divrem(F, pk, p.coeffs)
        Y = _add(F, False, Y, _mul(F, _add(F, False, _mul(F, Y, Y), f.coeffs), w))
        _divrem(F, Y, pk)
        if target < precs[0]:       # w serves one more step
            yw = _mul(F, Y, w)
            w = _mul(F, w, _add(F, False, [two], _add(F, True, yw, yw)))
            _divrem(F, w, pk)
    return Poly(F, Y)
