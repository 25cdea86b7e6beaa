import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from curvext import (ExtensionField, InputError, Poly, PrimeField, Rationals,
                     enumerate_closed_points, hensel_sqrt, make_curve, polys)
from curvext.polys import (_fq_sqrt, _nonsquare_power, iter_monic,
                           iter_monic_irreducible, residue_inverse,
                           residue_norm, residue_sqrt)
from helpers import (TinyExt, _divisors, ben_or_monic_irreducible,
                     bound_mul, brute_residue_sqrts, brute_square_roots,
                     count_monic_irreducible,
                     divisor_rational_roots, euclid_inverse, hensel_sqrt_by_xgcd,
                     irreducible_by_trial_division, long_division,
                     nonsquare_power_by_scan, residue_is_square,
                     schoolbook_product)

Q = Rationals()
F5 = PrimeField(5)
F3 = PrimeField(3)
F9 = ExtensionField(3, [1, 0, 1])
F2 = PrimeField(2)
F4 = ExtensionField(2, [1, 1, 1])
F25 = ExtensionField(5, [2, 0, 1])      # tabled, like every q <= 32
F49 = ExtensionField(7, [1, 0, 1])      # above the table cap


def rand_poly(F, rng, max_deg):
    deg = rng.randint(-1, max_deg)
    if deg < 0:
        return Poly(F, [])
    if F.order() is None:
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                  for _ in range(deg + 1)]
    else:
        pool = list(F.iter_payloads())
        coeffs = [pool[rng.randrange(len(pool))] for _ in range(deg + 1)]
    return Poly(F, coeffs)


@pytest.mark.parametrize("F", [Q, F5, F9, F25, F49], ids=repr)
def test_divmod_identity(F):
    """divmod against the long division of tests/helpers.py, which shares
    no code with polys.py, on seeded pairs: non-monic and degree-0
    divisors among them, and dividends already reduced, which come back
    as the remainder over a zero quotient."""
    rng = random.Random(3)
    seen = Counter()
    for _ in range(80):
        a = rand_poly(F, rng, 6)
        b = rand_poly(F, rng, 3)
        if b.is_zero():
            continue
        q, r = a.divmod(b)
        assert (q.coeffs, r.coeffs) == long_division(F, a.coeffs, b.coeffs), (a, b)
        assert Poly(F, schoolbook_product(F, q.coeffs, b.coeffs)) + r == a
        assert r.degree < b.degree
        # a monic divisor skips the inverse of its leading coefficient;
        # both paths give the same remainder and rescaled quotient
        qm, rm = a.divmod(b.monic())
        assert rm == r and qm == q.scale(b.lc())
        seen.update({"non-monic": not b.is_monic(), "constant": b.degree == 0,
                     "reduced": a.degree < b.degree})
    assert min(seen.values()) > 0 and len(seen) == 3, seen


@pytest.mark.parametrize("F", [Q, F5, F9, F49], ids=repr)
def test_residue_inverse_matches_the_euclid_oracle(F):
    """residue_inverse against the helpers' extended Euclid, which shares
    no code with polys.py, on seeded pairs: unreduced residues, non-monic
    and degree-0 moduli, and pairs with a common factor g of degree >= 1,
    which both refuse with ZeroDivisionError.  A returned inverse is
    reduced and is one."""
    rng = random.Random(4)
    seen = Counter()
    for i in range(120):
        a, m = rand_poly(F, rng, 6), rand_poly(F, rng, 4)
        if i % 4 == 0:
            g = rand_poly(F, rng, 2)
            if g.degree >= 1:
                a, m = a * g, (m if m else Poly.one(F)) * g
        if m.is_zero():
            continue
        try:
            expected = euclid_inverse(a, m)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError) as err:
                residue_inverse(a, m)
            assert str(err.value) == f"{a!r} is not invertible mod {m!r}"
            seen["not coprime"] += 1
            continue
        inv = residue_inverse(a, m)
        assert inv == expected, (a, m)
        assert inv.degree < m.degree
        if m.degree >= 1:
            assert (a * inv) % m == Poly.one(F)
        seen.update({"unreduced": a.degree >= m.degree, "non-monic": not m.is_monic(),
                     "degree-0 modulus": m.degree == 0})
    assert len(seen) == 4 and min(seen.values()) > 0, seen


@pytest.mark.parametrize("F", [Q, F5, F49], ids=repr)
def test_gcd_of_multiples_keeps_the_common_factor(F):
    """gcd(a*c, b*c), the products built by the helpers' schoolbook
    product, is monic and divisible by c (long division leaves no
    remainder), on seeded a, b and c != 0."""
    rng = random.Random(13)
    for _ in range(40):
        a, b, c = (rand_poly(F, rng, 4) for _ in range(3))
        if c.is_zero() or (a.is_zero() and b.is_zero()):
            continue
        ac, bc = (Poly(F, schoolbook_product(F, u.coeffs, c.coeffs)) for u in (a, b))
        g = ac.gcd(bc)
        assert g.is_monic(), (a, b, c)
        assert long_division(F, g.coeffs, c.coeffs)[1] == (), (a, b, c)


def test_squarefree_detection():
    # oracle: build squares explicitly
    x = Poly(F5, [0, 1])
    one = Poly(F5, [1])
    sq = (x + one) * (x + one) * (x + Poly(F5, [2]))
    assert not sq.is_squarefree()
    assert ((x + one) * (x + Poly(F5, [2]))).is_squarefree()
    # the genus-2 acceptance substitution: x^5+x+1 is singular mod 7
    F7 = PrimeField(7)
    assert not Poly(F7, [1, 1, 0, 0, 0, 1]).is_squarefree()
    assert Poly(F7, [1, 2, 0, 0, 0, 1]).is_squarefree()
    # the gcd answers the ends too: 0 is not squarefree, a constant is
    for F in (F5, Q):
        assert not Poly(F, []).is_squarefree()
        assert Poly(F, [3]).is_squarefree()


def test_irreducible_enumeration_counts():
    # oracle first: the standard Moebius count q^d terms
    def moebius_count(q, d):
        def mu(n):
            if n == 1:
                return 1
            out, m = 1, n
            for p in range(2, n + 1):
                if m % p == 0:
                    m //= p
                    if m % p == 0:
                        return 0
                    out = -out
            return out
        total = 0
        div = [e for e in range(1, d + 1) if d % e == 0]
        for e in div:
            total += mu(d // e) * q ** e
        return total // d

    for q, F in [(3, F3), (5, F5)]:
        for d in (1, 2, 3):
            expect = moebius_count(q, d)
            assert count_monic_irreducible(q, d) == expect
            got = [p for p in iter_monic_irreducible(F, d) if p.degree == d]
            assert len(got) == expect
            for p in got:
                assert p.is_monic and p.is_irreducible()


SIEVE_CASES = [(F3, 5), (F5, 4), (PrimeField(7), 3), (F9, 3),
               (ExtensionField(5, [2, 0, 1]), 2)]


@pytest.mark.parametrize("F,max_degree", SIEVE_CASES, ids=repr)
def test_sieve_matches_ben_or_filter(F, max_degree):
    """The sieve's list, in order, is the Ben-Or filter's.  From degree 4
    some reducibles have no linear factor, so a sieve that strikes only
    multiples of linear polynomials fails over F3 and F5."""
    assert (list(iter_monic_irreducible(F, max_degree))
            == list(ben_or_monic_irreducible(F, max_degree)))


# (p, minpoly of F_{p^k} or None for F_p, top degree)
TRIAL_DIVISION_CASES = [(2, None, 6), (3, None, 6), (5, None, 4),
                        (2, [1, 1, 1], 4), (3, [1, 0, 1], 4)]


@pytest.mark.parametrize("p,minpoly,max_degree", TRIAL_DIVISION_CASES,
                         ids=["F2", "F3", "F5", "F4", "F9"])
def test_ben_or_matches_trial_division(p, minpoly, max_degree):
    """Poly.is_irreducible agrees with trial division by every monic of
    up to half the degree on every monic of degree <= max_degree over
    F_p or F_{p^k}; the TinyExt oracle shares no arithmetic with it."""
    F = PrimeField(p) if minpoly is None else ExtensionField(p, minpoly)
    K = TinyExt(p, minpoly or [0, 1])
    as_tiny = (lambda c: (c,)) if minpoly is None else tuple
    seen = Counter()
    for d in range(max_degree + 1):
        for f in iter_monic(F, d):
            got = f.is_irreducible()
            assert got == irreducible_by_trial_division(
                K, [as_tiny(c) for c in f.coeffs]), f
            seen[got, f.is_squarefree()] += 1
    # irreducibles, squarefree reducibles and squares all occur
    assert seen.keys() == {(True, True), (False, True), (False, False)}


def test_ben_or_rejects_the_rootless_quartics_mod_3():
    """The two reducible quartics of test_reducible_minpoly_is_rejected
    have no root mod 3; both answers say reducible."""
    K = TinyExt(3, [0, 1])
    for coeffs in ([1, 0, 2, 0, 1], [2, 1, 0, 1, 1]):
        assert not Poly(F3, coeffs).is_irreducible()
        assert not irreducible_by_trial_division(K, [(c,) for c in coeffs])


def test_sieve_counts_refusal_and_laziness():
    F31 = PrimeField(31)
    got = Counter(p.degree for p in iter_monic_irreducible(F31, 3))
    assert got == {d: count_monic_irreducible(31, d) for d in (1, 2, 3)}
    with pytest.raises(InputError):
        next(iter_monic_irreducible(Q, 2))
    # the whole F101 list to degree 3 (348 551 polynomials) takes about
    # a second; the first draw must not wait for it
    F101 = PrimeField(101)
    t0 = time.perf_counter()
    first = next(iter_monic_irreducible(F101, 3))
    assert time.perf_counter() - t0 < 0.2
    assert first == Poly(F101, [0, 1])


def test_iter_monic_is_lexicographic_and_complete():
    polys = list(iter_monic(F3, 2))
    assert len(polys) == 9
    assert polys[0] == Poly(F3, [0, 0, 1])
    keys = [tuple(c for c in p.coeffs[:-1]) for p in polys]
    assert keys == sorted(keys)


def test_residue_arithmetic():
    p = Poly(F5, [1, 1, 1])        # x^2+x+1, irreducible mod 5? check roots
    assert p.is_irreducible()
    a = Poly(F5, [2, 3])
    inv = residue_inverse(a, p)
    assert (a * inv) % p == Poly(F5, [1])
    sq = (a * a) % p
    assert residue_is_square(sq, p)
    r = residue_sqrt(sq, p)
    assert (r * r) % p == sq
    # a modulus is taken up to a unit: 2p gives p's root, also in degree 3
    assert residue_sqrt(sq, p.scale(2)) == r
    p3, a3 = Poly(F5, [1, 1, 0, 1]), Poly(F5, [1, 2, 3])
    assert residue_sqrt((a3 * a3) % p3, p3.scale(3)) == residue_sqrt((a3 * a3) % p3, p3)


# (field, modulus degree, moduli checked: None for all of them)
SQRT_CASES = [(F3, 1, None), (F3, 2, None), (F3, 3, None), (F3, 4, None),
              (F5, 1, None), (F5, 2, None), (F5, 3, None),
              (PrimeField(7), 1, None), (PrimeField(7), 2, None),
              (PrimeField(7), 3, None),
              (F9, 2, None), (ExtensionField(5, [2, 0, 1]), 2, 12),
              (PrimeField(37), 2, 12)]


@pytest.mark.parametrize("F,d,sample", SQRT_CASES, ids=repr)
def test_residue_sqrt_matches_brute_force(F, d, sample):
    """Tonelli-Shanks against the brute-force oracle on every residue of
    every monic irreducible modulus of degree d: the oracle's root for a
    square (the first in key order), None for a nonsquare, zero for zero.
    Even d over F9 and F25 is the case where every constant is a square.
    F25 and F37 check 12 seeded moduli of their 300 and 666, which keeps
    the test to seconds."""
    moduli = [p for p in iter_monic_irreducible(F, d) if p.degree == d]
    if sample is not None:
        moduli = random.Random(7).sample(moduli, sample)
    payloads = list(F.iter_payloads())
    for p in moduli:
        roots = brute_residue_sqrts(p)
        assert len(roots) == (F.order() ** d + 1) // 2
        for tup in product(payloads, repeat=d):
            a = Poly(F, tup)
            assert residue_sqrt(a, p) == roots.get(a.coeffs), (p, a)
    assert residue_sqrt(Poly(F, []), moduli[0]).is_zero()


def test_residue_sqrt_when_every_x_plus_c_is_a_square():
    """Over F3 in degree 6 some moduli make every x + c a square, so the
    nonsquare for Tonelli-Shanks comes from the scan past that family."""
    x = Poly.x(F3)
    moduli = [p for p in iter_monic_irreducible(F3, 6) if p.degree == 6
              and all(residue_is_square(x + Poly(F3, [c]), p) for c in range(3))]
    assert len(moduli) == 12
    for p in moduli[:2]:
        roots = brute_residue_sqrts(p)
        for tup in product(range(3), repeat=6):
            a = Poly(F3, tup)
            assert residue_sqrt(a, p) == roots.get(a.coeffs), (p, a)


# (field, modulus degree, moduli checked: None for all of them)
NONSQUARE_CASES = [(F3, 2, None), (F3, 4, None), (F5, 2, None), (F5, 4, 20),
                   (PrimeField(7), 2, None), (PrimeField(37), 2, 40),
                   (F9, 2, None), (ExtensionField(5, [2, 0, 1]), 2, 40),
                   (F3, 3, None), (F5, 3, None), (F9, 3, 20)]


@pytest.mark.parametrize("F,d,sample", NONSQUARE_CASES, ids=repr)
def test_nonsquare_power_decides_candidates_by_their_norm(F, d, sample):
    """The norm test picks the same nonsquare as raising every candidate
    to the t, and z = n**t has order exactly 2**s in the residue field."""
    moduli = [p for p in iter_monic_irreducible(F, d) if p.degree == d]
    if sample is not None:
        moduli = random.Random(8).sample(moduli, sample)
    s, t = 0, F.order() ** d - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    for p in moduli:
        z = _nonsquare_power(p, t)
        assert z == nonsquare_power_by_scan(p, t, s), p
        c = z
        for _ in range(s - 1):
            c = (c * c) % p
        assert not c.is_one() and ((c * c) % p).is_one(), p


def test_nonsquare_power_past_the_norm_family():
    """Over F3 in degree 6 some moduli make every x + c a square; the
    nonsquare then comes from the scan of all residues, as in the oracle."""
    x = Poly.x(F3)
    s, t = 0, 3 ** 6 - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    moduli = [p for p in iter_monic_irreducible(F3, 6) if p.degree == 6
              and all(residue_is_square(x + Poly(F3, [c]), p) for c in range(3))]
    for p in moduli[:3]:
        assert _nonsquare_power(p, t) == nonsquare_power_by_scan(p, t, s)


def _moduli(F, d, sample=None, seed=9):
    moduli = [p for p in iter_monic_irreducible(F, d) if p.degree == d]
    return moduli if sample is None else random.Random(seed).sample(moduli, sample)


@pytest.mark.parametrize("F", [F2, F4], ids=repr)
def test_residue_sqrt_in_characteristic_2(F):
    """Every residue is a square in characteristic 2, with one root; a
    norm test without that rule would call some of them nonsquares."""
    for d in (1, 2, 3):
        for p in _moduli(F, d):
            roots = brute_residue_sqrts(p)
            assert len(roots) == F.order() ** d
            for tup in product(F.list_payloads(), repeat=d):
                a = Poly(F, tup)
                assert polys.residue_is_square(a, p)
                assert residue_sqrt(a, p) == roots[a.coeffs], (p, a)


@pytest.mark.parametrize("F", [F5, PrimeField(37), F25, F9, Q], ids=repr)
def test_powmod_matches_repeated_multiplication(F):
    """powmod against e-fold (acc * a) % m, built from the schoolbook
    product and long division of tests/helpers.py, which share no code
    with polys.py: seeded bases (most of degree >= deg m, so unreduced)
    and moduli, e = 0 and 1 among them, non-monic moduli (the same powers
    as their monic form) and degree-0 moduli (every power from e = 1 on
    is 0)."""
    rng = random.Random(12)
    moduli = [m for m in (rand_poly(F, rng, 4) for _ in range(30)) if m]
    moduli += [Poly(F, [F.pone]), Poly(F, [F.neg(F.pone)])]
    assert any(m.degree > 0 and not m.is_monic() for m in moduli)
    for m in moduli:
        a = rand_poly(F, rng, 7)
        acc = (F.pone,)
        for e in range(12):
            got = a.powmod(e, m)
            assert got.coeffs == acc == a.powmod(e, m.monic()).coeffs, (a, e, m)
            assert e == 0 or got.degree < m.degree
            acc = long_division(F, schoolbook_product(F, acc, a.coeffs), m.coeffs)[1]


# (field, modulus degree, moduli checked: None for all of them)
NORM_CASES = [(F, d, None) for F in (F3, F5, PrimeField(7)) for d in (1, 2, 3)]
NORM_CASES += [(F9, 1, None), (F9, 2, None), (F9, 3, 24), (F25, 2, 12)]


@pytest.mark.parametrize("F,d,sample", NORM_CASES, ids=repr)
def test_residue_norm_matches_the_powmod_norm(F, d, sample):
    """Res(p, a) by remainder sequence against the independent route
    a**((q**d - 1)/(q - 1)) mod p, on every residue.  F9 in degree 3
    checks 24 seeded moduli of its 240, which keeps the test to seconds."""
    e = (F.order() ** d - 1) // (F.order() - 1)
    for p in _moduli(F, d, sample):
        for tup in product(F.list_payloads(), repeat=d):
            a = Poly(F, tup)
            assert residue_norm(a, p) == a.powmod(e, p).coeff(0), (p, a)


@pytest.mark.parametrize("F,c", [(F5, 2), (PrimeField(7), 3)], ids=repr)
def test_norm_and_squareness_take_a_modulus_up_to_a_constant(F, c):
    """A non-monic modulus c*m counts as m, for c a nonsquare constant,
    on every residue of every monic irreducible quadratic and cubic:
    read as Res(c*m, a) = c**deg a Res(m, a), the norm would turn every
    square of odd degree into a nonsquare, while residue_sqrt finds it a
    root."""
    for d in (2, 3):
        for m in _moduli(F, d):
            cm = m.scale(c)
            for tup in product(F.list_payloads(), repeat=d):
                a = Poly(F, tup)
                assert residue_norm(a, cm) == residue_norm(a, m), (m, a)
                assert polys.residue_is_square(a, cm) == polys.residue_is_square(a, m)


def test_residue_norm_is_multiplicative():
    """N(0) = 0 and N(ab) = N(a) N(b), with ab left unreduced mod p."""
    rng = random.Random(10)
    for F, d in ((F3, 4), (F5, 3), (PrimeField(7), 2), (F9, 3), (F25, 2)):
        for p in _moduli(F, d, 4, seed=11):
            assert residue_norm(Poly(F, []), p) == F.pzero
            for _ in range(40):
                a, b = (Poly(F, [rng.choice(F.list_payloads()) for _ in range(d)])
                        for _ in range(2))
                assert residue_norm(a * b, p) == F.mul(residue_norm(a, p),
                                                       residue_norm(b, p))


@pytest.mark.parametrize("F,d,sample", [(F3, 2, None), (F3, 4, 12), (F5, 3, 12),
                                        (PrimeField(7), 2, None), (F9, 2, None)],
                         ids=repr)
def test_residue_is_square_matches_euler_in_the_residue_field(F, d, sample):
    """The library's norm test against the powmod Euler oracle."""
    for p in _moduli(F, d, sample):
        for tup in product(F.list_payloads(), repeat=d):
            a = Poly(F, tup)
            assert polys.residue_is_square(a, p) == residue_is_square(a, p)


def test_nonsquares_take_no_powmod(monkeypatch):
    """residue_sqrt decides a nonsquare by its norm alone: every nonsquare
    residue of the F7 cubics and of 8 seeded F37 quadratics makes no
    ``Poly.powmod`` call, while a square modulo a cubic, whose root
    Tonelli-Shanks takes in the residue field, makes some."""
    F7, F37 = PrimeField(7), PrimeField(37)
    cases = [(p, brute_residue_sqrts(p)) for p in _moduli(F7, 3)]
    cases += [(p, brute_residue_sqrts(p)) for p in _moduli(F37, 2, 8)]
    calls = []
    powmod = Poly.powmod
    monkeypatch.setattr(Poly, "powmod",
                        lambda self, e, m: calls.append(e) or powmod(self, e, m))
    nonsquares = 0
    for p, roots in cases:
        for tup in product(p.field.list_payloads(), repeat=p.degree):
            a = Poly(p.field, tup)
            if a.coeffs not in roots:
                assert residue_sqrt(a, p) is None
                nonsquares += 1
    assert calls == [] and nonsquares == 112 * 171 + 8 * 684
    assert residue_sqrt(Poly(F7, [2]), cases[0][0]) is not None and calls


@pytest.mark.parametrize("F", [PrimeField(37), PrimeField(101), F25], ids=repr)
def test_nonsquare_constants_have_roots_on_the_trace_zero_line(F):
    """A constant a0 that is a nonsquare of F_q is a square modulo every
    irreducible quadratic x^2 + bx + c, and its roots v*(2x + b) have
    trace 0: each comes back as the root of smaller key, and squares back
    to a0, on 6 seeded moduli per field."""
    minus_one = F.neg(F.pone)
    nonsquares = [c for c in F.list_payloads()
                  if F.power(c, F.order() // 2) == minus_one]
    assert len(nonsquares) == (F.order() - 1) // 2
    for p in _moduli(F, 2, 6, seed=13):
        for c in nonsquares:
            a = Poly(F, [c])
            r = residue_sqrt(a, p)
            # Tr r = 2 r_0 - r_1 b is 0: r is a multiple of 2x + b
            trace = F.sub(F.add(r.coeff(0), r.coeff(0)), F.mul(r.coeff(1), p.coeff(1)))
            assert (r * r) % p == a and F.is_zero(trace), (p, c)
            neg = (-r) % p
            assert (F.payload_key(r.coeff(0)), F.payload_key(r.coeff(1))) < \
                (F.payload_key(neg.coeff(0)), F.payload_key(neg.coeff(1)))


@pytest.mark.parametrize("F", [F5, PrimeField(7)], ids=repr)
def test_reducible_quadratic_moduli_are_refused(F):
    """Every reducible monic quadratic, a square or zero discriminant,
    is refused for each residue whose norm is zero or a square, since the
    descent to F_q would read such a residue as a square of a field."""
    q = F.order()
    reducible = [p for p in iter_monic(F, 2) if not p.is_irreducible()]
    assert len(reducible) == q * (q + 1) // 2
    for p in reducible:
        refused = 0
        for tup in product(F.list_payloads(), repeat=2):
            a, n = Poly(F, tup), residue_norm(Poly(F, tup), p)
            if a and (F.is_zero(n) or F.power(n, q // 2) == F.pone):
                with pytest.raises(InputError, match="not irreducible"):
                    residue_sqrt(a, p)
                refused += 1
        assert refused >= q, p


def _fresh_field(p, minpoly=None):
    return PrimeField(p) if minpoly is None else ExtensionField(p, minpoly)


@pytest.mark.parametrize("p,minpoly", [(3, None), (7, None), (37, None),
                                       (101, None), (3, [1, 0, 1]),
                                       (5, [2, 0, 1]),      # tabled
                                       (7, [1, 0, 1])],     # polynomial mul
                         ids=["F3", "F7", "F37", "F101", "F9", "F25", "F49"])
def test_fq_sqrt_matches_the_squares_table(p, minpoly):
    """_fq_sqrt on every element of a fresh descriptor, against the
    brute-force squares table: a root of each nonzero square, None for 0
    and for each nonsquare.  The answer, None too, is kept, and a second
    call gives it again."""
    F = _fresh_field(p, minpoly)
    roots = brute_square_roots(F)
    assert len(roots) == (F.order() + 1) // 2
    for a in F.iter_payloads():
        got = _fq_sqrt(F, a)
        if F.is_zero(a) or a not in roots:
            assert got is None, a
        else:
            assert got in roots[a], a
        assert F._sqrts[a] == got and _fq_sqrt(F, a) == got
    assert len(F._sqrts) == F.order()


def test_fq_sqrt_memo_is_per_instance():
    """Two equal PrimeField(37) keep separate memos: what one keeps the
    other never reads, and neither memo enters == or hash."""
    A, B = PrimeField(37), PrimeField(37)
    assert _fq_sqrt(A, 4) in (2, 35) and _fq_sqrt(A, 2) is None   # 2: nonsquare
    assert set(A._sqrts) == {4, 2} and B._sqrts == {}
    A._sqrts[9] = "kept by A"
    assert _fq_sqrt(A, 9) == "kept by A" and _fq_sqrt(B, 9) in (3, 34)
    assert 9 not in PrimeField(37)._sqrts
    assert A == B and hash(A) == hash(B) == hash(PrimeField(37))
    assert Poly(A, [1, 2]) == Poly(B, [1, 2])


class _Forgetful(dict):
    """A memo that is never consulted: every query is computed anew."""

    def __contains__(self, key):
        return False


def test_enumeration_takes_each_fq_root_once(monkeypatch):
    """The work counter under the enumeration speed-up: the closed points
    of g2/F37 to degree 2 run the F_q Tonelli-Shanks rounds (``_shanks``
    with F's own mul) at most once per element of F37, where the same
    enumeration with the memo bypassed runs them over a thousand times,
    and both give the same point keys."""
    calls = []
    shanks = polys._shanks

    def spy(mul, *args):
        calls.append(mul)
        return shanks(mul, *args)

    monkeypatch.setattr(polys, "_shanks", spy)

    def run(memo_bypassed):
        F = PrimeField(37)
        if memo_bypassed:
            F._sqrts = _Forgetful()
        calls.clear()
        keys = [pt.key() for pt in enumerate_closed_points(
            make_curve(F, [1, 1, 0, 0, 0, 1]), 2)]
        assert all(mul == F.mul for mul in calls)
        return keys, len(calls)

    keys, rounds = run(False)
    bypassed_keys, bypassed_rounds = run(True)
    assert len(keys) == 721 and keys == bypassed_keys
    assert 0 < rounds <= 37 < 1000 < bypassed_rounds


@pytest.mark.parametrize("F", [F5, PrimeField(37), F25], ids=repr)
def test_residue_sqrt_reduces_an_unreduced_residue(F):
    """residue_sqrt(a, c*m) == residue_sqrt(a % m, m) for a of degree
    >= deg m, c a unit other than 1, on 3 seeded irreducible m of each
    degree 1..3: a square b*b plus a multiple of m, and a random
    polynomial plus m*m, each a skipped reduction away from a wrong root."""
    rng = random.Random(33)
    units = F.list_payloads()[1:]
    checked = squares = 0
    for d in (1, 2, 3):
        moduli = []
        while len(moduli) < 3:
            m = Poly(F, [rng.choice(units + [F.pzero]) for _ in range(d)] + [F.pone])
            if m.is_irreducible() and m not in moduli:
                moduli.append(m)
        for m in moduli:
            scaled = m.scale(rng.choice(units[1:]))
            for _ in range(12):
                b = rand_poly(F, rng, d - 1)
                for a in (b * b + m * rand_poly(F, rng, d),
                          rand_poly(F, rng, 2 * d + 1) + m * m):
                    if a.degree < d:
                        continue
                    got = residue_sqrt(a, scaled)
                    assert got == residue_sqrt(a % m, m), (m, a)
                    checked += 1
                    squares += got is not None
    assert checked >= 150 and squares >= checked // 2


@pytest.mark.parametrize("p,minpoly", [(5, None), (3, [1, 0, 1])],
                         ids=["F5", "F9"])
def test_zero_modulus_is_refused(p, minpoly):
    """The four residue functions refuse a zero modulus for every kind of
    residue, zero included, where they would return a norm, a verdict or
    a root of nothing, raise ZeroDivisionError or, over F9, loop on a
    power -1 (which the bounded mul turns into a failure)."""
    F = bound_mul(_fresh_field(p, minpoly))
    zero = Poly(F, [])
    for coeffs in ([], [2], [0, 1], [2, 1, 1]):
        a = Poly.from_values(F, coeffs)
        for fn in (residue_norm, polys.residue_is_square, residue_sqrt,
                   residue_inverse):
            with pytest.raises(InputError) as info:
                fn(a, zero)
            assert str(info.value) == "zero modulus"


def test_hensel_sqrt_lifts():
    # y^2 = f near a split place: branch b has b^2 = f mod p; lift to p^r
    f = Poly(F5, [1, 0, 0, 1])               # x^3 + 1
    p = Poly(F5, [0, 1])                     # place x = 0, f(0) = 1
    for r in (1, 2, 3, 5):
        Y = hensel_sqrt(f, p, Poly(F5, [1]), r)
        assert ((Y * Y - f) % (p ** r)).is_zero()
        assert (Y % p) == Poly(F5, [1])
    # the other branch
    Y = hensel_sqrt(f, p, Poly(F5, [4]), 3)
    assert ((Y * Y - f) % (p ** 3)).is_zero()


def _split_places():
    """(f, p, b) with b**2 = f mod p, b != 0: Q, F7, F9 and a degree-2
    xminpoly over F5."""
    F7 = PrimeField(7)
    out = [(Poly.from_values(Q, [1, 0, 0, 1]), Poly.from_values(Q, [-x0, 1]),
            Poly.from_values(Q, [y0])) for x0, y0 in ((0, 1), (2, 3))]
    f7 = Poly(F7, [1, 0, 0, 1])
    out += [(f7, Poly(F7, [0, 1]), Poly(F7, [1])),
            (f7, Poly(F7, [6, 1]), Poly(F7, [3]))]      # f(1) = 2 = 3**2
    # y^2 = x^5 + t*x over F9, and y^2 = x^3 + 1 over F5 at degree 2: the
    # first split place in enumeration order
    for f, deg in ((Poly(F9, [F9.pzero, (0, 1), F9.pzero, F9.pzero, F9.pzero,
                              F9.pone]), 1),
                   (Poly(F5, [1, 0, 0, 1]), 2)):
        p = next(p for p in iter_monic_irreducible(f.field, deg)
                 if p.degree == deg and not (f % p).is_zero()
                 and residue_is_square(f, p))
        out.append((f, p, residue_sqrt(f, p)))
    return out


def test_newton_lift_matches_the_xgcd_oracle():
    for f, p, b in _split_places():
        assert b is not None and not b.is_zero()
        for branch in (b, (-b) % p):
            for r in range(1, 17):
                Y = hensel_sqrt(f, p, branch, r)
                assert Y == hensel_sqrt_by_xgcd(f, p, branch, r), (f, p, r)
                assert ((Y * Y - f) % p ** r).is_zero()
                assert Y % p == branch % p
                assert Y.degree < r * p.degree


def test_newton_lift_keeps_its_checks():
    f = Poly(F5, [1, 0, 0, 1])
    with pytest.raises(InputError):
        hensel_sqrt(f, Poly(F5, [0, 1]), Poly(F5, [2]), 4)   # 2**2 != f(0)
    F2 = PrimeField(2)
    with pytest.raises(InputError):
        hensel_sqrt(Poly(F2, [1, 0, 0, 1]), Poly(F2, [0, 1]), Poly(F2, [1]), 3)
    # a precision that is not an int >= 1 is refused, not answered by b mod p
    x = Poly(F5, [0, 1])
    for precision in (0, -3, 2.5, True, False, None, "2"):
        with pytest.raises(InputError) as err:
            hensel_sqrt(f, x, Poly(F5, [1]), precision)
        assert str(err.value) == f"precision must be an int >= 1, not {precision!r}"
    # a branch that is a root of f mod p but no unit there is refused at
    # every precision: 0**2 = x**3 + x mod x over F5
    for precision in (1, 2, 3, 8):
        with pytest.raises(InputError) as err:
            hensel_sqrt(Poly(F5, [0, 1, 0, 1]), x, Poly(F5, []), precision)
        assert str(err.value) == f"branch is not invertible modulo {x!r}"


def test_rational_roots_exact():
    f = Poly(Q, [Fraction(-1, 2), 0, 1])      # x^2 - 1/2: irrational roots
    assert f.rational_roots() == []
    g = Poly(Q, [-6, 11, -6, 1])              # (x-1)(x-2)(x-3)
    assert sorted(g.rational_roots()) == [1, 2, 3]
    # constant and root near 10^9
    big = 1000000007
    assert Poly(Q, [-big, 0, 1]).rational_roots() == []
    h = Poly(Q, [-2 * big, 2 - 3 * big, 3])   # (x - big)(3x + 2)
    assert h.rational_roots() == [Fraction(-2, 3), big]


def _seeded_root_polys(rng, count):
    """Integer polynomials of degree 1..4 built from linear factors
    q*x - p (repeats, zero and non-integer roots included), an optional
    root-free quadratic, and a rational scale."""
    for _ in range(count):
        deg = rng.randint(1, 4)
        f = Poly(Q, [Fraction(rng.choice([-3, -1, 1, 2, 7]), rng.randint(1, 3))])
        if deg >= 2 and rng.random() < 0.4:
            f = f * Poly(Q, [rng.choice([1, 2, -2, 3, -5, 6]), 0, 1])
            deg -= 2
        roots = []
        for _ in range(deg):
            if roots and rng.random() < 0.3:
                pn, qd = rng.choice(roots)              # a repeated root
            else:
                pn, qd = rng.randint(-9, 9), rng.randint(1, 6)
            roots.append((pn, qd))
            f = f * Poly(Q, [-pn, qd])
        yield f


def test_rational_roots_match_the_divisor_oracle():
    rng = random.Random(808)
    seen_repeat = seen_zero = seen_frac = 0
    for f in _seeded_root_polys(rng, 300):
        want = divisor_rational_roots(f)
        assert f.rational_roots() == want, f
        seen_zero += Fraction(0) in want
        seen_frac += any(r.denominator > 1 for r in want)
        seen_repeat += not f.is_squarefree()
    assert min(seen_repeat, seen_zero, seen_frac) >= 20
    # roots in the constant and leading terms' extreme shapes
    for f in (Poly(Q, [0, 0, 0, 5]), Poly(Q, [Fraction(7, 3)]),
              Poly(Q, [-1, 0, 0, 0, 16]), Poly(Q, [2, -3, 1]) ** 2):
        assert f.rational_roots() == divisor_rational_roots(f), f


def test_rational_roots_of_a_large_semiprime_constant_are_quick():
    # x^2 - (10^9+7)(10^9+9): the divisor oracle would need about 10^9
    # trial divisions; the l-adic lift needs a handful of Newton steps
    N = (10 ** 9 + 7) * (10 ** 9 + 9)
    t0 = time.perf_counter()
    assert Poly(Q, [-N, 0, 1]).rational_roots() == []
    f = Poly(Q, [-N, 0, 1]) * Poly(Q, [-(10 ** 9 + 7), 10 ** 9 + 9])
    assert f.rational_roots() == [Fraction(10 ** 9 + 7, 10 ** 9 + 9)]
    assert time.perf_counter() - t0 < 1.0


def test_divisors_match_the_definition():
    for n in range(2000):
        expect = [d for d in range(1, n + 1) if n % d == 0] or [1]
        assert _divisors(n) == expect, n
    assert _divisors(10 ** 12) == sorted(2 ** i * 5 ** j for i in range(13)
                                         for j in range(13))


def test_poly_guards():
    with pytest.raises(ZeroDivisionError):
        Poly(F5, [1]).divmod(Poly(F5, []))
    with pytest.raises(InputError):
        Poly(F5, [1]) + Poly(F3, [1])
    # an operand that is not a polynomial is named, not an AttributeError
    p = Poly(F5, [1])
    for op, other in [(lambda: p + 2, 2), (lambda: p - 2, 2),
                      (lambda: p * 2, 2), (lambda: p.divmod(3), 3),
                      (lambda: p % 3, 3), (lambda: p.powmod(2, 3), 3),
                      (lambda: p - "x", "x")]:
        with pytest.raises(InputError) as err:
            op()
        assert str(err.value) == f"not a polynomial: {other!r}"
    # x mod x^2 has norm 0, so it passes the square test; the zero
    # discriminant then refuses the reducible modulus
    with pytest.raises(InputError, match="not irreducible"):
        residue_sqrt(Poly(F5, [0, 1]), Poly(F5, [0, 0, 1]))
    # a residue and a modulus over different fields are refused by all
    # four residue functions, reduced or not, never given a norm of
    # garbage (the F3 residue 2x + 1 mod F5's x^2 + 2 had norm 0 and was
    # called a square; in characteristic 2 every residue was)
    for K in (F3, F9, ExtensionField(2, [1, 1, 0, 1])):
        pairs = [(Poly.from_values(K, cs), Poly(F5, [2, 0, 1]))
                 for cs in ([1], [1, 2], [1, 1, 1])]
        pairs.append((Poly(F5, [1, 2]), Poly.from_values(K, [1, 0, 1])))
        for (a, modulus), fn in product(pairs, (residue_norm, residue_inverse,
                                                polys.residue_is_square,
                                                residue_sqrt)):
            with pytest.raises(InputError) as info:
                fn(a, modulus)
            assert str(info.value) == "polynomials over different fields"
    # a negative exponent is refused, as by Poly.__pow__, not looped on
    with pytest.raises(InputError, match="negative polynomial power"):
        Poly(F5, [2]).powmod(-1, Poly(F5, [1, 0, 1]))
