import random
from fractions import Fraction

import pytest

import curvext.linalg

from curvext import (Divisor, HyperellipticCurve, InputError,
                     MembershipError, Poly, PrimeField, RationalFunction, Rationals,
                     coordinates,
                     enumerate_closed_points, function_to_json, h0, h1,
                     is_principal, make_curve, rr_basis, valuation)
from curvext.riemann_roch import MAX_ANSATZ_COLUMNS
from helpers import (TinyExt, basis_pairs, basis_transition, chain_datum,
                     curve_g1_f5,
                     curve_g1_q, curve_g1w_f3, curve_g2_f3, curve_g2_f7,
                     curve_g2_f9, curve_g2_q, curve_g3_f5, datum_on_infinity,
                     frac_rref,
                     from_parts, hensel_sqrt_by_xgcd, random_divisor,
                     series_valuation, solve_coordinates, tiny_rref)


def infinity_dim_oracle(g, k):
    """dim L(k*infinity) by direct monomial count: x^i has pole order 2i,
    x^i y has pole order 2i + 2g + 1."""
    if k < 0:
        return 0
    return sum(1 for i in range(k + 1) if 2 * i <= k) \
        + sum(1 for i in range(k + 1) if 2 * i + 2 * g + 1 <= k)


def test_infinity_dims_match_monomial_count():
    for make in (curve_g1_f5, curve_g1w_f3, curve_g2_f3, curve_g3_f5,
                 curve_g1_q, curve_g2_q):
        curve = make()
        g = curve.genus
        for k in range(-3, 4 * g + 9):
            D = curve.infinity_divisor(k)
            assert h0(curve, D) == infinity_dim_oracle(g, k), (make.__name__, k)


def test_ansatz_size_limit():
    """h0 and rr_basis refuse a divisor whose ansatz would pass
    MAX_ANSATZ_COLUMNS before building it.  On genus 1 the ansatz of
    m*inf has m columns, so the limit itself still runs."""
    curve = curve_g1_f5()
    top = curve.infinity_divisor(MAX_ANSATZ_COLUMNS)
    assert h0(curve, top) == MAX_ANSATZ_COLUMNS
    over = curve.infinity_divisor(MAX_ANSATZ_COLUMNS + 1)
    for compute in (h0, rr_basis):
        with pytest.raises(InputError, match="ansatz columns"):
            compute(curve, over)


@pytest.mark.parametrize("make", [curve_g1_f5, curve_g2_f3, curve_g2_f9])
def test_rr_identity_on_random_divisors(make):
    curve = make()
    g = curve.genus
    rng = random.Random(2024 + g)
    pts = enumerate_closed_points(curve, 2)
    for _ in range(40):
        D = random_divisor(curve, rng, pts, 3 * g + 4)
        a0, a1 = h0(curve, D), h1(curve, D)
        assert a0 - a1 == D.degree + 1 - g
        if D.degree > 2 * g - 2:
            assert a1 == 0
        if D.degree < 0:
            assert a0 == 0


def test_basis_normalization_and_pole_orders():
    curve = curve_g1_f5()
    B = rr_basis(curve, curve.infinity_divisor(5))
    assert B.pole_orders == (0, 2, 3, 4, 5)
    want = [([1], []), ([0, 1], []), ([], [1]), ([0, 0, 1], []), ([], [0, 1])]
    got = [([int(v) for v in fn.a.coeffs], [int(v) for v in fn.b.coeffs])
           for fn in B]
    assert got == want                          # 1, x, y, x^2, x*y
    assert all(fn.c.is_one() for fn in B)
    # pole orders are exactly the valuations at infinity, via the
    # independent series expansion path
    inf = curve.infinity()
    for fn, k in zip(B, B.pole_orders):
        assert valuation(fn, inf) == -k
    # genus 2: y does not appear before pole order 2g + 1 = 5
    g2 = curve_g2_f3()
    assert rr_basis(g2, g2.infinity_divisor(5)).pole_orders == (0, 2, 4, 5)
    # strictly increasing pole orders on a non-infinity divisor too
    P = g2.point(0, 1)
    B2 = rr_basis(g2, Divisor(g2, [(P, 3), (g2.infinity(), 2)]))
    assert list(B2.pole_orders) == sorted(set(B2.pole_orders))


def _monomial_rows(B):
    """Basis elements as rows over the monomials x^j and x^j*y of the
    shared numerator (a + b*y), columns by descending pole order at
    infinity: 2j for x^j and 2j + 2g + 1 for x^j*y, less 2 deg c."""
    curve = B.curve
    pairs = basis_pairs(B)
    n_a = max((len(a.coeffs) for a, _ in pairs), default=0)
    n_b = max((len(b.coeffs) for _, b in pairs), default=0)
    poles = [2 * j for j in range(n_a)] \
        + [2 * j + 2 * curve.genus + 1 for j in range(n_b)]
    cols = sorted(range(n_a + n_b), key=lambda t: -poles[t])
    return [[a.coeff(t) if t < n_a else b.coeff(t - n_a) for t in cols]
            for a, b in pairs]


def _oracle_rref(F, rows):
    """Textbook reduced echelon rows: frac_rref over Q, tiny_rref over
    F_p (payloads as 1-tuples) and F_9."""
    if isinstance(F, Rationals):
        return frac_rref(rows)[0]
    if isinstance(F, PrimeField):
        K = TinyExt(F.p, [0, 1])
        want = tiny_rref(K, [[(v,) for v in row] for row in rows])[0]
        return [[v for v, in row] for row in want]
    return tiny_rref(TinyExt(F.p, list(F.minpoly)), rows)[0]


def _divisors_for_normal_form():
    for make in (curve_g2_f3, curve_g2_f7, curve_g2_f9):
        curve = make()
        rng = random.Random(31)
        pts = enumerate_closed_points(curve, 2)
        for _ in range(60):
            yield curve, random_divisor(curve, rng, pts, 3 * curve.genus + 4)
    curve = curve_g1_q()                        # y^2 = x^3 + 1
    inf = curve.infinity()
    split, weier, ns = curve.point(2, 3), curve.point(-1, 0), curve.point(1, None)
    for items in ([(split, 2), (inf, 1)], [(weier, 3), (split, -1), (inf, 2)],
                  [(ns, 1), (weier, 1)], [(split, 1), (split.conjugate(), 2)],
                  [(ns, 2), (split, -1), (inf, 3)]):
        yield curve, Divisor(curve, items)


def test_basis_is_the_normal_form_away_from_infinity():
    """With constraint rows in play: read from the highest pole down,
    the monomial rows of a basis are their own reduced echelon form, and
    each pole order is the valuation at infinity from series expansion."""
    seen = 0
    for curve, D in _divisors_for_normal_form():
        B = rr_basis(curve, D)
        assert B.dim == len(B.vectors) == len(B.pole_orders)
        inf = curve.infinity()
        for fn, (a, b), k in zip(B, basis_pairs(B), B.pole_orders):
            assert fn == RationalFunction(curve, a, b, B.denominator)
            assert series_valuation(fn, inf) == -k
        desc = _monomial_rows(B)[::-1]
        assert desc == _oracle_rref(curve.field, desc)
        if B.dim > 1 and any(pt != inf for pt in D.support()):
            seen += 1
    assert seen >= 40


def test_every_basis_element_respects_the_divisor():
    """div(fn) + D >= 0 checked place by place with valuations,
    including conjugates of split support and a negative multiplicity."""
    curve = curve_g1_f5()
    P = curve.point(0, 1)
    Pc = P.conjugate()
    W = curve.point(4, 0)
    ns = curve.point(1, None)
    inf = curve.infinity()
    D = Divisor(curve, [(P, 2), (W, 1), (ns, 1), (inf, 2), (Pc, -1)])
    B = rr_basis(curve, D)
    assert B.dim == D.degree       # deg 6 > 2g - 2 = 0, genus 1
    others = [pt for pt in enumerate_closed_points(curve, 2)
              if pt not in D.support()][:4]
    for fn in B:
        for pt in D.support():
            assert valuation(fn, pt) >= -D.multiplicity(pt)
        for pt in others:
            assert valuation(fn, pt) >= 0


def test_coordinates_round_trip():
    rng = random.Random(7)
    for make in (curve_g1_f5, curve_g2_f3, curve_g1_q):
        curve = make()
        F = curve.field
        B = rr_basis(curve, curve.infinity_divisor(2 * curve.genus + 3))
        for _ in range(10):
            want = [F.coerce(rng.randint(-4, 4)) for _ in range(B.dim)]
            fn = RationalFunction.zero(curve)
            for t, b in zip(want, B):
                fn = fn + b * t
            assert coordinates(fn, B) == want
        zero = coordinates(RationalFunction.zero(curve), B)
        assert all(v == F.pzero for v in zero)


def test_coordinates_membership_failures():
    curve = curve_g1_f5()
    B2 = rr_basis(curve, curve.infinity_divisor(2))
    with pytest.raises(MembershipError):
        coordinates(RationalFunction.y(curve), B2)     # pole order 3 > 2
    empty = rr_basis(curve, curve.infinity_divisor(-1))
    with pytest.raises(MembershipError):
        coordinates(RationalFunction.one(curve), empty)
    with pytest.raises(InputError):
        coordinates(RationalFunction.x(curve_g1w_f3()), B2)


def test_product_coordinates_reconstruct_the_product():
    curve = curve_g2_f3()
    B3 = rr_basis(curve, curve.infinity_divisor(5))
    B6 = rr_basis(curve, curve.infinity_divisor(10))
    for s in B3:
        for t in B3:
            co = coordinates(s * t, B6)
            back = RationalFunction.zero(curve)
            for v, b in zip(co, B6):
                back = back + b * v
            assert back == s * t


def _places(curve):
    """Places to build divisors from: closed points of degree <= 2 over a
    finite field, a few rational ones over Q."""
    if curve.field.order() is None:
        return [curve.infinity(), curve.point(0, 1), curve.point(-1, 0),
                curve.point(2, 3)]
    return enumerate_closed_points(curve, 2)


def _payload(F, rng):
    if F.order() is None:
        return F.coerce(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
    return rng.choice(list(F.iter_payloads()))


# data whose pair tensors are read in the oracle comparison; the F3 one
# has affine support in M, so its witness u is not constant
_ORACLE_DATA = {"curve_g1_q": (datum_on_infinity, 4),
                "curve_g2_f3": (chain_datum, 4),
                "curve_g2_f7": (datum_on_infinity, 4),
                "curve_g2_f9": (datum_on_infinity, 2)}


@pytest.mark.parametrize("make", [curve_g1_q, curve_g2_f3, curve_g2_f7,
                                  curve_g2_f9])
def test_coordinates_match_the_solve_oracle(make):
    """Coordinates read off the normal form equal the solve-based ones on
    seeded members (basis combinations, pair-tensor products s_i*s_j*u,
    basis_transition columns), and both refuse the same nonmembers: a
    function with a pole outside D, and members of L(D + P) not in L(D),
    which share L(D)'s denominator when P is infinity or the conjugate
    of a split place in the support."""
    curve = make()
    F = curve.field
    g = curve.genus
    rng = random.Random(31 + g + (F.order() or 0))
    places = _places(curve)

    def agree(fn, B):
        got = coordinates(fn, B)
        assert got == solve_coordinates(fn, B)
        return got

    def refused(fn, B):
        with pytest.raises(MembershipError):
            solve_coordinates(fn, B)
        with pytest.raises(MembershipError):
            coordinates(fn, B)

    for _ in range(4):
        D = random_divisor(curve, rng, places, 2 * g + 2) \
            + curve.infinity_divisor(4 * g + 2)
        B = rr_basis(curve, D)
        assert B.dim > 0
        for _ in range(3):
            want = [_payload(F, rng) for _ in range(B.dim)]
            member = RationalFunction.zero(curve)
            for t, b in zip(want, B):
                member = member + b * t
            assert agree(member, B) == want
        wider = rr_basis(curve, D + curve.infinity_divisor(2))
        for mul in (None, RationalFunction.x(curve)):
            T = basis_transition(B, wider, mul)
            for i, fn in enumerate(B):
                image = fn if mul is None else fn * mul
                assert [row[i] for row in T.rows] == agree(image, wider)
        # a denominator of higher degree than B's cannot divide it
        h = Poly.x(F) ** (B.denominator.degree + 1) + Poly.one(F)
        refused(RationalFunction(curve, Poly.one(F), Poly.zero(F), h), B)
        extra = [curve.infinity(), rng.choice(places)]
        extra += [P.conjugate() for P in D.support()
                  if P.kind == "split" and D.multiplicity(P) > 0][:1]
        for P in extra:
            Bp = rr_basis(curve, D + Divisor(curve, [(P, 1)]))
            outside = 0
            for w in Bp.basis:
                try:
                    solve_coordinates(w, B)
                except MembershipError:
                    outside += 1
                    refused(w, B)
                    refused(w + member, B)
                else:
                    agree(w, B)
            assert Bp.dim > B.dim and outside > 0

    build, n = _ORACLE_DATA[make.__name__]
    datum = build(curve, n)
    T = datum.pair_tensor()
    for i, s in enumerate(datum.basis_M.basis):
        for j, t in enumerate(datum.basis_M.basis):
            assert tuple(agree(s * t * datum.u, datum.basis_NK)) == T[i][j]


def test_coordinates_run_no_elimination(monkeypatch):
    """Coordinates are read off the normal form: no elimination runs."""
    curve = curve_g2_f3()
    datum = chain_datum(curve, 4)
    B = datum.basis_NK
    products = [s * t * datum.u for s in datum.basis_M for t in datum.basis_M]

    def refuse(*args, **kwargs):
        raise AssertionError("elimination ran")
    monkeypatch.setattr(curvext.linalg, "_echelon", refuse)
    monkeypatch.setattr(curvext.linalg, "_forward", refuse)
    for fn in products:
        coordinates(fn, B)
    with pytest.raises(MembershipError):
        coordinates(from_parts(curve, [], [0] * 9 + [1]), B)


# ---------------------------------------------------------------------------
# principality and torsion orders
# ---------------------------------------------------------------------------

def _check_witness(curve, D, w):
    """div(w) = -D on the support of D (plus degree zero overall)."""
    for pt, m in D.items:
        assert valuation(w, pt) == -m


def test_torsion_orders_on_f5():
    curve = curve_g1_f5()                       # class group of order 6
    inf = curve.infinity()
    for P, order in [(curve.point(0, 1), 3),
                     (curve.point(4, 0), 2),
                     (curve.point(2, 2), 6)]:
        base = Divisor(curve, [(P, 1), (inf, -1)])
        for k in range(1, 13):
            res = is_principal(curve, k * base)
            assert bool(res) == (k % order == 0), (P, k)
            if res:
                _check_witness(curve, k * base, res.witness)


def test_torsion_orders_over_q():
    curve = curve_g1_q()                        # y^2 = x^3 + 1
    inf = curve.infinity()
    P3 = curve.point(0, 1)
    P6 = curve.point(2, 3)
    for P, order in [(P3, 3), (P6, 6)]:
        base = Divisor(curve, [(P, 1), (inf, -1)])
        for k in range(1, 7):
            res = is_principal(curve, k * base)
            assert bool(res) == (k % order == 0), (P, k)
            if res:
                _check_witness(curve, k * base, res.witness)


def test_is_principal_guards_and_trivial_case():
    curve = curve_g1_f5()
    with pytest.raises(InputError):
        is_principal(curve, curve.infinity_divisor(1))
    res = is_principal(curve, Divisor(curve, []))
    assert res.principal and res.witness == RationalFunction.one(curve)


# ---------------------------------------------------------------------------
# transitions, functionals, JSON
# ---------------------------------------------------------------------------

def test_basis_transition_embeds_and_twists():
    curve = curve_g1_f5()
    B2 = rr_basis(curve, curve.infinity_divisor(2))
    B4 = rr_basis(curve, curve.infinity_divisor(4))
    T = basis_transition(B2, B4)
    assert T.nrows == B4.dim and T.ncols == B2.dim
    for i, fn in enumerate(B2):
        back = RationalFunction.zero(curve)
        for r in range(B4.dim):
            back = back + B4.basis[r] * T.rows[r][i]
        assert back == fn
    # twisting by x lands L(2*inf) inside L(4*inf) as well
    Tx = basis_transition(B2, B4, mul=RationalFunction.x(curve))
    for i, fn in enumerate(B2):
        back = RationalFunction.zero(curve)
        for r in range(B4.dim):
            back = back + B4.basis[r] * Tx.rows[r][i]
        assert back == fn * RationalFunction.x(curve)


def test_rational_function_normal_form():
    """(a + b*y)/c comes back in lowest terms with a monic c and is the
    same function; the zero function comes back as (0, 0, 1) whatever
    its denominator, since gcd(0, c) is c made monic."""
    for curve in (curve_g1_f5(), curve_g1_q()):
        F = curve.field

        def P(*cs):
            return Poly.from_values(F, cs)

        # c = 3(x + 1) shares nothing with a, b; c = 4(x + 1)(x + 2)
        # shares x + 1 with a = 2x(x + 1) and b = 3(x + 1)
        for a, b, c in [(P(1, 1), P(2), P(3, 3)),
                        (P(0, 2, 2), P(3, 3), P(8, 12, 4))]:
            fn = RationalFunction(curve, a, b, c)
            assert fn.c.is_monic() and fn.c.degree == 1
            assert fn.a.gcd(fn.b).gcd(fn.c).degree == 0
            assert fn.a * c == a * fn.c and fn.b * c == b * fn.c
        zero = Poly.zero(F)
        for c in (P(3), P(1, 1), P(2, 4, 2)):      # constant, monic, non-monic
            fn = RationalFunction(curve, zero, zero, c)
            assert (fn.a, fn.b, fn.c) == (zero, zero, Poly.one(F)), c


def test_functions_add_only_functions_on_their_curve():
    """A function adds to and subtracts from a function on its own curve
    and nothing else; a scalar still multiplies it, on either side.  A
    scalar on the left of - or / gets a TypeError."""
    curve = curve_g1_f5()
    x = RationalFunction.x(curve)
    message = "only a function on the same curve adds to or subtracts from"
    for other in (1, RationalFunction.x(curve_g1w_f3())):
        for op in (lambda: x + other, lambda: x - other):
            with pytest.raises(InputError, match=message):
                op()
    with pytest.raises(InputError, match=message):
        2 + x
    for op in (lambda: 2 - x, lambda: 2 / x):
        with pytest.raises(TypeError):
            op()
    assert (x + x) - x == x and 2 * x == x + x == x * 2


def test_function_json_lists_coefficients():
    curve = curve_g2_f7()
    fn = from_parts(curve, [1, 2], [3], [0, 1])
    obj = function_to_json(fn)
    assert set(obj) == {"a", "b", "c"}
    back = from_parts(
        curve,
        [curve.field.payload_from_json(v) for v in obj["a"]],
        [curve.field.payload_from_json(v) for v in obj["b"]],
        [curve.field.payload_from_json(v) for v in obj["c"]])
    assert back == fn


# ---------------------------------------------------------------------------
# work rr_basis skips: required orders, branch lifts, basis objects
# ---------------------------------------------------------------------------

def _q_pool(curve):
    """Places of y^2 = x^3 + 1 over Q of every kind, both branches of
    each split place included."""
    split = [curve.point(0, 1), curve.point(2, 3)]
    return split + [P.conjugate() for P in split] + [
        curve.infinity(), curve.point(-1, 0), curve.point(1, None),
        curve.point(3, None)]


def _seeded_pools():
    yield curve_g1_q(), None
    for make in (curve_g2_f3, curve_g2_f7, curve_g2_f9):
        yield make(), 2


def _pool(curve, degree):
    return _q_pool(curve) if degree is None \
        else enumerate_closed_points(curve, degree)


def _forced_divisors(curve, pts):
    """A split place with its conjugate both positive, a split place with
    a negative conjugate, and ramified and nonsplit places with m >= 2."""
    inf = curve.infinity()
    out = []
    for P in [pt for pt in pts if pt.kind == "split"][:2]:
        out.append(("split+conj", Divisor(curve, [(P, 2), (P.conjugate(), 1)])))
        out.append(("split-conj", Divisor(curve, [(P, 3), (P.conjugate(), -1),
                                                  (inf, 1)])))
    for kind in ("ramified", "nonsplit"):
        for P in [pt for pt in pts if pt.kind == kind][:2]:
            out.append((kind, Divisor(curve, [(P, 2), (inf, -1)])))
            out.append((kind, Divisor(curve, [(P, 3)])))
    return out


def test_required_orders_match_repeated_division():
    from curvext.riemann_roch import (_ansatz_denominator, _constraint_points,
                                      _denominator_orders)
    from helpers import (ansatz_denominator_by_product,
                         constraint_points_by_division)
    seen = set()
    for curve, degree in _seeded_pools():
        pts = _pool(curve, degree)
        rng = random.Random(417)
        cases = _forced_divisors(curve, pts)
        cases += [("random", random_divisor(curve, rng, pts, 3 * curve.genus + 4))
                  for _ in range(60)]
        for label, D in cases:
            ords = _denominator_orders(D)
            c = _ansatz_denominator(curve, ords)
            assert c == ansatz_denominator_by_product(D), D
            assert _constraint_points(D, ords) \
                == constraint_points_by_division(D, c), D
            seen.add(label)
    assert seen == {"split+conj", "split-conj", "ramified", "nonsplit", "random"}


def test_h0_rank_matches_basis_dimension(monkeypatch):
    """h0 is the column count less the rank of the constraint rows, one
    elimination per divisor of nonnegative degree and none below; it
    equals the dimension of the basis rr_basis builds."""
    import curvext.riemann_roch
    ranks = [0]
    rank = curvext.riemann_roch.rank

    def counted(mat):
        ranks[0] += 1
        return rank(mat)

    monkeypatch.setattr(curvext.riemann_roch, "rank", counted)
    kinds = set()
    for curve, degree in ((curve_g1_q(), None), (curve_g1_f5(), 2),
                          (curve_g2_f7(), 2), (curve_g2_f9(), 2)):
        pts = _pool(curve, degree)
        K = curve.canonical_divisor()
        rng = random.Random(1812)
        cases = [D for _, D in _forced_divisors(curve, pts)]
        for _ in range(40):
            D = random_divisor(curve, rng, pts, 4 * curve.genus + 6)
            cases += [D, K - D]
        assert any(D.degree < 0 for D in cases)
        for D in cases:
            kinds.update(pt.kind for pt in D.support())
            ranks[0] = 0
            dim = h0(curve, D)
            assert ranks[0] == (0 if D.degree < 0 else 1)
            B = rr_basis(curve, D)
            assert dim == len(B) == len(B.basis), D
            assert h1(curve, D) == h0(curve, K - D)
    assert kinds == {"infinity", "split", "ramified", "nonsplit"}


def test_residue_columns_match_poly_remainders():
    """Column j of seed s is (s * x^j) mod modulus, zero-padded to
    deg(modulus), for monic moduli of degree 0 (p^0 = 1, empty columns)
    through 4.  Over Q the columns are ints, the remainders of all seeds
    of one call times one common nonzero factor, also when the modulus
    and the seeds have denominators."""
    from curvext import ExtensionField
    from curvext.riemann_roch import _residue_columns
    rng = random.Random(77)
    for F in (Rationals(), PrimeField(7), ExtensionField(3, [1, 0, 1])):
        payloads = [Fraction(n, d) for n in range(-4, 5) for d in (1, 2, 3)] \
            if isinstance(F, Rationals) else list(F.iter_payloads())
        x = Poly.x(F)
        for width in range(5):
            for _ in range(6):
                modulus = Poly(F, rng.choices(payloads, k=width) + [F.pone])
                seeds = [(Poly(F, rng.choices(payloads, k=rng.randint(0, 7))),
                          rng.randint(0, 7)) for _ in range(2)]
                cols = _residue_columns(modulus, seeds)
                assert len(cols) == sum(count for _, count in seeds)
                want = [[((s * x ** j) % modulus).coeff(i) for i in range(width)]
                        for s, count in seeds for j in range(count)]
                if isinstance(F, Rationals):
                    assert all(type(v) is int for col in cols for v in col)
                    ratios = {Fraction(v) / w for col, wcol in zip(cols, want)
                              for v, w in zip(col, wcol) if w}
                    assert len(ratios) <= 1 and 0 not in ratios, (modulus, seeds)
                    scale = ratios.pop() if ratios else 1
                    want = [[w * scale for w in wcol] for wcol in want]
                assert cols == want, (F, modulus, seeds)


def _nonintegral_q_places():
    """Curves over Q with places whose x or xminpoly has a denominator.

    On y^2 = x^3 + 63/64: a split place at x = 1/4 (f = 1 there) with its
    conjugate, a nonsplit one at x = 1/2 (f = 71/64) and one over
    x^2 + 1/3, where f = 63/64 - x/3 has norm 111259/110592, no rational
    square.  On y^2 = x^5 - x/16 = x(x^2 - 1/4)(x^2 + 1/4): ramified
    places at x = 1/2 and over x^2 + 1/4.  On y^2 = x^3 + x/3 + 1/4 =
    1/4 + x(x^2 + 1/3): the split places over x^2 + 1/3 with branches
    1/2 and -1/2.
    """
    Q = Rationals()
    half, quarter, third = Fraction(1, 2), Fraction(1, 4), Fraction(1, 3)
    x2_third = Poly.from_values(Q, [third, 0, 1])
    A = make_curve(Q, [Fraction(63, 64), 0, 0, 1])
    P = A.point(quarter, 1)
    yield A, [P, P.conjugate(), A.point(half, None),
              A.closed_point(x2_third, None)]
    B = make_curve(Q, [0, -Fraction(1, 16), 0, 0, 0, 1])
    yield B, [B.point(half, 0),
              B.closed_point(Poly.from_values(Q, [quarter, 0, 1]), None)]
    C = make_curve(Q, [quarter, third, 0, 1])
    S = C.closed_point(x2_third, Poly.from_values(Q, [half]))
    yield C, [S, S.conjugate()]


def _nonintegral_divisors(curve, places):
    """Each place alone at multiplicities up to 5 (so the modulus
    denominators e reach e^5 and the columns e^(n-1) on top), a place
    against its conjugate or neighbour, and seeded random divisors."""
    inf = curve.infinity()
    out = [Divisor(curve, [(pt, m), (inf, k)])
           for pt in places for m in (1, 2, 5) for k in (-1, 2)]
    out.append(Divisor(curve, [(places[0], 4), (places[1], -2), (inf, 1)]))
    rng = random.Random(64)
    out += [random_divisor(curve, rng, places + [inf], 4 * curve.genus + 6)
            for _ in range(12)]
    return out


def test_integer_rows_over_q_match_the_fraction_oracle():
    """Over Q the ansatz rows are ints, each a nonzero multiple of the
    oracle's Fraction row, with the same reduced echelon form."""
    from curvext.riemann_roch import _ansatz
    from helpers import (ansatz_denominator_by_product,
                         constraint_points_by_division,
                         constraint_rows_on_payloads)
    kinds = set()
    for curve, places in _nonintegral_q_places():
        assert all(max(v.denominator for v in pt.xminpoly.coeffs) > 1
                   for pt in places)
        for D in _nonintegral_divisors(curve, places):
            if D.degree < 0:
                continue
            _, _, n_a, order, rows = _ansatz(curve, D)
            req = constraint_points_by_division(D, ansatz_denominator_by_product(D))
            oracle = [row for pt in sorted(req, key=lambda q: q.key())
                      for row in constraint_rows_on_payloads(
                          curve, pt, req[pt], n_a, order)]
            assert all(type(v) is int for row in rows for v in row), D
            assert len(rows) == len(oracle), D
            for row, want in zip(rows, oracle):
                ratios = {Fraction(v) / w for v, w in zip(row, want) if w}
                assert len(ratios) <= 1 and 0 not in ratios and all(
                    not v for v, w in zip(row, want) if not w), D
            assert frac_rref(rows) == frac_rref(oracle), D
            kinds.update((pt.kind, pt.xminpoly.degree) for pt in req)
    assert kinds == {("split", 1), ("split", 2), ("ramified", 1),
                     ("ramified", 2), ("nonsplit", 1), ("nonsplit", 2)}


def test_bases_over_q_match_the_fraction_oracle(monkeypatch):
    """rr_basis, h0 and the subspace rows of a basis are the same when
    the constraint rows come from the Fraction oracle."""
    import curvext.riemann_roch as rr
    from helpers import constraint_rows_on_payloads
    for curve, places in _nonintegral_q_places():
        divisors = _nonintegral_divisors(curve, places)
        K = curve.canonical_divisor()
        bases = [rr_basis(curve, D) for D in divisors]
        dims = [h0(curve, D) for D in divisors]

        def subspaces():
            return [frac_rref(rr._subspace_rows(B, pt, 1))
                    for B in bases for pt, _ in B.divisor.items]
        cut = subspaces()
        twin = HyperellipticCurve(curve.field, curve.f)
        with monkeypatch.context() as m:
            m.setattr(rr, "_constraint_rows", constraint_rows_on_payloads)
            assert [rr_basis(twin, D) for D in divisors] == bases
            assert [h0(twin, D) for D in divisors] == dims
            assert subspaces() == cut
        assert any(B.dim > 1 for B in bases)
        for D, dim in zip(divisors, dims):
            assert dim - h0(curve, K - D) == D.degree - curve.genus + 1, D


def test_warm_h0_multiplies_no_polynomials(monkeypatch):
    """Over Q every constraint row entry is an int, and once the curve's
    ladders and branch lifts are warm, h0 builds no product of
    polynomials: no ansatz denominator, no power, no lift."""
    from curvext.riemann_roch import _ansatz
    pools = [(curve, places + [curve.infinity()])
             for curve, places in _nonintegral_q_places()]
    pools += [(curve_g1_q(), _q_pool(curve_g1_q())),
              (curve_g2_f7(), enumerate_closed_points(curve_g2_f7(), 2))]
    mul = Poly.__mul__
    calls = [0]

    def counted(self, other):
        calls[0] += 1
        return mul(self, other)

    for curve, pts in pools:
        curve = pts[0].curve
        rng = random.Random(31)
        divisors = [random_divisor(curve, rng, pts, 4 * curve.genus + 6)
                    for _ in range(30)]
        dims = [h0(curve, D) for D in divisors]
        if isinstance(curve.field, Rationals):
            for D in divisors:
                if D.degree >= 0:
                    rows = _ansatz(curve, D)[-1]
                    assert all(type(v) is int for row in rows for v in row)
        calls[0] = 0
        with monkeypatch.context() as m:
            m.setattr(Poly, "__mul__", counted)
            assert [h0(curve, D) for D in divisors] == dims
        assert calls[0] == 0, curve


def _rr_cold_pass(curve, pts, rng):
    """The duality identity on seeded divisors, as the rr-cold benchmark
    runs it, plus the valuations of each basis element on the support."""
    K = curve.canonical_divisor()
    for _ in range(30):
        D = random_divisor(curve, rng, pts, 4 * curve.genus + 6)
        assert h0(curve, D) - h0(curve, K - D) == D.degree - curve.genus + 1
        for fn in rr_basis(curve, D):
            for pt in D.support():
                assert valuation(fn, pt) >= -D.multiplicity(pt)


def test_branch_lifts_are_cached_once_per_place_and_precision(monkeypatch):
    """Each (place, r) is handed out once and memoized; hensel_sqrt runs
    only when a place's top precision grows, and lower precisions are
    reductions of the top lift."""
    import curvext.curves
    from curvext.polys import hensel_sqrt
    calls = []

    def counted(f, p, branch, r):
        calls.append(((p, branch), r))
        return hensel_sqrt(f, p, branch, r)

    monkeypatch.setattr(curvext.curves, "hensel_sqrt", counted)
    for curve, degree in _seeded_pools():
        calls.clear()
        pts = _pool(curve, degree)
        _rr_cold_pass(curve, pts, random.Random(5))
        assert calls
        # the same pass again lifts nothing; another one lifts a place
        # only above its top precision
        lifted = len(calls)
        _rr_cold_pass(curve, pts, random.Random(5))
        assert len(calls) == lifted
        _rr_cold_pass(curve, pts, random.Random(6))
        tops = {}
        for place, r in calls:
            assert r > tops.get(place, 0), (place, r)
            tops[place] = r
        cache = curve._lift_cache
        assert len(cache) == len(tops)
        checked = 0
        for P in pts:
            entry = cache.get(P.key())
            if entry is None:
                continue
            top, lifts = entry
            assert tops[(P.xminpoly, P.ybranch)] == top and top in lifts
            for r, Y in lifts.items():
                assert 1 <= r <= top
                assert Y == hensel_sqrt(curve.f, P.xminpoly, P.ybranch, r)
                assert Y == hensel_sqrt_by_xgcd(curve.f, P.xminpoly,
                                                P.ybranch, r)
                checked += 1
        assert checked == sum(len(lifts) for _, lifts in cache.values())
        assert checked > len(calls)
        # a fresh curve object starts with an empty cache of its own
        assert HyperellipticCurve(curve.field, curve.f)._lift_cache == {}


def test_powers_of_xminpolys_come_from_one_ladder_per_curve(monkeypatch):
    pow_ = Poly.__pow__
    powers = [0]

    def counted(self, e):
        powers[0] += 1
        return pow_(self, e)

    for curve, degree in _seeded_pools():
        pts = _pool(curve, degree)
        monkeypatch.setattr(Poly, "__pow__", counted)
        _rr_cold_pass(curve, pts, random.Random(5))
        monkeypatch.setattr(Poly, "__pow__", pow_)
        assert powers[0] == 0
        assert curve._ladders
        for key, ladder in curve._ladders.items():
            p = Poly(curve.field, key)
            assert ladder[1] == p
            assert ladder == [p ** k for k in range(len(ladder))]


def test_dimension_readers_build_no_functions(monkeypatch):
    built = [0]
    init = RationalFunction.__init__

    def counted(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(RationalFunction, "__init__", counted)
    for curve, degree in _seeded_pools():
        pts = _pool(curve, degree)
        rng = random.Random(99)
        divisors = [random_divisor(curve, rng, pts, 3 * curve.genus + 4)
                    for _ in range(40)]
        for D in divisors:
            h0(curve, D), h1(curve, D)
        assert built[0] == 0
        for D in divisors:
            B = rr_basis(curve, D)
            first = B.basis
            assert B.basis is first
            assert len(first) == B.dim
            assert list(first) == [
                RationalFunction(curve, a, b, B.denominator)
                for a, b in basis_pairs(B)]
            # a twin curve object holds its own cache: an equal basis that
            # has not built its functions still compares and hashes equal
            B2 = rr_basis(HyperellipticCurve(curve.field, curve.f), D)
            assert B2 is not B and "basis" not in vars(B2)
            assert B2 == B and hash(B2) == hash(B)
        built[0] = 0
