import importlib
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from curvext import (Divisor, ExtensionField, InputError, Poly, PrimeField,
                     RationalFunction, Rationals, curve_from_json,
                     curve_to_json, divisor_from_json,
                     divisor_to_json, enumerate_closed_points,
                     enumerate_effective_divisors, make_curve, point_from_json,
                     point_to_json, rr_basis, valuation)
import curvext.fields
from curvext.polys import iter_monic_irreducible, residue_sqrt
from helpers import (brute_point_count, brute_residue_sqrts, curve_g1_f5,
                     curve_g1_q, curve_g1w_f3, curve_g2_f3, curve_g2_f7,
                     curve_g2_f9, curve_g2_q,
                     curve_g3_f5, effective_divisors_by_recursion, is_effective,
                     is_weierstrass, positive_part, random_divisor,
                     series_expansions, series_residual_vanishes,
                     series_valuation)

Q = Rationals()


# ---------------------------------------------------------------------------
# point counts against brute force over F_q and F_{q^2} (and F_{q^3} for p=3)
# ---------------------------------------------------------------------------

# N_k = #C(F_{p^k}) counts each closed point of degree d | k exactly d times
COUNT_CASES = [
    (curve_g1_f5, 5, [1, 0, 0, 1], [2, 0, 1], None),
    (curve_g1w_f3, 3, [0, 1, 0, 1], [1, 0, 1], [1, 2, 0, 1]),
    (curve_g2_f3, 3, [1, 2, 0, 0, 0, 1], [1, 0, 1], [1, 2, 0, 1]),
    (curve_g2_f7, 7, [1, 2, 0, 0, 0, 1], [1, 0, 1], None),
    (curve_g3_f5, 5, [1, 1, 0, 0, 0, 0, 0, 1], [2, 0, 1], None),
]


@pytest.mark.parametrize("make,p,fc,quad,cubic",
                         COUNT_CASES, ids=lambda v: getattr(v, "__name__", ""))
def test_closed_points_match_brute_counts(make, p, fc, quad, cubic):
    curve = make()
    assert [int(c) for c in curve.f.coeffs] == [c % p for c in fc]
    pts = enumerate_closed_points(curve, 3)
    by_degree = {d: sum(1 for pt in pts if pt.degree == d) for d in (1, 2, 3)}
    assert by_degree[1] == brute_point_count(p, fc)
    assert by_degree[1] + 2 * by_degree[2] == brute_point_count(p, fc, quad)
    if cubic is not None:
        assert by_degree[1] + 3 * by_degree[3] == brute_point_count(p, fc, cubic)


def test_benchmark_point_enum_counts(monkeypatch):
    """The benchmark's point-enum curves (F37, F25, F7) give the point
    counts by degree pinned in perfbench/goldens.json, so a change to
    enumeration or to F_{p^k} arithmetic fails here and not only in the
    benchmark.  The curve list is read from perfbench/ without writing
    there (no bytecode cache)."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent
                                    / "perfbench"))
    workloads = importlib.import_module("workloads")
    pinned = workloads.load_goldens()["point-enum"]
    assert sorted(pinned) == sorted(name for name, _, _ in workloads.ENUM_CURVES)
    for name, spec, max_degree in workloads.ENUM_CURVES:
        pts = enumerate_closed_points(curve_from_json(spec), max_degree)
        assert Counter(str(pt.degree) for pt in pts) == pinned[name], name


def test_point_enum_runs_no_irreducibility_test(monkeypatch):
    """Enumeration takes its places from the sieve alone: with Ben-Or's
    test made to raise, the benchmark's point-enum curves give the same
    points, compared as the JSON of every point, as an unpatched run.
    Curves are built before the patch (F25 checks its minpoly)."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent
                                    / "perfbench"))
    workloads = importlib.import_module("workloads")
    cases = [(curve_from_json(spec), curve_from_json(spec), max_degree)
             for _, spec, max_degree in workloads.ENUM_CURVES]

    def as_json(curve, max_degree):
        return [json.dumps(point_to_json(pt), sort_keys=True)
                for pt in enumerate_closed_points(curve, max_degree)]

    expect = [as_json(a, d) for a, _, d in cases]

    def refuse(self):
        raise AssertionError("Ben-Or test run during enumeration")

    monkeypatch.setattr(Poly, "is_irreducible", refuse)
    assert [as_json(b, d) for _, b, d in cases] == expect


@pytest.mark.parametrize("minpoly", [[2, 0, 1], [2, 0, 0, 0, 1]],
                         ids=["F25", "F625"])
def test_degree_one_points_over_extension_fields_match_brute_count(minpoly):
    """y^2 = x^5 + x + 1 over a base field F_{5^k}: F25 does its arithmetic
    on tables, F625 on polynomials, and both count their degree-1
    points as brute force over the same minpoly does."""
    fc = [1, 1, 0, 0, 0, 1]
    curve = make_curve(ExtensionField(5, minpoly), fc)
    pts = enumerate_closed_points(curve, 1)
    assert sum(1 for pt in pts if pt.degree == 1) == brute_point_count(
        5, fc, minpoly)


def test_table_and_polynomial_arithmetic_agree(monkeypatch):
    """With the table bound at 0 every extension field takes the
    polynomial path; the point-enum curve g2/F25 gives the same points
    (as JSON) to degree 2, and curve_g2_f9 the same Riemann-Roch bases
    (kernel vectors and pole orders), as on tables."""
    spec = {"field": {"Fpk": {"p": 5, "minpoly": [3, 0, 1]}},
            "f": [1, 1, 0, 0, 0, 1]}

    def answers():
        curve = curve_from_json(spec)
        points = [json.dumps(point_to_json(pt), sort_keys=True)
                  for pt in enumerate_closed_points(curve, 2)]
        curve = curve_g2_f9()
        places = enumerate_closed_points(curve, 2)
        rng = random.Random(7)
        bases = []
        for _ in range(4):
            D = random_divisor(curve, rng, places, 6) + curve.infinity_divisor(8)
            B = rr_basis(curve, D)
            bases.append((B.vectors, B.pole_orders))
        return "mul" in vars(curve.field), points, bases

    tabled, *expect = answers()
    monkeypatch.setattr(curvext.fields, "_TABLE_MAX_ORDER", 0)
    polynomial, *got = answers()
    assert tabled and not polynomial
    assert got == expect


def test_enumeration_over_larger_primes():
    """F101 to degree 2, which took the brute-force square root tens of
    seconds, and square roots in F_{257^2}, which it refused outright.
    Over F37 and F101 the places of degree 1 and 2 count the points over
    F_{p^2}: A_1 + 2 A_2 = #C(F_{p^2}), by brute force in F_p[t]/(t^2 + 2)."""
    fc = [1, 1, 0, 0, 0, 1]
    for p in (37, 101):
        curve = make_curve(PrimeField(p), fc)
        pts = enumerate_closed_points(curve, 2)
        ones = sum(1 for pt in pts if pt.degree == 1)
        assert ones == brute_point_count(p, fc)
        assert ones + 2 * sum(1 for pt in pts if pt.degree == 2) == \
            brute_point_count(p, fc, [2, 0, 1])
        assert len(set(pts)) == len(pts)
        for pt in pts:
            if pt.kind == "split":
                assert ((pt.ybranch * pt.ybranch - curve.f) % pt.xminpoly).is_zero()

    F = PrimeField(257)
    p = Poly(F, [3, 0, 1])                      # -3 is a nonsquare mod 257
    assert p.is_irreducible()
    rng = random.Random(5)
    for _ in range(6):
        b = Poly(F, [rng.randrange(257), rng.randrange(1, 257)])
        r = residue_sqrt((b * b) % p, p)
        # the two roots are b and -b; the smaller by key (c_0 first) wins
        assert r == min(b, (-b) % p, key=lambda y: (y.coeff(0), y.coeff(1)))


def test_point_list_is_sorted_and_unshared():
    curve = curve_g1_f5()
    pts = enumerate_closed_points(curve, 2)
    assert [pt.key() for pt in pts] == sorted(pt.key() for pt in pts)
    # each call hands back its own list, so no caller edits another's
    again = enumerate_closed_points(curve, 2)
    assert again == pts and again is not pts
    assert all(pt.degree <= 2 for pt in pts)
    # split places come in conjugate pairs, everything else is self-conjugate
    for pt in pts:
        if pt.kind == "split":
            assert pt.conjugate() in pts and pt.conjugate() != pt
        else:
            assert pt.conjugate() == pt


@pytest.mark.parametrize("curve,degree", [
    (curve_g1_f5(), 3), (curve_g2_f7(), 2),
    (make_curve(ExtensionField(5, [2, 0, 1]), [1, 1, 0, 0, 0, 1]), 1)],
    ids=["g1/F5", "g2/F7", "g2/F25"])
def test_conjugate_negates_the_reduced_branch(curve, degree):
    """The conjugate of a split place carries -b, already reduced mod p, and
    is its own inverse: on every split place of an enumeration and on a
    place built by closed_point from a ybranch of degree >= deg p."""
    split = [pt for pt in enumerate_closed_points(curve, degree)
             if pt.kind == "split"]
    assert split
    for pt in split:
        c = pt.conjugate()
        assert c.ybranch == (-pt.ybranch) % pt.xminpoly
        assert c.xminpoly == pt.xminpoly and c.conjugate() == pt
    p, b = split[-1].xminpoly, split[-1].ybranch
    unreduced = b + p * Poly(curve.field, [curve.field.pone] * 3)
    pt = curve.closed_point(p, unreduced)
    assert pt == split[-1] and unreduced.degree >= p.degree
    assert pt.conjugate().ybranch == (-unreduced) % p
    assert pt.conjugate().conjugate() == pt


# ---------------------------------------------------------------------------
# valuations
# ---------------------------------------------------------------------------

def test_coordinate_valuations_at_infinity():
    for make in (curve_g1_f5, curve_g1w_f3, curve_g2_f3, curve_g3_f5, curve_g1_q):
        curve = make()
        inf = curve.infinity()
        assert valuation(RationalFunction.x(curve), inf) == -2
        assert valuation(RationalFunction.y(curve), inf) == -(2 * curve.genus + 1)


def test_valuations_at_affine_places():
    curve = curve_g1_f5()                       # y^2 = x^3 + 1
    P = curve.point(0, 1)
    x = RationalFunction.x(curve)
    y = RationalFunction.y(curve)
    one = RationalFunction.one(curve)
    assert valuation(x, P) == 1
    # x^3 = (y-1)(y+1) and y+1 is a unit at P, so y-1 vanishes to order 3
    assert valuation(y - one, P) == 3
    assert valuation(y + one, P) == 0

    w = curve_g1w_f3()                          # y^2 = x^3 + x, W = (0,0)
    W = w.point(0, 0)
    assert W.kind == "ramified" and W.ramification == 2
    assert valuation(RationalFunction.y(w), W) == 1
    assert valuation(RationalFunction.x(w), W) == 2

    # f(1) = 2 is a nonsquare mod 5: nonsplit place of degree 2 over x - 1
    ns = curve.point(1, None)
    assert ns.kind == "nonsplit" and ns.degree == 2
    assert valuation(x - one, ns) == 1


def _oracle_places():
    """(curve, places, divisor draws): every place of degree <= 2 over
    F_p and F9; over Q infinity and split, ramified and inert places."""
    for make in (curve_g2_f3, curve_g1w_f3, curve_g2_f7, curve_g2_f9):
        curve = make()
        yield curve, enumerate_closed_points(curve, 2), 3
    g1 = curve_g1_q()                           # y^2 = x^3 + 1
    yield g1, [g1.infinity(), g1.point(0, 1), g1.point(2, 3), g1.point(-1, 0),
               g1.point(1, None)], 8
    g2 = curve_g2_q()                           # f = (x^2+x+1)(x^3-x^2+1)
    yield g2, [g2.infinity(), g2.point(0, 1), g2.point(0, -1), g2.point(1, None),
               g2.closed_point(Poly(Q, [1, 1, 1]), Poly.zero(Q))], 8


def test_valuations_match_the_series_oracle():
    """Closed-form valuations equal the Laurent-series oracle on the rr
    bases of seeded random divisors, at places of all four kinds."""
    pairs = 0
    kinds = set()
    for curve, places, draws in _oracle_places():
        rng = random.Random(curve.label)
        for _ in range(draws):
            D = random_divisor(curve, rng, places, 4)
            D = D + curve.infinity_divisor(max(0, 2 * curve.genus + 3 - D.degree))
            for fn in rr_basis(curve, D):
                for pt in places:
                    assert valuation(fn, pt) == series_valuation(fn, pt), (fn, pt)
                    pairs += 1
                    kinds.add((curve.field.order(), pt.kind))
    assert pairs > 1000
    for q in (3, 7, 9, None):
        assert {k for o, k in kinds if o == q} == {"infinity", "ramified", "split",
                                                 "nonsplit"}


@pytest.mark.parametrize("make", [curve_g1_f5, curve_g1w_f3, curve_g2_f3])
def test_principal_divisors_have_degree_zero(make):
    """deg div(fn) = 0 once every possible support degree is enumerated.

    Norms of the sample functions have x-degree <= 2g+1 and nonsplit
    places over their quadratic factors reach degree 4, so points up to
    max(4, 2g+1) cover the full support.
    """
    curve = make()
    x = RationalFunction.x(curve)
    y = RationalFunction.y(curve)
    one = RationalFunction.one(curve)
    pts = enumerate_closed_points(curve, max(4, 2 * curve.genus + 1))
    for fn in (x, y, x - one, y - x, x * x - y):
        total = sum(valuation(fn, pt) * pt.degree for pt in pts)
        assert total == 0
        # support really is covered: the pole order at infinity matches
        # the sum of the affine zero orders
        neg = sum(valuation(fn, pt) * pt.degree for pt in pts
                  if valuation(fn, pt) < 0)
        pos = sum(valuation(fn, pt) * pt.degree for pt in pts
                  if valuation(fn, pt) > 0)
        assert pos == -neg > 0


# ---------------------------------------------------------------------------
# local expansions of the valuation oracle: its own residual plus an
# independent series check
# ---------------------------------------------------------------------------

def _series(offset, coeffs, valid_to):
    return (offset, list(coeffs), valid_to)


def _series_mul(a, b, reduce):
    ao, ac, av = a
    bo, bc, bv = b
    valid = min(av + bo, bv + ao)
    out = [0] * max(valid - ao - bo, 0)
    for i, x in enumerate(ac):
        if x == 0:
            continue
        for j, y in enumerate(bc):
            if i + j < len(out):
                out[i + j] = reduce(out[i + j] + x * y)
    return (ao + bo, out, valid)


def _series_add(a, b, reduce):
    ao, ac, av = a
    bo, bc, bv = b
    off = min(ao, bo)
    valid = min(av, bv)
    out = [0] * max(valid - off, 0)
    for src_off, src in ((ao, ac), (bo, bc)):
        for i, v in enumerate(src):
            k = src_off + i - off
            if 0 <= k < len(out):
                out[k] = reduce(out[k] + v)
    return (off, out, valid)


def _expansion_to_series(exp):
    assert exp.residue_dim == 1
    coeffs = [cs[0] for cs in exp.coefficients]
    return _series(exp.offset, coeffs, exp.offset + len(coeffs))


def test_expansions_satisfy_curve_equation_independently():
    """y(t)^2 - f(x(t)) = O(t^N) checked with plain truncated series."""
    for make in (curve_g1_f5, curve_g2_f3, curve_g1_q):
        curve = make()
        p = curve.field.characteristic()
        reduce = (lambda v: v % p) if p else (lambda v: v)
        targets = [curve.infinity()]
        if p:
            targets += enumerate_closed_points(curve, 1)[:6]
        else:
            targets.append(curve.point(0, 1))
        for pt in targets:
            xe, ye = series_expansions(pt, 12)
            xs = _expansion_to_series(xe)
            ys = _expansion_to_series(ye)
            lhs = _series_mul(ys, ys, reduce)
            # Horner evaluation of f at the x series
            acc = _series(0, [], 10 ** 9)
            for c in reversed(curve.f.coeffs):
                acc = _series_mul(acc, xs, reduce)
                acc = _series_add(acc, _series(0, [reduce(c)], acc[2]), reduce)
            diff = _series_add(lhs, _series_mul(acc, _series(0, [-1], 10 ** 9),
                                                reduce), reduce)
            window = diff[2] - diff[0]
            assert window >= 6
            assert all(reduce(v) == 0 for v in diff[1])


def test_expansion_offsets_and_library_residual():
    for make in (curve_g1_f5, curve_g1w_f3, curve_g2_f3, curve_g3_f5):
        curve = make()
        xe, ye = series_expansions(curve.infinity(), 8)
        assert xe.offset == -2
        assert ye.offset == -(2 * curve.genus + 1)
        for pt in enumerate_closed_points(curve, 2):
            assert series_residual_vanishes(pt, 10)
            xe, ye = series_expansions(pt, 6)
            assert xe.residue_dim == ye.residue_dim
            assert xe.residue_dim == (pt.degree if pt.kind != "infinity" else 1)


# ---------------------------------------------------------------------------
# divisor arithmetic
# ---------------------------------------------------------------------------

def test_divisor_laws():
    curve = curve_g1_f5()
    inf = curve.infinity()
    P = curve.point(0, 1)
    Pc = P.conjugate()
    D = Divisor(curve, [(P, 2), (inf, -1)])
    E = Divisor(curve, [(Pc, 1), (P, -2)])
    assert (D + E).degree == D.degree + E.degree
    assert D + E == E + D
    assert (D - D).is_zero()
    assert D.multiplicity(P) == 2 and D.multiplicity(Pc) == 0
    assert (3 * D).degree == 3 * D.degree
    assert (D + E).multiplicity(P) == 0     # 2 - 2 coalesces away
    assert P not in (D + E).support()
    assert not is_effective(D)
    assert positive_part(D) == Divisor(curve, [(P, 2)])
    # duplicate pairs merge in the constructor
    assert Divisor(curve, [(P, 1), (P, 2)]) == Divisor(curve, [(P, 3)])
    assert curve.canonical_divisor().degree == 2 * curve.genus - 2
    with pytest.raises(InputError):
        Divisor(curve, [(P, "2")])
    with pytest.raises(InputError):
        Divisor(curve_g1w_f3(), [(P, 1)])


@pytest.mark.parametrize("field,f,g", [
    (Q, [1, 0, 0, 1], [2, 0, 0, 1]),
    (PrimeField(7), [1, 2, 0, 0, 0, 1], [2, 2, 0, 0, 0, 1]),
    (ExtensionField(3, [1, 0, 1]), [0, (0, 1), 0, 0, 0, 1],
     [1, (0, 1), 0, 0, 0, 1])])
def test_twin_curves_compare_hash_and_mix_as_one(field, f, g):
    A, B = make_curve(field, f), make_curve(field, f)
    assert A is not B and A == B and B == A and hash(A) == hash(B)
    other = make_curve(field, g)
    assert other != A and A != other
    P = next(pt for pt in ([A.point(0, 1), A.point(2, 3)] if field == Q
                           else enumerate_closed_points(A, 1))
             if pt.kind == "split")
    PB = B.closed_point(P.xminpoly, P.ybranch)
    assert P == PB and hash(P) == hash(PB)
    assert A.infinity() == B.infinity()
    DA = Divisor(A, [(P, 2), (B.infinity(), 1)])
    DB = Divisor(B, [(PB, 2), (A.infinity(), 1)])
    assert DA == DB and hash(DA) == hash(DB) and DA.key() == DB.key()
    assert (DA - DB).is_zero() and (DA + DB).multiplicity(PB) == 4
    assert rr_basis(A, DB).dim == rr_basis(B, DA).dim
    Q0 = other.infinity()
    with pytest.raises(InputError):
        Divisor(A, [(P, 1), (Q0, 1)])
    with pytest.raises(InputError):
        DA + Divisor(other, [(Q0, 1)])


def test_effective_divisor_enumeration_counts_and_order():
    """#effective divisors of degree n from the Euler product over places."""
    curve = curve_g1w_f3()
    bound = 3
    pts = enumerate_closed_points(curve, bound)
    # truncated product of 1/(1 - t^deg) per closed point
    series = [1] + [0] * bound
    for pt in pts:
        geo = [1 if i % pt.degree == 0 else 0 for i in range(bound + 1)]
        series = [sum(series[j] * geo[i - j] for j in range(i + 1))
                  for i in range(bound + 1)]
    divisors = list(enumerate_effective_divisors(curve, bound))
    assert len(divisors) == len(set(d.key() for d in divisors))
    degrees = [D.degree for D in divisors]
    assert degrees == sorted(degrees)
    assert divisors[0].is_zero()
    for n in range(bound + 1):
        assert degrees.count(n) == series[n]
    assert all(is_effective(D) or D.is_zero() for D in divisors)
    # restricted-support mode agrees with filtering
    sub = [pt for pt in pts if pt.degree == 1][:3]
    got = list(enumerate_effective_divisors(curve, 2, points=sub))
    want = [D for D in divisors
            if D.degree <= 2 and all(pt in sub for pt in D.support())]
    assert {D.key() for D in got} == {D.key() for D in want}


def test_effective_divisor_order_matches_the_recursion():
    """The iterative walk yields the recursive form's divisors in its
    order: every divisor over a short mixed-degree list, and the first
    few hundred over a long one."""
    from itertools import islice
    curve = curve_g1_f5()
    pts = enumerate_closed_points(curve, 4)
    short = [pt for pt in pts if pt.degree == 1][:4] \
        + [pt for pt in pts if pt.degree > 1][:8]
    got = [D.key() for D in enumerate_effective_divisors(curve, 5, points=short)]
    want = [D.key() for D in effective_divisors_by_recursion(curve, 5, short)]
    assert got == want
    assert len(pts) > 150 and {pt.degree for pt in pts} == {1, 2, 3, 4}
    got = [D.key() for D in islice(
        enumerate_effective_divisors(curve, 4, points=pts), 600)]
    want = [D.key() for D in islice(
        effective_divisors_by_recursion(curve, 4, pts), 600)]
    assert got == want and len(got) == 600


# ---------------------------------------------------------------------------
# construction guards
# ---------------------------------------------------------------------------

def test_make_curve_rejections():
    F7 = PrimeField(7)
    with pytest.raises(InputError):
        make_curve(PrimeField(2), [1, 1, 0, 1])
    with pytest.raises(InputError):
        make_curve(Q, [1, 0, 0, 0, 1])          # even degree
    with pytest.raises(InputError):
        make_curve(Q, [0, 1])                   # degree too small
    with pytest.raises(InputError):
        make_curve(Q, [0, 0, 0, 1])             # x^3 is not squarefree
    # x^5 + x + 1 picks up a square factor mod 7
    with pytest.raises(InputError):
        make_curve(F7, [1, 1, 0, 0, 0, 1])
    make_curve(Q, [1, 1, 0, 0, 0, 1])           # fine in characteristic 0


def test_closed_point_guards():
    curve = curve_g1_f5()
    F = curve.field
    with pytest.raises(InputError):
        curve.point(2, 1)                       # 1^2 != f(2) = 4
    with pytest.raises(InputError):
        curve.point(2, None)                    # f(2) = 4 is a square: splits
    with pytest.raises(InputError):
        curve.point(4, 1)                       # f(4) = 0 forces ybranch 0
    W = curve.point(4, 0)                       # x = -1 is the root of x^3+1
    assert W.kind == "ramified" and is_weierstrass(W)
    assert W == curve.closed_point(Poly(F, [1, 1]), Poly(F, [0]))
    with pytest.raises(InputError):
        curve.closed_point(Poly(F, [4, 0, 1]), None)    # (x-1)(x+1) reducible
    with pytest.raises(InputError):
        curve.closed_point(Poly(F, [1, 2]), Poly(F, [1]))  # not monic
    # nonsplit request where f is a square in the residue field
    with pytest.raises(InputError):
        curve.point(0, None)                    # f(0) = 1 splits
    assert is_weierstrass(curve.infinity())
    assert curve.infinity().degree == 1
    # over Q the rational-root check factors the constant, so a place
    # over x^2 - 1000000007 validates at once
    g1q = curve_g1_q()
    far = point_from_json(g1q, {"xminpoly": [-1000000007, 0, 1], "ybranch": None})
    assert far.kind == "nonsplit" and far.degree == 4
    # each refusal of a malformed place names what is wrong with it
    with pytest.raises(InputError, match="has a rational root"):
        g1q.closed_point(Poly(Q, [-1, 0, 1]), None)          # x^2 - 1
    with pytest.raises(InputError, match="is not squarefree"):
        g1q.closed_point(Poly(Q, [1, 0, 2, 0, 1]), None)     # (x^2 + 1)^2
    with pytest.raises(InputError, match="zero ybranch over a place where "
                                         "f does not vanish"):
        curve.closed_point(Poly(F, [0, 1]), Poly(F, [0]))    # f(0) = 1
    with pytest.raises(InputError, match="xminpoly is over the wrong field"):
        curve.closed_point(Poly(PrimeField(7), [0, 1]), None)


@pytest.mark.parametrize("make", [curve_g1_f5, curve_g2_f9])
def test_nonsplit_requests_are_refused_exactly_where_f_is_a_square(make):
    """A nonsplit place over xminpoly p of degree 1 or 2 is refused when f
    is a square modulo p, by a brute-force scan of the residue field, and
    accepted otherwise; both outcomes occur in each degree."""
    curve = make()
    outcomes = Counter()
    for p in iter_monic_irreducible(curve.field, 2):
        fbar = curve.f % p
        if fbar.is_zero():
            continue
        square = fbar.coeffs in brute_residue_sqrts(p)
        if square:
            with pytest.raises(InputError,
                               match="f is a square at this place; it splits"):
                curve.closed_point(p, None)
        else:
            assert curve.closed_point(p, None).kind == "nonsplit"
        outcomes[p.degree, square] += 1
    assert set(outcomes) == {(d, sq) for d in (1, 2) for sq in (False, True)}


def test_nonsplit_requests_over_q_in_degree_one():
    """y^2 = x^3 + 5/9 x + 4/9 has f(0) = 4/9 = (2/3)^2, f(1) = 2 and
    f(-1) = -10/9: only the first place splits."""
    curve = make_curve(Rationals(), [Fraction(4, 9), Fraction(5, 9), 0, 1])
    with pytest.raises(InputError,
                       match="f is a rational square at this place; it splits"):
        curve.point(0, None)
    assert curve.point(1, None).kind == "nonsplit"
    assert curve.point(-1, None).kind == "nonsplit"
    assert curve.point(0, Fraction(-2, 3)).kind == "split"


def test_json_round_trips():
    for make in (curve_g1_f5, curve_g2_f3, curve_g1_q):
        curve = make()
        assert curve_from_json(curve_to_json(curve)) == curve
        pts = (enumerate_closed_points(curve, 2)
               if curve.field.order() else [curve.infinity(),
                                            curve.point(0, 1),
                                            curve.point(0, -1)])
        for pt in pts:
            assert point_from_json(curve, point_to_json(pt)) == pt
        D = Divisor(curve, [(pts[0], 2), (pts[-1], -3)])
        assert divisor_from_json(curve, divisor_to_json(D)) == D
    curve = curve_g1_f5()
    # the short x/y spelling and explicit minpoly spelling agree
    assert (point_from_json(curve, {"x": 0, "y": 1})
            == point_from_json(curve, {"xminpoly": [0, 1], "ybranch": [1]}))
    with pytest.raises(InputError):
        point_from_json(curve, {"y": 1})
    # Divisor checks each multiplicity, after its point is read
    for mult in (1.5, True, "2"):
        with pytest.raises(InputError, match="multiplicities must be integers"):
            divisor_from_json(curve, [{"point": "infinity", "mult": mult}])
    with pytest.raises(InputError, match="bad point literal"):
        divisor_from_json(curve, [{"point": {"y": 1}, "mult": 1.5}])
    with pytest.raises(InputError):
        curve_from_json({"f": [1, 0, 1]})
