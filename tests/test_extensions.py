import json
import random
from fractions import Fraction
from itertools import product

import pytest

from curvext import (Divisor, ExhaustionError, ExtensionClass,
                     FieldDescriptor, InputError, Matrix, MembershipError,
                     Poly, PrimeField, RationalFunction,
                     boundary_matrix, brute_force_destabilizer,
                     class_from_json, class_to_json, datum_from_json,
                     datum_to_json, det_test, enumerate_closed_points,
                     make_curve, make_datum, prop1_certificate, rank,
                     search_semistable, subspace_from_json, valuation)
from helpers import (all_classes, chain_datum, curve_g1_f5, curve_g1_q,
                     curve_g1w_f3, curve_g2_f3, curve_g2_f9, datum_on_infinity,
                     frac_det, half_class_helper)


def test_datum_validation():
    curve = curve_g1_f5()
    inf = curve.infinity()
    P = curve.point(0, 1)
    with pytest.raises(InputError):                      # odd degree
        make_datum(curve, Divisor(curve, [(P, 1)]), Divisor(curve, []))
    with pytest.raises(InputError):                      # deg M off by one
        make_datum(curve, curve.infinity_divisor(2), curve.infinity_divisor(2))
    with pytest.raises(InputError):                      # 2M !~ N + K
        make_datum(curve, curve.infinity_divisor(2),
                   Divisor(curve, [(P, 1)]))
    with pytest.raises(InputError):                      # principal N at n = 0
        make_datum(curve, Divisor(curve, []), Divisor(curve, []))

    datum = datum_on_infinity(curve, 4)
    assert (datum.n, datum.m, datum.class_dim) == (4, 2, 4)
    assert datum.L == curve.canonical_divisor() - datum.M
    # the identification witness u is exact: div(u) = 2M - N - K
    target = 2 * datum.M - datum.N - curve.canonical_divisor()
    for pt, mult in target.items:
        assert valuation(datum.u, pt) == mult
    assert target.is_zero()                              # here M = (n/2)*inf
    assert datum.u == RationalFunction.one(curve)


def test_witness_valuations_on_mixed_support():
    curve = curve_g2_f3()
    datum = chain_datum(curve, 4)
    target = 2 * datum.M - datum.N - curve.canonical_divisor()
    assert target.degree == 0 and not target.is_zero()
    for pt, mult in target.items:
        assert valuation(datum.u, pt) == mult


def test_nontrivial_class_group_obstruction():
    """n = 0 needs N nonprincipal AND 2-divisible; on y^2 = x^3 + x over
    F_5 the class group is 2-torsion, so no valid n = 0 datum exists
    with N = 2B for nonprincipal 2B, while y^2 = x^3 + 1 admits one."""
    c2 = curve_g1_f5()
    P = c2.point(0, 1)
    B = Divisor(c2, [(P, 1), (c2.infinity(), -1)])
    datum = make_datum(c2, *half_class_helper(c2, B))
    assert datum.n == 0 and datum.class_dim == 0 and datum.m == 0
    # empty boundary matrix: det is the empty product, every class passes
    e = ExtensionClass.zero(datum)
    assert det_test(e)
    res = brute_force_destabilizer(e)
    assert not res.found and res.complete and res.examined == 0

    c1 = curve_g1w_f3()
    W = c1.point(0, 0)
    Bw = Divisor(c1, [(W, 1), (c1.infinity(), -1)])      # 2-torsion class
    with pytest.raises(InputError):
        make_datum(c1, 2 * Bw, Bw)                       # 2B is principal


def _class_sample(F, dim, rng, count):
    """The first nine classes in payload-lex order, then a seeded
    sample; over Q, small fractions."""
    if F.order() is None:
        return [[F.coerce(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
                 for _ in range(dim)] for _ in range(count)]
    pool = list(F.iter_payloads())
    return (list(product(pool, repeat=dim))[:9]
            + [[rng.choice(pool) for _ in range(dim)] for _ in range(count)])


def test_pair_tensor_matches_boundary_matrix():
    """The tensor contraction (the field's dots map over the tensor
    columns on or above the diagonal) and the direct route (the class
    paired with the L(N+K) coordinates of each s_i t_j u') must give the
    same boundary matrix: F5 and F3 through the packed prime-field
    kernel, F9 and Q through one inner product per entry, and m up to
    4."""
    rng = random.Random(17)
    cases = [(curve_g1_f5(), 4, 2), (curve_g2_f3(), 2, 2),
             (curve_g2_f9(), 2, 2), (curve_g1_q(), 4, 2),
             (curve_g1_f5(), 6, 3), (curve_g2_f3(), 6, 3),
             (curve_g1w_f3(), 8, 4)]
    for curve, n, m in cases:
        datum = datum_on_infinity(curve, n)
        assert datum.m == m
        T = datum.pair_tensor()
        assert len(T) == m
        for i in range(m):
            for j in range(m):
                assert T[i][j] is T[j][i]
        F = curve.field
        for coords in _class_sample(F, datum.class_dim, rng, 24):
            e = ExtensionClass(datum, coords)
            direct = boundary_matrix(e).matrix
            fast = datum.boundary_payload_rows(list(e.coords))
            assert [list(r) for r in direct.rows] == fast
            assert det_test(e) == (not F.is_zero(datum.det_payload(list(e.coords))))


def test_det_payload_at_m_4_matches_the_fraction_oracle():
    """m = 4 leaves the closed forms (PrimeField.det's 2x2-minor Laplace
    expansion): 500 seeded classes of g1w/F3 at n = 8, each determinant
    against frac_det of the boundary rows reduced mod 3."""
    curve = curve_g1w_f3()
    datum = datum_on_infinity(curve, 8)
    assert datum.m == 4
    rng = random.Random(20)
    nonzero = 0
    for _ in range(500):
        coords = tuple(rng.randrange(3) for _ in range(datum.class_dim))
        d = datum.det_payload(coords)
        assert d == frac_det(datum.boundary_payload_rows(coords)) % 3
        nonzero += d != 0
    assert 0 < nonzero < 500
    T = datum.pair_tensor()
    assert all(T[i][j] is T[j][i] for i in range(4) for j in range(4))


def test_det_payload_over_large_primes_matches_the_forward_pass():
    """y^2 = x^3 + x + 1 over F_65521 (64-bit packed slots at these
    widths) and F_{2^61-1} (past 64 bits: one dot per column), at m = 1,
    2 and 5: the boundary rows are canonical and equal the direct
    pairing, and det_payload is the base class forward pass on them,
    in [0, p) at m = 1 too."""
    rng = random.Random(22)
    for p in (65521, 2 ** 61 - 1):
        F = PrimeField(p)
        curve = make_curve(F, [1, 1, 0, 1])
        for n, m in ((2, 1), (4, 2), (10, 5)):
            datum = datum_on_infinity(curve, n)
            assert datum.m == m
            for trial in range(12):
                coords = [rng.randrange(p) for _ in range(datum.class_dim)]
                if trial == 0:
                    coords = [p - 1] * datum.class_dim
                rows = datum.boundary_payload_rows(coords)
                assert all(0 <= v < p for row in rows for v in row)
                if trial < 2:
                    e = ExtensionClass(datum, coords)
                    assert [list(r) for r in boundary_matrix(e).matrix.rows] \
                        == rows
                d = datum.det_payload(coords)
                assert 0 <= d < p
                assert d == FieldDescriptor.det(
                    F, [v for row in rows for v in row], m)


def test_det_scales_like_a_degree_m_form():
    curve = curve_g1_f5()
    datum = datum_on_infinity(curve, 4)                  # m = 2
    F = curve.field
    e = ExtensionClass(datum, [1, 2, 3, 4])
    d = datum.det_payload(list(e.coords))
    for lam in range(2, 5):
        scaled = [F.mul(F.coerce(lam), c) for c in e.coords]
        want = F.mul(F.coerce(lam ** datum.m), d)
        assert datum.det_payload(scaled) == want


def test_extension_class_contract():
    """A class is its payload coordinates: evaluate pairs them with the
    function's L(N+K) coordinates, and the length is checked."""
    curve = curve_g1_f5()
    datum = datum_on_infinity(curve, 4)
    F = curve.field
    B = datum.basis_NK
    e = ExtensionClass(datum, [1, 2, 0, 4])
    assert e.coords == (1, 2, 0, 4)
    fn = B.basis[0] + B.basis[1] * 3 + B.basis[3]
    assert datum.nk_coordinates(fn) == (1, 3, 0, 1)
    assert e.evaluate(fn) == F.coerce(1 * 1 + 2 * 3 + 4 * 1)
    x = RationalFunction.x(curve)
    with pytest.raises(MembershipError):                 # pole order 6 > 4
        e.evaluate(x * x * x)
    assert not e.is_zero()
    assert ExtensionClass.zero(datum).is_zero()
    assert ExtensionClass(datum, [0, 5, 0, -5]).is_zero()
    same = ExtensionClass(datum, [6, 2, 5, -1])
    assert same == e and hash(same) == hash(e)
    assert e != ExtensionClass(datum, [1, 2, 0, 3])
    # classes of different data never compare equal, even on equal coords
    assert e != ExtensionClass(datum_on_infinity(curve, 4), e.coords)
    with pytest.raises(InputError, match="need 4 coordinates, got 3"):
        ExtensionClass(datum, [1, 2, 0])


def test_booleans_are_refused_at_every_door():
    """A bool passed where field values go is refused with one message at
    every entry point that takes caller values, never read as 0 or 1:
    each goes through the descriptor's coerce.  A JSON true is refused by
    every descriptor's JSON reader as well."""
    curve = curve_g1_f5()
    F5 = curve.field
    F9 = curve_g2_f9().field
    datum = datum_on_infinity(curve, 4)
    doors = [lambda v: Matrix(F5, [[1, 0], [v, 1]]),
             lambda v: ExtensionClass(datum, [v, 0, 0, 0]),
             lambda v: Poly.from_values(F5, [1, v]),
             lambda v: Poly(F5, [1, 1]).evaluate(v),
             lambda v: RationalFunction.x(curve) * v]
    for F in (curve_g1_q().field, F5, F9):
        doors += [F.coerce, F.payload_from_json]
    for door in doors:
        with pytest.raises(InputError) as info:
            door(True)
        assert str(info.value) == "booleans are not field values"
    with pytest.raises(InputError) as info:
        F9.payload_from_json([True, 0])
    assert str(info.value) == "booleans are not field values"


def test_exhaustive_equivalences_small():
    """All 9 classes of the n = 2 datum over F_3: det nonvanishing,
    certification, and absence of destabilizers coincide."""
    curve = curve_g1w_f3()
    datum = datum_on_infinity(curve, 2)
    assert (datum.m, datum.class_dim) == (1, 2)
    seen_cert = seen_destab = 0
    for e in all_classes(datum):
        d = det_test(e)
        cert = prop1_certificate(e)
        destab = brute_force_destabilizer(e)
        assert destab.complete and destab.bound == 0
        assert cert.certified == d
        assert cert.status in ("certified-semistable", "inconclusive")
        if d:
            assert not destab.found
            seen_cert += 1
        if destab.found:
            assert destab.witness.is_zero()              # D = 0 kills e = 0
            assert e.is_zero()
            seen_destab += 1
    assert seen_cert > 0 and seen_destab == 1


def test_prop1_invariance_under_representative_shift():
    """Shifting L' by a principal divisor changes nothing: the twist
    witness absorbs div(h)."""
    curve = curve_g1_f5()
    datum = datum_on_infinity(curve, 2)
    x = RationalFunction.x(curve)
    pts = enumerate_closed_points(curve, 2)
    shift = Divisor(curve, [(pt, valuation(x, pt)) for pt in pts
                            if valuation(x, pt)])
    assert shift.degree == 0
    for coords in [(1, 0), (0, 1), (1, 4), (2, 3)]:
        e = ExtensionClass(datum, coords)
        base = prop1_certificate(e)
        shifted = prop1_certificate(e, datum.L + shift, datum.M)
        assert shifted.certified == base.certified
        assert shifted.rank == base.rank
        both = prop1_certificate(e, datum.L + shift, datum.M + shift)
        assert both.certified == base.certified


def test_unbalanced_twist_mechanics():
    curve = curve_g1_f5()
    datum = datum_on_infinity(curve, 2)
    P = curve.point(0, 1)
    Lp = datum.L + Divisor(curve, [(P, 1)])
    Mp = datum.M + Divisor(curve, [(P, 1)])
    e = ExtensionClass(datum, (1, 1))
    B = boundary_matrix(e, Lp, Mp)
    assert B.matrix.nrows == B.row_basis.dim
    assert B.matrix.ncols == B.col_basis.dim
    # div(u') = M' - L' - N exactly, checked on its support
    target = Mp - Lp - datum.N
    for pt, mult in target.items:
        assert valuation(B.witness, pt) == mult
    cert = prop1_certificate(e, Lp, Mp)
    assert cert.rank == rank(B.matrix)
    assert cert.rows == B.matrix.nrows and cert.cols == B.matrix.ncols
    with pytest.raises(InputError):
        prop1_certificate(e, Mp + datum.N, datum.M)      # deg L' > deg M'
    with pytest.raises(InputError):
        boundary_matrix(e, datum.L + curve.infinity_divisor(1), datum.M)


def test_invalid_twists_are_refused_alike():
    """Each invalid twist (L', M') gets the same refusal from the boundary
    map and the Prop. 1 certificate: first the degree of M' - L' against
    n, then its class against N."""
    curve = curve_g1_f5()
    datum = datum_on_infinity(curve, 2)
    inf = curve.infinity_divisor(1)
    P = Divisor(curve, [(curve.point(0, 1), 1)])
    e = ExtensionClass(datum, (1, 1))
    cases = [(datum.L + inf, datum.M, "deg(M') - deg(L') = 1 != n = 2"),
             (datum.L - inf, datum.M, "deg(M') - deg(L') = 3 != n = 2"),
             (datum.L, datum.M - inf + P,
              "M' - L' is not linearly equivalent to N")]
    for Lp, Mp, want in cases:
        for entry in (boundary_matrix, prop1_certificate):
            with pytest.raises(InputError) as exc:
                entry(e, Lp, Mp)
            assert str(exc.value) == want, entry.__name__


def test_a_reversed_twist_is_refused_before_its_degree():
    """deg L' > deg M' is refused as such by both twisted entry points,
    ahead of the degree and class checks."""
    curve = curve_g1_f5()
    datum = datum_on_infinity(curve, 2)
    e = ExtensionClass(datum, (1, 1))
    for entry in (boundary_matrix, prop1_certificate):
        with pytest.raises(InputError, match="need deg L' <= deg M'"):
            entry(e, datum.M + datum.N, datum.M)


def test_destabilizer_domain_semantics():
    curve = curve_g1_f5()
    datum = datum_on_infinity(curve, 4)                  # delta = 4, bound 1
    zero = ExtensionClass.zero(datum)
    res = brute_force_destabilizer(zero)
    assert res.found and res.complete and res.bound == 1
    capped = brute_force_destabilizer(zero, max_degree=0)
    assert capped.found and not capped.complete          # cap below the bound
    with pytest.raises(InputError, match="degree cap must be nonnegative"):
        brute_force_destabilizer(zero, max_degree=-3)
    # explicit candidate domain disables the completeness claim
    dom = brute_force_destabilizer(zero, points=[curve.infinity()])
    assert dom.found and not dom.complete

    qcurve = curve_g1_q()
    qdatum = datum_on_infinity(qcurve, 4)
    qzero = ExtensionClass.zero(qdatum)
    with pytest.raises(InputError):                      # infinite field, no domain
        brute_force_destabilizer(qzero)
    qres = brute_force_destabilizer(qzero, points=[qcurve.infinity(),
                                                   qcurve.point(0, 1)])
    assert qres.found and not qres.complete


def test_search_shell_order_and_exhaustion():
    curve = curve_g1_f5()
    datum = datum_on_infinity(curve, 2)
    F = curve.field
    V = [ExtensionClass(datum, (1, 0)), ExtensionClass(datum, (0, 1))]
    res = search_semistable(V)
    assert det_test(res.witness)
    assert res.box == datum.m
    r = max(abs(t) for t in res.coefficients)
    # minimality: every candidate in smaller shells fails the det test
    for tup in product(range(-(r - 1), r), repeat=2):
        coords = [F.pzero] * datum.class_dim
        for ni, e in zip(tup, V):
            c = F.coerce(ni)
            coords = [F.add(a, F.mul(c, v)) for a, v in zip(coords, e.coords)]
        assert F.is_zero(datum.det_payload(coords))
    # witness coords really are the stated combination
    want = [F.pzero] * datum.class_dim
    for ni, e in zip(res.coefficients, V):
        c = F.coerce(ni)
        want = [F.add(a, F.mul(c, v)) for a, v in zip(want, e.coords)]
    assert list(res.witness.coords) == want

    # a subspace inside the kernel of the det form can only exhaust
    T0 = datum.pair_tensor()[0][0]
    dead = None
    for coords in product(F.iter_payloads(), repeat=datum.class_dim):
        if any(not F.is_zero(c) for c in coords) and \
           F.is_zero(datum.det_payload(list(coords))):
            dead = coords
            break
    assert dead is not None, T0
    with pytest.raises(ExhaustionError):
        search_semistable([ExtensionClass(datum, dead)])


def test_search_input_guards():
    curve = curve_g1_f5()
    datum = datum_on_infinity(curve, 2)
    with pytest.raises(InputError):
        search_semistable([])
    e = ExtensionClass(datum, (1, 2))
    with pytest.raises(InputError):                      # dependent family
        search_semistable([e, ExtensionClass(datum, (2, 4))])
    other = datum_on_infinity(curve_g1w_f3(), 2)
    with pytest.raises(InputError):
        search_semistable([e, ExtensionClass(other, (1, 0))])


def test_json_round_trips(tmp_path):
    curve = curve_g2_f3()
    datum = chain_datum(curve, 4)
    back = datum_from_json(datum_to_json(datum))
    assert back.curve == datum.curve
    assert back.N == datum.N and back.M == datum.M
    e = ExtensionClass(datum, [1, 2, 0, 1, 2])
    e2 = class_from_json(class_to_json(e))
    assert e2.coords == e.coords and e2.datum.N == datum.N

    # curve may live in its own file, resolved relative to base_dir
    from curvext import curve_to_json
    (tmp_path / "curve.json").write_text(json.dumps(curve_to_json(curve)))
    obj = datum_to_json(datum)
    obj["curve"] = "curve.json"
    back2 = datum_from_json(obj, base_dir=str(tmp_path))
    assert back2.curve == curve and back2.M == datum.M

    datum2, V = subspace_from_json(
        {"datum": datum_to_json(datum), "V": [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]})
    assert len(V) == 2 and V[0].datum is datum2
    with pytest.raises(InputError):
        class_from_json({"datum": datum_to_json(datum), "e": "nope"})
    with pytest.raises(InputError):
        datum_from_json({"N": [], "M": []})
