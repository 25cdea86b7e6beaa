import itertools
import random
import threading
from decimal import Decimal, localcontext
from fractions import Fraction

import mpmath
import pytest

from curvext import (BoundInputs, Divisor, ExtensionClass, ExtensionDatum,
                     ExtensionField, InputError, InternalError, Matrix,
                     NotApplicable, PrimeField,
                     brute_force_destabilizer, clifford_sandwich, compute_m,
                     det_test, enumerate_closed_points, make_curve,
                     make_datum, offsecant_experiment, rank, sample_subspace,
                     secant_member, secant_table, theorem1_delta0,
                     theorem2_bound)
from helpers import (all_classes, chain_datum, curve_g1_f5, curve_g1_q,
                     curve_g1w_f3, curve_g2_f3, curve_g2_f5, curve_g2_f9,
                     datum_on_infinity, destabilizer_by_rr_basis,
                     evaluation_class,
                     secant_member_by_rr_basis, secant_table_by_kernel,
                     skew_reverification)


# ---------------------------------------------------------------------------
# independent 60-digit oracle, written before anything it checks
# ---------------------------------------------------------------------------

def oracle_A_and_bound(n, g, m, degF, c1sq):
    """A = 1/(n degF) + ln(m (n+g-1)) and c1sq/(2 n degF) - A, via mpmath
    at 60 decimal digits."""
    c = Fraction(c1sq)
    with mpmath.workdps(60):
        A = mpmath.mpf(1) / (n * degF) + mpmath.log(m * (n + g - 1))
        bound = mpmath.mpf(c.numerator) / c.denominator / (2 * n * degF) - A
        return A, bound


def assert_close_to_oracle(reported: str, want, ulp: str):
    with mpmath.workdps(60):
        assert mpmath.fabs(mpmath.mpf(reported) - want) <= mpmath.mpf(ulp)


# ---------------------------------------------------------------------------
# numeric bound calculators
# ---------------------------------------------------------------------------

ORACLE_GRID = [
    # n, g, m, degF, c1sq, k
    (2, 1, 1, 1, "3/7", 2),
    (4, 2, 2, 1, 0, 4),
    (6, 3, 3, 2, "22/7", 7),
    (10, 1, 5, 3, "-5/3", 6),
    (8, 4, 7, 1, 100, 9),
]


@pytest.mark.parametrize("n,g,m,degF,c1sq,k", ORACLE_GRID)
def test_theorem2_matches_log_oracle(n, g, m, degF, c1sq, k):
    r = theorem2_bound(BoundInputs(n=n, g=g, m=m, degF=degF, c1sq=c1sq, k=k))
    A_want, bound_want = oracle_A_and_bound(n, g, m, degF, c1sq)
    assert_close_to_oracle(r.A, A_want, r.ulp)
    assert_close_to_oracle(r.bound, bound_want, r.ulp)
    assert len(r.A.replace("-", "").replace(".", "").lstrip("0")) >= 50 \
        or "E" in r.A
    assert r.A_rational == Fraction(1, n * degF)
    assert r.bound_rational == Fraction(c1sq) / (2 * n * degF) - Fraction(1, n * degF)
    assert r.log_argument == m * (n + g - 1)


def test_theorem2_pinned_example():
    """(n, degF, g, m, c1sq) = (4, 1, 2, 2, 0): A = 1/4 + ln 10 and the
    bound is exactly -A, digit for digit."""
    r = theorem2_bound(BoundInputs(n=4, g=2, m=2, degF=1, c1sq=0, k=4))
    A_want, _ = oracle_A_and_bound(4, 2, 2, 1, 0)
    assert_close_to_oracle(r.A, A_want, r.ulp)
    assert r.bound == "-" + r.A
    assert r.A.startswith("2.552585092994045684")
    assert r.A_rational == Fraction(1, 4)
    assert r.bound_rational == Fraction(-1, 4)
    assert r.log_argument == 10


def test_theorem2_linearity_in_c1sq():
    base = BoundInputs(n=4, g=2, m=2, degF=1, c1sq=0, k=4)
    r0 = theorem2_bound(base)
    for c in (Fraction(1), Fraction(16), Fraction(-7, 3), Fraction(355, 113)):
        rc = theorem2_bound(BoundInputs(n=4, g=2, m=2, degF=1, c1sq=c, k=4))
        # the exact rational parts carry the linearity with no error at all
        assert rc.bound_rational - r0.bound_rational == c / 8
        assert rc.A_rational == r0.A_rational
        assert rc.A == r0.A                   # A does not depend on c1sq
        with localcontext() as ctx:
            ctx.prec = 60
            drift = (Decimal(rc.bound) - Decimal(r0.bound)
                     - Decimal(c.numerator) / Decimal(c.denominator) / 8)
            assert abs(drift) <= 2 * Decimal(rc.ulp)


def test_theorem2_gate_and_input_guards():
    ok = dict(n=4, g=2, m=2, degF=1, c1sq=0)
    assert BoundInputs(k=4, **ok).gate == 4
    for k in (1, 2, 3):
        with pytest.raises(NotApplicable):
            theorem2_bound(BoundInputs(k=k, **ok))
    with pytest.raises(InputError):
        BoundInputs(k=6, **ok)                # above lattice rank n+g-1 = 5
    with pytest.raises(InputError):
        BoundInputs(n=4, g=2, m=2, degF=1, c1sq=0.5, k=4)   # float forbidden
    for bad in ("x", "1/0", True):
        with pytest.raises(InputError, match="c1sq"):
            BoundInputs(n=4, g=2, m=2, degF=1, c1sq=bad, k=4)
    # a decimal string is read exactly, not through a float
    assert BoundInputs(k=4, **dict(ok, c1sq="0.1")).c1sq == Fraction(1, 10)
    with pytest.raises(InputError):
        BoundInputs(n=4, g=2, m=5, degF=1, c1sq=0, k=4)     # m over the sandwich
    with pytest.raises(InputError):
        BoundInputs(n=3, g=2, m=2, degF=1, c1sq=0, k=4)     # odd n
    with pytest.raises(InputError):
        BoundInputs(n=4, g=2, m=2, degF=0, c1sq=0, k=4)


def test_delta0_closed_form_sweep():
    """delta0 = d + g whenever n = 2d+2 > 2g-2 and m = n/2."""
    for g in range(0, 5):
        for n in range(2, 13, 2):
            if n <= 2 * g - 2:
                continue
            d = n // 2 - 1
            assert theorem1_delta0(n, g, n // 2) == d + g
    assert theorem1_delta0(4, 2, 3) == 4 - 3 + 2 - 1
    with pytest.raises(InputError):
        theorem1_delta0(4, 1, 4)              # m outside [2, 2]
    with pytest.raises(InputError):
        theorem1_delta0(5, 1, 2)


def test_clifford_sandwich_values_and_guards():
    assert clifford_sandwich(6, 1) == (3, 3)
    assert clifford_sandwich(6, 3) == (3, 5)
    assert clifford_sandwich(2, 0) == (1, 1)
    with pytest.raises(InputError):
        clifford_sandwich(0, 1)
    with pytest.raises(InputError):
        clifford_sandwich(3, 1)
    with pytest.raises(InputError):
        clifford_sandwich(4, -1)


def test_compute_m_is_h0():
    curve = curve_g1_f5()
    for n in (2, 4, 6):
        datum = datum_on_infinity(curve, n)
        assert compute_m(curve, datum.M) == datum.m == n // 2


# ---------------------------------------------------------------------------
# secant membership
# ---------------------------------------------------------------------------

def test_point_evaluation_lies_on_the_first_secant():
    curve = curve_g1_f5()
    datum = datum_on_infinity(curve, 4)       # d defaults to 1
    P = curve.point(2, 2)
    e = evaluation_class(datum, P)
    res = secant_member(e)
    assert res.found and res.complete and res.bound == 1
    assert res.witness == Divisor(curve, [(P, 1)])


def test_secant_membership_matches_table_exhaustively():
    curve = curve_g1w_f3()
    datum = datum_on_infinity(curve, 4)
    table = secant_table(datum, 1)
    hits = 0
    for e in all_classes(datum):
        member = secant_member(e).found
        assert member == (tuple(e.coords) in table)
        hits += member
    assert hits == len(table)
    assert tuple([curve.field.pzero] * datum.class_dim) in table
    # soundness direction: a certified class is never on the secant
    for e in all_classes(datum):
        if det_test(e):
            assert tuple(e.coords) not in table


@pytest.mark.parametrize("make", [datum_on_infinity, chain_datum])
def test_secant_witness_is_the_default_destabilizer(make):
    """At d = n/2 - 1 secant membership is the destabilizer search on the
    datum's own pair: same witness, same divisor count, for every class.
    chain_datum has a nonconstant u, so the twist multiplier is live."""
    datum = make(curve_g1w_f3(), 4)
    members = 0
    for e in all_classes(datum):
        sec = secant_member(e)
        dst = brute_force_destabilizer(e)
        assert (sec.witness, sec.examined, sec.complete) == \
               (dst.witness, dst.examined, dst.complete)
        members += sec.found
    assert 0 < members < datum.curve.field.order() ** datum.class_dim


def assert_scans_match_the_oracle(e, d=None, points=None):
    """secant_member and brute_force_destabilizer give the per-divisor
    oracle's (witness, examined); returns the secant witness."""
    sec = secant_member(e, d, points=points)
    assert (sec.witness, sec.examined) == \
        secant_member_by_rr_basis(e, d, points=points)
    dst = brute_force_destabilizer(e, points=points)
    assert (dst.witness, dst.examined) == \
        destabilizer_by_rr_basis(e, points=points)
    return sec.witness


@pytest.mark.parametrize("make", [datum_on_infinity, chain_datum])
@pytest.mark.parametrize("make_curve_", [curve_g1w_f3, curve_g2_f3])
def test_row_span_scan_matches_the_rr_basis_oracle(make, make_curve_):
    """Every class of the fixture: the row-span test finds the witness and
    divisor count that one Riemann-Roch basis per divisor finds."""
    datum = make(make_curve_(), 4)
    members = sum(assert_scans_match_the_oracle(e) is not None
                  for e in all_classes(datum))
    assert 0 < members < datum.curve.field.order() ** datum.class_dim


def test_row_span_scan_over_f25_and_q():
    """Sampled classes over F25, members among them, and explicit point
    domains over Q."""
    rng = random.Random(5)
    F25 = ExtensionField(5, [2, 0, 1])
    curve = make_curve(F25, [1, 1, 0, 0, 0, 1])
    datum = datum_on_infinity(curve, 4)
    payloads = list(F25.iter_payloads())
    points = [pt for pt in enumerate_closed_points(curve, 1)
              if pt.kind == "split"]
    classes = [ExtensionClass(datum, [rng.choice(payloads)
                                      for _ in range(datum.class_dim)])
               for _ in range(6)]
    classes += [evaluation_class(datum, pt) for pt in rng.sample(points, 3)]
    witnesses = list(map(assert_scans_match_the_oracle, classes))
    assert sum(w is not None for w in witnesses) == 3

    qcurve = curve_g1_q()
    qdatum = datum_on_infinity(qcurve, 4)
    pts = [qcurve.infinity(), qcurve.point(-1, 0), qcurve.point(0, 1),
           qcurve.point(2, 3), qcurve.point(2, -3)]
    P, R = evaluation_class(qdatum, pts[3]), evaluation_class(qdatum, pts[2])
    qclasses = [P, R, ExtensionClass(qdatum, [1, -2, 3, 1]),
                ExtensionClass(qdatum, [a + 2 * b for a, b in
                                        zip(P.coords, R.coords)])]
    for e in qclasses:
        for d in (1, 2):
            assert_scans_match_the_oracle(e, d=d, points=pts)
    assert secant_member(P, points=pts).witness == Divisor(qcurve,
                                                           [(pts[3], 1)])


def test_row_span_scan_with_raised_precision():
    """N with affine support of both signs, so that N+K asks the
    numerator to vanish at places D meets: at the conjugate of P the
    precision is 4 before D raises it, and d = 2 reaches doubled points
    and places of degree 2."""
    curve = curve_g1_f5()
    P = curve.point(2, 2)
    Pc, inf = P.conjugate(), curve.infinity()
    datum = make_datum(curve, Divisor(curve, [(P, 3), (Pc, -1), (inf, 2)]),
                       Divisor(curve, [(P, 2)]))
    rng = random.Random(3)
    classes = list(all_classes(datum))
    witnesses = [assert_scans_match_the_oracle(e) for e in classes]
    assert Divisor(curve, [(Pc, 1)]) in witnesses
    assert sum(w is not None for w in witnesses) == len(secant_table(datum, 1))
    assert secant_table(datum, 1) == secant_table_by_kernel(datum, 1)
    witnesses = [assert_scans_match_the_oracle(e, d=2)
                 for e in rng.sample(classes, 12)]
    assert any(D is not None and D.degree == 2 for D in witnesses)


def test_secant_tables_match_the_kernel_oracle():
    """The criterion-4 fixtures on both data; chain_datum needs the point
    (0, 0), which y^2 = x^3+1 over F5 lacks."""
    fixtures = [(curve_g1w_f3, 2), (curve_g1w_f3, 4), (curve_g2_f3, 4),
                (curve_g2_f3, 6), (curve_g1_f5, 2), (curve_g1_f5, 4),
                (curve_g2_f5, 4), (curve_g2_f5, 6)]
    for make_curve_, n in fixtures:
        makers = [datum_on_infinity]
        if make_curve_ is not curve_g1_f5:
            makers.append(chain_datum)
        for make in makers:
            datum = make(make_curve_(), n)
            d = n // 2 - 1
            assert secant_table(datum, d) == secant_table_by_kernel(datum, d)


def test_tables_over_a_field_too_large_to_list():
    """Over F_p, p = 2**64 - 59, Sigma_0 is the zero class alone and
    lists no field element; Sigma_1 and the experiment need every
    element as a coefficient, and are refused before any list is built."""
    F = PrimeField(2 ** 64 - 59)
    datum = datum_on_infinity(make_curve(F, [1, 1, 0, 0, 0, 1]), 2)
    assert secant_table(datum, 0) == {(0,) * datum.class_dim}
    assert not secant_member(ExtensionClass(datum, [1, 0, 0])).found
    with pytest.raises(InputError, match="elements to list"):
        secant_table(datum, 1)
    with pytest.raises(InputError, match="elements to list"):
        offsecant_experiment(datum, 1, 1)


def test_scans_build_one_basis_per_hit():
    """The scan reads rows on L(N+K) coordinates: a miss leaves the
    Riemann-Roch cache as it was, and a hit adds exactly the basis the
    re-verifier reads, L(N+K-D) for the witness D."""
    curve = curve_g1_f5()
    datum = datum_on_infinity(curve, 4)
    NK = datum.N + curve.canonical_divisor()
    P, R = curve.point(2, 2), curve.point(0, 1)
    off = ExtensionClass(datum, [a + b for a, b in zip(
        evaluation_class(datum, P).coords, evaluation_class(datum, R).coords)])
    before = set(curve._rr_cache)
    assert not secant_member(off).found
    assert not brute_force_destabilizer(off).found
    assert set(curve._rr_cache) == before
    res = secant_member(evaluation_class(datum, P))
    assert res.witness == Divisor(curve, [(P, 1)])
    assert set(curve._rr_cache) - before == {(NK - res.witness).key()}


def test_witness_hits_are_reverified(monkeypatch):
    """The re-verifier recomputes coordinates on its own; if that
    recomputation disagrees with the scan, a hit raises instead of being
    returned."""
    curve = curve_g1_f5()
    datum = datum_on_infinity(curve, 4)
    e = evaluation_class(datum, curve.point(2, 2))
    assert secant_member(e).found and brute_force_destabilizer(e).found
    j = next(i for i, c in enumerate(e.coords) if c)
    skew_reverification(monkeypatch, j)
    with pytest.raises(InternalError, match="re-verification"):
        secant_member(e)
    with pytest.raises(InternalError, match="re-verification"):
        brute_force_destabilizer(e)


def test_secant_guards_and_explicit_domains():
    curve = curve_g1_f5()
    datum = datum_on_infinity(curve, 4)
    e = ExtensionClass.zero(datum)
    with pytest.raises(InputError):
        secant_member(e, d=-1)
    qcurve = curve_g1_q()
    qdatum = datum_on_infinity(qcurve, 4)
    qP = qcurve.point(2, 3)
    qe = evaluation_class(qdatum, qP)
    with pytest.raises(InputError):           # infinite field, no domain
        secant_member(qe)
    res = secant_member(qe, points=[qP, qcurve.point(0, 1)])
    assert res.found and not res.complete
    assert res.witness == Divisor(qcurve, [(qP, 1)])
    with pytest.raises(InputError, match="secant tables need a finite base field"):
        secant_table(qdatum, 1)


# ---------------------------------------------------------------------------
# seeded subspaces and the off-secant experiment
# ---------------------------------------------------------------------------

def test_sample_subspace_is_seeded_and_full_rank():
    curve = curve_g1_f5()
    datum = datum_on_infinity(curve, 4)
    a = sample_subspace(datum, 3, seed=11)
    b = sample_subspace(datum, 3, seed=11)
    assert [e.coords for e in a] == [e.coords for e in b]
    c = sample_subspace(datum, 3, seed=12)
    assert [e.coords for e in a] != [e.coords for e in c]
    with pytest.raises(InputError):
        sample_subspace(datum, 0, seed=1)
    with pytest.raises(InputError):
        sample_subspace(datum, datum.class_dim + 1, seed=1)

    qdatum = datum_on_infinity(curve_g1_q(), 4)
    frame = sample_subspace(qdatum, 2, seed=5)
    for e in frame:
        for v in e.coords:
            assert v.denominator == 1 and abs(v) <= 9


def test_offsecant_experiment_reports():
    curve = curve_g1_f5()
    datum = datum_on_infinity(curve, 4)
    table = secant_table(datum, 1)
    rpt = offsecant_experiment(datum, s=4, trials=5, seed=3)
    assert (rpt.q, rpt.n, rpt.g, rpt.m, rpt.s, rpt.d) == (5, 4, 1, 2, 4, 1)
    assert rpt.hypothesis_met                 # 4 >= n - m + g = 3
    assert rpt.successes == 5 and rpt.failures == 0
    assert rpt.violations == 0
    assert [o.trial for o in rpt.outcomes] == list(range(5))
    for o in rpt.outcomes:
        assert o.success and o.witness not in table

    low = offsecant_experiment(datum, s=1, trials=4, seed=3)
    assert not low.hypothesis_met             # recorded, not enforced
    assert low.successes + low.failures == 4


def test_subspace_and_experiment_over_f9():
    """Frames over F_{p^k} draw one base-field digit per coordinate of a
    payload: seeded, full rank and valid F9 payloads; the experiment on
    them is reproducible and its witnesses lie off the kernel-built
    secant table."""
    datum = datum_on_infinity(curve_g2_f9(), 4)
    F = datum.curve.field
    frame = sample_subspace(datum, 3, seed=11)
    assert [e.coords for e in frame] == \
        [e.coords for e in sample_subspace(datum, 3, seed=11)]
    assert rank(Matrix(F, [e.coords for e in frame], datum.class_dim)) == 3
    payloads = set(F.iter_payloads())
    assert all(v in payloads for e in frame for v in e.coords)

    table = secant_table_by_kernel(datum, 1)
    rpt = offsecant_experiment(datum, s=4, trials=4, seed=3)
    assert rpt == offsecant_experiment(datum, s=4, trials=4, seed=3)
    assert rpt.q == 9 and rpt.hypothesis_met and rpt.violations == 0
    assert rpt.successes == 4
    for o in rpt.outcomes:
        assert o.witness not in table


def test_offsecant_experiment_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("offsecant_experiment started a thread")
    monkeypatch.setattr(threading.Thread, "start", refuse)
    datum = datum_on_infinity(curve_g1_f5(), 4)
    rpt = offsecant_experiment(datum, s=2, trials=6, seed=9)
    assert rpt.trials == 6


def test_offsecant_experiment_guards():
    curve = curve_g1_f5()
    datum = datum_on_infinity(curve, 4)
    with pytest.raises(InputError):
        offsecant_experiment(datum, s=0, trials=1)
    with pytest.raises(InputError):
        offsecant_experiment(datum, s=1, trials=0)
    with pytest.raises(InputError):
        offsecant_experiment(datum_on_infinity(curve_g1_q(), 4), s=1, trials=1)


# The draw stream, pinned as literals on every field kind: a frame over
# F_p, one over F_{p^k} (one digit per coefficient) and one over the Q
# box, and one experiment's outcomes over F9.  Seeded reports are part
# of the CLI's contract, so any change of stream must fail here.
PINNED_FRAMES = [
    (curve_g1_f5, 3, 11, [(1, 4, 2, 3), (3, 1, 2, 3), (2, 3, 2, 2)]),
    (curve_g2_f9, 3, 11,
     [((0, 2), (2, 1), (1, 1), (0, 1), (1, 1)),
      ((2, 1), (1, 1), (0, 0), (1, 1), (0, 1)),
      ((2, 0), (0, 2), (2, 0), (2, 2), (0, 2))]),
    (curve_g1_q, 2, 5, [(9, -4, -2, -6), (-7, -4, 4, 4)]),
]


@pytest.mark.parametrize("make_curve_,s,seed,want", PINNED_FRAMES)
def test_sample_subspace_stream_is_pinned(make_curve_, s, seed, want):
    frame = sample_subspace(datum_on_infinity(make_curve_(), 4), s, seed)
    assert [e.coords for e in frame] == want


def test_offsecant_experiment_stream_is_pinned_over_f9():
    rpt = offsecant_experiment(datum_on_infinity(curve_g2_f9(), 4), s=4,
                               trials=4, seed=3)
    assert [(o.trial, o.examined, o.witness) for o in rpt.outcomes] == [
        (0, 2, ((0, 0), (2, 1), (0, 2), (2, 0), (1, 1))),
        (1, 2, ((0, 2), (2, 2), (2, 1), (0, 1), (1, 0))),
        (2, 2, ((0, 2), (2, 2), (1, 1), (0, 0), (2, 1))),
        (3, 2, ((1, 0), (1, 2), (0, 0), (2, 2), (2, 0))),
    ]


def offsecant_trial_by_rr_basis(datum, frame):
    """(examined, witness, violations) of one trial on the given frame:
    V walked in lexicographic coefficient order, each class built by
    field additions and products, membership through one Riemann-Roch
    basis per divisor and the determinant through det_test."""
    F = datum.curve.field
    violations = 0
    vs = list(itertools.product(F.iter_payloads(), repeat=len(frame)))
    for examined, cs in enumerate(vs, 1):
        coords = [F.pzero] * datum.class_dim
        for c, e in zip(cs, frame):
            coords = [F.add(a, F.mul(c, b)) for a, b in zip(coords, e.coords)]
        e = ExtensionClass(datum, coords)
        if secant_member_by_rr_basis(e)[0] is None:
            return examined, e.coords, violations
        violations += det_test(e)
    return examined, None, violations


@pytest.mark.parametrize("make_curve_,s", [(curve_g1_f5, 1), (curve_g1_f5, 2),
                                           (curve_g2_f3, 2)])
def test_offsecant_trials_match_the_rr_basis_oracle(make_curve_, s):
    """One-trial experiments for seeds 0..11 against an oracle that uses
    no secant table: trial 0's frame is sample_subspace's."""
    datum = datum_on_infinity(make_curve_(), 4)
    witnessless = 0
    for seed in range(12):
        rpt = offsecant_experiment(datum, s=s, trials=1, seed=seed)
        (out,) = rpt.outcomes
        examined, witness, violations = offsecant_trial_by_rr_basis(
            datum, sample_subspace(datum, s, seed))
        assert (out.examined, out.witness, rpt.violations) == \
            (examined, witness, violations)
        assert out.success == (witness is not None)
        witnessless += witness is None
    if s == 1:
        assert witnessless > 0                # the no-witness path ran


@pytest.mark.parametrize("s", [1, 2])
def test_violations_count_every_member_examined(monkeypatch, s):
    """With a determinant that never vanishes, every secant member a
    trial examines is a violation and its final non-member is not."""
    monkeypatch.setattr(ExtensionDatum, "det_payload",
                        lambda self, coords: self.curve.field.pone)
    datum = datum_on_infinity(curve_g1_f5(), 4)
    rpt = offsecant_experiment(datum, s=s, trials=40, seed=2)
    assert rpt.violations == rpt.examined_total - rpt.successes > 0


@pytest.mark.parametrize("s", [1, 2])
def test_each_member_is_det_tested_once_per_experiment(monkeypatch, s):
    """An experiment det-tests each secant member it examines once, so at
    most len(secant_table) times, and a second experiment tests them
    afresh: nothing is kept between calls."""
    det = ExtensionDatum.det_payload
    calls = []
    monkeypatch.setattr(ExtensionDatum, "det_payload",
                        lambda self, coords: calls.append(coords) or
                        det(self, coords))
    datum = datum_on_infinity(curve_g1_f5(), 4)
    table = secant_table(datum, datum.n // 2 - 1)
    for seed in range(4):
        per_run = []
        for _ in range(2):
            calls.clear()
            rpt = offsecant_experiment(datum, s=s, trials=300, seed=seed)
            assert rpt.violations == 0
            assert len(calls) == len(set(calls)) <= len(table)
            assert set(calls) <= table
            per_run.append(list(calls))
        assert per_run[0] == per_run[1] and per_run[0]
    # the members examined outnumber the det tests, so the memo is used
    assert rpt.examined_total - rpt.successes > len(calls)
