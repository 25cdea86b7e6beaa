"""Acceptance gate: one test per shipped guarantee.

Each test prints a single "criterion N: PASS - ..." line with the
measured numbers (visible under -s; pytest -v shows one PASSED row per
criterion either way).  Runtime budgets are asserted, not just hoped
for, so a performance regression fails the gate like a wrong answer.
"""

import json
import random
import time
from fractions import Fraction
from itertools import product

import mpmath as mp
import pytest

from curvext import (BoundInputs, ExtensionClass, InputError, Matrix,
                     PrimeField, brute_force_destabilizer, class_to_json,
                     clifford_sandwich, compute_m, coordinates, curve_to_json,
                     datum_to_json, det_test, enumerate_closed_points,
                     enumerate_effective_divisors, h0, h1, kernel_basis,
                     make_curve, prop1_certificate, rr_basis, sample_subspace,
                     search_semistable, secant_member, secant_table,
                     theorem1_delta0, theorem2_bound)
from curvext.cli import main
from helpers import (curve_g1_f5, curve_g1_q, curve_g1w_f3, curve_g2_f3,
                     curve_g2_f5, curve_g2_f7, curve_g2_q, curve_g3_f5,
                     datum_on_infinity, modp_rank, random_divisor)


# ---------------------------------------------------------------------------
# 1. Riemann-Roch identity on random divisors, all five fixture curves
# ---------------------------------------------------------------------------

def _rational_points_g1(curve):
    # y^2 = x^3+1 over Q: two split fibres, the 2-torsion point, and two
    # inert fibres (f(1) = 2 and f(3) = 28 are not rational squares)
    return [curve.infinity(), curve.point(0, 1), curve.point(0, -1),
            curve.point(2, 3), curve.point(2, -3), curve.point(-1, 0),
            curve.point(1, None), curve.point(3, None)]


def _rational_points_g2(curve):
    # y^2 = x^5+x+1 over Q: f has no rational root, so besides the split
    # fibre over 0 everything here is an inert degree-2 place
    return [curve.infinity(), curve.point(0, 1), curve.point(0, -1),
            curve.point(1, None), curve.point(2, None),
            curve.point(-1, None), curve.point(3, None)]


def test_criterion_1():
    start = time.perf_counter()
    # the literal g = 2 model degenerates mod 7 (7 divides disc(x^5+x+1),
    # the reduction is not squarefree), so the F7 fixture replaces it
    # with the squarefree twin x^5+2x+1; the constructor must refuse the
    # degenerate model rather than compute on a singular curve
    with pytest.raises(InputError):
        make_curve(PrimeField(7), [1, 1, 0, 0, 0, 1])

    fixtures = [
        (curve_g1_q(), _rational_points_g1),
        (curve_g1_f5(), lambda c: enumerate_closed_points(c, 2)),
        (curve_g2_q(), _rational_points_g2),
        (curve_g2_f7(), lambda c: enumerate_closed_points(c, 2)),
        (curve_g3_f5(), lambda c: enumerate_closed_points(c, 2)),
    ]
    checked = 0
    for idx, (curve, pool_of) in enumerate(fixtures):
        g = curve.genus
        K = curve.canonical_divisor()
        pool = list(pool_of(curve))
        rng = random.Random(idx)
        for _ in range(200):
            D = random_divisor(curve, rng, pool, 4 * g + 6)
            assert h0(curve, D) - h0(curve, K - D) == D.degree - g + 1
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 200 * len(fixtures)
    assert elapsed < 60.0
    print(f"criterion 1: PASS - duality identity exact on {checked} random "
          f"divisors over 5 fixtures in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. the elliptic starting example: one-dimensional ends, two-dim middle
# ---------------------------------------------------------------------------

def test_criterion_2():
    for curve in (curve_g1_q(), curve_g1_f5()):
        datum = datum_on_infinity(curve, 2)      # N = 2A, M = A, A = inf
        assert datum.class_dim == 2
        assert h0(curve, curve.infinity_divisor(2)) == 2
        assert datum.m == 1
        assert h0(curve, datum.M) == 1
        assert h1(curve, datum.L) == 1
    print("criterion 2: PASS - dim Ext = h0(2A) = 2 with h0(M) = h1(L) = 1 "
          "on the elliptic fixture over Q and F5")


# ---------------------------------------------------------------------------
# 3. section count of the half divisor across the (n, g) grid
# ---------------------------------------------------------------------------

def test_criterion_3():
    curves = {1: curve_g1_f5(), 2: curve_g2_f3(), 3: curve_g3_f5()}
    cases = 0
    for g, curve in curves.items():
        for n in (2, 4, 6, 8, 10):
            M = curve.infinity_divisor(n // 2 + g - 1)
            m = compute_m(curve, M)
            lo, hi = clifford_sandwich(n, g)
            assert lo <= m <= hi
            if n > 2 * g - 2:
                assert m == n // 2
            cases += 1
    print(f"criterion 3: PASS - compute_m inside [n/2, n/2+g-1] in all "
          f"{cases} cases and equal to n/2 above the special range")


# ---------------------------------------------------------------------------
# 4. exhaustive soundness chain over F3 and F5
# ---------------------------------------------------------------------------

def _destabilized_classes(datum, max_deg):
    """Union over effective D of the classes annihilating u*L(N+K-D).

    Built with the plain kernel machinery so it does not share code with
    the per-class membership scan it is checked against.
    """
    curve = datum.curve
    F = curve.field
    NK = datum.N + curve.canonical_divisor()
    payloads = list(F.iter_payloads())
    killed = set()
    for D in enumerate_effective_divisors(curve, max_deg):
        rows = [coordinates(datum.u * w, datum.basis_NK)
                for w in rr_basis(curve, NK - D).basis]
        vecs = kernel_basis(Matrix(F, rows))
        for combo in product(payloads, repeat=len(vecs)):
            acc = [F.pzero] * datum.class_dim
            for t, vec in zip(combo, vecs):
                if not F.is_zero(t):
                    acc = [F.add(a, F.mul(t, v)) for a, v in zip(acc, vec)]
            killed.add(tuple(acc))
    return killed


def _chain_spot_checks(datum, table, marked):
    # the bulk loop uses the datum's payload fast path; here the public
    # per-class functions are pinned to the same answers on a sample
    # that straddles the secant locus
    F = datum.curve.field
    payloads = list(F.iter_payloads())
    ordered = sorted(table)
    sample = set(ordered[:3] + ordered[-2:])
    rng = random.Random(17)
    want = min(12, len(payloads) ** datum.class_dim)
    while len(sample) < want:
        sample.add(tuple(rng.choice(payloads)
                         for _ in range(datum.class_dim)))
    for coords in sorted(sample):
        e = ExtensionClass(datum, list(coords))
        nonzero = det_test(e)
        cert = prop1_certificate(e)
        assert (cert.status == "certified-semistable") == nonzero
        assert secant_member(e).found == (coords in table)
        res = brute_force_destabilizer(e)
        assert res.complete
        assert res.found == (coords in marked)


def test_criterion_4():
    fixtures = [(curve_g1w_f3(), 2), (curve_g1w_f3(), 4),
                (curve_g2_f3(), 4), (curve_g2_f3(), 6),
                (curve_g1_f5(), 2), (curve_g1_f5(), 4),
                (curve_g2_f5(), 4), (curve_g2_f5(), 6)]
    total = 0
    slowest = 0.0
    for curve, n in fixtures:
        t0 = time.perf_counter()
        datum = datum_on_infinity(curve, n)
        F = curve.field
        p = F.order()
        d = n // 2 - 1
        table = secant_table(datum, d)
        marked = _destabilized_classes(datum, d)
        # a destabilizer of degree <= (n-1)/2 = d is the same locus the
        # d-secant scan carves out; the two enumerations must agree
        assert marked == table

        payloads = list(F.iter_payloads())
        m = datum.m
        for coords in product(payloads, repeat=datum.class_dim):
            rows = datum.boundary_payload_rows(coords)
            nonzero = not F.is_zero(datum.det_payload(coords))
            # independent elimination: det vanishes iff rank drops
            assert (modp_rank(rows, p) == m) == nonzero
            if nonzero:
                # certified classes stay off the secant locus, hence
                # admit no destabilizing divisor either
                assert coords not in table
            total += 1
        _chain_spot_checks(datum, table, marked)
        elapsed = time.perf_counter() - t0
        slowest = max(slowest, elapsed)
        assert elapsed < 600.0
    print(f"criterion 4: PASS - {total} classes across 8 fixtures, zero "
          f"chain violations, slowest fixture {slowest:.1f}s")


# ---------------------------------------------------------------------------
# 5. seeded subspace searches over Q land inside the box
# ---------------------------------------------------------------------------

def test_criterion_5():
    runs = 0
    for curve, n in ((curve_g1_q(), 2), (curve_g2_q(), 4)):
        datum = datum_on_infinity(curve, n)
        s = datum.n - datum.m + curve.genus
        assert s >= 1
        for seed in range(50):
            V = sample_subspace(datum, s, seed)
            sr = search_semistable(V)       # raises ExhaustionError on miss
            assert max(abs(c) for c in sr.coefficients) <= datum.m
            assert det_test(sr.witness)
            runs += 1
    print(f"criterion 5: PASS - {runs}/{runs} seeded dim n-m+g subspaces "
          f"produced a nonsingular class within |n_i| <= m")


# ---------------------------------------------------------------------------
# 6. the first bound's closed form
# ---------------------------------------------------------------------------

def test_criterion_6():
    pairs = 0
    for g in (1, 2, 3, 4):
        for n in (2, 4, 6, 8, 10, 12):
            if n <= 2 * g - 2:
                continue
            d = n // 2 - 1
            assert theorem1_delta0(n, g, n // 2) == d + g
            pairs += 1
    assert pairs == 18
    print(f"criterion 6: PASS - delta0 = d+g on all {pairs} pairs with "
          f"n <= 12, g <= 4")


# ---------------------------------------------------------------------------
# 7. the second bound's calculator at the pinned inputs
# ---------------------------------------------------------------------------

def test_criterion_7(capsys):
    r = theorem2_bound(BoundInputs(n=4, g=2, m=2, degF=1,
                                   c1sq=Fraction(0), k=4))
    with mp.workdps(60):
        want = mp.mpf(1) / 4 + mp.log(10)
        assert mp.fabs(mp.mpf(r.A) - want) <= mp.mpf(r.ulp)
    assert r.bound == "-" + r.A
    assert r.A_rational == Fraction(1, 4)
    assert r.log_argument == 10

    # linearity in c1sq is exact on the rational part and leaves the
    # transcendental part untouched
    for c in (Fraction(3, 7), Fraction(-2), Fraction(41, 6)):
        rc = theorem2_bound(BoundInputs(n=4, g=2, m=2, degF=1, c1sq=c, k=4))
        assert rc.bound_rational - r.bound_rational == c * Fraction(1, 8)
        assert rc.A == r.A

    code = main(["bounds", "theorem2", "--n", "4", "--g", "2", "--m", "2",
                 "--degF", "1", "--c1sq", "0", "--k", "3"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["result"]["status"] == "not-applicable"
    print("criterion 7: PASS - A = 1/4 + ln 10 to 50 digits, bound = -A, "
          "exact linearity in c1sq, gate below k = n-m+g exits 2")


# ---------------------------------------------------------------------------
# 8. byte-identical reports: every command, reruns and thread counts
# ---------------------------------------------------------------------------

def test_criterion_8(tmp_path, capsys):
    curve = curve_g1_f5()
    d4 = datum_on_infinity(curve, 4)
    d2 = datum_on_infinity(curve, 2)

    def dump(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj), encoding="utf-8")
        return str(path)

    curve_path = dump("curve.json", curve_to_json(curve))
    cls_path = dump("cls.json",
                    class_to_json(ExtensionClass(d4, [1, 0, 2, 3])))
    zero_path = dump("zero.json",
                     class_to_json(ExtensionClass(d4, [0, 0, 0, 0])))
    sub_path = dump("subspace.json",
                    {"datum": datum_to_json(d2), "V": [[1, 0], [0, 1]]})

    experiment = ["secant", "experiment", curve_path, "--n", "4",
                  "--dim", "2", "--trials", "3", "--seed", "5"]
    commands = [
        ["curve", "validate", curve_path],
        ["rr", "basis", curve_path,
         "--divisor", '[{"point": "infinity", "mult": 5}]'],
        ["ext", "det", cls_path],
        ["ext", "prop1", cls_path],
        ["ext", "search", sub_path],
        ["ext", "destab", zero_path],
        ["secant", "member", cls_path],
        experiment,
        ["bounds", "m", curve_path,
         "--divisor", '[{"point": "infinity", "mult": 3}]'],
        ["bounds", "delta0", "--n", "6", "--g", "2", "--m", "3"],
        ["bounds", "theorem2", "--n", "4", "--g", "2", "--m", "2",
         "--degF", "1", "--c1sq", "3/7", "--k", "5"],
    ]

    def stdout_of(argv):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, (argv, out)
        return out

    for argv in commands:
        assert stdout_of(argv) == stdout_of(argv), argv
    one = stdout_of(experiment + ["--threads", "1"])
    eight = stdout_of(experiment + ["--threads", "8"])
    assert one == eight
    assert one == stdout_of(experiment)     # threads default is 1
    print(f"criterion 8: PASS - {len(commands)} commands byte-identical "
          f"across reruns; experiment identical across threads 1 and 8")
