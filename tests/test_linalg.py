import random
from fractions import Fraction

import pytest

from curvext import (ExtensionField, FieldDescriptor, InputError, Matrix,
                     PrimeField, Rationals, kernel_basis, rank, rref)
from helpers import (TinyExt, frac_det, frac_rref, from_columns, modp_rank,
                     solve, tiny_det, tiny_rref)

Q = Rationals()
F5 = PrimeField(5)
F7 = PrimeField(7)


def rand_matrix_q(rng, nr, nc):
    return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
             for _ in range(nc)] for _ in range(nr)]


def test_rref_matches_fraction_oracle():
    rng = random.Random(11)
    for _ in range(50):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        rows = rand_matrix_q(rng, nr, nc)
        want_rows, want_pivots = frac_rref(rows)
        got = rref(Matrix(Q, rows))
        assert got.nrows == len(want_rows)
        for grow, wrow in zip(got.rows, want_rows):
            assert [g for g in grow] == wrow


def test_det_matches_oracle_and_is_multiplicative():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = rand_matrix_q(rng, n, n)
        b = rand_matrix_q(rng, n, n)
        da = Q.det([v for row in a for v in row], n)
        assert da == frac_det(a)
        ab = [sum(a[i][k] * b[k][j] for k in range(n))
              for i in range(n) for j in range(n)]
        assert Q.det(ab, n) == da * frac_det(b)
    assert Q.det([], 0) == 1


def test_rank_mod_p_matches_oracle():
    rng = random.Random(13)
    for _ in range(60):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randrange(5) for _ in range(nc)] for _ in range(nr)]
        assert rank(Matrix(F5, rows)) == modp_rank(rows, 5)


def test_kernel_vectors_annihilate():
    rng = random.Random(14)
    for F, draw in [(Q, lambda: Fraction(rng.randint(-3, 3))),
                    (F5, lambda: rng.randrange(5))]:
        for _ in range(30):
            nr, nc = rng.randint(1, 5), rng.randint(1, 6)
            rows = [[draw() for _ in range(nc)] for _ in range(nr)]
            M = Matrix(F, rows)
            ker = kernel_basis(M)
            assert len(ker) == nc - rank(M)
            for vec in ker:
                for row in M.rows:
                    acc = F.pzero
                    for r, v in zip(row, vec):
                        acc = F.add(acc, F.mul(r, v))
                    assert F.is_zero(acc)
            # kernel basis is deterministic: rerun and compare
            again = kernel_basis(Matrix(F, rows))
            assert ker == again


def _reversed_kernel(M):
    """kernel_basis(M) read right to left: the vectors in reverse order,
    each with its coordinates reversed."""
    return [k[::-1] for k in reversed(kernel_basis(M))]


def test_reversed_kernel_basis_is_the_reduced_echelon_form():
    """rr_basis relies on this: read right to left, the kernel basis is
    already the reduced echelon form of its own span.  Over Q against
    frac_rref; over F_7 (as 1-tuples), F_9 and F_8 against tiny_rref."""
    rng = random.Random(19)
    K7 = TinyExt(7, [0, 1])
    for _ in range(40):
        nr, nc = rng.randint(1, 4), rng.randint(1, 6)
        got = _reversed_kernel(Matrix(Q, rand_matrix_q(rng, nr, nc)))
        assert got == frac_rref(got)[0]
        mod7 = [[rng.randrange(7) for _ in range(nc)] for _ in range(nr)]
        got = [[(v,) for v in k] for k in _reversed_kernel(Matrix(F7, mod7))]
        assert got == tiny_rref(K7, got)[0]
    for p, minpoly in [(3, [1, 0, 1]), (2, [1, 1, 0, 1])]:
        F = ExtensionField(p, minpoly)
        K = TinyExt(p, minpoly)
        elems = K.elements()
        for _ in range(30):
            nr, nc = rng.randint(1, 3), rng.randint(1, 5)
            rows = [[rng.choice(elems) for _ in range(nc)] for _ in range(nr)]
            got = _reversed_kernel(Matrix(F, rows))
            assert got == tiny_rref(K, got)[0]


def test_solve_round_trip_and_inconsistency():
    rng = random.Random(15)
    for _ in range(40):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        rows = rand_matrix_q(rng, nr, nc)
        x = [Fraction(rng.randint(-3, 3)) for _ in range(nc)]
        rhs = [sum(r * v for r, v in zip(row, x)) for row in rows]
        sol = solve(Matrix(Q, rows), rhs)
        assert sol is not None
        for row, b in zip(rows, rhs):
            assert sum(r * s for r, s in zip(row, sol)) == b
    # x = 0 and x = 1 cannot hold at once
    assert solve(Matrix(Q, [[1], [1]]), [0, 1]) is None


def test_from_columns_and_shapes():
    M = from_columns(F5, [[1, 2], [3, 4]])
    assert M.nrows == 2 and M.ncols == 2
    assert M.rows[0][0] == 1 and M.rows[0][1] == 3
    with pytest.raises(InputError):
        Matrix(F5, [[1, 2], [3]])


def test_trusted_matrix_equals_the_coerced_matrix():
    rng = random.Random(17)
    F9 = ExtensionField(3, [1, 0, 1])
    for F in (Q, F5, F9):
        for nr, nc in ((0, 3), (1, 1), (3, 4), (4, 2)):
            if F is Q:
                rows = rand_matrix_q(rng, nr, nc)
            else:
                pool = sorted(F.iter_payloads(), key=F.payload_key)
                rows = [[rng.choice(pool) for _ in range(nc)] for _ in range(nr)]
            T = Matrix._trusted(F, [list(r) for r in rows], nc)
            M = Matrix(F, rows, ncols=nc)
            assert T == M and hash(T) == hash(M)
            assert (T.nrows, T.ncols, T.rows) == (M.nrows, M.ncols, M.rows)
            assert rank(T) == rank(M) and rref(T) == rref(M)


def test_rref_is_idempotent_and_canonical():
    rng = random.Random(16)
    for _ in range(25):
        rows = rand_matrix_q(rng, rng.randint(1, 4), rng.randint(1, 4))
        R = rref(Matrix(Q, rows))
        again = rref(R)
        assert [[v for v in r] for r in R.rows] == \
               [[v for v in r] for r in again.rows]
        # scaling the input rows must not change the reduced form
        scaled = [[3 * v for v in r] for r in rows]
        assert [[v for v in r] for r in rref(Matrix(Q, scaled)).rows] == \
               [[v for v in r] for r in R.rows]


@pytest.mark.parametrize("p,minpoly", [(3, [1, 0, 1]), (2, [1, 1, 0, 1])])
def test_extension_field_matches_tiny_oracle(p, minpoly):
    """rank, F.det, rref and kernel_basis over F_9 and F_8 (characteristic
    2, where negation is the identity) against TinyExt elimination."""
    F = ExtensionField(p, minpoly)
    K = TinyExt(p, minpoly)
    elems = K.elements()
    rng = random.Random(17 + p)
    for _ in range(40):
        nr, nc = rng.randint(1, 4), rng.randint(1, 5)
        rows = [[rng.choice(elems) for _ in range(nc)] for _ in range(nr)]
        if rng.random() < 0.3:            # force a dependent row
            rows.append([K.add(a, b) for a, b in zip(rows[0], rows[-1])])
        M = Matrix(F, rows)
        want_rows, want_pivots = tiny_rref(K, rows)
        assert rank(M) == len(want_pivots)
        assert [list(r) for r in rref(M).rows] == want_rows
        free = [j for j in range(nc) if j not in want_pivots]
        want_kernel = []
        for j in free:
            vec = [K.embed(0)] * nc
            vec[j] = K.embed(1)
            for row, c in zip(want_rows, want_pivots):
                vec[c] = K.sub(K.embed(0), row[j])
            want_kernel.append(vec)
        assert kernel_basis(M) == want_kernel
        n = min(len(rows), nc)
        square = [r[:n] for r in rows[:n]]
        assert F.det([v for r in M.rows[:n] for v in r[:n]], n) == \
            tiny_det(K, square)


def test_det_kernel_across_the_closed_form_cut():
    """The descriptor's det kernel on row-major entries for m = 0..6:
    over F_p raw-int closed forms up to 3x3 and 2x2-minor Laplace at
    4x4, elimination beyond; over Q and F_{p^k} elimination from 2x2 on.
    Against frac_det over Q and mod 7, and against the Leibniz expansion
    over F_9 and F_8, singular cases included."""
    rng = random.Random(18)
    for m in range(7):
        for trial in range(25):
            ints = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(m)]
            if m >= 2 and trial % 5 == 0:    # singular: repeat a row
                ints[-1] = list(ints[0])
            fracs = [[Fraction(v, rng.randint(1, 4)) for v in row]
                     for row in ints]
            assert Q.det([v for row in fracs for v in row], m) == frac_det(fracs)
            mod7 = [[v % 7 for v in row] for row in ints]
            want = frac_det(ints) % 7
            assert F7.det([v for row in mod7 for v in row], m) == want
    for p, minpoly in ((3, [1, 0, 1]), (2, [1, 1, 0, 1])):
        F = ExtensionField(p, minpoly)
        K = TinyExt(p, minpoly)
        elems = K.elements()
        for m in range(7):
            for trial in range(12 if m < 6 else 3):
                rows = [[rng.choice(elems) for _ in range(m)] for _ in range(m)]
                if m >= 2 and trial % 3 == 0:    # singular: a row sum
                    rows[-1] = [K.add(a, b) for a, b in zip(rows[0], rows[1])]
                assert F.det([v for row in rows for v in row], m) == \
                    tiny_det(K, rows)


def test_prime_field_det_matches_the_forward_pass():
    """PrimeField.det's raw-int forms at 4x4 and its hand-off at 1x1 and
    5x5 give the base-class forward pass's payload on the same entries,
    and on the entries shifted by multiples of p, the unreduced ints
    PrimeField.dots hands it (a zero entry among them must not become a
    pivot)."""
    rng = random.Random(19)
    for F in (F5, F7, PrimeField(2**61 - 1)):
        for m in (1, 4, 5):
            for trial in range(40):
                entries = [rng.randrange(F.p) for _ in range(m * m)]
                if m > 1 and trial % 4 == 0:     # singular: repeat a row
                    entries[-m:] = entries[:m]
                want = FieldDescriptor.det(F, entries, m)
                assert F.det(entries, m) == want
                shifted = [x + F.p * rng.randrange(1, 1 << 40)
                           for x in entries]
                assert F.det(shifted, m) == want
                if m > 1 and trial % 4 == 0:
                    assert want == 0


def test_prime_field_elimination_updates_rows_without_sub_calls(monkeypatch):
    """Row updates over F_p go through the raw-int axpy kernel: rank and
    kernel_basis make no per-entry PrimeField.sub call, and still match
    the oracles."""
    rng = random.Random(21)
    mats = [[[rng.randrange(7) for _ in range(7)] for _ in range(6)]
            for _ in range(20)]
    subs = [0]
    sub = PrimeField.sub

    def counted(self, a, b):
        subs[0] += 1
        return sub(self, a, b)

    monkeypatch.setattr(PrimeField, "sub", counted)
    for rows in mats:
        M = Matrix(F7, rows)
        assert rank(M) == modp_rank(rows, 7)
        for v in kernel_basis(M):
            for row in rows:
                assert sum(x * y for x, y in zip(row, v)) % 7 == 0
    assert subs[0] == 0
