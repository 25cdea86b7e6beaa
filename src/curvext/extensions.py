"""Rank-2 extension classes and semistability certificates.

An extension datum fixes a curve, a quotient class N (deg N = n, even)
and a divisor M with 2M ~ N + K; L = K - M is derived.  Extension
classes of N by the trivial bundle live in H^1(C, N^{-1}), which is
handled exclusively through Serre duality as the dual of H^0(C, N+K):
a class is its coordinates, the values of a linear functional on the
normalized basis of L(N+K), and evaluating it on a function is one inner
product with the function's coordinates in that basis.

The boundary map of a class e, for a twist pair (L', M'), is the matrix
e(s_i * t_j * u') over bases of L(M') and L(K-L'), where u' is the
principality witness identifying L(K-L'+M') with L(N+K).  A twist
reaches only the boundary map and Prop. 1: the destabilizer scan asks
whether e kills L(N+K-D), that is, whether e lies in the span of D,
which one forward pass over D's rows R_D on L(N+K) coordinates gives as
independent rows, and no twist changes that question or its degree
bound.  Semistability certificates never assert instability from a
failed sufficient test; only an explicit destabilizing witness does that.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import product as _iproduct
from operator import itemgetter

from .curves import (Divisor, HyperellipticCurve, _check_int_bound,
                     curve_from_json, divisor_from_json, divisor_to_json,
                     enumerate_effective_divisors)
from .errors import ExhaustionError, InputError, InternalError
from .linalg import Matrix, _forward, linear_combination, rank
from .riemann_roch import (RationalFunction, _subspace_rows, coordinates,
                           is_principal, rr_basis)


class ExtensionDatum:
    """Validated (curve, N, M) with cached bases and the witness u.

    u satisfies div(u) = 2M - N - K, so multiplication by u maps L(2M)
    isomorphically onto L(N+K); all pairings are routed through it.
    """

    __slots__ = ("curve", "N", "M", "L", "n", "m", "u",
                 "basis_M", "basis_NK", "_tensor", "_dots", "_mirror",
                 "_span_blocks")

    def __init__(self, curve, N, M, L, u, basis_M, basis_NK):
        self.curve = curve
        self.N = N
        self.M = M
        self.L = L
        self.n = N.degree
        self.m = basis_M.dim
        self.u = u
        self.basis_M = basis_M
        self.basis_NK = basis_NK
        self._tensor = None
        self._span_blocks = {}

    @property
    def class_dim(self) -> int:
        """dim H^1(C, N^{-1}) = h0(N+K) = n + g - 1 for valid data."""
        return self.basis_NK.dim

    def nk_coordinates(self, fn: RationalFunction) -> tuple:
        """Payload coordinates of fn in the normalized basis of L(N+K),
        the vector a class pairs with; MembershipError if fn is not in
        L(N+K)."""
        return tuple(coordinates(fn, self.basis_NK))

    def _span_rows(self, D: Divisor) -> list:
        """Independent rows of the span of an effective D on the curve
        embedded by |N+K|: the pivot rows of one forward pass over D's
        rows R_D, whose common kernel on L(N+K) coordinates is L(N+K-D)
        (Bareiss integer rows over Q); their count is the span's rank.
        Blocks of R_D are cached per (place, multiplicity) as built."""
        blocks = self._span_blocks
        rows = []
        for key in D.items:
            block = blocks.get(key)
            if block is None:
                block = blocks[key] = _subspace_rows(self.basis_NK, *key)
            rows += block
        rows, pivots, _ = _forward(self.curve.field, rows)
        return rows[:len(pivots)]

    def pair_tensor(self):
        """T[i][j] = coordinates of s_i * s_j * u in the L(N+K) basis,
        for the balanced boundary map; symmetric in (i, j)."""
        if self._tensor is None:
            m = self.m
            su = [s * self.u for s in self.basis_M.basis]
            T = [[None] * m for _ in range(m)]
            for i in range(m):
                for j in range(i, m):
                    vec = self.nk_coordinates(self.basis_M.basis[i] * su[j])
                    T[i][j] = vec
                    T[j][i] = vec
            self._tensor = tuple(tuple(row) for row in T)
            # the field's inner products with the tensor columns on and
            # above the diagonal, row by row, and the getter that lays
            # their values out as the row-major m x m matrix, mirrored
            # below the diagonal; for m <= 1 the upper triangle is the
            # whole matrix (and a one-index itemgetter would return the
            # bare entry)
            upper = [(i, j) for i in range(m) for j in range(i, m)]
            self._dots = self.curve.field.dots([T[i][j] for i, j in upper])
            where = {ij: k for k, ij in enumerate(upper)}
            self._mirror = (itemgetter(*(where[min(i, j), max(i, j)]
                                         for i in range(m) for j in range(m)))
                            if m > 1 else itemgetter(slice(None)))
        return self._tensor

    def _entries(self, coords):
        # row-major entries of the balanced boundary matrix of the class,
        # from the field's dots map over the upper tensor columns; over
        # F_p they may be unreduced ints, which det reduces once
        if self._tensor is None:
            self.pair_tensor()
        return self._mirror(self._dots(coords))

    def boundary_payload_rows(self, coords):
        """Balanced boundary matrix of the class with the given canonical
        payload coordinates, as a list of payload rows: the entries
        ``det_payload`` takes the determinant of, reshaped and reduced,
        and the same rows as ``boundary_matrix`` of the class."""
        m = self.m
        entries = list(map(self.curve.field.coerce, self._entries(coords)))
        return [entries[k:k + m] for k in range(0, m * m, m)]

    def det_payload(self, coords):
        """det of the balanced boundary matrix of the class with the given
        canonical payload coordinates, as a payload: the descriptor's
        ``det`` kernel on the row-major entries (hot path for exhaustive
        runs)."""
        return self.curve.field.det(self._entries(coords), self.m)

    def __repr__(self):
        return (f"ExtensionDatum(n={self.n}, m={self.m}, "
                f"g={self.curve.genus} on {self.curve!r})")


def make_datum(curve: HyperellipticCurve, N: Divisor, M: Divisor) -> ExtensionDatum:
    """Validate and assemble an extension datum.

    Checks: n = deg N is even and nonnegative; deg M = n/2 + g - 1;
    2M ~ N + K with an explicit witness; N nonprincipal when n = 0.
    """
    g = curve.genus
    n = N.degree
    if n < 0 or n % 2:
        raise InputError(f"deg N = {n}; need an even nonnegative degree")
    if M.degree != n // 2 + g - 1:
        raise InputError(
            f"deg M = {M.degree}; need n/2 + g - 1 = {n // 2 + g - 1}")
    K = curve.canonical_divisor()
    if n == 0 and is_principal(curve, N):
        raise InputError("N must not be principal when n = 0")
    pr = is_principal(curve, N + K - 2 * M)
    if not pr:
        raise InputError("2M is not linearly equivalent to N + K")
    basis_M = rr_basis(curve, M)
    basis_NK = rr_basis(curve, N + K)
    datum = ExtensionDatum(curve, N, M, K - M, pr.witness, basis_M, basis_NK)
    if datum.class_dim != n + g - 1:
        raise InputError(
            f"h0(N+K) = {datum.class_dim}, expected n+g-1 = {n + g - 1}")
    return datum


class ExtensionClass:
    """An element of Ext(N, O) = H^1(C, N^{-1}), stored dually: its
    payload coordinates, the functional's values on the basis of L(N+K)."""

    __slots__ = ("datum", "coords")

    def __init__(self, datum: ExtensionDatum, values):
        coords = tuple(map(datum.curve.field.coerce, values))
        if len(coords) != datum.class_dim:
            raise InputError(
                f"need {datum.class_dim} coordinates, got {len(coords)}")
        self.datum = datum
        self.coords = coords

    @classmethod
    def zero(cls, datum):
        return cls(datum, [datum.curve.field.pzero] * datum.class_dim)

    def evaluate(self, fn: RationalFunction):
        """The class on fn, as a payload."""
        F = self.datum.curve.field
        return F.dot(self.coords, self.datum.nk_coordinates(fn))

    def is_zero(self) -> bool:
        return all(map(self.datum.curve.field.is_zero, self.coords))

    def __eq__(self, other):
        return (isinstance(other, ExtensionClass) and other.datum is self.datum
                and other.coords == self.coords)

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"ExtensionClass{self.coords!r}"


@dataclass(frozen=True)
class BoundaryMatrix:
    matrix: Matrix
    row_basis: object            # RRBasis of L(M')
    col_basis: object            # RRBasis of L(K-L')
    witness: RationalFunction    # u' identifying L(K-L'+M') with L(N+K)


def boundary_matrix(e: ExtensionClass, Lp: Divisor | None = None,
                    Mp: Divisor | None = None) -> BoundaryMatrix:
    """Matrix of the connecting map H^0(M') -> H^1(L') of the twisted
    extension, entries e(s_i t_j u').  Defaults to the datum's (L, M);
    a twist needs deg L' <= deg M' and M' - L' ~ N, and u' is the
    principality witness of N + L' - M', which maps L(K - L' + M') onto
    L(N+K)."""
    datum = e.datum
    curve = datum.curve
    Lp = datum.L if Lp is None else Lp
    Mp = datum.M if Mp is None else Mp
    if Lp.degree > Mp.degree:
        raise InputError("need deg L' <= deg M'")
    Dp = datum.N + Lp - Mp
    if Dp.degree != 0:
        raise InputError(
            f"deg(M') - deg(L') = {Mp.degree - Lp.degree} != n = {datum.n}")
    pr = is_principal(curve, Dp)
    if not pr:
        raise InputError("M' - L' is not linearly equivalent to N")
    up = pr.witness
    S = rr_basis(curve, Mp)
    T = rr_basis(curve, curve.canonical_divisor() - Lp)
    rows = [[e.evaluate(su * t) for t in T.basis]
            for su in (s * up for s in S.basis)]
    return BoundaryMatrix(Matrix._trusted(curve.field, rows, T.dim), S, T, up)


@dataclass(frozen=True)
class Prop1Certificate:
    status: str                  # "certified-semistable" | "inconclusive"
    rank: int
    case_a: bool                 # deg L' + deg M' >= 2g-2, need injectivity
    case_b: bool                 # deg L' + deg M' <= 2g-2, need surjectivity
    rows: int                    # h0(M')
    cols: int                    # h1(L') = h0(K-L')

    @property
    def certified(self) -> bool:
        return self.status == "certified-semistable"


def prop1_certificate(e: ExtensionClass, Lp: Divisor | None = None,
                      Mp: Divisor | None = None) -> Prop1Certificate:
    """Sufficient semistability test via the boundary map.

    Case a (deg L' + deg M' >= 2g-2): certified when the map is
    injective.  Case b (<= 2g-2): certified when surjective.  A failed
    test is Inconclusive, never "unstable": semi-stable extensions with
    degenerate boundary maps exist.
    """
    B = boundary_matrix(e, Lp, Mp)
    r = rank(B.matrix)
    # deg L' + deg M' against 2g-2 is deg M' against deg(K - L')
    dm, dk = B.row_basis.divisor.degree, B.col_basis.divisor.degree
    case_a = dm >= dk
    case_b = dm <= dk
    ok = (case_a and r == B.matrix.nrows) or (case_b and r == B.matrix.ncols)
    return Prop1Certificate(
        "certified-semistable" if ok else "inconclusive",
        r, case_a, case_b, B.matrix.nrows, B.matrix.ncols)


def det_test(e: ExtensionClass) -> bool:
    """Nonvanishing of det of the balanced boundary matrix.

    True implies the extension is semi-stable over the algebraic
    closure.  False implies nothing.  The test depends on the chosen M
    only through its class; inequivalent choices of M for the same N are
    genuinely different sufficient tests.
    """
    F = e.datum.curve.field
    return not F.is_zero(e.datum.det_payload(e.coords))


def brute_force_destabilizer(e: ExtensionClass, max_degree: int | None = None,
                             points=None) -> ScanResult:
    """Search for a destabilizing sub-line bundle of the extension.

    A witness is an effective D with deg D < n/2 such that e annihilates
    L(K - L + M - D); slope equality never counts as destabilizing.
    Twisting E by a line bundle moves neither the bound nor the row-span
    test, so the scan runs on the datum's own pair.  Exhaustive
    (complete) over a finite field without a degree cap; over infinite
    fields an explicit candidate point set is required and the verdict
    "none" only covers that domain.
    """
    if max_degree is not None:
        _check_int_bound("degree cap", max_degree)
        if max_degree < 0:
            raise InputError(
                f"degree cap must be nonnegative, got {max_degree}")
    datum = e.datum
    full_bound = (datum.n - 1) // 2     # deg D < n/2, strict slope
    bound = full_bound if max_degree is None else min(full_bound, max_degree)
    return _witness_scan(e, bound, 2 * datum.M, datum.u, points,
                         bound == full_bound)


@dataclass(frozen=True)
class ScanResult:
    """A witness scan's verdict: the first annihilating divisor of degree
    <= bound, or None; complete when no candidate list or degree cap
    narrowed the scan below the question it answers."""
    witness: Divisor | None
    bound: int
    examined: int
    complete: bool

    @property
    def found(self) -> bool:
        return self.witness is not None


def _witness_scan(e: ExtensionClass, bound: int, base: Divisor,
                  multiplier: RationalFunction | None = None, points=None,
                  complete: bool = True) -> ScanResult:
    """First effective D of degree <= bound, in divisor enumeration
    order, such that e kills L(N+K - D): e lies in D's span, decided by
    one rank of the span's independent rows with e appended.

    base and the multiplier only name the re-verifier's route: the
    multiplier must map L(base - D) onto L(N+K - D), and None stands for
    1.  A scan over candidate points is never complete.  A hit is
    re-verified before it is returned.
    """
    datum = e.datum
    curve = datum.curve
    F = curve.field
    if F.order() is None and points is None:
        raise InputError("infinite base field: supply candidate points")
    width = datum.class_dim
    complete = complete and points is None
    examined = 0
    for D in enumerate_effective_divisors(curve, bound, points=points):
        examined += 1
        span = datum._span_rows(D)
        if rank(Matrix._trusted(F, span + [e.coords], width)) == len(span):
            _reverify_annihilation(e, rr_basis(curve, base - D), multiplier)
            return ScanResult(D, bound, examined, complete)
    return ScanResult(None, bound, examined, complete)


def _reverify_annihilation(e: ExtensionClass, B, multiplier):
    # witnesses are cheap to double-check and expensive to trust: the
    # class on multiplier * L(base - D), through the basis of that space
    # and the L(N+K) coordinate map, not the rows that found it
    F = e.datum.curve.field
    for w in B.basis:
        fn = w if multiplier is None else w * multiplier
        if not F.is_zero(e.evaluate(fn)):
            raise InternalError("annihilation witness failed re-verification")


@dataclass(frozen=True)
class SearchResult:
    witness: ExtensionClass
    coefficients: tuple
    box: int
    examined: int


def search_semistable(V) -> SearchResult:
    """First class in the integer box with a nonzero boundary determinant.

    V is a list of linearly independent ExtensionClass over one datum.
    Candidates e = sum n_i V_i are scanned with increasing max-norm of
    (n_1..n_k), lexicographically within each shell; the box bound is
    m.  Exhausting the box raises; over characteristic 0 with
    dim V >= n - m + g that indicates a bug, not bad luck.
    """
    if not V:
        raise InputError("empty subspace")
    datum = V[0].datum
    for e in V:
        if e.datum is not datum:
            raise InputError("classes from different data")
    F = datum.curve.field
    k = len(V)
    vecs = [e.coords for e in V]
    if rank(Matrix._trusted(F, vecs, datum.class_dim)) != k:
        raise InputError("classes are not linearly independent")
    box = datum.m
    examined = 0
    for r in range(box + 1):
        for tup in _iproduct(range(-r, r + 1), repeat=k):
            if max(abs(t) for t in tup) != r:
                continue
            examined += 1
            coords = linear_combination(F, [F.coerce(ni) for ni in tup],
                                        vecs, datum.class_dim)
            if not F.is_zero(datum.det_payload(coords)):
                e = ExtensionClass(datum, coords)
                return SearchResult(e, tup, box, examined)
    raise ExhaustionError(
        f"no semistable class in the box max|n_i| <= {box} "
        f"({examined} candidates over a {k}-dimensional subspace)")


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------

def load_json(path: str):
    """Read one JSON file; a missing, unreadable or malformed file is an
    input error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:   # a JSONDecodeError, bad UTF-8 or an overlong int
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def datum_from_json(obj, base_dir: str = ".") -> ExtensionDatum:
    if not isinstance(obj, dict) or not {"curve", "N", "M"} <= set(obj):
        raise InputError("datum JSON needs 'curve', 'N', 'M'")
    cv = obj["curve"]
    if isinstance(cv, str):
        cv = load_json(cv if os.path.isabs(cv) else os.path.join(base_dir, cv))
    curve = curve_from_json(cv)
    N = divisor_from_json(curve, obj["N"])
    M = divisor_from_json(curve, obj["M"])
    return make_datum(curve, N, M)


def class_from_json(obj, base_dir: str = ".") -> ExtensionClass:
    if not isinstance(obj, dict) or "datum" not in obj or "e" not in obj:
        raise InputError("class JSON needs 'datum' and 'e'")
    datum = datum_from_json(obj["datum"], base_dir)
    vals = obj["e"]
    if not isinstance(vals, list):
        raise InputError("'e' must be a coordinate list")
    F = datum.curve.field
    return ExtensionClass(datum, [F.payload_from_json(v) for v in vals])


def subspace_from_json(obj, base_dir: str = "."):
    if not isinstance(obj, dict) or "datum" not in obj or "V" not in obj:
        raise InputError("subspace JSON needs 'datum' and 'V'")
    datum = datum_from_json(obj["datum"], base_dir)
    F = datum.curve.field
    V = obj["V"]
    if not isinstance(V, list) or not all(isinstance(row, list) for row in V):
        raise InputError("'V' must be a list of coordinate lists")
    return datum, [ExtensionClass(datum, [F.payload_from_json(v) for v in row])
                   for row in V]


def datum_to_json(datum: ExtensionDatum):
    from .curves import curve_to_json
    return {"curve": curve_to_json(datum.curve),
            "N": divisor_to_json(datum.N),
            "M": divisor_to_json(datum.M)}


def class_to_json(e: ExtensionClass):
    F = e.datum.curve.field
    return {"datum": datum_to_json(e.datum),
            "e": [F.payload_to_json(v) for v in e.coords]}
