"""Numeric bound calculators for extension data.

Everything here is a closed formula in a handful of integers plus one
user-supplied real intersection number c1sq.  The rational parts are
kept exact as Fractions end to end; the single transcendental term,
a natural logarithm, is evaluated in 65-digit decimal arithmetic and
rounded to 50 significant digits with an explicit one-ulp bracket, so
the reported inequality direction can never be an artifact of rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

from .errors import InputError, NotApplicable
from .fields import Rationals
from .riemann_roch import h0

_WORK_DIGITS = 65
_OUT_DIGITS = 50


def _check_positive_int(name, value):
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise InputError(f"{name} must be a positive integer, got {value!r}")
    return value


def clifford_sandwich(n: int, g: int) -> tuple:
    """Bounds n/2 <= m <= n/2 + max(g-1, 0) forced on m = h0(M)."""
    _check_positive_int("n", n)
    if n % 2:
        raise InputError(f"n must be even, got {n}")
    if not isinstance(g, int) or isinstance(g, bool) or g < 0:
        raise InputError(f"g must be a nonnegative integer, got {g!r}")
    return (n // 2, n // 2 + max(g - 1, 0))


def _check_clifford(n: int, g: int, m: int):
    lo, hi = clifford_sandwich(n, g)
    _check_positive_int("m", m)
    if not lo <= m <= hi:
        raise InputError(f"m = {m} outside the Clifford range [{lo}, {hi}]")


def compute_m(curve, M) -> int:
    """m = h0(M), the size of the quadric in the determinant test."""
    return h0(curve, M)


def theorem1_delta0(n: int, g: int, m: int) -> int:
    """delta0 = n - m + g - 1: no projective space of that dimension or
    larger fits inside the secant variety Sigma_{n/2-1}."""
    _check_clifford(n, g, m)
    return n - m + g - 1


def _as_fraction(name, value) -> Fraction:
    try:
        return Rationals().coerce(value)
    except InputError as exc:
        raise InputError(f"{name}: {exc}") from exc


@dataclass(frozen=True)
class BoundInputs:
    n: int
    g: int
    m: int
    degF: int        # degree of the base number field over Q
    c1sq: Fraction   # self-intersection of the metrized line bundle
    k: int           # index of the successive minimum

    def __post_init__(self):
        _check_clifford(self.n, self.g, self.m)
        _check_positive_int("degF", self.degF)
        _check_positive_int("k", self.k)
        if self.k > self.n + self.g - 1:
            raise InputError(
                f"k = {self.k} exceeds the lattice rank {self.n + self.g - 1}")
        object.__setattr__(self, "c1sq", _as_fraction("c1sq", self.c1sq))

    @property
    def gate(self) -> int:
        """Smallest k the lower bound applies to."""
        return self.n - self.m + self.g


@dataclass(frozen=True)
class Theorem2Result:
    A: str                       # 50 significant digits
    bound: str                   # 50 significant digits
    ulp: str                     # one unit in the last reported digit
    A_rational: Fraction         # exact part 1/(n*degF)
    bound_rational: Fraction     # exact part c1sq/(2*n*degF) - 1/(n*degF)
    log_argument: int            # m*(n+g-1), the argument of the ln term


def _round_out(value: Decimal) -> tuple:
    """Round to 50 significant digits; also return one ulp of the result."""
    with localcontext() as ctx:
        ctx.prec = _OUT_DIGITS
        rounded = +value
    ulp = Decimal(1).scaleb(rounded.adjusted() - (_OUT_DIGITS - 1))
    return rounded, ulp


def _frac_to_decimal(x: Fraction) -> Decimal:
    return Decimal(x.numerator) / Decimal(x.denominator)


def theorem2_bound(b: BoundInputs) -> Theorem2Result:
    """Lower bound c1sq/(2 n degF) - A for the k-th successive minimum,
    A = 1/(n degF) + ln(m (n+g-1)).

    Applies only for k >= n - m + g; smaller k raises NotApplicable
    rather than producing a number without meaning.  The two decimal
    outputs are correct to within one unit of their 50th significant
    digit (65 working digits, correctly-rounded ln).
    """
    if b.k < b.gate:
        raise NotApplicable(
            f"k = {b.k} below the applicability gate n-m+g = {b.gate}")
    inv_nd = Fraction(1, b.n * b.degF)
    slope = Fraction(1, 2 * b.n * b.degF)
    log_arg = b.m * (b.n + b.g - 1)
    with localcontext() as ctx:
        ctx.prec = _WORK_DIGITS
        log_term = Decimal(log_arg).ln()
        A_work = _frac_to_decimal(inv_nd) + log_term
        bound_work = _frac_to_decimal(b.c1sq * slope) - A_work
    A_out, A_ulp = _round_out(A_work)
    bound_out, bound_ulp = _round_out(bound_work)
    ulp = max(A_ulp, bound_ulp)
    return Theorem2Result(
        A=str(A_out), bound=str(bound_out), ulp=str(ulp),
        A_rational=inv_nd,
        bound_rational=b.c1sq * slope - inv_nd,
        log_argument=log_arg)
