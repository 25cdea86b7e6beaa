"""Exact coefficient fields: rationals, prime fields and their extensions.

Elements are immutable and canonically represented, so equality of
representations is equality in the field:

* rationals are reduced fractions with positive denominator
  (``fractions.Fraction`` guarantees this),
* prime-field residues are integers in ``[0, p)``,
* extension-field elements are fixed-length coefficient tuples of the
  residue polynomial, reduced modulo the defining polynomial.

``ExtensionField`` is built on ``polys.Poly``: its defining polynomial is
a ``Poly`` over ``PrimeField(p)``, and reduction, inversion (above the
table cap, ``residue_inverse``'s Euclidean loop on payload lists) and the
irreducibility test are polynomial operations from ``polys``.

A descriptor owns the payload-level arithmetic (``add``, ``mul``, ...),
which the polynomial and linear-algebra kernels call directly to avoid
wrapper overhead.  Payloads are the one value form: library functions
return them and take them.  ``F.coerce`` is the one way in for a
caller's value: it refuses a bool and hands the rest to the descriptor's
``_coerce``.  Five payload kernels carry the hot paths:

* ``dot``, the inner product of two payload sequences, on every
  descriptor.  The base class folds ``add`` and ``mul`` (Q and F_{p^k}
  use it as is); ``PrimeField`` sums the raw int products and reduces
  once, so each functional value and linear combination column costs
  one ``% p``.
* ``dots``, which turns fixed columns into a map from a payload
  sequence to its inner products with each column, on every
  descriptor.  The base class calls ``dot`` per column; ``PrimeField``
  packs each coordinate's column entries into one int, so the upper
  entries of a boundary matrix cost one big-int sum of products and
  one ``struct`` unpack per class, left unreduced for ``det``.
* ``det``, the determinant of an m x m matrix given as m*m row-major
  payload entries, on every descriptor.  The base class runs the
  forward pass of ``linalg``, which gives 1 at 0x0 and the entry at
  1x1; ``PrimeField`` takes any int entries, computes up to 4x4 on raw
  ints with one ``% p`` per determinant, which is what each
  extension-class decision costs, and reduces the entries first
  otherwise.
* ``axpy``, the row update ``a[k] - t*b[k]`` over paired payloads, on
  every descriptor.  The base class folds ``sub`` and ``mul``;
  ``PrimeField`` reduces each raw int entry once.  Elimination and the
  residue columns of Riemann-Roch update their rows through it.
* ``add``, ``sub``, ``neg``, ``mul`` and ``inv`` on ``ExtensionField``
  of order q <= 32, which are lookups in tables the descriptor builds
  at construction, the products and inverses from the powers of one
  primitive element (exp/log arithmetic).  Enumeration and
  Riemann-Roch over F_{p^k} make one call per polynomial coefficient,
  and a lookup costs a fraction of the polynomial product.  The bound
  keeps each q x q table at 1 024 entries or fewer, so every
  descriptor, including the fresh one each CLI call parses, builds its
  own in under a millisecond; larger fields keep the polynomial
  arithmetic on int tuples, which also builds the tables.

No floating point anywhere; all tests for zero are exact.
"""

from __future__ import annotations

import re
import struct
import sys
from fractions import Fraction
from itertools import product
from operator import mul as _imul

from .errors import InputError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Fraction's decimal form with an exponent, which it expands before any check
_EXPONENT_FORM = re.compile(r"\s*[-+]?([\d_]*)(?:\.([\d_]*))?[eE]([-+]?[\d_]+)\s*")
# ExtensionField of at most this order does its arithmetic on tables
_TABLE_MAX_ORDER = 32
# list_payloads refuses larger fields; 2**20 20-tuples take about 240 MB
MAX_LISTED_ORDER = 1 << 20


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the base set is exact for n < 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

class FieldDescriptor:
    """Base class for field descriptors.

    Subclasses provide exact payload arithmetic.  Payloads are plain
    hashable Python values (Fraction, int, tuple of int).
    """

    def coerce(self, value):
        """A caller's value as a payload: a bool is refused; ``_coerce`` takes
        the rest."""
        if isinstance(value, bool):
            raise InputError("booleans are not field values")
        return self._coerce(value)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == self.pzero

    def dot(self, a, b):
        """sum_k a[k] * b[k] over paired payloads; the empty sum is 0."""
        add, mul = self.add, self.mul
        acc = self.pzero
        for x, y in zip(a, b):
            acc = add(acc, mul(x, y))
        return acc

    def dots(self, columns):
        """The map a -> [dot(a, c) for c in columns], for payload
        columns of one length."""
        return lambda a: [self.dot(a, c) for c in columns]

    def axpy(self, a, t, b):
        """[a[k] - t*b[k]] over paired payloads, as a list."""
        sub, mul = self.sub, self.mul
        return [sub(x, mul(t, y)) for x, y in zip(a, b)]

    def power(self, a, e: int):
        """a**e for an int e >= 0, by square and multiply."""
        if e < 0:
            raise InputError("negative power")
        out = self.pone
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def det(self, entries, m: int):
        """Determinant of the m x m matrix with the given row-major payload
        entries, by the forward pass; the empty 0x0 determinant is 1."""
        from .linalg import _forward  # linalg imports this module
        _, pivots, d = _forward(self, [entries[k * m:k * m + m]
                                       for k in range(m)])
        return d if len(pivots) == m else self.pzero

    def iter_payloads(self):
        """Every payload of a finite field, once each, in ascending
        ``payload_key`` order; enumeration sorts nothing on top of it."""
        raise InputError(f"{self!r} is not a finite field")

    def list_payloads(self) -> list:
        """iter_payloads as a list; refused past MAX_LISTED_ORDER elements."""
        if (self.order() or 0) > MAX_LISTED_ORDER:
            raise InputError(f"{self!r} has more than {MAX_LISTED_ORDER} "
                             "elements to list")
        return list(self.iter_payloads())

    # subclasses: _coerce, add, sub, mul, neg, inv, characteristic, order,
    # payload_key, payload_to_json, payload_from_json


def too_many_digits(what: str = "a number in the report") -> InputError:
    """The refusal of a number past the most digits str(int) writes."""
    return InputError(f"{what} has more than {sys.get_int_max_str_digits()} "
                      "digits, the interpreter's limit for writing an int")


def rational_text(x: Fraction) -> str:
    """str(x), "n/d" or "n" for an integer; refused past the digit limit."""
    try:
        return str(x)
    except ValueError:
        raise too_many_digits() from None


def _past_digit_limit(whole: str, frac: str, exp: str) -> bool:
    """Whether whole.frac * 10**exp written out in full passes str(int)'s limit."""
    limit = getattr(sys, "get_int_max_str_digits", int)()   # 0: no limit
    digits = len((whole + frac).replace("_", "").lstrip("0")) or 1
    try:
        shift = int(exp) - len(frac.replace("_", ""))
    except ValueError:          # malformed or past the limit: Fraction refuses it
        return False
    return 0 < limit < max(digits + shift, digits, 1 - shift)


class Rationals(FieldDescriptor):
    """The field of rational numbers; payloads are reduced Fractions."""

    pzero = Fraction(0)
    pone = Fraction(1)

    def _coerce(self, value):
        if isinstance(value, float):
            raise InputError("floating-point values are not exact; pass int, Fraction or 'a/b'")
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        if isinstance(value, str):
            m = _EXPONENT_FORM.fullmatch(value)
            if m and _past_digit_limit(*m.groups("")):
                raise too_many_digits(f"{value!r} written out in full")
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise InputError(f"cannot parse {value!r} as a rational") from exc
        raise InputError(f"cannot coerce {value!r} into Q")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return Fraction(1) / a

    def characteristic(self):
        return 0

    def order(self):
        return None

    def payload_key(self, a):
        return (a.numerator, a.denominator)

    def payload_to_json(self, a):
        return a.numerator if a.denominator == 1 else rational_text(a)

    def payload_from_json(self, v):
        if isinstance(v, (int, str)):
            return self.coerce(v)
        raise InputError(f"bad rational value in JSON: {v!r}")

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField(FieldDescriptor):
    """F_p for a prime p < 2**64; payloads are ints in [0, p)."""

    def __init__(self, p: int):
        if not isinstance(p, int) or isinstance(p, bool):
            raise InputError("prime modulus must be an integer")
        if p >= 1 << 64:
            raise InputError("prime moduli are restricted to < 2**64")
        if not is_prime(p):
            raise InputError(f"{p} is not prime")
        self.p = p
        self.pzero = 0
        self.pone = 1 % p
        self._sqrts = {}    # polys._fq_sqrt's answers; not part of == or hash

    def _coerce(self, value):
        if isinstance(value, int):
            return value % self.p
        raise InputError(f"cannot coerce {value!r} into F_{self.p}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def dot(self, a, b):
        # one reduction for the whole sum; unreduced or negative int
        # inputs give the same residue (not so for dots)
        return sum(map(_imul, a, b)) % self.p

    def dots(self, columns):
        # Column u's k-th entry sits in slot u, w bits wide, of the int
        # P_k, so sum_k a[k] * P_k holds every inner product in its own
        # slot, read back by one struct unpack.  A slot stays below
        # width * (p-1)**2 < 2**w only for canonical a[k] in [0, p): a
        # negative or unreduced coordinate borrows or carries between
        # slots and gives wrong entries.  The entries come back
        # unreduced (det reduces once); primes whose slots would need
        # more than 64 bits take the base class.
        width = len(columns[0]) if columns else 0
        bound = width * (self.p - 1) ** 2
        for bits, code in ((16, "H"), (32, "I"), (64, "Q")):
            if bound < 1 << bits:
                break
        else:
            return FieldDescriptor.dots(self, columns)
        packed = [sum(c[k] << bits * u for u, c in enumerate(columns))
                  for k in range(width)]
        nbytes = bits // 8 * len(columns)
        unpack = struct.Struct(f"<{len(columns)}{code}").unpack
        return lambda a: unpack(sum(map(_imul, a, packed)).to_bytes(
            nbytes, "little"))

    def axpy(self, a, t, b):
        # one reduction per entry on raw ints, as in dot
        p = self.p
        return [(x - t * y) % p for x, y in zip(a, b)]

    def det(self, entries, m: int):
        # raw int products and one reduction per determinant, as in dot:
        # the closed forms, and at 4x4 Laplace expansion in the 2x2 minors
        # of the top two rows; 0x0, 1x1 and beyond 4x4 by the base class
        # on reduced entries (the forward pass tests payloads for zero)
        if m == 3:
            a, b, c, d, e, f, g, h, i = entries
            return (a * (e * i - f * h) - b * (d * i - f * g)
                    + c * (d * h - e * g)) % self.p
        if m == 4:
            a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3 = entries
            return ((a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
                    - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
                    + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
                    + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
                    - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
                    + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0)) % self.p
        if m == 2:
            a, b, c, d = entries
            return (a * d - b * c) % self.p
        p = self.p
        return FieldDescriptor.det(self, [x % p for x in entries], m)

    def power(self, a, e: int):
        if e < 0:
            raise InputError("negative power")
        return pow(a, e, self.p)

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError(f"inverse of 0 in F_{self.p}")
        return pow(a, self.p - 2, self.p)

    def characteristic(self):
        return self.p

    def order(self):
        return self.p

    def iter_payloads(self):
        return iter(range(self.p))

    def payload_key(self, a):
        return (a,)

    def payload_to_json(self, a):
        return a

    def payload_from_json(self, v):
        if isinstance(v, int):
            return self.coerce(v)
        raise InputError(f"bad F_{self.p} value in JSON: {v!r}")

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"F_{self.p}"


class ExtensionField(FieldDescriptor):
    """F_{p^k} presented as F_p[t]/(minpoly); payloads are k-tuples of ints.

    ``minpoly`` is given low degree first as ints, must be monic of degree
    k >= 2, and is checked for irreducibility at construction.  It is kept
    as ``modulus``, a ``Poly`` over ``PrimeField(p)``.

    For q = p^k <= 32 the constructor replaces ``add``, ``sub``, ``neg``,
    ``mul`` and ``inv`` by lookups in tables over the canonical payloads
    (see ``_tabulate``); the methods below are the arithmetic of larger
    fields and the one source of those tables.
    """

    def __init__(self, p: int, minpoly):
        from .polys import Poly  # polys imports this module
        base = PrimeField(p)
        if not isinstance(minpoly, (list, tuple)):
            raise InputError(
                f"extension minpoly must be a coefficient list, got {minpoly!r}")
        modulus = Poly(base, [base.payload_from_json(c) for c in minpoly])
        if modulus.degree < 2:
            raise InputError("extension minpoly must have degree >= 2")
        if not modulus.is_monic():
            raise InputError("extension minpoly must be monic")
        if not modulus.is_irreducible():
            raise InputError(f"minpoly {list(modulus.coeffs)} is reducible over F_{p}")
        self.p = p
        self.k = modulus.degree
        self.base = base
        self.modulus = modulus
        self.minpoly = modulus.coeffs
        self.pzero = (0,) * self.k
        self.pone = (1,) + (0,) * (self.k - 1)
        self._sqrts = {}    # as on PrimeField
        if p ** self.k <= _TABLE_MAX_ORDER:
            self._tabulate()

    def _tabulate(self):
        """Bind add, sub, neg, mul and inv as instance attributes that look
        their answers up in tables.  Each table row is a dict, so a binary
        op costs two lookups on k-tuples, and every answer is one of the
        canonical payload objects.

        The powers g^i of the first primitive element g in payload order,
        taken with the polynomial ``mul``, are the exp list: g^i maps g^j
        to g^(i+j), the exp list rotated by i, and inverts to g^(-i).  The
        sums a + b, for b in payload order, are the product of the
        coordinate ranges each rotated by a's coordinate, and
        a - b = a + (-b)."""
        p, n = self.p, self.p ** self.k - 1
        elems = self.list_payloads()
        canon = {a: a for a in elems}
        zero, one = canon[self.pzero], canon[self.pone]
        for g in elems[1:]:
            exp, x = [one], g
            while x != one:
                exp.append(canon[x])
                x = self.mul(x, g)
            if len(exp) == n:
                break
        mul_rows = {zero: dict.fromkeys(elems, zero)}
        for i, a in enumerate(exp):
            mul_rows[a] = row = dict(zip(exp, exp[i:] + exp[:i]))
            row[zero] = zero
        shifted = [list(range(c, p)) + list(range(c)) for c in range(p)]
        add_rows = {a: dict(zip(elems, map(canon.__getitem__, product(
            *map(shifted.__getitem__, a))))) for a in elems}
        negs = {a: canon[self.neg(a)] for a in elems}
        minus = [negs[b] for b in elems]
        sub_rows = {a: dict(zip(elems, map(row.__getitem__, minus)))
                    for a, row in add_rows.items()}
        inverses = {a: exp[-i % n] for i, a in enumerate(exp)}
        zero_message = f"inverse of 0 in {self!r}"

        def add(a, b):
            return add_rows[a][b]

        def sub(a, b):
            return sub_rows[a][b]

        def mul(a, b):
            return mul_rows[a][b]

        def inv(a):
            if a == zero:
                raise ZeroDivisionError(zero_message)
            return inverses[a]

        self.add, self.sub, self.mul, self.inv = add, sub, mul, inv
        self.neg = negs.__getitem__

    def _wrap(self, lst):
        return tuple(lst) + (0,) * (self.k - len(lst))

    def _coerce(self, value):
        if isinstance(value, int):
            return self._wrap([value % self.p])
        if isinstance(value, (list, tuple)):
            lst = [self.base.coerce(c) for c in value]
            if len(lst) > self.k:
                from .polys import _divrem
                _divrem(self.base, lst, self.minpoly)
            return self._wrap(lst)
        raise InputError(f"cannot coerce {value!r} into F_{self.p}^{self.k}")

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def mul(self, a, b):
        p, k, mp = self.p, self.k, self.minpoly
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        # fold each t^d, d >= k, through the monic minpoly, top degree first
        for d in range(2 * k - 2, k - 1, -1):
            c = prod[d] % p
            if c:
                for j in range(k):
                    prod[d - k + j] -= c * mp[j]
        return tuple(c % p for c in prod[:k])

    def inv(self, a):
        from .polys import Poly, residue_inverse
        if not any(a):
            raise ZeroDivisionError(f"inverse of 0 in {self!r}")
        return self._wrap(residue_inverse(Poly(self.base, a), self.modulus).coeffs)

    def characteristic(self):
        return self.p

    def order(self):
        return self.p ** self.k

    def iter_payloads(self):
        # lexicographic in the coefficient tuple, constant coordinate slowest
        return product(range(self.p), repeat=self.k)

    def payload_key(self, a):
        return a

    def payload_to_json(self, a):
        return list(a)

    def payload_from_json(self, v):
        if isinstance(v, int):
            return self.coerce(v)
        if isinstance(v, list):
            if len(v) > self.k:
                raise InputError("extension element has too many coordinates")
            return self._wrap([self.base.payload_from_json(c) for c in v])
        raise InputError(f"bad {self!r} value in JSON: {v!r}")

    def __eq__(self, other):
        return (isinstance(other, ExtensionField) and other.p == self.p
                and other.minpoly == self.minpoly)

    def __hash__(self):
        return hash(("Fpk", self.p, self.minpoly))

    def __repr__(self):
        return f"F_{self.p}^{self.k}"


def field_from_json(obj) -> FieldDescriptor:
    """Parse a field descriptor from its JSON form.

    ``"Q"`` | ``{"Fp": p}`` | ``{"Fpk": {"p": p, "minpoly": [c0, ..., 1]}}``
    """
    if obj == "Q":
        return Rationals()
    if isinstance(obj, dict):
        if set(obj) == {"Fp"}:
            return PrimeField(obj["Fp"])
        if set(obj) == {"Fpk"}:
            inner = obj["Fpk"]
            if not isinstance(inner, dict) or set(inner) != {"p", "minpoly"}:
                raise InputError("Fpk descriptor needs exactly {p, minpoly}")
            return ExtensionField(inner["p"], inner["minpoly"])
    raise InputError(f"unrecognized field descriptor: {obj!r}")


def field_to_json(field: FieldDescriptor):
    if isinstance(field, Rationals):
        return "Q"
    if isinstance(field, PrimeField):
        return {"Fp": field.p}
    if isinstance(field, ExtensionField):
        return {"Fpk": {"p": field.p, "minpoly": list(field.minpoly)}}
    raise InputError(f"unknown field descriptor {field!r}")
