import random
import sys
from fractions import Fraction
from itertools import product

import pytest

from curvext import (ExtensionField, FieldDescriptor, InputError, Poly,
                     PrimeField, Rationals, field_from_json, field_to_json)
from curvext.fields import _TABLE_MAX_ORDER, rational_text
from helpers import TinyExt, bound_mul

F9 = ExtensionField(3, [1, 0, 1])       # t^2 + 1, irreducible mod 3
F25 = ExtensionField(5, [2, 0, 1])      # t^2 + 2
F27 = ExtensionField(3, [1, 2, 0, 1])   # t^3 + 2t + 1
F121 = ExtensionField(11, [1, 0, 1])    # t^2 + 1, above the table bound
FIELDS = [Rationals(), PrimeField(5), PrimeField(3), F9, F25, F121]


def sample_payloads(F, rng, count=12):
    if F.order() is None:
        return [F.coerce(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                for _ in range(count)]
    pool = list(F.iter_payloads())
    return [pool[rng.randrange(len(pool))] for _ in range(count)]


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_field_axioms(F):
    rng = random.Random(1)
    xs = sample_payloads(F, rng)
    for a in xs:
        assert F.add(a, F.pzero) == a
        assert F.mul(a, F.pone) == a
        assert F.add(a, F.neg(a)) == F.pzero
        if not F.is_zero(a):
            assert F.mul(a, F.inv(a)) == F.pone
    for a in xs:
        for b in xs:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            for c in xs[:4]:
                lhs = F.mul(a, F.add(b, c))
                rhs = F.add(F.mul(a, b), F.mul(a, c))
                assert lhs == rhs


@pytest.mark.parametrize("F", FIELDS, ids=repr)
def test_payload_json_round_trip(F):
    rng = random.Random(2)
    for a in sample_payloads(F, rng):
        assert F.payload_from_json(F.payload_to_json(a)) == a


def test_iter_payloads_counts():
    assert len(list(PrimeField(7).iter_payloads())) == 7
    assert len(list(F9.iter_payloads())) == 9
    assert len(set(F25.iter_payloads())) == 25
    with pytest.raises(InputError):
        Rationals().iter_payloads()


@pytest.mark.parametrize("F", [PrimeField(7), F9, F25], ids=repr)
def test_iter_payloads_ascend_in_payload_key_order(F):
    """Enumeration (monic polynomials, irreducibles, closed points) reads
    iter_payloads as it comes, so it must already be key-sorted."""
    keys = [F.payload_key(a) for a in F.iter_payloads()]
    assert keys == sorted(set(keys)) and len(keys) == F.order()


def test_f9_against_hand_rolled_tables():
    # oracle first: independent tuple arithmetic mod t^2+1
    K = TinyExt(3, [1, 0, 1])
    for a in K.elements():
        for b in K.elements():
            assert F9.add(a, b) == K.add(a, b)
            assert F9.mul(a, b) == K.mul(a, b)
    # Fermat: a^(q-1) = 1 for a != 0
    for a in K.elements():
        if a == (0, 0):
            continue
        acc = F9.pone
        for _ in range(8):
            acc = F9.mul(acc, a)
        assert acc == F9.pone


@pytest.mark.parametrize("p,minpoly", [(2, [1, 1, 1]),          # F_4
                                       (2, [1, 1, 0, 1]),       # F_8
                                       (3, [1, 0, 1]),          # F_9
                                       (5, [2, 0, 1]),          # F_25
                                       (3, [1, 2, 0, 1]),       # F_27
                                       (3, [2, 1, 0, 0, 1]),    # F_81
                                       (7, [1, 0, 1]),          # F_49
                                       (5, [1, 1, 0, 1])],      # F_125
                         ids=["F4", "F8", "F9", "F25", "F27", "F81", "F49",
                              "F125"])
def test_extension_kernels_match_tiny_oracle(p, minpoly):
    """Fields up to order 32 do their arithmetic on tables, larger ones
    on polynomials (F81, F49 and F125 here, whose inverses run the
    Euclidean loop of ``residue_inverse``); both agree with the tuple
    oracle on every pair and every element, and refuse the inverse of 0
    alike."""
    F = ExtensionField(p, minpoly)
    K = TinyExt(p, minpoly)
    assert ("mul" in vars(F)) == (F.order() <= _TABLE_MAX_ORDER)
    elems = K.elements()
    for a in elems:
        for b in elems:
            assert F.mul(a, b) == K.mul(a, b)
            assert F.add(a, b) == K.add(a, b)
            assert F.sub(a, b) == K.sub(a, b)
        assert F.neg(a) == K.sub(K.embed(0), a)
    for a in elems[1:]:
        assert F.inv(a) == K.inv(a)
    messages = set()
    for inv in (F.inv, lambda a: ExtensionField.inv(F, a)):
        with pytest.raises(ZeroDivisionError) as err:
            inv(F.pzero)
        messages.add(str(err.value))
    assert messages == {f"inverse of 0 in {F!r}"}
    rng = random.Random(5)
    # an over-long coefficient list is the polynomial evaluated at t
    t = (0, 1) + (0,) * (F.k - 2)
    for _ in range(20):
        coeffs = [rng.randrange(p) for _ in range(rng.randint(F.k + 1, 3 * F.k))]
        assert F.coerce(coeffs) == K.polyval(coeffs, t)


def fold_dot(F, a, b):
    """The inner product as a plain add/mul fold over coerced payloads."""
    acc = F.pzero
    for x, y in zip(a, b):
        acc = F.add(acc, F.mul(F.coerce(x), F.coerce(y)))
    return acc


@pytest.mark.parametrize("F", [Rationals(), PrimeField(7), F9, F27], ids=repr)
def test_dot_matches_the_add_mul_fold(F):
    rng = random.Random(5)
    assert F.dot([], []) == F.pzero
    for length in range(7):
        for _ in range(6):
            a = sample_payloads(F, rng, length)
            b = sample_payloads(F, rng, length)
            assert F.dot(a, b) == fold_dot(F, a, b)
            assert F.dot(a, b) == F.dot(b, a)
        # dots: one inner product per column (unreduced over F_p)
        cols = [sample_payloads(F, rng, length) for _ in range(3)]
        a = sample_payloads(F, rng, length)
        assert list(map(F.coerce, F.dots(cols)(a))) == [
            fold_dot(F, a, c) for c in cols]


@pytest.mark.parametrize("F", [Rationals(), PrimeField(7), F9], ids=repr)
def test_axpy_matches_the_sub_mul_fold(F):
    rng = random.Random(9)
    for t in [F.pzero] + sample_payloads(F, rng, 4):
        assert F.axpy([], t, []) == []
        for length in range(1, 7):
            for _ in range(6):
                a = sample_payloads(F, rng, length)
                b = sample_payloads(F, rng, length)
                got = F.axpy(a, t, b)
                assert got == [F.sub(x, F.mul(t, y)) for x, y in zip(a, b)]
                if F.is_zero(t):
                    assert got == a


@pytest.mark.parametrize("F", [Rationals(), PrimeField(7), F9], ids=repr)
def test_power_matches_repeated_multiplication(F):
    for a in sample_payloads(F, random.Random(10), 6):
        acc = F.pone
        for e in range(12):
            assert F.power(a, e) == acc
            acc = F.mul(acc, a)


# fresh descriptors, one per call: bound_mul changes the one it gets
NEGATIVE_POWER_FIELDS = {
    "Q": Rationals, "F_5": lambda: PrimeField(5),
    "F_9": lambda: ExtensionField(3, [1, 0, 1]),
    "F_25": lambda: ExtensionField(5, [2, 0, 1]),           # tabled
    "F_49": lambda: ExtensionField(7, [1, 0, 1])}           # polynomial mul


@pytest.mark.parametrize("name", NEGATIVE_POWER_FIELDS)
def test_negative_powers_are_refused(name):
    """A negative exponent is refused on every descriptor, as by
    Poly.__pow__: square and multiply would never end on one (-1 >> 1 is
    -1), which the bounded mul turns into a failure (on 1, whose powers
    stay small over Q), and pow(a, -1, p) would quietly give an inverse."""
    F = bound_mul(NEGATIVE_POWER_FIELDS[name]())
    a = F.coerce(2)
    for b, e in product((F.pone, a), (-1, -2, -7)):
        with pytest.raises(InputError, match="negative power"):
            F.power(b, e)
    assert F.power(a, 0) == F.pone and F.power(a, 3) == F.mul(F.mul(a, a), a)


def test_prime_dot_reduces_unreduced_and_negative_ints():
    F = PrimeField(7)
    rng = random.Random(6)
    for length in range(7):
        for _ in range(20):
            a = [rng.randint(-10 ** 20, 10 ** 20) for _ in range(length)]
            b = [rng.randint(-50, 50) for _ in range(length)]
            got = F.dot(a, b)
            assert got == fold_dot(F, a, b)
            assert 0 <= got < 7
    assert F.dot([-1], [1]) == 6 and F.dot([7 ** 30 + 3], [-2]) == 1


def test_prime_dots_packed_slots_match_the_base_class():
    """PrimeField.dots packs each coordinate's column entries into 16-,
    32- or 64-bit slots, the narrowest above width * (p-1)**2, and takes
    the base class past 64 bits.  Primes and widths that reach every slot
    size and the fallback, some just past a slot's edge (251 and 65521 at
    width 2), agree with FieldDescriptor.dots mod p, on seeded columns and
    on the all-(p-1) extreme that fills every slot."""
    rng = random.Random(21)
    slots = set()
    for p in (7, 251, 65521, 4294967291, 2 ** 61 - 1):
        F = PrimeField(p)
        for width in (0, 1, 2, 4, 10):
            bound = width * (p - 1) ** 2
            slots.add(next((b for b in (16, 32, 64) if bound < 1 << b), None))
            for count in (0, 1, 3, 10):
                cols = [[p - 1] * width] + [
                    [rng.randrange(p) for _ in range(width)]
                    for _ in range(count - 1)]
                cols = cols[:count]
                packed = F.dots(cols)
                base = FieldDescriptor.dots(F, cols)
                for a in [[p - 1] * width] + [
                        [rng.randrange(p) for _ in range(width)]
                        for _ in range(20)]:
                    got = packed(a)
                    assert len(got) == count
                    assert [x % p for x in got] == base(a)
    assert slots == {16, 32, 64, None}


def test_rationals_exactness():
    Q = Rationals()
    assert Q.coerce("2/6") == Fraction(1, 3)
    assert Q.payload_to_json(Fraction(1, 3)) == "1/3"
    assert Q.payload_to_json(Fraction(4, 2)) == 2
    with pytest.raises(InputError):
        Q.coerce(0.5)
    with pytest.raises(InputError):
        Q.coerce(True)
    for text in ("abc", "1/0"):
        with pytest.raises(InputError):
            Q.coerce(text)
    assert Q.order() is None and Q.characteristic() == 0


LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_limit = pytest.mark.skipif(not LIMIT, reason="no int digit limit")


@needs_limit
def test_decimal_strings_past_the_digit_limit_are_refused():
    """A decimal string is refused when its value written out in full,
    units digit included, takes more digits than the interpreter
    writes, before Fraction expands the exponent (1e99999999999999999999
    would never finish); a string at the limit is read exactly."""
    Q = Rationals()
    inside = {f"1e{LIMIT - 1}": Fraction(10 ** (LIMIT - 1)),
              f"1e-{LIMIT - 1}": Fraction(1, 10 ** (LIMIT - 1)),
              f" -1_5.0e{LIMIT - 2} ": Fraction(-15 * 10 ** (LIMIT - 2)),
              f"0.5e{LIMIT}": Fraction(5 * 10 ** (LIMIT - 1)),
              f"0e{LIMIT - 1}": Fraction(0)}
    for text, value in inside.items():
        assert Q.coerce(text) == value, text
    for text in (f"1e{LIMIT}", f"1e-{LIMIT}", f".5e-{LIMIT - 1}",
                 f"0e{LIMIT}", "1e99999999999999999999", "1e-2000000"):
        with pytest.raises(InputError, match=f"more than {LIMIT} digits"):
            Q.coerce(text)


@needs_limit
def test_rationals_become_text_on_one_guarded_route():
    """payload_to_json and the report's rational parts both go through
    rational_text, which refuses what str(int) cannot write."""
    Q = Rationals()
    assert rational_text(Fraction(-3, 6)) == "-1/2"
    assert rational_text(Fraction(4, 2)) == "2"
    tiny = Fraction(1, 10 ** LIMIT)          # a denominator past the limit
    for write in (Q.payload_to_json, rational_text):
        with pytest.raises(InputError, match=f"more than {LIMIT} digits"):
            write(tiny)


def test_rational_inverse_is_exact_on_int_payloads():
    """Poly(Q, ...) keeps int payloads as given, so the inverse of an int
    must come back as a Fraction for monic() and gcd() to stay exact."""
    Q = Rationals()
    assert Q.inv(3) == Fraction(1, 3) and isinstance(Q.inv(3), Fraction)
    assert Poly(Q, [1, 2]).monic() == Poly(Q, [Fraction(1, 2), 1])
    assert Poly(Q, [1, 2]).gcd(Poly(Q, [2])) == Poly(Q, [1])


def test_prime_field_validation():
    with pytest.raises(InputError):
        PrimeField(6)
    with pytest.raises(InputError):
        ExtensionField(3, [1, 1])          # degree 1
    with pytest.raises(InputError):
        ExtensionField(3, [1, 0, 2])       # not monic
    assert PrimeField(5).characteristic() == 5


def test_prime_field_refuses_composites_past_trial_division():
    """41*43 has no factor below 41, and 151*751*28351 is a strong
    pseudoprime to the bases 2, 3, 5 and 7: Miller-Rabin refuses both,
    and accepts the Mersenne prime 2^61 - 1."""
    for n in (1763, 3215031751):
        with pytest.raises(InputError):
            PrimeField(n)
    assert PrimeField(2 ** 61 - 1).characteristic() == 2 ** 61 - 1


def test_finite_fields_refuse_strings():
    """Strings are not finite-field values: InputError, never a bare
    ValueError; neither is a float."""
    F9 = ExtensionField(3, [1, 0, 1])
    for F in (PrimeField(5), F9):
        for bad in ("abc", "1/2", "3", 1.5):
            with pytest.raises(InputError, match="cannot coerce"):
                F.coerce(bad)


def test_reducible_minpoly_is_rejected():
    # t^2 + 2 has the root t = 1 mod 3
    with pytest.raises(InputError):
        ExtensionField(3, [2, 0, 1])
    # quartics with no root mod 3, so Ben-Or's first gcd, with t^3 - t,
    # is 1: (t^2+1)^2 is a square, (t^2+1)(t^2+t+2) is squarefree, and
    # each shares t^2+1 with t^9 - t in the second
    for minpoly in ([1, 0, 2, 0, 1], [2, 1, 0, 1, 1]):
        with pytest.raises(InputError, match="reducible"):
            ExtensionField(3, minpoly)


def test_field_json_round_trip():
    for F in FIELDS:
        assert field_from_json(field_to_json(F)) == F
    with pytest.raises(InputError):
        field_from_json({"Fp": 4})
    with pytest.raises(InputError):
        field_from_json("R")


@pytest.mark.parametrize("inner", [
    {"p": "5", "minpoly": [2, 0, 1]},
    {"p": True, "minpoly": [1, 1]},
    {"p": 5, "minpoly": "x"},
    {"p": 5, "minpoly": [2, "a", 1]},
    {"p": 5, "minpoly": [2, 0.9, 1]},
    {"p": 5, "minpoly": [2, 0, True]},
], ids=repr)
def test_extension_descriptor_takes_ints_only(inner):
    with pytest.raises(InputError):
        field_from_json({"Fpk": inner})


def test_extension_element_json_takes_ints_only():
    for bad in ([1.5, 0], [True, 2], [1, "2"], [0, 0, 1], 1.5, True):
        with pytest.raises(InputError):
            F25.payload_from_json(bad)
    assert F25.payload_from_json([7, -1]) == (2, 4)
    assert F25.payload_from_json(6) == (1, 0)
