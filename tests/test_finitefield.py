"""Finite field arithmetic tests.

The reference implementation here is deliberately naive: coefficient lists
mod p with schoolbook long division. Every structural claim about GF(p^m)
is checked against it exhaustively for the small fields.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from subspacecodes import (
    FieldPolynomial,
    FiniteField,
    absolute_trace,
    additive_character,
    is_prime,
    poly_eval,
    weil_sum,
)
from subspacecodes.errors import DegreeConditionViolated, TrivialCharacter


# --- naive polynomial arithmetic oracle (coefficient lists, ascending) ----


def _otrim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _omul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _otrim(out)


def _omod(a, mod, p):
    a = _otrim(a)
    lead_inv = pow(mod[-1], p - 2, p)
    while len(a) >= len(mod):
        shift = len(a) - len(mod)
        factor = (a[-1] * lead_inv) % p
        for i, c in enumerate(mod):
            a[i + shift] = (a[i + shift] - factor * c) % p
        a = _otrim(a)
    return a


def _oencode(c, p, m):
    c = list(c) + [0] * m
    return sum(c[i] * p**i for i in range(m))


def _odecode(v, p, m):
    return _otrim([(v // p**i) % p for i in range(m)])


def _field_oracle_tables(field):
    p, m, mod = field.p, field.m, list(field.modulus)
    q = p**m
    add = {}
    mul = {}
    for a in range(q):
        for b in range(q):
            ca, cb = _odecode(a, p, m), _odecode(b, p, m)
            s = _otrim([(x + y) % p for x, y in zip(ca + [0] * m, cb + [0] * m)])
            add[a, b] = _oencode(s, p, m)
            mul[a, b] = _oencode(_omod(_omul(ca, cb, p), mod, p), p, m)
    return add, mul


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (5, 1)])
def test_field_tables_match_long_division_oracle(p, m):
    field = FiniteField(p, m)
    add, mul = _field_oracle_tables(field)
    q = p**m
    for a in range(q):
        for b in range(q):
            assert field.add(a, b) == add[a, b]
            assert field.mul(a, b) == mul[a, b]
    # inverses against the oracle multiplication
    for a in range(1, q):
        assert mul[a, field.inv(a)] == 1


def test_power_matches_repeated_oracle_multiplication():
    field = FiniteField(3, 2)
    _, mul = _field_oracle_tables(field)
    for a in range(1, 9):
        acc = 1
        for e in range(1, 12):
            acc = mul[acc, a]
            assert field.power(a, e) == acc
    assert field.power(0, 0) == 1
    assert field.power(5, 0) == 1


def test_default_moduli_are_the_first_irreducible_in_base_p_order():
    assert FiniteField(2, 2).modulus == (1, 1, 1)      # x^2 + x + 1
    assert FiniteField(2, 3).modulus == (1, 1, 0, 1)   # x^3 + x + 1
    assert FiniteField(3, 2).modulus == (1, 0, 1)      # x^2 + 1
    assert FiniteField(2, 4).modulus == (1, 1, 0, 0, 1)


def test_modulus_validation():
    with pytest.raises(ValueError):
        FiniteField(2, 2, modulus=[1, 0, 1])  # (x+1)^2
    with pytest.raises(ValueError):
        FiniteField(6)
    with pytest.raises(ValueError):
        FiniteField(2, 17)  # q over the supported ceiling
    # explicit valid modulus is accepted and changes arithmetic consistently
    field = FiniteField(2, 3, modulus=[1, 0, 1, 1])  # x^3 + x^2 + 1
    _, mul = _field_oracle_tables(field)
    for a in range(8):
        for b in range(8):
            assert field.mul(a, b) == mul[a, b]


def test_primality_against_sieve():
    limit = 5000
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    for n in range(limit):
        assert is_prime(n) == bool(sieve[n])
    for carmichael in (561, 1105, 1729, 2465, 294409):
        assert not is_prime(carmichael)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


def test_trace_values_and_oracle():
    field = FiniteField(2, 2)
    assert [field.trace(a) for a in range(4)] == [0, 0, 1, 1]
    # tr(a) = a + a^p + ... + a^{p^{m-1}} recomputed with oracle products
    for p, m in [(2, 3), (3, 2), (5, 2)]:
        f = FiniteField(p, m)
        _, mul = _field_oracle_tables(f)
        add, _ = _field_oracle_tables(f)

        def opow(a, e):
            acc = 1
            for _ in range(e):
                acc = mul[acc, a]
            return acc

        for a in range(p**m):
            s = 0
            for i in range(m):
                s = add[s, opow(a, p**i)]
            assert f.trace(a) == s
            assert s < p  # lands in the prime subfield
    elt = FiniteField(3, 2).element(5)
    assert absolute_trace(elt) == FiniteField(3, 2).trace(5)


def test_trace_is_additive_and_onto():
    field = FiniteField(3, 3)
    for a in range(27):
        for b in range(0, 27, 5):
            assert field.trace(field.add(a, b)) == (field.trace(a) + field.trace(b)) % 3
    assert set(field.trace(a) for a in range(27)) == {0, 1, 2}


def test_additive_character_values():
    F5 = FiniteField(5)
    val = additive_character(1, F5.element(2))
    assert val == pytest.approx(cmath.exp(4j * math.pi / 5), abs=1e-12)
    assert additive_character(0, F5.element(3)) == pytest.approx(1.0)
    # |chi(a)| = 1 and chi_j(a+b) = chi_j(a) chi_j(b)
    F9 = FiniteField(3, 2)
    for j in (1, 2, 7):
        for a in range(9):
            za = additive_character(j, F9.element(a))
            assert abs(za) == pytest.approx(1.0, abs=1e-12)
            for b in range(9):
                zb = additive_character(j, F9.element(b))
                zc = additive_character(j, F9.element(F9.add(a, b)))
                assert zc == pytest.approx(za * zb, abs=1e-12)


def test_nontrivial_character_sums_to_zero():
    for p, m in [(2, 3), (3, 2), (7, 1), (5, 2)]:
        field = FiniteField(p, m)
        for j in (1, 2):
            total = sum(additive_character(j, field.element(a)) for a in range(field.q))
            assert abs(total) == pytest.approx(0.0, abs=1e-9)


def test_character_roots_and_trace_table():
    field = FiniteField(7)
    roots = field.character_roots
    assert roots.shape == (7,)
    assert roots[0] == pytest.approx(1.0)
    assert np.allclose(roots, np.exp(2j * np.pi * np.arange(7) / 7))
    assert np.array_equal(field.trace_table, np.arange(7))


def test_quadratic_gauss_sum_magnitudes():
    # |sum chi(x^2)| = sqrt(q) for odd q; checked by direct summation too
    for p, m in [(7, 1), (5, 1), (3, 2), (11, 1)]:
        field = FiniteField(p, m)
        f = FieldPolynomial(field, [0, 0, 1])
        s = weil_sum(f)
        direct = sum(
            additive_character(1, field.element(field.mul(a, a))) for a in range(field.q)
        )
        assert s == pytest.approx(direct, abs=1e-10)
        assert abs(s) == pytest.approx(math.sqrt(field.q), abs=1e-9)


def test_weil_sum_bound_exhaustive_degree_two_over_f11():
    field = FiniteField(11)
    for c0 in range(11):
        for c1 in range(11):
            s = weil_sum(FieldPolynomial(field, [c0, c1, 1]))
            assert abs(s) <= math.sqrt(11) + 1e-9


def test_weil_sum_invariant_under_constant_shift():
    rng = np.random.default_rng(23)
    field = FiniteField(3, 2)
    for _ in range(20):
        body = [int(x) for x in rng.integers(0, 9, size=4)]
        coeffs = [0] + body[:-1] + [1 + (body[-1] % 8)]  # degree 4, gcd(4,9)=1
        base = abs(weil_sum(FieldPolynomial(field, coeffs)))
        for c in (1, 5, 8):
            shifted = [c] + coeffs[1:]
            assert abs(weil_sum(FieldPolynomial(field, shifted))) == pytest.approx(
                base, abs=1e-10
            )


def test_weil_sum_rejects_bad_degree_or_character():
    F9 = FiniteField(3, 2)
    with pytest.raises(DegreeConditionViolated):
        weil_sum(FieldPolynomial(F9, [0, 1, 0, 1]))  # degree 3 = p
    with pytest.raises(DegreeConditionViolated):
        weil_sum(FieldPolynomial(F9, [4]))  # constant
    with pytest.raises(TrivialCharacter):
        weil_sum(FieldPolynomial(F9, [0, 1, 1]), 0)


def test_polynomial_evaluation_matches_oracle():
    field = FiniteField(5, 2)
    _, mul = _field_oracle_tables(field)
    add, _ = _field_oracle_tables(field)
    rng = np.random.default_rng(31)
    for _ in range(15):
        coeffs = [int(x) for x in rng.integers(0, 25, size=5)]
        f = FieldPolynomial(field, coeffs)
        for a in (0, 1, 7, 24):
            acc = 0
            xp = 1
            for c in coeffs:
                acc = add[acc, mul[c, xp]]
                xp = mul[xp, a]
            assert f(a).value == acc
            assert poly_eval(f, field.element(a)).value == acc
    assert FieldPolynomial(field, [0, 0, 0]).degree == -1
    assert FieldPolynomial(field, [3, 0, 2, 0]).degree == 2


def test_vectorized_ops_match_scalar():
    rng = np.random.default_rng(37)
    for p, m in [(2, 4), (3, 3), (7, 2), (13, 1)]:
        field = FiniteField(p, m)
        q = p**m
        a = rng.integers(0, q, size=200)
        b = rng.integers(0, q, size=200)
        add_ref = np.array([field.add(int(x), int(y)) for x, y in zip(a, b)])
        mul_ref = np.array([field.mul(int(x), int(y)) for x, y in zip(a, b)])
        assert np.array_equal(field.add_vec(a, b), add_ref)
        assert np.array_equal(field.mul_vec(a, b), mul_ref)
        for e in (0, 1, 2, 5, q - 1):
            pow_ref = np.array([field.power(int(x), e) for x in a])
            assert np.array_equal(field.pow_vec(a, e), pow_ref)


def _oracle_mul(field, a, b):
    p, m = field.p, field.m
    prod = _omod(_omul(_odecode(a, p, m), _odecode(b, p, m), p), list(field.modulus), p)
    return _oencode(prod, p, m)


def _oracle_add(field, a, b):
    p, m = field.p, field.m
    digits = zip(_odecode(a, p, m) + [0] * m, _odecode(b, p, m) + [0] * m)
    return _oencode([(x + y) % p for x, y in digits], p, m)


def _oracle_pow(field, a, e):
    acc = 1
    while e:
        if e & 1:
            acc = _oracle_mul(field, acc, a)
        a = _oracle_mul(field, a, a)
        e >>= 1
    return acc


def test_vectorized_ops_on_fields_above_4096():
    big = FiniteField(2, 13)
    rng = np.random.default_rng(41)
    a = rng.integers(0, big.q, size=500)
    b = rng.integers(0, big.q, size=500)
    prod = big.mul_vec(a, b)
    cubes = big.pow_vec(a, 3)
    for x, y, xy, x3 in zip(a.tolist(), b.tolist(), prod.tolist(), cubes.tolist()):
        assert xy == _oracle_mul(big, x, y)
        assert x3 == _oracle_pow(big, x, 3)
        if y:
            assert _oracle_mul(big, y, big.inv(y)) == 1


@pytest.mark.parametrize("p,m", [(2, 13), (3, 8), (251, 2), (65521, 1), (2, 16)])
def test_large_field_arithmetic_matches_long_division_oracle(p, m):
    field = FiniteField(p, m)
    rng = np.random.default_rng(43)
    for a, b in rng.integers(1, field.q, size=(40, 2)).tolist():
        assert field.mul(a, b) == _oracle_mul(field, a, b)
        assert _oracle_mul(field, a, field.inv(a)) == 1
        frob, tr = a, 0
        for _ in range(m):
            tr = _oracle_add(field, tr, frob)
            frob = _oracle_pow(field, frob, p)
        assert field.trace(a) == tr


@pytest.mark.parametrize("p,m", [(8191, 1), (2, 13)])
def test_weil_bound_for_cubics_above_4096(p, m):
    field = FiniteField(p, m)
    rng = np.random.default_rng(47)
    for _ in range(3):
        c0, c1, c2 = (int(x) for x in rng.integers(0, field.q, size=3))
        c3 = int(rng.integers(1, field.q))
        s = weil_sum(FieldPolynomial(field, [c0, c1, c2, c3]))
        assert abs(s) <= 2 * math.sqrt(field.q) + 1e-6


def test_digit_table_is_base_p_expansion():
    field = FiniteField(3, 3)
    table = field.digit_table
    for v in range(27):
        digits = [(v // 3**i) % 3 for i in range(3)]
        assert list(table[v]) == digits


def test_element_operator_sugar():
    field = FiniteField(7)
    a, b = field.element(3), field.element(5)
    assert (a + b).value == 1
    assert (a * b).value == 1
    assert (a - b).value == 5
    assert (-a).value == 4
    assert (a / b) == a * field.element(field.inv(5))
    assert a**3 == field.element(6)
    assert a == 3 and a != 4
    assert field.zero == 0 and field.one == 1
    ext = FiniteField(2, 2)
    assert a != ext.element(3)  # different fields never compare equal


def test_elements_enumeration_and_field_identity():
    field = FiniteField(3, 2)
    elems = list(field.elements())
    assert len(elems) == 9
    assert len({e.value for e in elems}) == 9
    assert field == FiniteField(3, 2)
    assert field != FiniteField(3, 2, modulus=[2, 1, 1])
    assert hash(field) == hash(FiniteField(3, 2))
    assert field(4) == field.element(4)
