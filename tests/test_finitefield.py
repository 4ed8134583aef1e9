"""Finite field arithmetic tests.

The reference implementation here is deliberately naive: coefficient lists
mod p with schoolbook long division, one element at a time. The package's
array arithmetic (add_vec, mul_vec, pow_vec, trace_table and the character
lookup) is checked against it exhaustively for the small fields and on
samples for the large ones.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from helpers import weil_sum
from subspacecodes import FiniteField, is_prime
from subspacecodes.errors import ConfigError


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


def _oracle_trace(field, a):
    """tr(a) = a + a^p + ... + a^(p^(m-1)) from oracle sums and products."""
    frob, tr = a, 0
    for _ in range(field.m):
        tr = _oracle_add(field, tr, frob)
        frob = _oracle_pow(field, frob, field.p)
    return tr


def _oracle_character(field, j, a):
    """chi_j(a) = exp(2 pi i tr(j a) / p) with the oracle's trace."""
    return cmath.exp(2j * math.pi * _oracle_trace(field, _oracle_mul(field, j, a)) / field.p)


def _field_oracle_tables(field):
    """The oracle's addition and multiplication tables, as q x q arrays."""
    q = field.q
    add = np.array([[_oracle_add(field, a, b) for b in range(q)] for a in range(q)])
    mul = np.array([[_oracle_mul(field, a, b) for b in range(q)] for a in range(q)])
    return add, mul


def _character(field, j, a):
    """chi_j(a) on the package's array route."""
    return field.character_roots[field.trace_table[field.mul_vec(j, a)]]


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (5, 1)])
def test_field_tables_match_long_division_oracle(p, m):
    field = FiniteField(p, m)
    add, mul = _field_oracle_tables(field)
    q = p**m
    a, b = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
    assert np.array_equal(field.add_vec(a, b), add)
    assert np.array_equal(field.mul_vec(a, b), mul)
    # inverses a^(q-2) against the oracle multiplication
    nonzero = np.arange(1, q)
    assert np.all(mul[nonzero, field.pow_vec(nonzero, q - 2)] == 1)
    # traces against the oracle's Frobenius sum, and the characters they index
    for x in range(q):
        tr = _oracle_trace(field, x)
        assert field.trace_table[x] == tr
        assert field.character_roots[field.trace_table[x]] == pytest.approx(
            cmath.exp(2j * math.pi * tr / p), abs=1e-12)


def test_power_matches_repeated_oracle_multiplication():
    field = FiniteField(3, 2)
    _, mul = _field_oracle_tables(field)
    elems = np.arange(9)
    acc = np.ones(9, dtype=np.int64)
    assert np.array_equal(field.pow_vec(elems, 0), acc)  # 0^0 = 1 as well
    for e in range(1, 12):
        acc = mul[acc, elems]
        assert np.array_equal(field.pow_vec(elems, e), acc)
    with pytest.raises(ValueError):
        field.pow_vec(elems, -1)


def test_default_moduli_are_the_first_irreducible_in_base_p_order():
    assert FiniteField(2, 2).modulus == (1, 1, 1)      # x^2 + x + 1
    assert FiniteField(2, 3).modulus == (1, 1, 0, 1)   # x^3 + x + 1
    assert FiniteField(3, 2).modulus == (1, 0, 1)      # x^2 + 1
    assert FiniteField(2, 4).modulus == (1, 1, 0, 0, 1)
    field = FiniteField(3, 2)
    assert field == FiniteField(3, 2)
    assert hash(field) == hash(FiniteField(3, 2))
    assert field != FiniteField(2, 3) and field != FiniteField(7)


def test_modulus_validation():
    with pytest.raises(ValueError):
        FiniteField(6)
    with pytest.raises(ValueError):
        FiniteField(2, 17)  # q over the supported ceiling
    # the modulus is always the lowest irreducible one; it cannot be chosen
    with pytest.raises(TypeError):
        FiniteField(2, 3, modulus=[1, 0, 1, 1])


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
    assert FiniteField(2, 2).trace_table.tolist() == [0, 0, 1, 1]
    for p, m in [(2, 4), (3, 3), (5, 2)]:
        field = FiniteField(p, m)
        want = [_oracle_trace(field, a) for a in range(field.q)]
        assert field.trace_table.tolist() == want
        assert max(want) < p  # lands in the prime subfield


def test_trace_is_additive_and_onto():
    field = FiniteField(3, 3)
    tr = field.trace_table
    a, b = np.meshgrid(np.arange(27), np.arange(0, 27, 5), indexing="ij")
    assert np.array_equal(tr[field.add_vec(a, b)], (tr[a] + tr[b]) % 3)
    assert set(tr.tolist()) == {0, 1, 2}


def test_additive_character_values():
    F5 = FiniteField(5)
    assert _character(F5, 1, 2) == pytest.approx(cmath.exp(4j * math.pi / 5), abs=1e-12)
    assert _character(F5, 0, 3) == pytest.approx(1.0)
    # the oracle's values, |chi(a)| = 1 and chi_j(a+b) = chi_j(a) chi_j(b)
    F9 = FiniteField(3, 2)
    elems = np.arange(9)
    a, b = np.meshgrid(elems, elems, indexing="ij")
    for j in (1, 2, 7):
        za = _character(F9, j, elems)
        want = [_oracle_character(F9, j, x) for x in range(9)]
        assert np.allclose(za, want, atol=1e-12)
        assert np.allclose(np.abs(za), 1.0, atol=1e-12)
        assert np.allclose(_character(F9, j, F9.add_vec(a, b)), za[a] * za[b], atol=1e-12)


def test_nontrivial_character_sums_to_zero():
    for p, m in [(2, 3), (3, 2), (7, 1), (5, 2)]:
        field = FiniteField(p, m)
        for j in (1, 2):
            total = _character(field, j, np.arange(field.q)).sum()
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
        s = weil_sum(field, [0, 0, 1])
        direct = sum(_oracle_character(field, 1, _oracle_mul(field, a, a))
                     for a in range(field.q))
        assert s == pytest.approx(direct, abs=1e-10)
        assert abs(s) == pytest.approx(math.sqrt(field.q), abs=1e-9)


def test_weil_sum_matches_oracle_summation():
    # the Horner evaluation over all of GF(25), against oracle evaluation
    field = FiniteField(5, 2)
    rng = np.random.default_rng(31)
    for degree in (1, 2, 3, 4, 4, 6):
        coeffs = [int(x) for x in rng.integers(0, 25, size=degree)]
        coeffs.append(int(rng.integers(1, 25)))
        chi = int(rng.integers(1, 25))
        direct = 0
        for a in range(25):
            value, xp = 0, 1
            for c in coeffs:
                value = _oracle_add(field, value, _oracle_mul(field, c, xp))
                xp = _oracle_mul(field, xp, a)
            direct += _oracle_character(field, chi, value)
        assert weil_sum(field, coeffs, chi) == pytest.approx(direct, abs=1e-9)


def test_weil_sum_bound_exhaustive_degree_two_over_f11():
    field = FiniteField(11)
    for c0 in range(11):
        for c1 in range(11):
            s = weil_sum(field, [c0, c1, 1])
            assert abs(s) <= math.sqrt(11) + 1e-9


def test_weil_sum_invariant_under_constant_shift():
    rng = np.random.default_rng(23)
    field = FiniteField(3, 2)
    for _ in range(20):
        body = [int(x) for x in rng.integers(0, 9, size=4)]
        coeffs = [0] + body[:-1] + [1 + (body[-1] % 8)]  # degree 4, gcd(4,9)=1
        base = abs(weil_sum(field, coeffs))
        for c in (1, 5, 8):
            shifted = [c] + coeffs[1:]
            assert abs(weil_sum(field, shifted)) == pytest.approx(base, abs=1e-10)


def test_weil_sum_rejects_bad_degree_or_character():
    F9 = FiniteField(3, 2)
    with pytest.raises(ConfigError, match="degree"):
        weil_sum(F9, [0, 1, 0, 1])  # degree 3 = p
    with pytest.raises(ConfigError, match="degree"):
        weil_sum(F9, [4])  # constant
    with pytest.raises(ConfigError, match="chi_0 sums to q trivially"):
        weil_sum(F9, [0, 1, 1], 0)
    # zero top coefficients do not count towards the degree
    assert weil_sum(F9, [0, 1, 1, 0]) == weil_sum(F9, [0, 1, 1])
    for coeffs, chi in (([0, 9, 1], 1), ([0, 1, -1], 1), ([0, 1, 1], 9), ([0, 1, 1], -1)):
        with pytest.raises(ValueError, match="outside"):
            weil_sum(F9, coeffs, chi)


def test_vectorized_ops_match_scalar():
    # the scalar reference is the long-division oracle, one element at a time
    rng = np.random.default_rng(37)
    for p, m in [(2, 4), (3, 3), (7, 2), (13, 1)]:
        field = FiniteField(p, m)
        q = p**m
        a = rng.integers(0, q, size=200)
        b = rng.integers(0, q, size=200)
        pairs = list(zip(a.tolist(), b.tolist()))
        assert field.add_vec(a, b).tolist() == [_oracle_add(field, x, y) for x, y in pairs]
        assert field.mul_vec(a, b).tolist() == [_oracle_mul(field, x, y) for x, y in pairs]
        for e in (0, 1, 2, 5, q - 1):
            assert field.pow_vec(a, e).tolist() == [_oracle_pow(field, x, e) for x in a.tolist()]


def test_vectorized_ops_on_fields_above_4096():
    big = FiniteField(2, 13)
    rng = np.random.default_rng(41)
    a = rng.integers(0, big.q, size=500)
    b = rng.integers(0, big.q, size=500)
    prod = big.mul_vec(a, b)
    cubes = big.pow_vec(a, 3)
    inverses = big.pow_vec(b, big.q - 2)
    for x, y, xy, x3, y_inv in zip(a.tolist(), b.tolist(), prod.tolist(), cubes.tolist(),
                                   inverses.tolist()):
        assert xy == _oracle_mul(big, x, y)
        assert x3 == _oracle_pow(big, x, 3)
        if y:
            assert _oracle_mul(big, y, y_inv) == 1


@pytest.mark.parametrize("p,m", [(2, 13), (3, 8), (251, 2), (65521, 1), (2, 16)])
def test_large_field_arithmetic_matches_long_division_oracle(p, m):
    field = FiniteField(p, m)
    rng = np.random.default_rng(43)
    pairs = rng.integers(1, field.q, size=(40, 2))
    a, b = pairs[:, 0], pairs[:, 1]
    got = zip(a.tolist(), b.tolist(), field.mul_vec(a, b).tolist(),
              field.pow_vec(a, field.q - 2).tolist(), field.trace_table[a].tolist(),
              field.character_roots[field.trace_table[a]])
    for x, y, xy, x_inv, tr, chi in got:
        assert xy == _oracle_mul(field, x, y)
        assert _oracle_mul(field, x, x_inv) == 1
        want = _oracle_trace(field, x)
        assert tr == want
        assert chi == pytest.approx(cmath.exp(2j * math.pi * want / p), abs=1e-12)


@pytest.mark.parametrize("p,m", [(8191, 1), (2, 13)])
def test_weil_bound_for_cubics_above_4096(p, m):
    field = FiniteField(p, m)
    rng = np.random.default_rng(47)
    for _ in range(3):
        c0, c1, c2 = (int(x) for x in rng.integers(0, field.q, size=3))
        c3 = int(rng.integers(1, field.q))
        s = weil_sum(field, [c0, c1, c2, c3])
        assert abs(s) <= 2 * math.sqrt(field.q) + 1e-6


def test_digit_table_is_base_p_expansion():
    field = FiniteField(3, 3)
    table = field.digit_table
    for v in range(27):
        digits = [(v // 3**i) % 3 for i in range(3)]
        assert list(table[v]) == digits
