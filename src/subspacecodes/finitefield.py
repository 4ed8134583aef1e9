"""Array arithmetic in GF(p^m), the absolute trace, and exhaustive
additive character sums.

Elements are identified with the integer encoding sum_i c_i p^i of their
coefficient vector (c_0, ..., c_{m-1}) in the polynomial basis modulo a monic
irreducible modulus: always the lexicographically smallest irreducible
polynomial of degree m (smallest integer encoding of the non-leading
coefficients), found by exhaustive search and verified by trial division.

Fields up to q = 2^16 are supported.  All arithmetic works on int64 arrays
of encodings at once: ``add_vec`` on base-p digits, ``mul_vec`` and
``pow_vec`` through discrete log/antilog tables to the smallest primitive
element, built on first use, and ``trace_table`` holding tr(a) for every a.
The additive character chi_j(a) = exp(2 pi i tr(j a) / p) is then
``character_roots[trace_table[mul_vec(j, a)]]``.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

MAX_Q = 1 << 16

# Witness set making Miller-Rabin deterministic for all n < 2^64.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n < 2^64."""
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:  # primes, so also the trial divisors
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# dense polynomial helpers over GF(p); coefficient lists are low-to-high


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(a: list[int], mod: list[int], p: int) -> list[int]:
    # mod must be monic
    a = a[:]
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    return _poly_trim(a)


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2 (complete test)."""
    d = len(poly) - 1
    if d < 1 or poly[-1] == 0:
        return False
    if d == 1:
        return True
    for e in range(1, d // 2 + 1):
        for code in range(p ** e):
            div = _int_digits(code, p, e) + [1]
            if not _poly_mod(poly, div, p):
                return False
    return True


def _int_digits(value: int, p: int, length: int) -> list[int]:
    digits = []
    for _ in range(length):
        digits.append(value % p)
        value //= p
    return digits


def _lowest_irreducible(p: int, m: int) -> list[int]:
    """Monic irreducible of degree m with the smallest encoded lower coefficients."""
    for code in range(p ** m):
        cand = _int_digits(code, p, m) + [1]
        if _is_irreducible(cand, p):
            return cand
    raise RuntimeError(f"no irreducible polynomial of degree {m} over GF({p})")


class FiniteField:
    """The finite field GF(p^m) in a polynomial basis."""

    def __init__(self, p: int, m: int = 1):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if m < 1:
            raise ValueError("extension degree must be at least 1")
        q = p ** m
        if q > MAX_Q:
            raise ValueError(f"field size {q} exceeds the supported maximum {MAX_Q}")
        self.p = p
        self.m = m
        self.q = q
        self.modulus = tuple(_lowest_irreducible(p, m))
        self._p_pows = np.array([p ** i for i in range(m)], dtype=np.int64)
        self._char_roots = np.exp(2j * np.pi * np.arange(p) / p)
        self._exp = None
        self._log = None
        self._digit_table = None
        self._trace_array = None

    def _tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(exp, log) with exp[i] = g^i for the smallest primitive element g
        and log the inverse permutation (log[0] = -1), built on first use."""
        if self._exp is not None:
            return self._exp, self._log
        p, m, q = self.p, self.m, self.q
        # BLAS products; exact, as every entry is at most m (p - 1)^2 < 2^53
        digits = self.digit_table.astype(float)
        # candidates below p lie in GF(p), whose orders divide p - 1 < q - 1
        for gen in range(1 if m == 1 else p, q):
            # multiplication by gen is GF(p)-linear; row i is gen * x^i
            rows = [_poly_mod([0] * i + self.digit_table[gen].tolist(), list(self.modulus), p)
                    for i in range(m)]
            matrix = np.array([r + [0] * (m - len(r)) for r in rows], dtype=float)
            step = ((digits @ matrix).astype(np.int64) % p @ self._p_pows).tolist()
            orbit = [1]
            x = step[1]
            while x != 1:
                orbit.append(x)
                x = step[x]
            if len(orbit) == q - 1:
                break
        else:
            raise RuntimeError("no multiplicative generator found")
        self._exp = np.array(orbit, dtype=np.int64)
        self._log = np.full(q, -1, dtype=np.int64)
        self._log[self._exp] = np.arange(q - 1, dtype=np.int64)
        return self._exp, self._log

    # -- trace and characters ------------------------------------------------

    @property
    def trace_table(self) -> np.ndarray:
        """tr(a) for every element a, as the Frobenius sum over all of GF(q) at once."""
        if self._trace_array is None:
            frob = table = np.arange(self.q, dtype=np.int64)
            for _ in range(self.m - 1):
                frob = self.pow_vec(frob, self.p)
                table = self.add_vec(table, frob)
            if np.any(table >= self.p):
                raise ArithmeticError("trace landed outside the prime subfield")
            table.setflags(write=False)
            self._trace_array = table
        return self._trace_array

    @property
    def character_roots(self) -> np.ndarray:
        """exp(2 pi i k / p) for k = 0..p-1."""
        return self._char_roots

    # -- vectorized arithmetic on int64 arrays ---------------------------------

    @property
    def digit_table(self) -> np.ndarray:
        if self._digit_table is None:
            q, m, p = self.q, self.m, self.p
            table = np.empty((q, m), dtype=np.int64)
            vals = np.arange(q, dtype=np.int64)
            for i in range(m):
                table[:, i] = vals % p
                vals //= p
            table.setflags(write=False)
            self._digit_table = table
        return self._digit_table

    def add_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.m == 1:
            return (a + b) % self.p
        digits = (self.digit_table[a] + self.digit_table[b]) % self.p
        return digits @ self._p_pows

    def mul_vec(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        exp, log = self._tables()
        a, b = np.broadcast_arrays(a, b)
        out = np.zeros(a.shape, dtype=np.int64)
        nz = (a != 0) & (b != 0)
        out[nz] = exp[(log[a[nz]] + log[b[nz]]) % (self.q - 1)]
        return out

    def pow_vec(self, a: np.ndarray, e: int) -> np.ndarray:
        if e < 0:
            raise ValueError("vectorized powering needs e >= 0")
        exp, log = self._tables()
        a = np.asarray(a)
        out = np.zeros(a.shape, dtype=np.int64)
        if e == 0:
            out[:] = 1
            return out
        nz = a != 0
        out[nz] = exp[(log[a[nz]] * e) % (self.q - 1)]
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, FiniteField)
                and self.p == other.p and self.m == other.m
                and self.modulus == other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        if self.m == 1:
            return f"FiniteField({self.p})"
        return f"FiniteField({self.p}, {self.m})"


def weil_sum(field: FiniteField, coeffs, chi_index: int = 1) -> complex:
    """Exhaustive additive character sum  sum_{a in F_q} chi_j(f(a)).

    ``coeffs`` are the integer encodings of f's coefficients from low to
    high degree, and chi_j(x) = exp(2 pi i tr(j x) / p) for j = ``chi_index``;
    each must lie in [0, q).  Requires a nontrivial character and a degree
    d >= 1 coprime to q; under those conditions the magnitude obeys the Weil
    bound (d - 1) sqrt(q).
    """
    q = field.q
    values = [int(c) for c in coeffs]
    j = int(chi_index)
    for v in values + [j]:
        if not 0 <= v < q:
            raise ValueError(f"element encoding {v} outside [0, {q})")
    while values and values[-1] == 0:
        values.pop()
    if j == 0:
        raise ConfigError("chi_0 sums to q trivially; use a nonzero index")
    d = len(values) - 1
    if d < 1 or d % field.p == 0:
        raise ConfigError(
            f"need degree >= 1 and coprime to q = {q}, got degree {d}")
    elems = np.arange(q, dtype=np.int64)
    acc = np.full(q, values[-1], dtype=np.int64)
    for c in reversed(values[:-1]):
        acc = field.mul_vec(acc, elems)
        if c:
            acc = field.add_vec(acc, np.full(q, c, dtype=np.int64))
    vals = field.character_roots[field.trace_table[field.mul_vec(np.full(q, j), acc)]]
    return complex(vals.sum())
