"""Arithmetic in GF(p^m), absolute traces, and additive characters.

Elements are identified with the integer encoding sum_i c_i p^i of their
coefficient vector (c_0, ..., c_{m-1}) in the polynomial basis modulo a monic
irreducible modulus.  The modulus defaults to the lexicographically smallest
irreducible polynomial of degree m (smallest integer encoding of the non-leading
coefficients), found by exhaustive search and verified by trial division.

Fields up to q = 2^16 are supported, and every one of them keeps discrete
log/antilog tables to the smallest primitive element, built on first use.
Multiplication, inversion, powering, the trace and the exhaustive character
sums are then table lookups.
"""

from __future__ import annotations

import numpy as np

from .errors import DegreeConditionViolated, TrivialCharacter

MAX_Q = 1 << 16

# Witness set making Miller-Rabin deterministic for all n < 2^64.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n < 2^64."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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

    def __init__(self, p: int, m: int = 1, modulus: list[int] | None = None):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if m < 1:
            raise ValueError("extension degree must be at least 1")
        q = p ** m
        if q > MAX_Q:
            raise ValueError(f"field size {q} exceeds the supported maximum {MAX_Q}")
        if modulus is None:
            modulus = _lowest_irreducible(p, m)
        else:
            modulus = [int(c) % p for c in modulus]
            _poly_trim(modulus)
            if len(modulus) - 1 != m or modulus[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {m}")
            if not _is_irreducible(modulus, p):
                raise ValueError("modulus is reducible over the prime field")
        self.p = p
        self.m = m
        self.q = q
        self.modulus = tuple(modulus)
        self._p_pows = np.array([p ** i for i in range(m)], dtype=np.int64)
        self._char_roots = np.exp(2j * np.pi * np.arange(p) / p)
        self._exp = None
        self._log = None
        self._digit_table = None
        self._trace_array = None

    # -- encoding ----------------------------------------------------------

    def encode(self, coeffs) -> int:
        total = 0
        for i, c in enumerate(coeffs):
            total += (int(c) % self.p) * self.p ** i
        return total

    def decode(self, a: int) -> list[int]:
        return _int_digits(int(a), self.p, self.m)

    def _check(self, a: int) -> int:
        a = int(a)
        if not 0 <= a < self.q:
            raise ValueError(f"element encoding {a} outside [0, {self.q})")
        return a

    # -- scalar arithmetic on integer encodings -----------------------------

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        da, db = self.decode(a), self.decode(b)
        return self.encode([(x + y) % self.p for x, y in zip(da, db)])

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        return self.encode([(-x) % self.p for x in self.decode(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        exp, log = self._tables()
        return int(exp[(log[a] + log[b]) % (self.q - 1)])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of the zero field element")
        exp, log = self._tables()
        return int(exp[(-log[a]) % (self.q - 1)])

    def power(self, a: int, e: int) -> int:
        if e < 0:
            return self.power(self.inv(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        exp, log = self._tables()
        return int(exp[(int(log[a]) * e) % (self.q - 1)])

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
            rows = [_poly_mod([0] * i + self.decode(gen), list(self.modulus), p)
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

    def trace(self, a: int) -> int:
        """Absolute trace tr(a) = a + a^p + ... + a^(p^(m-1)), an integer in [0, p)."""
        return int(self.trace_table[self._check(a)])

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

    def additive_character(self, j: int, a: int) -> complex:
        """chi_j(a) = exp(2 pi i tr(j a) / p); chi_0 is identically 1."""
        return complex(self._char_roots[self.trace(self.mul(j, a))])

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

    # -- element construction -------------------------------------------------

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def element(self, x) -> "FieldElement":
        if isinstance(x, FieldElement):
            if x.field is not self:
                raise ValueError("element belongs to a different field")
            return x
        if isinstance(x, (list, tuple)):
            return FieldElement(self, self.encode(x))
        return FieldElement(self, self._check(x))

    def __call__(self, x) -> "FieldElement":
        return self.element(x)

    def elements(self):
        for a in range(self.q):
            yield FieldElement(self, a)

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


class FieldElement:
    """An element of a FiniteField, identified by its integer encoding."""

    __slots__ = ("field", "value")

    def __init__(self, field: FiniteField, value: int):
        self.field = field
        self.value = field._check(value)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return tuple(self.field.decode(self.value))

    def _coerce(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        return self.field.element(other)

    def __add__(self, other):
        other = self._coerce(other)
        return FieldElement(self.field, self.field.add(self.value, other.value))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.value))

    def __sub__(self, other):
        other = self._coerce(other)
        return FieldElement(self.field, self.field.sub(self.value, other.value))

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        return FieldElement(self.field, self.field.mul(self.value, other.value))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        return FieldElement(self.field, self.field.mul(self.value, self.field.inv(other.value)))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.power(self.value, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv(self.value))

    def trace(self) -> int:
        return self.field.trace(self.value)

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldElement):
            return self.field == other.field and self.value == other.value
        if isinstance(other, int):
            return self.value == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field, self.value))

    def __repr__(self) -> str:
        return f"FieldElement({self.value} of {self.field!r})"


class FieldPolynomial:
    """Polynomial over a finite field; coefficient i multiplies x^i."""

    def __init__(self, field: FiniteField, coeffs):
        values = [field.element(c).value for c in coeffs]
        while values and values[-1] == 0:
            values.pop()
        self.field = field
        self.coeff_values = tuple(values)

    @property
    def coeffs(self) -> tuple[FieldElement, ...]:
        return tuple(FieldElement(self.field, v) for v in self.coeff_values)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeff_values) - 1

    def __call__(self, a) -> FieldElement:
        a = self.field.element(a).value
        acc = 0
        for c in reversed(self.coeff_values):
            acc = self.field.add(self.field.mul(acc, a), c)
        return FieldElement(self.field, acc)

    def __repr__(self) -> str:
        return f"FieldPolynomial({list(self.coeff_values)} over {self.field!r})"


def absolute_trace(a: FieldElement) -> int:
    """Absolute trace of a field element, as an integer in [0, p)."""
    return a.field.trace(a.value)


def additive_character(j, a) -> complex:
    """chi_j(a) = exp(2 pi i tr(j a) / p) for elements j, a of the same field."""
    if isinstance(j, FieldElement):
        field = j.field
    elif isinstance(a, FieldElement):
        field = a.field
    else:
        raise TypeError("need at least one FieldElement to infer the field")
    j = field.element(j).value
    a = field.element(a).value
    return field.additive_character(j, a)


def poly_eval(f: FieldPolynomial, a) -> FieldElement:
    """Horner evaluation of f at a."""
    return f(a)


def weil_sum(f: FieldPolynomial, chi_index=1) -> complex:
    """Exhaustive additive character sum  sum_{a in F_q} chi(f(a)).

    Requires a nontrivial character and a degree d >= 1 coprime to q; under
    those conditions the magnitude obeys the Weil bound (d - 1) sqrt(q).
    """
    field = f.field
    j = field.element(chi_index).value
    if j == 0:
        raise TrivialCharacter("chi_0 sums to q trivially; use a nonzero index")
    d = f.degree
    if d < 1 or d % field.p == 0:
        raise DegreeConditionViolated(
            f"need degree >= 1 and coprime to q = {field.q}, got degree {d}")
    q = field.q
    elems = np.arange(q, dtype=np.int64)
    acc = np.full(q, f.coeff_values[-1], dtype=np.int64)
    for c in reversed(f.coeff_values[:-1]):
        acc = field.mul_vec(acc, elems)
        if c:
            acc = field.add_vec(acc, np.full(q, c, dtype=np.int64))
    vals = field.character_roots[field.trace_table[field.mul_vec(np.full(q, j), acc)]]
    return complex(vals.sum())
