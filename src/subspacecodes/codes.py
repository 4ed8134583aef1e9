"""Analog subspace code constructions and exact parameter evaluation.

Covers character-polynomial (CP) line codes built from additive character
evaluations of sparse polynomials over GF(q), line packings obtained from
binary codebooks, uniform random ensembles, codeword-wise dual codes, a
complex-to-real doubling map, exhaustive minimum-distance search, and a
JSON on-disk format.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, Infeasible
from .finitefield import FiniteField, is_prime
from .subspaces import (TOL_EQUAL, Subspace, SubspaceCode, _budget, _check_orthonormal,
                        _random_bases, complement, pairwise)

DEFAULT_SEARCH_CAP = 10 ** 4
# Most basis entries (M times n) cp_construct allocates: CP (4096, 1), 268 MB.
# random_ensemble_code takes the same guard on its M m n entries.
CP_MAX_ENTRIES = 4096 * 4095
# Rejected draws in a row after which random_ensemble_code gives up.
ENSEMBLE_MAX_RETRIES = 50


def min_distance_exhaustive(code: SubspaceCode, cap: int = DEFAULT_SEARCH_CAP):
    """Exact minimum pairwise distance and the achieving index pair.

    Visits all M(M-1)/2 unordered pairs through pairwise(), one block of
    rows at a time, so no M x M matrix is formed; on ties the first pair in
    row-major order wins.  Raises Infeasible if the code has more than
    ``cap`` codewords.
    """
    M = len(code)
    if M < 2:
        raise ConfigError("minimum distance needs at least two codewords")
    if M > cap:
        raise Infeasible(f"{M} codewords exceed the exhaustive search cap {cap}")
    best = math.inf
    pair = (0, 1)
    for lo, hi in code.blocks(code):
        # rows i = lo..hi-1 against columns j = lo..M-1; keep only j > i
        d = pairwise(code.part(lo, hi), code.part(lo, M))
        d[np.tri(hi - lo, M - lo, dtype=bool)] = math.inf
        k = int(np.argmin(d))
        if d.flat[k] < best:
            best = float(d.flat[k])
            i, j = divmod(k, M - lo)
            pair = (lo + i, lo + j)
    return best, pair


@dataclass(frozen=True)
class CodeParameters:
    """Summary invariants of a code: n, l, M, d_min and their normalized forms."""
    ambient_dim: int
    max_dim: int
    size: int
    min_distance: float
    normalized_weight: float        # l / n
    rate: float                     # ln(M) / n, nats per dimension
    normalized_min_distance: float  # d_min / (2 l)


def code_parameters(code: SubspaceCode, d_min: float) -> CodeParameters:
    """The parameters of ``code``, whose minimum distance is ``d_min``."""
    n = code.ambient_dim
    l = code.max_dim
    M = len(code)
    return CodeParameters(
        ambient_dim=n,
        max_dim=l,
        size=M,
        min_distance=d_min,
        normalized_weight=l / n,
        rate=math.log(M) / n,
        normalized_min_distance=d_min / (2.0 * l),
    )


# ---------------------------------------------------------------------------
# character-polynomial codes


@dataclass(frozen=True)
class CPCodeSpec:
    """Parameters of a character-polynomial line code over GF(q).

    Codewords are the lines spanned by (1/sqrt n) (chi(f(a_1)), ..., chi(f(a_n)))
    where f ranges over polynomials whose monomial degrees lie in [1, k] and
    are not divisible by the field characteristic, n = q - 1, and the
    evaluation points a_i are the nonzero field elements in increasing
    integer encoding.  chi(x) = exp(2 pi i tr(x) / p); any other nontrivial
    character, chi(j x), only reorders the lines: chi(j f(a)) is chi of j f.
    """
    field: FiniteField
    k: int

    def __post_init__(self):
        if not 1 <= self.k < self.field.q:
            raise ConfigError(f"need 1 <= k < q, got k = {self.k}, q = {self.field.q}")

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def n(self) -> int:
        return self.field.q - 1


def cp_monomial_set(spec: CPCodeSpec) -> list[int]:
    """Degrees in [1, k] coprime to the characteristic; size ceil(k(p-1)/p)."""
    p = spec.field.p
    return [i for i in range(1, spec.k + 1) if i % p != 0]


def cp_construct(spec: CPCodeSpec) -> SubspaceCode:
    """Build the CP code as a SubspaceCode of q^|monomials| distinct lines.

    Polynomials are enumerated by coefficient tuples over the monomial set in
    lexicographic encoding order, so the construction is fully deterministic;
    the all-zero polynomial comes first and maps to the line of the all-ones
    vector.

    The trace is additive, so tr(f(a)) = sum_d tr(c_d a^d) mod p over the
    monomials d of f.  One (q, n) table of tr(c a^d) per monomial, indexed
    by the coefficient c, is broadcast-summed over the coefficient grid
    (first monomial slowest) to give every codeword's trace exponents.
    Infeasible, before any field table is built, past CP_MAX_ENTRIES.
    """
    field = spec.field
    q = field.q
    n = spec.n
    mons = cp_monomial_set(spec)
    size = q ** len(mons)
    if size * n > CP_MAX_ENTRIES:
        raise Infeasible(f"CP ({q},{spec.k}) has {size} codewords of length {n}; "
                         f"needs at most {CP_MAX_ENTRIES} basis entries")
    pts = np.arange(1, q, dtype=np.int64)
    coeffs = np.arange(q, dtype=np.int64)
    exponents = np.zeros((1, n), dtype=np.int64)
    for d in mons:
        table = field.trace_table[field.mul_vec(coeffs[:, None], field.pow_vec(pts, d)[None, :])]
        exponents = (exponents[:, None, :] + table[None, :, :]).reshape(-1, n)
    exponents %= field.p
    rows = field.character_roots[exponents]
    rows *= 1.0 / math.sqrt(n)
    return SubspaceCode._from_rows(rows, np.ones(size, dtype=np.intp))


def cp_min_distance(code: SubspaceCode) -> float:
    """Minimum distance of a code that cp_construct built, from the one
    column of distances to codeword 0.

    The polynomials form a group under addition and chi(f - g) =
    chi(f) conj chi(g), so <u_f, u_g> = <u_{f-g}, u_0>: every distance
    between two codewords is the distance of a third to codeword 0, the
    line of the zero polynomial.
    """
    return float(np.min(pairwise(code, code.part(0, 1))[1:]))


def cp_distance_bound(spec: CPCodeSpec) -> float:
    """Provable lower bound on the normalized minimum distance:
    1 - ((k-1) sqrt(q) + 1)^2 / n^2."""
    return _cp_bound(spec.q, spec.k)


def _cp_bound(q: int, k: int) -> float:
    """cp_distance_bound of CP (q, k), n = q - 1, for any q."""
    return 1.0 - ((k - 1) * math.sqrt(q) + 1.0) ** 2 / (q - 1) ** 2


def cp_simplified_bound(q: int, rate: float) -> float:
    """Asymptotic form of the CP distance bound: 1 - q R^2 / (ln q)^2."""
    return cp_simplified_curve(q)(rate)


def cp_simplified_curve(q: int):
    """cp_simplified_bound at q as a function of the rate, for a curve of
    many rates: q is tested for primality once, here."""
    if not is_prime(q):
        raise ConfigError(f"cp curve needs prime q, got {q}")
    log_q_squared = math.log(q) ** 2

    def bound(rate: float) -> float:
        if rate <= 0:
            raise ConfigError("rate must be positive")
        return 1.0 - q * rate ** 2 / log_q_squared
    return bound


def cp_max_k_for_delta(q: int, delta_target: float) -> int:
    """Largest k < q whose CP distance bound at n = q - 1 still meets the target.

    Returns 0 when even k = 1 falls short.  The bound holds exactly when
    k <= 1 + (n sqrt(1 - delta) - 1) / sqrt(q); from that k, clamped to [0, q - 1],
    single steps settle the float test, which is monotone in k.
    """
    if not is_prime(q):
        raise ConfigError(f"expected prime q, got {q}")
    if not 0.0 < delta_target <= 1.0:
        raise ConfigError("delta target must lie in (0, 1]")
    n, sq = q - 1, math.sqrt(q)
    k = min(max(math.floor(1.0 + (n * math.sqrt(1.0 - delta_target) - 1.0) / sq), 0), q - 1)
    while k > 0 and _cp_bound(q, k) < delta_target:
        k -= 1
    while k < q - 1 and _cp_bound(q, k + 1) >= delta_target:
        k += 1
    return k


# ---------------------------------------------------------------------------
# other constructions


def binary_to_lines(codebook, length: int | None = None) -> SubspaceCode:
    """Map binary words to the lines of their +-1 images (0 -> +1, 1 -> -1).

    Complementary words span the same line and collapse to a single
    codeword.  Words may be strings like "0110" or integer sequences; a bit
    that is not 0 or 1 (1.0 counts as 1; 1.5, true and "1" do not) is
    refused, and so is a codebook given as one string, which would read as
    one-bit words.
    """
    if isinstance(codebook, str):
        raise ConfigError(f"the codebook must be a sequence of words, not the string {codebook!r}")
    words = []
    for w in codebook:
        try:
            bits = [{"0": 0, "1": 1}.get(ch, ch) for ch in w] if isinstance(w, str) else list(w)
        except TypeError:  # a number, not a sequence of bits
            raise ConfigError(f"non-binary word {w!r}") from None
        if any(isinstance(b, (bool, str)) or b not in (0, 1) for b in bits):
            raise ConfigError(f"non-binary word {w!r}")
        words.append(tuple(int(b) for b in bits))
    if not words:
        raise ConfigError("empty codebook")
    if length is None:
        length = len(words[0])
    if length < 1:
        raise ConfigError(f"word length must be at least 1, got {length}")
    canon = []
    for bits in words:
        if len(bits) != length:
            raise ConfigError(f"word of length {len(bits)}, expected {length}")
        # exactly one of a word and its complement starts with 0
        canon.append(bits if bits[0] == 0 else tuple(1 - b for b in bits))
    lines = list(dict.fromkeys(canon))  # first occurrence order, repeats dropped
    rows = (1.0 - 2.0 * np.array(lines, dtype=float)) * (1.0 / math.sqrt(length))
    return SubspaceCode._from_rows(rows, np.ones(len(lines), dtype=np.intp))


def line_delta_from_hamming(gamma: float) -> float:
    """Normalized line distance of +-1 images of binary words at normalized
    Hamming distance gamma: 1 - (1 - 2 gamma)^2."""
    if not 0.0 <= gamma <= 1.0:
        raise ConfigError("normalized Hamming distance must lie in [0, 1]")
    return 1.0 - (1.0 - 2.0 * gamma) ** 2


def random_ensemble_code(n: int, m: int, M: int, rng: np.random.Generator,
                         complex_field: bool = True) -> SubspaceCode:
    """M independent uniform m-dimensional subspaces of an n-dimensional space.

    Candidates are drawn in turn, and one within the equality tolerance of a
    codeword already accepted is rejected; Infeasible after
    ENSEMBLE_MAX_RETRIES rejections in a row, and before any draw past
    CP_MAX_ENTRIES basis entries.  The candidates are drawn in
    batches from rng, each batch orthonormalized by one stacked SVD and
    screened by one pairwise() table against the accepted codewords and one
    within itself, then accepted in order.  A batch holds no more candidates
    than the draw would examine anyway: the slots still open, the retries
    left, and as many as keep a table row against all M codewords within
    subspaces._BLOCK_BYTES, read at the call.  So a seed gives the code that
    drawing one random_subspace at a time gives, and leaves rng where that
    leaves it.
    """
    if M < 2:
        raise ConfigError("an ensemble needs at least two codewords")
    if not 0 < m <= n:
        raise ConfigError(f"need 0 < m <= n, got m = {m}, n = {n}")
    if M * m * n > CP_MAX_ENTRIES:
        raise Infeasible(f"an ensemble of {M} subspaces with m = {m}, n = {n} "
                         f"needs at most {CP_MAX_ENTRIES} basis entries")
    buf = np.empty((M * m, n), dtype=complex if complex_field else float)
    # a read-only view of buf; the bases of the words accepted so far fill its first rows
    code = SubspaceCode._from_rows(buf.view(), np.full(M, m, dtype=np.intp))
    most = max(1, _budget(None) // (8 * M))
    accepted = rejected = 0
    while accepted < M:
        if rejected >= ENSEMBLE_MAX_RETRIES:
            raise Infeasible(
                f"could not draw {M} distinct subspaces with m = {m}, n = {n}")
        count = min(M - accepted, ENSEMBLE_MAX_RETRIES - rejected, most)
        bases = _random_bases(n, m, count, rng, complex_field)
        batch = SubspaceCode._from_rows(bases.reshape(-1, n), np.full(count, m, dtype=np.intp))
        far = np.all(pairwise(batch, code.part(0, accepted)) > TOL_EQUAL, axis=1)
        near = pairwise(batch, batch) <= TOL_EQUAL
        keep = np.zeros(count, dtype=bool)
        for j in range(count):
            keep[j] = far[j] and not keep[near[j]].any()
            rejected = 0 if keep[j] else rejected + 1
        kept = bases[keep]
        buf[accepted * m:(accepted + len(kept)) * m] = kept.reshape(-1, n)
        accepted += len(kept)
    return code


def dual_code(code: SubspaceCode) -> SubspaceCode:
    """Codeword-wise orthogonal complements; preserves pairwise distances."""
    return SubspaceCode([complement(w) for w in code])


def complex_to_real_double(code: SubspaceCode) -> SubspaceCode:
    """Double each complex basis Z into the real basis [[Re Z, Im Z], [-Im Z, Re Z]].

    Sends G_{m,n}(C) into G_{2m,2n}(R), doubling the ambient and codeword
    dimensions and every pairwise distance, so the code size and normalized
    minimum distance are preserved.
    """
    if not code.is_constant_dimension:
        raise ConfigError("doubling map expects a constant-dimension code")
    words = []
    for w in code:
        z = np.asarray(w.basis, dtype=complex)
        re, im = z.real, z.imag
        doubled = np.block([[re, im], [-im, re]])
        words.append(Subspace(doubled))
    return SubspaceCode(words)


# ---------------------------------------------------------------------------
# JSON on-disk format


def _as_integer(value, what: str) -> int:
    """``value`` as an int; ConfigError naming ``what`` unless it is an
    integral number.  JSON booleans and strings are refused, though int()
    would take true as 1 and "7" as 7."""
    if not isinstance(value, (bool, str)):
        with contextlib.suppress(TypeError, ValueError, OverflowError):
            if (number := int(value)) == value:
                return number
    raise ConfigError(f"{what} must be an integer, got {value!r}")


def _json_float(x: float) -> str:
    """``x`` as the json module writes it: repr, or NaN, Infinity, -Infinity."""
    if math.isfinite(x):
        return repr(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def save_code(code: SubspaceCode, path) -> None:
    """Write ``code`` as one line of JSON, {"beta":1|2,"codewords":[...],"n":n}.

    Each codeword is its basis flattened row-major into [re, im] pairs; the
    row count is recovered from the ambient dimension.  The bytes are those
    the json module writes with sorted keys and no spaces, but each distinct
    entry, told apart by its bit pattern so that -0.0 is not 0.0, is
    formatted once: a CP code's entries are p-th roots of unity over
    sqrt(n), so its file holds at most p distinct pairs.  The pairs are
    looked up and written one codeword at a time.
    """
    if len(code) == 0:
        raise ValueError("refusing to serialize an empty code")
    n = code.ambient_dim
    # each entry as its 16 bytes, so that a dict finds the distinct entries in
    # one pass; np.unique would sort, and its first call maps about 0.5 MB more
    # of NumPy into the process
    entries = np.ascontiguousarray(code.rows, dtype=complex).view("V16").reshape(-1).tolist()
    distinct = list(dict.fromkeys(entries))
    parts = np.frombuffer(b"".join(distinct), dtype=float).reshape(-1, 2)
    re_parts, im_parts = parts.T.tolist()
    pairs = [f"[{re!r},{im!r}]" for re, im in zip(re_parts, im_parts)]
    # repr spells a non-finite float nan, inf or -inf, where json has NaN,
    # Infinity or -Infinity
    for i in np.flatnonzero(~np.isfinite(parts).all(axis=1)).tolist():
        pairs[i] = "[{},{}]".format(*map(_json_float, parts[i].tolist()))
    text = dict(zip(distinct, pairs))
    beta = 2 if np.iscomplexobj(code.rows) else 1
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"beta":{beta},"codewords":[')
        for i, (start, dim) in enumerate(zip(code.starts.tolist(), code.dims.tolist())):
            fh.write(("[" if i == 0 else ",[")
                     + ",".join(map(text.__getitem__, entries[start * n:(start + dim) * n])) + "]")
        fh.write(f'],"n":{n}}}\n')


_PAIRS = "a codeword must be a list of [re, im] pairs of numbers"


def _code_from_json(text: str) -> SubspaceCode:
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got a JSON {type(data).__name__}")
    # a key no reader reads is refused, as in a config, so no typo passes unread
    if unknown := [key for key in data if key not in ("beta", "codewords", "n")]:
        raise ValueError(f"unknown key(s) {', '.join(map(repr, unknown))}")
    if missing := [key for key in ("beta", "codewords", "n") if key not in data]:
        raise ValueError(f"missing key(s) {', '.join(map(repr, missing))}")
    beta = _as_integer(data["beta"], "'beta'")
    if beta not in (1, 2):
        raise ValueError(f"beta must be 1 or 2, got {beta}")
    n = _as_integer(data["n"], "'n'")
    if n < 1:
        raise ValueError(f"ambient dimension n must be at least 1, got {n}")
    words = data["codewords"]
    if not isinstance(words, list):
        raise ValueError("'codewords' must be a list")
    if not words:
        raise ValueError("'codewords' is empty: a code has at least one codeword")
    if not all(isinstance(pairs, list) for pairs in words):
        raise ValueError(_PAIRS)
    # every codeword's row-major [re, im] pairs, one after another, as one array
    try:
        flat = np.asarray(list(itertools.chain.from_iterable(words)))
    except ValueError:  # NumPy's "inhomogeneous shape": pairs of unequal lengths
        raise ValueError(_PAIRS) from None
    if flat.shape == (0,):  # zero-dimensional codewords only
        flat = flat.reshape(0, 2)
    if flat.ndim != 2 or flat.shape[1] != 2 or flat.dtype.kind not in "iuf":
        raise ValueError(_PAIRS)
    dims, partial = np.divmod(np.array(list(map(len, words)), dtype=np.intp), n)
    if (bad := np.flatnonzero(partial | (dims > n))).size:
        if partial[bad[0]]:
            raise ValueError("codeword length is not a multiple of the ambient dimension")
        raise ValueError(f"{dims[bad[0]]} orthonormal rows cannot fit in ambient dimension {n}")
    flat = np.ascontiguousarray(flat, dtype=float)
    if beta == 1:
        if np.any(flat[:, 1] != 0):
            raise ValueError("real code (beta = 1) with nonzero imaginary parts")
        rows = np.ascontiguousarray(flat[:, 0]).reshape(-1, n)
    else:
        rows = flat.view(complex).reshape(-1, n)
    # a JSON boolean is not a number, though beside numbers the dtype hides it.
    # In JSON text a "u" or an "l" is part of true, false, null or a string,
    # and a code file's keys and numbers (NaN and Infinity too) hold neither,
    # so a file with neither letter holds no boolean and needs no scan
    if ("u" in text or "l" in text) and bool in set(map(type, itertools.chain.from_iterable(
            itertools.chain.from_iterable(words)))):
        raise ValueError(_PAIRS + ", not booleans")
    code = SubspaceCode._from_rows(rows, dims)
    for m in sorted(set(dims.tolist())):
        # orthonormality is re-validated on load, one stack per codeword dimension
        _check_orthonormal(code.bases(np.flatnonzero(dims == m)))
    return code


def load_code(path) -> SubspaceCode:
    """Read a code file that save_code wrote.  ConfigError naming the file
    unless it holds valid JSON of that form, with orthonormal bases."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return _code_from_json(fh.read())
    except (ValueError, OverflowError) as exc:  # OverflowError: an n past the int64 range
        raise ConfigError(f"code file {path}: {exc}") from exc
