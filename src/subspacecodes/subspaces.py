"""Real and complex subspace arithmetic on orthonormal row bases.

A subspace of R^n or C^n is stored as an (m, n) basis matrix with
orthonormal rows; m = 0 encodes the zero subspace.  The central quantity is
the squared projection distance

    d(U, V) = ||P_U - P_V||_F^2 = tr((P_U - P_V)^2),

where P_U = Z^H Z for an orthonormal basis Z.  It equals twice the squared
chordal distance, is defined for subspaces of unequal dimension, and is a
2-relaxed quasimetric on the set of all subspaces of a fixed ambient space.

Distances are computed from the bases alone, through the cross-Gram matrix
C = Z_U Z_V^H: tr(P_U P_V) = ||C||_F^2, so

    d(U, V) = dim U + dim V - 2 ||Z_U Z_V^H||_F^2,

and no n x n projection is formed.  ``pairwise`` evaluates this identity for
every pair of codewords of two codes, each stored as its codewords'
bases stacked into one row matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

# Orthonormality defect tolerated in a stored basis.
TOL_ORTH = 1e-10
# Singular values below TOL_RANK * sigma_max count as zero.
TOL_RANK = 1e-9
# Subspaces closer than this (in d) count as equal.
TOL_EQUAL = 1e-9
# Size of the cross-Gram product that pairwise() forms per block of rows.
_BLOCK_BYTES = 2 ** 21


class Subspace:
    """An m-dimensional subspace of an n-dimensional ambient space.

    The basis is an (m, n) array with orthonormal rows, real for an ambient
    space over R and complex over C.  Subspace(basis) checks the rows
    (ValueError unless finite and orthonormal) and keeps a read-only copy;
    an instance holds nothing else and never changes.
    """

    __slots__ = ("_basis",)

    def __init__(self, basis):
        basis = _as_float_matrix(basis)
        m, n = basis.shape
        if m > n:
            raise ValueError(f"{m} orthonormal rows cannot fit in ambient dimension {n}")
        _check_orthonormal(basis[np.newaxis])
        self._basis = basis.copy()
        self._basis.setflags(write=False)

    @classmethod
    def _view(cls, basis: np.ndarray) -> "Subspace":
        """The subspace spanned by ``basis``, a 2-d inexact array with
        orthonormal rows, taken as it is and made read-only: no copy, no check."""
        basis.setflags(write=False)
        U = object.__new__(cls)
        U._basis = basis
        return U

    @classmethod
    def zero(cls, ambient_dim: int, complex_field: bool = True) -> "Subspace":
        """The zero subspace {0}, encoded as an empty (0, n) basis."""
        dtype = complex if complex_field else float
        return cls._view(np.zeros((0, ambient_dim), dtype=dtype))

    @classmethod
    def full(cls, ambient_dim: int, complex_field: bool = True) -> "Subspace":
        """The whole ambient space."""
        dtype = complex if complex_field else float
        return cls._view(np.eye(ambient_dim, dtype=dtype))

    @property
    def basis(self) -> np.ndarray:
        return self._basis

    @property
    def ambient_dim(self) -> int:
        return self._basis.shape[1]

    @property
    def dim(self) -> int:
        return self._basis.shape[0]

    @property
    def is_complex(self) -> bool:
        return bool(np.issubdtype(self._basis.dtype, np.complexfloating))

    @property
    def beta(self) -> int:
        """Field parameter: 1 for a real ambient space, 2 for a complex one."""
        return 2 if self.is_complex else 1

    @property
    def projection(self) -> np.ndarray:
        """The n x n orthogonal projection onto this subspace, formed on each access."""
        return self._basis.conj().T @ self._basis

    def __repr__(self) -> str:
        letter = "C" if self.is_complex else "R"
        return f"Subspace(dim={self.dim}, ambient={letter}^{self.ambient_dim})"


def _check_orthonormal(bases: np.ndarray) -> None:
    """Raise ValueError unless every basis in the (B, m, n) stack, m <= n, is
    finite with orthonormal rows."""
    if not np.all(np.isfinite(bases)):
        raise ValueError("basis has non-finite entries")
    gram = bases @ bases.conj().transpose(0, 2, 1)
    defect = np.max(np.abs(gram - np.eye(bases.shape[1])), initial=0.0)
    # written so that a NaN defect fails the test too
    if not defect <= TOL_ORTH:
        raise ValueError("rows are not orthonormal; use orthonormalize()")


def _as_float_matrix(raw) -> np.ndarray:
    """``raw`` as a 2-d float64 or complex128 array, a vector becoming one
    row: every basis is double precision, as TOL_ORTH requires."""
    raw = np.asarray(raw)
    if raw.ndim == 1:
        raw = raw[np.newaxis, :]
    if raw.ndim != 2:
        raise ValueError("expected a vector or a 2-d matrix")
    return raw.astype(complex if np.iscomplexobj(raw) else float, copy=False)


def _numerical_rank(s: np.ndarray):
    """Numerical rank of each row of singular values in the stack ``s``
    (each row descending): the count above TOL_RANK times the row's first."""
    return np.count_nonzero(s > TOL_RANK * s[..., :1], axis=-1)


def _check_same_ambient(U: Subspace, V: Subspace) -> None:
    if U.ambient_dim != V.ambient_dim:
        raise ConfigError(
            f"ambient dimensions differ: {U.ambient_dim} vs {V.ambient_dim}")


def orthonormalize(raw) -> Subspace:
    """Row space of ``raw`` as a Subspace with an orthonormal basis.

    The dimension is the numerical rank: singular values above TOL_RANK
    times the largest one.  A zero (or empty) matrix gives the zero subspace.
    """
    raw = _as_float_matrix(raw)
    rows, n = raw.shape
    if rows == 0 or not np.any(raw):
        return Subspace._view(np.zeros((0, n), dtype=raw.dtype))
    _, s, vh = np.linalg.svd(raw, full_matrices=False)
    # rows of vh are orthonormal by construction
    return Subspace._view(vh[:_numerical_rank(s)])


def distance(U: Subspace, V: Subspace) -> float:
    """Squared projection distance ||P_U - P_V||_F^2.

    Symmetric, zero exactly on equal subspaces, defined for any dimensions,
    and equal to 2 * chordal_distance(U, V)**2.  It is the residual kernel
    _residual_distances on a stack of one.
    """
    _check_same_ambient(U, V)
    return float(_residual_distances(U.basis[np.newaxis], V.basis[np.newaxis])[0])


def _residual_distances(zu: np.ndarray, zv: np.ndarray) -> np.ndarray:
    """d(U_i, V_i) for every pair of a (B, a, n) and a (B, b, n) stack of
    orthonormal bases, (B,).

    With U the operand of smaller dimension and C = Z_U Z_V^H, the residual
    R = Z_U - C Z_V has ||R||_F^2 = dim U - ||C||_F^2, and so does Z_V -
    C^H Z_U after adding dim V - dim U.  Hence d = 2 ||R||_F^2 + dim V - dim U.
    The residual is formed before it is squared, so a distance near 0 keeps
    full relative accuracy, which the Gram identity loses to cancellation.
    Each pair is computed alone, so its distance does not depend on the
    rest of the stack.
    """
    if zu.shape[1] > zv.shape[1]:
        zu, zv = zv, zu
    residual = zu - (zu @ zv.conj().transpose(0, 2, 1)) @ zv
    # |r|^2 summed as the squares of the residual's float view, re and im alike
    parts = residual.view(residual.real.dtype)
    return 2.0 * np.square(parts).sum(axis=(1, 2)) + (zv.shape[1] - zu.shape[1])


class SubspaceCode:
    """A finite list of subspaces sharing one ambient space.

    The codeword bases are stacked into one read-only (R, n) row matrix,
    ``rows``: codeword i owns dims[i] rows starting at row starts[i], and a
    zero-dimensional codeword owns none.  ``common_dim`` is the dimension
    all codewords share, or -1 when they differ.  Real and complex bases
    stack as complex rows.  SubspaceCode(codewords) copies the bases of a list
    of Subspace objects; a code caches nothing.  Indexing and iteration give
    each codeword as a Subspace on a view of its rows; ``pairwise`` works on
    the rows directly.
    """

    __slots__ = ("rows", "dims", "starts", "common_dim")

    def __init__(self, codewords):
        bases = [w.basis for w in codewords]
        if any(b.shape[1] != bases[0].shape[1] for b in bases):
            raise ConfigError("codewords live in different ambient spaces")
        self._set(np.concatenate(bases) if bases else np.zeros((0, 0)),
                  [b.shape[0] for b in bases])

    @classmethod
    def _from_rows(cls, rows: np.ndarray, dims, common_dim: int | None = None) -> "SubspaceCode":
        """The code whose codeword i is the next dims[i] rows of ``rows``,
        taken without a copy or a check and made read-only."""
        code = object.__new__(cls)
        code._set(rows, dims, common_dim)
        return code

    def _set(self, rows: np.ndarray, dims, common_dim: int | None = None) -> None:
        """Set the fields; common_dim is derived from dims unless given."""
        dims = np.asarray(dims, dtype=np.intp)
        if common_dim is None:
            common_dim = int(dims[0]) if dims.size and np.all(dims == dims[0]) else -1
        rows.setflags(write=False)
        self.rows = rows
        self.dims = dims
        self.starts = np.cumsum(dims) - dims
        self.common_dim = common_dim

    def __len__(self) -> int:
        return len(self.dims)

    def __getitem__(self, i) -> Subspace:
        i = range(len(self.dims))[i]  # negative indices; IndexError when out of range
        start = self.starts[i]
        # rows is read-only, so its slice is too and can back the codeword unchanged
        return Subspace._view(self.rows[start:start + self.dims[i]])

    def __iter__(self):
        return map(self.__getitem__, range(len(self.dims)))

    def bases(self, idx: np.ndarray) -> np.ndarray:
        """The bases of codewords ``idx``, which share one dimension m, as one
        (len(idx), m, n) stack: a single fancy index into ``rows``."""
        if self.common_dim >= 0:
            return self.rows.reshape(len(self), self.common_dim, self.rows.shape[1])[idx]
        dims = self.dims[idx]
        m = int(dims[0]) if len(dims) else 0
        if np.any(dims != m):
            raise ConfigError("bases() stacks codewords of one dimension only")
        return self.rows[self.starts[idx][:, np.newaxis] + np.arange(m)]

    @property
    def ambient_dim(self) -> int:
        if not len(self.dims):
            raise ValueError("empty code has no ambient dimension")
        return self.rows.shape[1]

    @property
    def max_dim(self) -> int:
        return self.common_dim if self.common_dim >= 0 else int(self.dims.max(initial=0))

    @property
    def is_constant_dimension(self) -> bool:
        return self.common_dim >= 0

    def distances_to(self, received: Subspace) -> np.ndarray:
        """Distance from every codeword to ``received``, through pairwise()."""
        if not len(self.dims):
            return np.zeros(0)
        return pairwise(self, SubspaceCode([received]))[:, 0]

    def part(self, lo: int, hi: int) -> "SubspaceCode":
        """Codewords lo..hi-1, sharing this code's rows."""
        if lo == 0 and hi == len(self):
            return self
        first, stop = 0, 0
        if lo < hi:
            first, stop = self.starts[lo], self.starts[hi - 1] + self.dims[hi - 1]
        # the whole code's common_dim, so pairwise() takes one path whatever the blocks
        return SubspaceCode._from_rows(self.rows[first:stop], self.dims[lo:hi], self.common_dim)

    def blocks(self, other: "SubspaceCode"):
        """Ranges (lo, hi) covering this code whose cross-Gram product with
        ``other`` takes at most about _BLOCK_BYTES each; one empty range for
        a code of no codewords."""
        row_bytes = _entry_bytes(self.rows.dtype, other.rows.dtype) * max(1, other.rows.shape[0])
        step = max(1, _BLOCK_BYTES // (row_bytes * max(1, self.max_dim)))
        M = len(self)
        return [(lo, min(lo + step, M)) for lo in range(0, max(M, 1), step)]

    def one_block(self, dim: int, dtype) -> int:
        """The most codewords of dimension at most ``dim`` that a code A may
        have for pairwise(A, self), its product computed in ``dtype``, to
        take one block: A.blocks(self) then gives the one range (0, len(A))."""
        return _BLOCK_BYTES // (_entry_bytes(dtype) * max(1, self.rows.shape[0]) * max(1, dim))


def _entry_bytes(*dtypes) -> int:
    """Bytes that the block budget counts for an entry of a product of rows
    of ``dtypes``, in their common type: 16 for complex128, 8 for float64
    and complex64, 4 for float32."""
    return np.result_type(*dtypes).itemsize


def _groups(keys: np.ndarray) -> list:
    """(key, positions) for each distinct entry of the integer array
    ``keys``, in order of first appearance."""
    return [(key, np.flatnonzero(keys == key)) for key in dict.fromkeys(keys.tolist())]


def _pair_distances(A: "SubspaceCode", ia: np.ndarray, B: "SubspaceCode",
                    ib: np.ndarray) -> np.ndarray:
    """distance(A[ia[i]], B[ib[i]]) for every i, by the residual kernel: one
    stacked call per pair of dimensions and slice of pairs, so each distance
    is bit-identical to distance() on the two codewords.  A slice's gathered
    bases, 16 n (a + b) bytes a complex pair of dimensions a and b in
    double precision and 8 n (a + b) a real one, take at most about
    _BLOCK_BYTES, so the memory is bounded however many pairs are asked
    for."""
    if A.common_dim >= 0 and B.common_dim >= 0:
        return _sliced_distances(A, ia, B, ib, A.common_dim + B.common_dim)
    out = np.empty(len(ia))
    n = B.rows.shape[1]
    keys = A.dims[ia] * (n + 1) + B.dims[ib]
    for key, at in _groups(keys):
        out[at] = _sliced_distances(A, ia[at], B, ib[at], key // (n + 1) + key % (n + 1))
    return out


def _sliced_distances(A: "SubspaceCode", ia: np.ndarray, B: "SubspaceCode",
                      ib: np.ndarray, dims: int) -> np.ndarray:
    """_pair_distances of pairs whose dimensions sum to ``dims`` and are the
    same for every pair, in slices of at most about _BLOCK_BYTES of bases."""
    pair_bytes = _entry_bytes(A.rows.dtype, B.rows.dtype) * max(1, A.rows.shape[1] * dims)
    step = max(1, _BLOCK_BYTES // pair_bytes)
    if len(ia) <= step:
        return _residual_distances(A.bases(ia), B.bases(ib))
    parts = []
    for lo in range(0, len(ia), step):
        at = slice(lo, lo + step)
        parts.append(_residual_distances(A.bases(ia[at]), B.bases(ib[at])))
    return np.concatenate(parts)


def _row_segment_sums(x: np.ndarray, code: SubspaceCode) -> np.ndarray:
    """Sums of the rows of x that belong to each codeword of ``code``; a
    zero-dimensional codeword sums to 0."""
    out = np.zeros((len(code), x.shape[1]), dtype=x.dtype)
    nonempty = code.dims > 0
    if nonempty.any():
        out[nonempty] = np.add.reduceat(x, code.starts[nonempty], axis=0)
    return out


def _tile_sums(x: np.ndarray) -> np.ndarray:
    """x.sum(axis=(1, 3)) of a C-contiguous (M, a, N, b) array, bit for bit,
    in fewer passes.

    NumPy sums each run of b entries first (one after another below its
    8-term pairwise-summation cutoff, by its own pairwise sum from 8 up) and
    then adds the a run sums in order; so does this, over whole slices.  At
    N = 1 each a x b tile is one contiguous run, which NumPy sums in one
    pass, so that case is left to NumPy.
    """
    if x.shape[2] == 1:
        return x.sum(axis=(1, 3))
    a, b = x.shape[1], x.shape[3]
    runs = _sum_in_order([x[..., j] for j in range(b)]) if b < 8 else x.sum(axis=3)
    return _sum_in_order([runs[:, i] for i in range(a)])


def _sum_in_order(parts: list[np.ndarray]) -> np.ndarray:
    """((parts[0] + parts[1]) + parts[2]) + ...; one part comes back as it is."""
    if len(parts) == 1:
        return parts[0]
    total = parts[0] + parts[1]
    for part in parts[2:]:
        total += part
    return total


def pairwise(A: SubspaceCode, B: SubspaceCode) -> np.ndarray:
    """Distance from every codeword of A to every codeword of B, (len A, len B).

    Uses d(U, V) = dim U + dim V - 2 ||Z_U Z_V^H||_F^2: one matrix product
    per block of A (see SubspaceCode.blocks), then |.|^2 summed over the rows
    of each pair.  Valid for any mix of dimensions, 0 and n included.
    When both codes have one common dimension, each pair's sum runs over B's
    rows first and then over A's, in NumPy's order for the 4-d
    ``sum(axis=(1, 3))`` that earlier releases took, so every distance is
    bit-identical to theirs.
    The table is computed in the precision of the rows: float64 for double
    codes, float32 when both codes are float32 (decode_block's screen).
    Roundoff can push a near-zero distance below 0; results are clamped at 0.
    """
    if A.rows.shape[1] != B.rows.shape[1]:
        raise ConfigError(
            f"ambient dimensions differ: {A.rows.shape[1]} vs {B.rows.shape[1]}")
    b_adj = B.rows.conj().T
    uniform = A.common_dim > 0 and B.common_dim > 0
    parts = []
    for lo, hi in A.blocks(B):
        block = A.part(lo, hi)
        cross = block.rows @ b_adj
        # |c|^2: the product's float view squared in place, then re^2 + im^2
        floats = cross.view(cross.real.dtype)
        overlap = np.square(floats, out=floats)
        if np.iscomplexobj(cross):
            overlap = overlap[:, 0::2] + overlap[:, 1::2]
        if uniform:
            overlap = _tile_sums(overlap.reshape(hi - lo, A.common_dim, len(B), B.common_dim))
            dims = A.common_dim + B.common_dim
        else:
            overlap = _row_segment_sums(_row_segment_sums(overlap, block).T, B).T
            dims = block.dims[:, None] + B.dims
        overlap *= -2.0
        overlap += dims
        parts.append(np.maximum(overlap, 0.0, out=overlap))
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def chordal_distance(U: Subspace, V: Subspace) -> float:
    """Chordal distance (1/sqrt 2) ||P_U - P_V||_F = sqrt(sum_i sin^2 theta_i)."""
    return float(np.sqrt(distance(U, V) / 2.0))


def principal_angles(U: Subspace, V: Subspace) -> np.ndarray:
    """Canonical angles between equal-dimension subspaces, ascending in [0, pi/2].

    The cosines are the singular values of Z T^H, clamped to [0, 1] before
    arccos so roundoff cannot push them outside the domain.
    """
    _check_same_ambient(U, V)
    if U.dim != V.dim:
        raise ConfigError(
            f"principal angles need equal dimensions, got {U.dim} and {V.dim}")
    if U.dim == 0:
        return np.zeros(0)
    s = np.linalg.svd(U.basis @ V.basis.conj().T, compute_uv=False)
    return np.arccos(np.clip(s, 0.0, 1.0))


def complement(U: Subspace) -> Subspace:
    """Orthogonal complement U-perp, satisfying P_{U-perp} = I - P_U: the
    rows of the identity carried into U-perp by _into_complements."""
    m, n = U.basis.shape
    return Subspace._view(
        _into_complements(U.basis[np.newaxis], np.eye(n - m, dtype=U.basis.dtype)[np.newaxis])[0])


def _into_complements(Z: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """The rows of each (t, n - m) coefficient matrix carried isometrically
    into the complement of the row space of its (m, n) basis in the stack Z:
    [0 | coeff] Q^H, (B, t, n).

    Q = H_0 ... H_{m-1} is the unitary of the QR factorization of Z^H, whose
    last n - m columns span Z-perp; LAPACK returns it as m Householder
    reflectors H_j = I - tau_j v_j v_j^H, v_j zero before entry j and 1 there
    (numpy.linalg.qr, mode "raw", one call on the whole stack).  Applying
    H_{m-1}^H, ..., H_0^H to the zero-padded rows in turn costs O(m n t) a
    basis, and the (n - m, n) complement is never formed.
    """
    count, m, n = Z.shape
    out = np.zeros((count, coeff.shape[1], n), dtype=np.result_type(Z, coeff))
    out[:, :, m:] = coeff
    if m == 0:
        return out
    h, tau = np.linalg.qr(Z.conj().transpose(0, 2, 1), mode="raw")  # h[:, j, j + 1:] is v_j's tail
    diagonal = np.arange(m)
    h[:, diagonal, diagonal] = 1.0
    h_adj, tau_adj = h.conj(), tau.conj()[:, :, np.newaxis, np.newaxis]
    for j in range(m - 1, -1, -1):
        # y H_j^H = y - conj(tau_j) (y v_j) v_j^H, on the entries from j on
        tail = out[:, :, j:]
        tail -= (tail @ h[:, j, j:, np.newaxis]) * tau_adj[:, j] * h_adj[:, j, np.newaxis, j:]
    return out


def direct_sum(U: Subspace, V: Subspace) -> Subspace:
    """Sum of two subspaces required to intersect trivially: the row space
    of their stacked bases."""
    _check_same_ambient(U, V)
    total = orthonormalize(np.vstack([U.basis, V.basis]))
    if total.dim != U.dim + V.dim:
        raise ConfigError(
            f"dim(U + V) = {total.dim} < {U.dim} + {V.dim}: intersection is nontrivial")
    return total


def _gaussian(rng: np.random.Generator, shape, complex_field: bool) -> np.ndarray:
    g = rng.standard_normal(shape)
    if complex_field:
        g = g + 1j * rng.standard_normal(shape)
    return g


def random_subspace(n: int, m: int, rng: np.random.Generator,
                    complex_field: bool = True) -> Subspace:
    """Uniformly random m-dimensional subspace (row space of a Gaussian matrix)."""
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    if m == 0:
        return Subspace.zero(n, complex_field)
    return Subspace._view(_random_bases(n, m, 1, rng, complex_field)[0])


def _random_bases(n: int, m: int, count: int, rng: np.random.Generator,
                  complex_field: bool) -> np.ndarray:
    """Orthonormal bases of ``count`` uniformly random m-dimensional subspaces,
    0 < m <= n, as one (count, m, n) stack: one draw, one stacked SVD.

    Each subspace takes its Gaussian matrix's m x n real parts from rng and
    then, over C, its imaginary parts.  Normals drawn at once are those drawn
    in pieces, and the stacked SVD factors each matrix alone, so the stack
    holds bit for bit what ``count`` draws of one subspace each would, and
    leaves rng where they leave it.
    """
    if complex_field:
        g = rng.standard_normal((count, 2, m, n))
        g = g[:, 0] + 1j * g[:, 1]
    else:
        g = rng.standard_normal((count, m, n))
    _, s, vh = np.linalg.svd(g, full_matrices=False)
    if np.any(_numerical_rank(s) != m):  # Gaussian matrices are full rank almost surely
        raise RuntimeError("sampled a rank-deficient Gaussian matrix")
    return vh
