"""Operator channels on subspaces, the matrix channel behind them, and
perturbation bounds for recovering a row space from a noisy matrix.

The operator channel keeps a random k-dimensional part of the transmitted
subspace and adds a random error subspace drawn inside its orthogonal
complement.  The noisy extension additionally rotates the result by a
bounded amount and attaches an extra noise subspace.  A channel use first
draws all of its Gaussian coefficients with one standard_normal call, whose
size follows from dim U alone, and then runs its linear algebra on a stack
of bases, so a block of uses (apply_noisy_operator_channel_block) costs one
stacked QR per stage, which orthonormalizes its rows as Gram-Schmidt does
(and, for an error or noise part, one more of the bases it avoids), and one
use is the block of one.  The Gram-Schmidt basis of a Gaussian draw is
Haar-distributed (Mezzadri 2007), so no singular values are needed.  The
stand-alone stages are channel uses with specs that leave the other stages
idle: erase(U, k) keeps k dimensions and adds none, random_error_subspace(U,
t) keeps none and adds t, and rotate(U, budget) keeps all of U and turns it.
The matrix channel is the physical-layer model Y = H X + G E + N whose row
space feeds the subspace decoder; rq_factorize and the perturbation bounds
quantify how far the row space of a perturbed matrix can drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, Infeasible, NumericalError
from .subspaces import TOL_RANK, Subspace, _gaussian, _into_complements, _numerical_rank


@dataclass(frozen=True)
class ChannelSpec:
    """One channel use: keep k dimensions, add t error dimensions, turn by the
    distance budget ``rotation`` and attach noise_dim = r_d noise dimensions."""
    k: int
    t: int = 0
    rotation: float = 0.0
    noise_dim: int = 0

    def __post_init__(self):
        if self.k < 0 or self.t < 0:
            raise ConfigError("channel parameters must be nonnegative")
        # written so that a NaN budget fails the test too
        if not 0 <= self.rotation < math.inf:
            raise ConfigError(f"rotation budget must be a nonnegative number and finite, "
                              f"got {self.rotation!r}")
        if self.noise_dim < 0:
            raise ConfigError("noise dimension must be nonnegative")


def _draw_shapes(dim: int, n: int, spec: ChannelSpec) -> tuple:
    """Shapes of the erase (k, dim), error (t, n - dim), rotate (b, n) and
    noise (noise_dim, n - b) coefficients of one noisy channel use on a
    dim-dimensional subspace of an n-dimensional space, b = min(dim, k) + t,
    in stream order; None for a stage that draws nothing: erase when
    dim <= k, rotate when the budget or b is 0, and error or noise when it
    adds no dimension.  Infeasible when the error or the noise cannot
    fit next to its subspace, or when b > 0 and the budget exceeds the
    largest distance 2 min(b, n - b) from a b-dimensional subspace: a
    zero-dimensional output takes any finite budget and comes back unturned."""
    k, t, noise = spec.k, spec.t, spec.noise_dim

    def no_room(extra: int, fixed: int) -> Infeasible:
        return Infeasible(f"cannot fit {extra} error dimensions next to a {fixed}-dimensional "
                          f"subspace in ambient dimension {n}")

    if dim + t > n:
        raise no_room(t, dim)
    b = min(dim, k) + t
    turns = spec.rotation > 0 and b > 0
    if turns and spec.rotation > 2 * min(b, n - b):
        raise Infeasible(
            f"rotation budget {spec.rotation!r} exceeds the largest distance {2 * min(b, n - b)} "
            f"from a {b}-dimensional subspace of ambient dimension {n}")
    if b + noise > n:
        raise no_room(noise, b)
    return ((k, dim) if dim > k else None, (t, n - dim) if t else None,
            (b, n) if turns else None, (noise, n - b) if noise else None)


def channel_draw_size(dim: int, n: int, spec: ChannelSpec,
                      complex_field: bool) -> int:
    """How many standard normals one noisy channel use on a dim-dimensional
    subspace of an n-dimensional space draws: the entries of its four
    coefficient arrays, two per complex entry.  Infeasible when the
    use cannot fit."""
    entries = sum(math.prod(shape) for shape in _draw_shapes(dim, n, spec) if shape is not None)
    return 2 * entries if complex_field else entries


def _rank_r_rows(raw: np.ndarray, r: int, what: str) -> np.ndarray:
    """The Gram-Schmidt orthonormalization of the first r rows of each matrix
    of a (B, d, n) stack whose matrices all have numerical rank r, those r
    rows independent: one stacked QR of raw^H for the whole stack.

    raw^H = Q R, so raw = R^H Q^H with R^H lower triangular.  LAPACK leaves
    the phases of R's diagonal to its own sign convention; dividing them out
    of Q gives the factor whose triangle has a positive diagonal, which is
    Gram-Schmidt's, so a unitary applied to the columns of raw carries the
    rows returned along with it.  Column j of raw^H adds a dimension exactly
    when |R_jj| > TOL_RANK max |R_jj|.
    """
    if r == 0:
        return raw[:, :0]
    q, tri = np.linalg.qr(raw.conj().transpose(0, 2, 1))
    diagonal = np.diagonal(tri, axis1=1, axis2=2)[:, np.newaxis]
    size = np.abs(diagonal)
    independent = size > TOL_RANK * size.max(axis=-1, keepdims=True)
    # Gaussian draws have rank r almost surely, in their first r rows
    if np.any(independent != (np.arange(raw.shape[1]) < r)):
        raise RuntimeError(f"rank-deficient {what} draw")
    return (q[:, :, :r] * (diagonal[..., :r] / size[..., :r])).conj().transpose(0, 2, 1)


def _erase_stack(Z: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """Kept parts: the row spaces of coeff @ Z, (B, k, n)."""
    return _rank_r_rows(coeff @ Z, coeff.shape[1], "coefficient")


def _error_stack(Z: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """Error parts inside each Z-perp: the row spaces of coeff carried into
    Z-perp by _into_complements.  A Gaussian coeff is unitarily invariant, so
    any isometry onto Z-perp gives a uniformly random error subspace."""
    return _rank_r_rows(_into_complements(Z, coeff), coeff.shape[1], "coefficient")


def _rotate_stack(Z: np.ndarray, budget: float, g: np.ndarray) -> np.ndarray:
    """Each basis of Z turned by ``budget`` towards g projected onto Z-perp."""
    b, n = Z.shape[1:]
    r = min(b, n - b)
    W = _rank_r_rows(g - (g @ Z.conj().transpose(0, 2, 1)) @ Z, r, "rotation")
    sin2 = budget / (2 * r)
    out = Z.copy()
    out[:, :r] = np.sqrt(1.0 - sin2) * Z[:, :r] + np.sqrt(sin2) * W
    return out


def erase(U: Subspace, k: int, rng: np.random.Generator) -> Subspace:
    """Uniformly random k-dimensional subspace of U; U's span when dim(U) <= k.
    The channel use that keeps k dimensions and adds none."""
    return apply_noisy_operator_channel(U, ChannelSpec(k), rng)


def random_error_subspace(U: Subspace, t: int, rng: np.random.Generator) -> Subspace:
    """Uniformly random t-dimensional subspace of U-perp, so E intersects U
    trivially.  The channel use that keeps no dimension of U and adds t."""
    return apply_noisy_operator_channel(U, ChannelSpec(0, t), rng)


def apply_operator_channel(U: Subspace, spec: ChannelSpec,
                           rng: np.random.Generator):
    """One use of the paper's plain operator channel, ChannelSpec(k, t):
    V = erase(U, k) (+) E with E drawn inside U-perp.

    Returns (V, rho, t) where rho = max(0, dim U - k) is the number of
    dimensions actually erased; d(U, V) <= rho + t holds for every draw.
    """
    V = apply_noisy_operator_channel(U, spec, rng)
    return V, max(0, U.dim - spec.k), spec.t


def rotate(U: Subspace, budget: float, rng: np.random.Generator) -> Subspace:
    """Random same-dimension subspace at distance exactly ``budget`` from U.

    A Gaussian draw projected onto U-perp, its first r = min(dim U, n - dim U)
    rows orthonormalized by Gram-Schmidt, gives r orthonormal directions W_i
    outside U.  The first r basis rows turn towards them by one angle theta,
    Z_i -> cos(theta) Z_i + sin(theta) W_i, so the cross-Gram matrix of the
    two bases is diag(cos theta, ..., cos theta, 1, ..., 1) and
    d(U, V) = 2 r sin^2(theta), which sin^2(theta) = budget / 2r makes equal
    to the budget.  budget = 0 returns U's span; Infeasible when budget > 2r
    and dim U > 0: a zero-dimensional U takes any finite budget and comes
    back unturned.  The channel use that keeps all of U and turns it.
    """
    return apply_noisy_operator_channel(U, ChannelSpec(U.dim, rotation=budget), rng)


def apply_noisy_operator_channel(U: Subspace, spec: ChannelSpec,
                                 rng: np.random.Generator) -> Subspace:
    """Noisy channel use: rotate(erase(U, k) (+) E, budget) (+) F.

    F has exactly spec.noise_dim dimensions and is drawn inside the
    complement of the rotated subspace, so the bases stack.  With rotation
    = 0 and noise_dim = 0 this returns the plain operator channel's output.
    All of the use's Gaussian coefficients come from one standard_normal
    call of channel_draw_size entries, split as
    apply_noisy_operator_channel_block splits them.
    """
    draws = rng.standard_normal((1, channel_draw_size(U.dim, U.ambient_dim, spec, U.is_complex)))
    return Subspace._view(apply_noisy_operator_channel_block(U.basis[np.newaxis], spec, draws)[0])


def apply_noisy_operator_channel_block(bases: np.ndarray, spec: ChannelSpec,
                                       draws: np.ndarray) -> np.ndarray:
    """One noisy channel use per basis of the (B, m, n) stack ``bases``; the
    (B, b + noise_dim, n) stack of received bases, b = min(m, k) + t.

    Row i of the (B, channel_draw_size) array ``draws`` holds use i's standard
    normals.  They are split in stream order into the erase (k, m), error
    (t, n - m), rotate (b, n) and noise (noise_dim, n - b) coefficients, a
    stage that draws nothing taking none; over C, consecutive pairs are the
    (re, im) parts of one entry.  The kept part
    lies in U and the error in U-perp, and the noise in the complement of
    the rotated sum, so each output basis is its parts stacked.  Every stage
    runs once on the whole stack, and each use's output does not depend on
    the rest of the stack.
    """
    count, m, n = bases.shape
    shapes = _draw_shapes(m, n, spec)
    complex_field = np.iscomplexobj(bases)
    entries = [0 if shape is None else math.prod(shape) for shape in shapes]
    size = 2 * sum(entries) if complex_field else sum(entries)
    if draws.shape != (count, size):
        raise ValueError(f"{count} bases of dimension {m} need draws of shape "
                         f"({count}, {size}), got {draws.shape}")
    coeffs = np.ascontiguousarray(draws, dtype=float)
    if complex_field:
        coeffs = coeffs.view(complex)
    parts, lo = [], 0
    for shape, entry in zip(shapes, entries):
        parts.append(None if shape is None else coeffs[:, lo:lo + entry].reshape(count, *shape))
        lo += entry
    erase_c, error_c, rotate_g, noise_c = parts
    out = bases if erase_c is None else _erase_stack(bases, erase_c)
    if error_c is not None:
        out = np.concatenate([out, _error_stack(bases, error_c)], axis=1)
    if rotate_g is not None:
        out = _rotate_stack(out, spec.rotation, rotate_g)
    if noise_c is not None:
        out = np.concatenate([out, _error_stack(out, noise_c)], axis=1)
    return out


# ---------------------------------------------------------------------------
# matrix channel


@dataclass(frozen=True, eq=False)
class MatrixChannelSpec:
    """Y = H X + G E + N with l observations of an m-row input.

    H (l x m), G (l x t) and the interference E (t x n) default to fresh
    standard complex Gaussian draws; each may be pinned to an explicit array,
    ``h=np.eye(l, m)`` for an identity H.  noise_sigma scales the additive
    Gaussian noise N.
    """
    l: int
    m: int
    t: int = 0
    noise_sigma: float = 0.0
    h: np.ndarray | None = None
    g: np.ndarray | None = None
    interference: np.ndarray | None = None

    def __post_init__(self):
        if self.l < 1 or self.m < 1 or self.t < 0:
            raise ValueError("invalid matrix channel shape")
        if self.noise_sigma < 0:
            raise ValueError("noise level must be nonnegative")


def _pinned_or_drawn(pinned, shape, name: str, rng: np.random.Generator) -> np.ndarray:
    """The pinned array, shape-checked, or a standard complex Gaussian draw."""
    if pinned is None:
        return _gaussian(rng, shape, True) / np.sqrt(2.0)
    out = np.asarray(pinned, dtype=complex)
    if out.shape != shape:
        raise ValueError(f"pinned {name} has the wrong shape")
    return out


def apply_matrix_channel(X, spec: MatrixChannelSpec, rng: np.random.Generator):
    """Sample one use of Y = H X + G E + N.

    Returns (Y, A) with A = H X + G E the noiseless part.  Components are
    drawn in the fixed order H, G, E, N; pinned components are skipped in
    the stream.  The order is part of the reproducibility contract.
    """
    X = np.asarray(X, dtype=complex)
    if X.ndim != 2 or X.shape[0] != spec.m:
        raise ValueError(f"input must have {spec.m} rows")
    n = X.shape[1]
    A = _pinned_or_drawn(spec.h, (spec.l, spec.m), "H", rng) @ X
    if spec.t > 0:
        G = _pinned_or_drawn(spec.g, (spec.l, spec.t), "G", rng)
        E = _pinned_or_drawn(spec.interference, (spec.t, n), "interference", rng)
        A = A + G @ E
    if spec.noise_sigma > 0:
        Y = A + spec.noise_sigma * _pinned_or_drawn(None, (spec.l, n), "N", rng)
    else:
        Y = A.copy()
    return Y, A


# ---------------------------------------------------------------------------
# RQ factorization and row-space perturbation bounds


def rq_factorize(A):
    """Factor A (l x n, full row rank) as A = R Q.

    R is l x l upper triangular with real positive diagonal and Q has
    orthonormal rows; computed as the column/row-reversed QR factorization
    of the flipped matrix.  ConfigError when A has a NaN or infinite entry.
    """
    A = np.asarray(A)
    if not np.issubdtype(A.dtype, np.inexact):
        A = A.astype(float)
    if A.ndim != 2:
        raise ValueError("need a 2-d matrix")
    _check_finite(A=A)
    l, n = A.shape
    if l > n:
        raise NumericalError(f"{l} rows cannot be independent in {n} columns")
    s = np.linalg.svd(A, compute_uv=False)
    if _numerical_rank(s) < l:
        raise NumericalError("matrix is not of full row rank")
    flipped = np.flipud(A).conj().T            # n x l
    qt, rt = np.linalg.qr(flipped)             # reduced QR
    R = np.flipud(np.fliplr(rt.conj().T))      # upper triangular again
    Q = np.flipud(qt.conj().T)
    # rotate the phases so the diagonal of R is real and positive
    diag = np.diagonal(R).copy()
    phase = diag / np.abs(diag)
    R = R * phase.conj()[np.newaxis, :]
    Q = Q * phase[:, np.newaxis]
    return R, Q


def _check_finite(**operands) -> None:
    """ConfigError naming the first operand with a NaN or infinite entry,
    which would otherwise reach a factorization."""
    for name, M in operands.items():
        if not np.all(np.isfinite(M)):
            raise ConfigError(f"{name} has non-finite entries")


def _perturbation_eps(s: np.ndarray, N: np.ndarray, name: str) -> float:
    """eps = ((1 + sqrt 2) kappa / (1 - ||A+||_2 ||N||_2) * ||N||_F / ||A||_2)^2
    for a full-row-rank A with singular values s (descending, all nonzero).

    NumericalError, naming the matrix ``name``, when ||A+||_2 ||N||_2 >= 1.
    """
    norm_a = float(s[0])
    pinv_norm = 1.0 / float(s[-1])
    norm_n_2 = float(np.linalg.norm(N, 2)) if N.size else 0.0
    if pinv_norm * norm_n_2 >= 1.0:
        raise NumericalError(
            f"||{name}+||_2 ||N||_2 = {pinv_norm * norm_n_2:.6g} >= 1")
    kappa = norm_a * pinv_norm
    norm_n_f = float(np.linalg.norm(N))
    return ((1.0 + np.sqrt(2.0)) * kappa / (1.0 - pinv_norm * norm_n_2)
            * norm_n_f / norm_a) ** 2


def perturbation_bound(A, N):
    """Row-space drift bound for a full-row-rank A under perturbation N.

    Returns (eps, bound) with d(<A>, <A + N>) <= bound = 2 eps + eps^2 and

        eps = ((1 + sqrt 2) kappa(A) / (1 - ||A+||_2 ||N||_2) * ||N||_F / ||A||_2)^2.

    ConfigError when A or N has a NaN or infinite entry; NumericalError
    when ||A+||_2 ||N||_2 >= 1 or when A is not of full row rank.
    """
    A = np.asarray(A)
    N = np.asarray(N)
    if A.shape != N.shape:
        raise ValueError("A and N must share a shape")
    _check_finite(A=A, N=N)
    l = A.shape[0]
    s = np.linalg.svd(A, compute_uv=False)
    if _numerical_rank(s) < l or l > A.shape[1]:
        raise NumericalError("matrix is not of full row rank")
    eps = _perturbation_eps(s, N, "A")
    return eps, 2.0 * eps + eps ** 2


def _greedy_independent_rows(A, target_rank: int) -> list[int]:
    """Lexicographically first row subset reaching the numerical rank of A."""
    picked: list[int] = []
    rank = 0
    for i in range(A.shape[0]):
        trial = A[picked + [i], :]
        s = np.linalg.svd(trial, compute_uv=False)
        r = _numerical_rank(s)
        if r > rank:
            picked.append(i)
            rank = r
        if rank == target_rank:
            break
    return picked


def general_perturbation_bound(A, N):
    """Row-space drift bound without the full-rank assumption.

    Splits off r_d = l - rank(A) dependent rows, applies the full-rank bound
    to the lexicographically first independent row subset (with the norms of
    the whole perturbation N), and returns

        (r_d, delta, (sqrt(r_d) + sqrt(delta))^2)

    where delta = 2 eps + eps^2.  ConfigError when A or N has a NaN or
    infinite entry.
    """
    A = np.asarray(A)
    N = np.asarray(N)
    if A.shape != N.shape:
        raise ValueError("A and N must share a shape")
    _check_finite(A=A, N=N)
    l = A.shape[0]
    s = np.linalg.svd(A, compute_uv=False)
    rank = int(_numerical_rank(s))
    r_d = l - rank
    if rank == 0:
        raise NumericalError("zero matrix has no row space to track")
    rows = _greedy_independent_rows(A, rank)
    A1 = A[rows, :]
    eps = _perturbation_eps(np.linalg.svd(A1, compute_uv=False), N, "A1")
    delta = 2.0 * eps + eps ** 2
    total = (np.sqrt(r_d) + np.sqrt(delta)) ** 2
    return r_d, delta, float(total)
