"""Operator channels on subspaces, the matrix channel behind them, and
perturbation bounds for recovering a row space from a noisy matrix.

The operator channel keeps a random k-dimensional part of the transmitted
subspace and adds a random error subspace drawn inside its orthogonal
complement.  The noisy extension additionally rotates the result by a
bounded amount and attaches an extra noise subspace.  The matrix channel is
the physical-layer model Y = H X + G E + N whose row space feeds the
subspace decoder; rq_factorize and the perturbation bounds quantify how far
the row space of a perturbed matrix can drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DimensionOverflow, PreconditionViolated, RankDeficient)
from .subspaces import (Subspace, _gaussian, _numerical_rank, complement,
                        orthonormalize)


@dataclass(frozen=True)
class OperatorChannelSpec:
    """Erasure/error parameters: keep a k-dimensional part, add t error dimensions."""
    k: int
    t: int = 0

    def __post_init__(self):
        if self.k < 0 or self.t < 0:
            raise ValueError("channel parameters must be nonnegative")


@dataclass(frozen=True)
class NoisyChannelSpec:
    """Operator channel followed by a bounded rotation and r_d noise dimensions."""
    base: OperatorChannelSpec
    rotation: float = 0.0   # distance budget for the rotation step
    noise_dim: int = 0      # r_d, dimensions of the attached noise subspace

    def __post_init__(self):
        if self.rotation < 0:
            raise ValueError("rotation budget must be nonnegative")
        if self.noise_dim < 0:
            raise ValueError("noise dimension must be nonnegative")


def _draw_within(S: Subspace, d: int, rng: np.random.Generator) -> Subspace:
    """Uniformly random d-dimensional subspace of S: Gaussian (d, dim S)
    coefficients applied to S's orthonormal basis."""
    coeff = _gaussian(rng, (d, S.dim), S.is_complex)
    out = orthonormalize(coeff @ S.basis)
    if out.dim != d:  # Gaussian coefficients are full rank almost surely
        raise RuntimeError("rank-deficient coefficient draw")
    return out


def erase(U: Subspace, k: int, rng: np.random.Generator) -> Subspace:
    """Uniformly random k-dimensional subspace of U; U itself when dim(U) <= k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if U.dim <= k:
        return U
    return _draw_within(U, k, rng)


def random_error_subspace(U: Subspace, t: int, rng: np.random.Generator) -> Subspace:
    """Uniformly random t-dimensional subspace of U-perp, so E intersects U trivially."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return Subspace.zero(U.ambient_dim, U.is_complex)
    if U.dim + t > U.ambient_dim:
        raise DimensionOverflow(
            f"cannot fit {t} error dimensions next to a {U.dim}-dimensional subspace "
            f"in ambient dimension {U.ambient_dim}")
    return _draw_within(complement(U), t, rng)


def apply_operator_channel(U: Subspace, spec: OperatorChannelSpec,
                           rng: np.random.Generator):
    """One channel use: V = erase(U, k) (+) E with E drawn inside U-perp.

    Returns (V, rho, t) where rho = max(0, dim U - k) is the number of
    dimensions actually erased; d(U, V) <= rho + t holds for every draw.
    The kept part lies in U and E in U-perp, so V's basis is theirs stacked.
    """
    kept = erase(U, spec.k, rng)
    err = random_error_subspace(U, spec.t, rng)
    out = Subspace(np.concatenate([kept.basis, err.basis]), validate=False)
    return out, max(0, U.dim - spec.k), spec.t


def rotate(U: Subspace, budget: float, rng: np.random.Generator) -> Subspace:
    """Random same-dimension subspace at distance exactly ``budget`` from U.

    A Gaussian draw projected onto U-perp and orthonormalized gives r =
    min(dim U, n - dim U) orthonormal directions W_i outside U.  The first r
    basis rows turn towards them by one angle theta,
    Z_i -> cos(theta) Z_i + sin(theta) W_i, so the cross-Gram matrix of the
    two bases is diag(cos theta, ..., cos theta, 1, ..., 1) and
    d(U, V) = 2 r sin^2(theta), which sin^2(theta) = budget / 2r makes equal
    to the budget.  budget = 0 returns U; DimensionOverflow when budget > 2r.
    """
    if budget < 0:
        raise ValueError("rotation budget must be nonnegative")
    if budget == 0 or U.dim == 0:
        return U
    r = min(U.dim, U.ambient_dim - U.dim)
    if budget > 2 * r:
        raise DimensionOverflow(
            f"rotation budget {budget!r} exceeds the largest distance {2 * r} from a "
            f"{U.dim}-dimensional subspace of ambient dimension {U.ambient_dim}")
    Z = U.basis
    g = _gaussian(rng, Z.shape, U.is_complex)
    W = orthonormalize(g - (g @ Z.conj().T) @ Z).basis
    if W.shape[0] != r:  # Gaussian draws are full rank almost surely
        raise RuntimeError("rank-deficient rotation draw")
    sin2 = budget / (2 * r)
    out = Z.copy()
    out[:r] = np.sqrt(1.0 - sin2) * Z[:r] + np.sqrt(sin2) * W
    return Subspace(out, validate=False)


def apply_noisy_operator_channel(U: Subspace, spec: NoisyChannelSpec,
                                 rng: np.random.Generator) -> Subspace:
    """Noisy channel use: rotate(erase(U, k) (+) E, budget) (+) F.

    F has exactly spec.noise_dim dimensions and is drawn inside the
    complement of the rotated subspace, so the bases stack.  With rotation
    = 0 and noise_dim = 0 this returns the plain operator channel's output.
    """
    base, _, _ = apply_operator_channel(U, spec.base, rng)
    rotated = rotate(base, spec.rotation, rng)
    if spec.noise_dim == 0:
        return rotated
    extra = random_error_subspace(rotated, spec.noise_dim, rng)
    return Subspace(np.concatenate([rotated.basis, extra.basis]), validate=False)


# ---------------------------------------------------------------------------
# matrix channel


@dataclass(frozen=True, eq=False)
class MatrixChannelSpec:
    """Y = H X + G E + N with l observations of an m-row input.

    H (l x m), G (l x t) and the interference E (t x n) default to fresh
    standard complex Gaussian draws; each may be pinned to an explicit array,
    and ``identity_h`` forces H to the identity regardless of the seed.
    noise_sigma scales the additive Gaussian noise N.
    """
    l: int
    m: int
    t: int = 0
    noise_sigma: float = 0.0
    identity_h: bool = False
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
    h = np.eye(spec.l, spec.m) if spec.identity_h else spec.h
    A = _pinned_or_drawn(h, (spec.l, spec.m), "H", rng) @ X
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
    of the flipped matrix.
    """
    A = np.asarray(A)
    if not np.issubdtype(A.dtype, np.inexact):
        A = A.astype(float)
    if A.ndim != 2:
        raise ValueError("need a 2-d matrix")
    l, n = A.shape
    if l > n:
        raise RankDeficient(f"{l} rows cannot be independent in {n} columns")
    s = np.linalg.svd(A, compute_uv=False)
    if _numerical_rank(s) < l:
        raise RankDeficient("matrix is not of full row rank")
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


def _perturbation_eps(s: np.ndarray, N: np.ndarray, name: str) -> float:
    """eps = ((1 + sqrt 2) kappa / (1 - ||A+||_2 ||N||_2) * ||N||_F / ||A||_2)^2
    for a full-row-rank A with singular values s (descending, all nonzero).

    PreconditionViolated, naming the matrix ``name``, when ||A+||_2 ||N||_2 >= 1.
    """
    norm_a = float(s[0])
    pinv_norm = 1.0 / float(s[-1])
    norm_n_2 = float(np.linalg.norm(N, 2)) if N.size else 0.0
    if pinv_norm * norm_n_2 >= 1.0:
        raise PreconditionViolated(
            f"||{name}+||_2 ||N||_2 = {pinv_norm * norm_n_2:.6g} >= 1")
    kappa = norm_a * pinv_norm
    norm_n_f = float(np.linalg.norm(N))
    return ((1.0 + np.sqrt(2.0)) * kappa / (1.0 - pinv_norm * norm_n_2)
            * norm_n_f / norm_a) ** 2


def perturbation_bound(A, N):
    """Row-space drift bound for a full-row-rank A under perturbation N.

    Returns (eps, bound) with d(<A>, <A + N>) <= bound = 2 eps + eps^2 and

        eps = ((1 + sqrt 2) kappa(A) / (1 - ||A+||_2 ||N||_2) * ||N||_F / ||A||_2)^2.

    PreconditionViolated when ||A+||_2 ||N||_2 >= 1; RankDeficient when A is
    not of full row rank.
    """
    A = np.asarray(A)
    N = np.asarray(N)
    if A.shape != N.shape:
        raise ValueError("A and N must share a shape")
    l = A.shape[0]
    s = np.linalg.svd(A, compute_uv=False)
    if _numerical_rank(s) < l or l > A.shape[1]:
        raise RankDeficient("matrix is not of full row rank")
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

    where delta = 2 eps + eps^2.
    """
    A = np.asarray(A)
    N = np.asarray(N)
    if A.shape != N.shape:
        raise ValueError("A and N must share a shape")
    l = A.shape[0]
    s = np.linalg.svd(A, compute_uv=False)
    rank = _numerical_rank(s)
    r_d = l - rank
    if rank == 0:
        raise RankDeficient("zero matrix has no row space to track")
    rows = _greedy_independent_rows(A, rank)
    A1 = A[rows, :]
    eps = _perturbation_eps(np.linalg.svd(A1, compute_uv=False), N, "A1")
    delta = 2.0 * eps + eps ** 2
    total = (np.sqrt(r_d) + np.sqrt(delta)) ** 2
    return r_d, delta, float(total)
