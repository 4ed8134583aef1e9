"""Operator channels on subspaces, the matrix channel behind them, and
perturbation bounds for recovering a row space from a noisy matrix.

The operator channel keeps a random k-dimensional part of the transmitted
subspace and adds a random error subspace drawn inside its orthogonal
complement.  The noisy extension additionally rotates the result by a
bounded amount and attaches an extra noise subspace.  A channel use first
draws all of its Gaussian coefficients, whose shapes follow from dim U
alone, and then runs its linear algebra on a stack of bases, so a block of
uses (apply_noisy_operator_channel_block) costs one stacked SVD per stage
and one use is the block of one.  The matrix channel is
the physical-layer model Y = H X + G E + N whose row space feeds the
subspace decoder; rq_factorize and the perturbation bounds quantify how far
the row space of a perturbed matrix can drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DimensionOverflow, PreconditionViolated, RankDeficient)
from .subspaces import Subspace, SubspaceCode, _complements, _gaussian, _numerical_rank


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
        # written so that a NaN budget fails the test too
        if not self.rotation >= 0:
            raise ValueError("rotation budget must be a nonnegative number")
        if self.noise_dim < 0:
            raise ValueError("noise dimension must be nonnegative")


def _erase_draw(dim: int, k: int, complex_field: bool, rng: np.random.Generator):
    """Coefficients that pick the kept part of a dim-dimensional subspace:
    Gaussian (k, dim), or None when nothing is erased."""
    return _gaussian(rng, (k, dim), complex_field) if dim > k else None


def _error_draw(dim: int, n: int, t: int, complex_field: bool, rng: np.random.Generator):
    """Coefficients of t error dimensions in the complement of a
    dim-dimensional subspace: Gaussian (t, n - dim), or None when t = 0."""
    if t == 0:
        return None
    if dim + t > n:
        raise DimensionOverflow(
            f"cannot fit {t} error dimensions next to a {dim}-dimensional subspace "
            f"in ambient dimension {n}")
    return _gaussian(rng, (t, n - dim), complex_field)


def _rotate_draw(dim: int, n: int, budget: float, complex_field: bool,
                 rng: np.random.Generator):
    """Directions that rotate a dim-dimensional subspace by ``budget``:
    Gaussian (dim, n), or None when nothing moves."""
    # written so that a NaN budget fails the tests too
    if not budget >= 0:
        raise ValueError("rotation budget must be a nonnegative number")
    if budget == 0 or dim == 0:
        return None
    r = min(dim, n - dim)
    if not budget <= 2 * r:
        raise DimensionOverflow(
            f"rotation budget {budget!r} exceeds the largest distance {2 * r} from a "
            f"{dim}-dimensional subspace of ambient dimension {n}")
    return _gaussian(rng, (dim, n), complex_field)


def _channel_draws(U: Subspace, spec: NoisyChannelSpec, rng: np.random.Generator) -> tuple:
    """Every Gaussian array one noisy channel use on U needs, in stream
    order: erase, error, rotate, noise; None for a stage that draws nothing.
    Their shapes follow from dim U, n and spec alone."""
    n, complex_field = U.ambient_dim, U.is_complex
    base = min(U.dim, spec.base.k) + spec.base.t
    return (_erase_draw(U.dim, spec.base.k, complex_field, rng),
            _error_draw(U.dim, n, spec.base.t, complex_field, rng),
            _rotate_draw(base, n, spec.rotation, complex_field, rng),
            _error_draw(base, n, spec.noise_dim, complex_field, rng))


def _rank_r_rows(raw: np.ndarray, r: int, what: str) -> np.ndarray:
    """Orthonormal bases of the row spaces of a (B, d, n) stack whose
    matrices all have numerical rank r, one stacked SVD for the whole stack."""
    if r == 0:
        return raw[:, :0]
    _, s, vh = np.linalg.svd(raw, full_matrices=False)
    if np.any(_numerical_rank(s) != r):  # Gaussian draws have rank r almost surely
        raise RuntimeError(f"rank-deficient {what} draw")
    return vh[:, :r]


def _erase_stack(Z: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """Kept parts: the row spaces of coeff @ Z, (B, k, n)."""
    return _rank_r_rows(coeff @ Z, coeff.shape[1], "coefficient")


def _error_stack(Z: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """Error parts inside each Z-perp: the row spaces of coeff @ Z-perp."""
    return _rank_r_rows(coeff @ _complements(Z), coeff.shape[1], "coefficient")


def _rotate_stack(Z: np.ndarray, budget: float, g: np.ndarray) -> np.ndarray:
    """Each basis of Z turned by ``budget`` towards g projected onto Z-perp."""
    b, n = Z.shape[1:]
    r = min(b, n - b)
    W = _rank_r_rows(g - (g @ Z.conj().transpose(0, 2, 1)) @ Z, r, "rotation")
    sin2 = budget / (2 * r)
    out = Z.copy()
    out[:, :r] = np.sqrt(1.0 - sin2) * Z[:, :r] + np.sqrt(sin2) * W
    return out


def _channel_stack(Z: np.ndarray, spec: NoisyChannelSpec, draws: list) -> np.ndarray:
    """Noisy channel outputs for a (B, m, n) stack of bases, trial i using
    the arrays draws[i] of _channel_draws.  The kept part lies in U and the
    error in U-perp, and the noise in the complement of the rotated sum, so
    each output basis is its parts stacked."""
    erase_c, error_c, rotate_g, noise_c = (
        None if arrays[0] is None else np.stack(arrays) for arrays in zip(*draws))
    out = Z if erase_c is None else _erase_stack(Z, erase_c)
    if error_c is not None:
        out = np.concatenate([out, _error_stack(Z, error_c)], axis=1)
    if rotate_g is not None:
        out = _rotate_stack(out, spec.rotation, rotate_g)
    if noise_c is not None:
        out = np.concatenate([out, _error_stack(out, noise_c)], axis=1)
    return out


def erase(U: Subspace, k: int, rng: np.random.Generator) -> Subspace:
    """Uniformly random k-dimensional subspace of U; U itself when dim(U) <= k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    coeff = _erase_draw(U.dim, k, U.is_complex, rng)
    if coeff is None:
        return U
    return Subspace._view(_erase_stack(U.basis[np.newaxis], coeff[np.newaxis])[0])


def random_error_subspace(U: Subspace, t: int, rng: np.random.Generator) -> Subspace:
    """Uniformly random t-dimensional subspace of U-perp, so E intersects U trivially."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    coeff = _error_draw(U.dim, U.ambient_dim, t, U.is_complex, rng)
    if coeff is None:
        return Subspace.zero(U.ambient_dim, U.is_complex)
    return Subspace._view(_error_stack(U.basis[np.newaxis], coeff[np.newaxis])[0])


def apply_operator_channel(U: Subspace, spec: OperatorChannelSpec,
                           rng: np.random.Generator):
    """One channel use: V = erase(U, k) (+) E with E drawn inside U-perp.

    Returns (V, rho, t) where rho = max(0, dim U - k) is the number of
    dimensions actually erased; d(U, V) <= rho + t holds for every draw.
    """
    V = apply_noisy_operator_channel(U, NoisyChannelSpec(spec), rng)
    return V, max(0, U.dim - spec.k), spec.t


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
    g = _rotate_draw(U.dim, U.ambient_dim, budget, U.is_complex, rng)
    if g is None:
        return U
    return Subspace._view(_rotate_stack(U.basis[np.newaxis], budget, g[np.newaxis])[0])


def apply_noisy_operator_channel(U: Subspace, spec: NoisyChannelSpec,
                                 rng: np.random.Generator) -> Subspace:
    """Noisy channel use: rotate(erase(U, k) (+) E, budget) (+) F.

    F has exactly spec.noise_dim dimensions and is drawn inside the
    complement of the rotated subspace, so the bases stack.  With rotation
    = 0 and noise_dim = 0 this returns the plain operator channel's output.
    """
    return apply_noisy_operator_channel_block([U], spec, [rng])[0]


def apply_noisy_operator_channel_block(sent, spec: NoisyChannelSpec, rngs) -> SubspaceCode:
    """One noisy channel use per subspace of ``sent``, the i-th drawing from
    rngs[i] exactly what apply_noisy_operator_channel draws; the received
    subspaces as one code, in order.

    The draws run trial by trial, so a DimensionOverflow names the first
    trial that cannot fit.  The linear algebra then runs once per group of
    equal-shape bases, on stacked arrays.
    """
    if len(sent) != len(rngs):
        raise ValueError(f"{len(sent)} subspaces but {len(rngs)} generators")
    draws = [_channel_draws(U, spec, rng) for U, rng in zip(sent, rngs)]
    groups: dict = {}
    for i, U in enumerate(sent):
        groups.setdefault((U.basis.shape, U.basis.dtype), []).append(i)
    received = [None] * len(sent)
    for members in groups.values():
        out = _channel_stack(np.stack([sent[i].basis for i in members]), spec,
                             [draws[i] for i in members])
        for i, basis in zip(members, out):
            received[i] = Subspace._view(basis)
    return SubspaceCode(received)


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
    rank = int(_numerical_rank(s))
    r_d = l - rank
    if rank == 0:
        raise RankDeficient("zero matrix has no row space to track")
    rows = _greedy_independent_rows(A, rank)
    A1 = A[rows, :]
    eps = _perturbation_eps(np.linalg.svd(A1, compute_uv=False), N, "A1")
    delta = 2.0 * eps + eps ** 2
    total = (np.sqrt(r_d) + np.sqrt(delta)) ** 2
    return r_d, delta, float(total)
