"""Helpers shared by the tests: a Haar-random unitary, subspace equality
up to tolerance, the noisy channel one stage at a time, a decoder with no
single-precision screen and the exhaustive additive character sum, which
the package itself does not need."""

from __future__ import annotations

import math

import numpy as np

from subspacecodes import Subspace, SubspaceCode, distance
from subspacecodes.channel import _rank_r_rows
from subspacecodes.decoder import TIE_TOL, Decoded
from subspacecodes.errors import ConfigError
from subspacecodes.subspaces import (TOL_EQUAL, _gaussian, _into_complements, _pair_distances,
                                     pairwise)


def random_unitary(n: int, rng: np.random.Generator,
                   complex_field: bool = True) -> np.ndarray:
    """Haar-distributed unitary (orthogonal when real) n x n matrix."""
    q, r = np.linalg.qr(_gaussian(rng, (n, n), complex_field))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def same_subspace(U: Subspace, V: Subspace) -> bool:
    """Equality up to numerical tolerance: distance below TOL_EQUAL."""
    return distance(U, V) < TOL_EQUAL


def _qr_rows(raw, r):
    """The first r rows of raw orthonormalized as Gram-Schmidt does, by one
    2-d QR of raw^H with the phases of R's diagonal divided out of Q."""
    q, tri = np.linalg.qr(raw.conj().T)
    diagonal = np.diagonal(tri)[:r]
    return (q[:, :r] * (diagonal / np.abs(diagonal))).conj().T


def _gs_rows(raw, r, after=None):
    """The channel's own orthonormalization of one matrix, continued from the
    orthonormal rows ``after`` when given: its kernel on a stack of one."""
    return _rank_r_rows(raw[np.newaxis], r, "oracle",
                        None if after is None else after[np.newaxis])[0]


def _staged_channel(U, spec, normals, orth=None):
    """Oracle: the noisy channel one stage at a time on 2-d bases, from the
    standard normals of one use, split in stage order, a complex entry as a
    (re, im) pair of normals.  The error and noise coefficients are carried
    into the complement by the reflector map on a stack of one.

    With orth None each stage orthonormalizes as the channel does, by its
    kernel on a stack of one (_gs_rows): the kept part is GS(c) U and an
    error or noise part GS(c) carried, the coefficients orthonormalized
    before they are carried, and the rotation's draw is orthonormalized after
    the rows it turns, which projects it onto their complement; these bits
    must be the blocked channel's.  A 2-d ``orth`` instead orthonormalizes
    every part after it is carried, and the rotation's draw after one
    projection, as the channel did up to simulate v4: orth=_qr_rows is the
    v4 channel, bit for bit."""
    n, cf = U.ambient_dim, U.is_complex
    coeffs = normals.view(complex) if cf else normals
    used = 0

    def gauss(rows, cols):
        nonlocal used
        used += rows * cols
        return coeffs[used - rows * cols:used].reshape(rows, cols)

    def within(S, d):
        c = gauss(d, S.dim)
        return _gs_rows(c, d) @ S.basis if orth is None else orth(c @ S.basis, d)

    def error(S, t):
        if t == 0:
            return np.zeros((0, n), dtype=S.basis.dtype)
        c = gauss(t, n - S.dim)
        if orth is None:
            return _into_complements(S.basis[np.newaxis], _gs_rows(c, t)[np.newaxis])[0]
        return orth(_into_complements(S.basis[np.newaxis], c[np.newaxis])[0], t)

    b = min(U.dim, spec.k) + spec.t
    kept = within(U, spec.k) if U.dim > spec.k else U.basis
    Z = np.concatenate([kept, error(U, spec.t)])
    if spec.rotation > 0 and b > 0:
        g = gauss(*Z.shape)
        r = min(b, n - b)
        W = _gs_rows(g, r, Z) if orth is None else orth(g - (g @ Z.conj().T) @ Z, r)
        sin2 = spec.rotation / (2 * r)
        Z = Z.copy()
        Z[:r] = np.sqrt(1.0 - sin2) * Z[:r] + np.sqrt(sin2) * W
    out = np.concatenate([Z, error(Subspace(Z), spec.noise_dim)])
    assert used == len(coeffs)
    return out


def _per_trial_noisy_channel(U, spec, rng, orth=None):
    """Oracle: _staged_channel on one standard_normal call of the use's
    entries, counted here stage by stage."""
    n, k, t, r_d = U.ambient_dim, spec.k, spec.t, spec.noise_dim
    b = min(U.dim, k) + t
    rotating = spec.rotation > 0 and b > 0
    entries = ((k * U.dim if U.dim > k else 0) + t * (n - U.dim)
               + (b * n if rotating else 0) + r_d * (n - b))
    return _staged_channel(U, spec, rng.standard_normal(2 * entries if U.is_complex else entries),
                           orth)


def decode_block_double(code, received: SubspaceCode) -> Decoded:
    """Oracle for decoder.decode_block: every row nominated from the
    double-precision pairwise() table, with no screen.  Each row's two
    nearest codewords and, where the third lies within TIE_TOL of the second,
    every codeword within TIE_TOL of the second are ranked by the residual
    kernel, the lower index first on a tie."""
    if len(code) == 0:
        raise ConfigError("cannot decode against an empty code")
    dists = pairwise(code, received).T.copy()
    rows = np.arange(len(received))
    best = np.argmin(dists, axis=1)
    dists[rows, best] = math.inf
    second = np.argmin(dists, axis=1)
    edge = dists[rows, second] + TIE_TOL
    dists[rows, second] = math.inf
    tied = np.flatnonzero(dists.min(axis=1) <= edge)
    window_at, window_words = np.nonzero(dists[tied] <= edge[tied, np.newaxis])
    at = np.concatenate([rows, rows, tied[window_at]])
    words = np.concatenate([best, second, window_words])
    d = _pair_distances(code, words, received, at)
    nearest = np.full(len(rows), math.inf)
    np.minimum.at(nearest, at, d)
    index = np.full(len(rows), len(code), dtype=np.intp)
    at_nearest = d == nearest[at]
    np.minimum.at(index, at[at_nearest], words[at_nearest])
    runner_up = np.full(len(rows), math.inf)
    rest = words != index[at]
    np.minimum.at(runner_up, at[rest], d[rest])
    return Decoded(index, nearest, runner_up)


def weil_sum(field, coeffs, chi_index: int = 1) -> complex:
    """Oracle: the exhaustive additive character sum sum_{a in F_q} chi_j(f(a)).

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
