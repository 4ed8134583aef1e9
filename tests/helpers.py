"""Helpers shared by the tests: a Haar-random unitary, subspace equality
up to tolerance and a decoder with no single-precision screen, which the
package itself does not need."""

from __future__ import annotations

import math

import numpy as np

from subspacecodes import Subspace, SubspaceCode, distance
from subspacecodes.decoder import TIE_TOL, Decoded
from subspacecodes.errors import ConfigError
from subspacecodes.subspaces import TOL_EQUAL, _gaussian, _pair_distances, pairwise


def random_unitary(n: int, rng: np.random.Generator,
                   complex_field: bool = True) -> np.ndarray:
    """Haar-distributed unitary (orthogonal when real) n x n matrix."""
    q, r = np.linalg.qr(_gaussian(rng, (n, n), complex_field))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def same_subspace(U: Subspace, V: Subspace) -> bool:
    """Equality up to numerical tolerance: distance below TOL_EQUAL."""
    return distance(U, V) < TOL_EQUAL


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
