"""Exhaustive minimum-distance decoding with closed-form decodability tests."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EmptyCode
from .subspaces import Subspace, SubspaceCode, _pair_distances, pairwise

# distance gap below which two codewords count as tied
TIE_TOL = 1e-9


@dataclass(frozen=True)
class DecodeResult:
    """Outcome of nearest-codeword decoding.

    ``unique`` is False when the runner-up is within TIE_TOL of the best
    distance; ties resolve to the lowest codeword index.
    """
    codeword_index: int
    distance_to_received: float
    runner_up_distance: float
    unique: bool


class Decoded(NamedTuple):
    """decode_block's results as arrays, one entry per received subspace."""
    index: np.ndarray      # the nearest codeword
    distance: np.ndarray   # its distance to the received subspace
    runner_up: np.ndarray  # the second-nearest codeword's; inf for a one-codeword code


def decode(code, received: Subspace) -> DecodeResult:
    """Nearest codeword in the projection distance, exhaustively: decode_block
    on a stack of one."""
    out = decode_block(code, SubspaceCode([received]))
    best, runner = float(out.distance[0]), float(out.runner_up[0])
    return DecodeResult(codeword_index=int(out.index[0]), distance_to_received=best,
                        runner_up_distance=runner, unique=runner - best > TIE_TOL)


def decode_block(code, received: SubspaceCode) -> Decoded:
    """decode() for every subspace of ``received``, from one pairwise() table.

    The table, transposed so that each received subspace has one contiguous
    row, nominates each row's candidates: its two nearest codewords (argmin
    takes the lowest index on exact ties, and masking the first with inf
    leaves the second, ties included) and, where the third nearest lies
    within TIE_TOL of the second, every codeword within TIE_TOL of the
    second.  The candidates' distances are then taken again with the
    residual kernel, which keeps full relative accuracy and gives each pair
    the same bits whatever else the table holds, and ranked by them, the
    lower index first on a tie: the first two are the decoded codeword and
    the runner-up.  The table's rounding depends on its other columns and on
    pairwise()'s row blocks (a one-row block is a matrix-vector product), but
    it is far below TIE_TOL, so it never changes the result.  A one- or
    two-codeword code takes the same path: its masked entries are inf, and
    a candidate nominated twice changes no result.
    """
    if len(code) == 0:
        raise EmptyCode("cannot decode against an empty code")
    dists = pairwise(code, received).T.copy()
    rows = np.arange(len(received))
    best = np.argmin(dists, axis=1)
    dists[rows, best] = math.inf
    second = np.argmin(dists, axis=1)
    edge = dists[rows, second] + TIE_TOL
    dists[rows, second] = math.inf
    tied = np.flatnonzero(dists.min(axis=1) <= edge)
    # the rest of each tied row's window; its best and second are masked
    window_at, window_words = np.nonzero(dists[tied] <= edge[tied, np.newaxis])
    at = np.concatenate([rows, rows, tied[window_at]])
    words = np.concatenate([best, second, window_words])
    d = _pair_distances(code, words, received, at)
    # per row: the least distance, the lowest index at it, and the least of the rest
    nearest = np.full(len(rows), math.inf)
    np.minimum.at(nearest, at, d)
    index = np.full(len(rows), len(code), dtype=np.intp)
    at_nearest = d == nearest[at]
    np.minimum.at(index, at[at_nearest], words[at_nearest])
    runner_up = np.full(len(rows), math.inf)
    rest = words != index[at]
    np.minimum.at(runner_up, at[rest], d[rest])
    return Decoded(index, nearest, runner_up)


def _check_counts(rho, t) -> None:
    if rho < 0 or t < 0:
        raise ValueError("erasure and error counts must be nonnegative")


def guarantee_noiseless(d_min: float, rho: int, t: int) -> bool:
    """Success is certain when 2 (rho + t) < d_min."""
    _check_counts(rho, t)
    return 2.0 * (rho + t) < d_min


def guarantee_chordal(d_min: float, rho: int, t: int) -> bool:
    """Chordal-decoder condition 4 (sqrt(rho) + sqrt(t))^2 < d_min.

    Stricter than guarantee_noiseless whenever both rho and t are positive.
    """
    _check_counts(rho, t)
    return 4.0 * (math.sqrt(rho) + math.sqrt(t)) ** 2 < d_min


def guarantee_noisy(d_min: float, rho: int, t: int,
                    rotation: float, noise_dim: int) -> bool:
    """Success condition for the noisy channel:

        rho + t + (sqrt(rho + t + rotation) + sqrt(rotation) + 2 sqrt(noise_dim))^2
            < d_min.

    Reduces exactly to guarantee_noiseless at rotation = 0, noise_dim = 0.
    """
    return guarantee_noisy_slack(d_min, rho, t, rotation, noise_dim) > 0


def guarantee_noisy_slack(d_min: float, rho: int, t: int,
                          rotation: float, noise_dim: int) -> float:
    """d_min minus the left side of guarantee_noisy's condition.  A float
    difference is 0 only between equal operands and carries the sign of
    their order, so the slack is positive exactly when guarantee_noisy holds.
    """
    _check_counts(rho, t)
    # written so that a NaN rotation budget fails the test too
    if not rotation >= 0 or noise_dim < 0:
        raise ValueError("rotation budget and noise dimension must be nonnegative")
    s = rho + t
    crowd = (math.sqrt(s + rotation) + math.sqrt(rotation)
             + 2.0 * math.sqrt(noise_dim)) ** 2
    return d_min - (s + crowd)
