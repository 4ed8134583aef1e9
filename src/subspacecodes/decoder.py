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

    The table picks each column's two nearest codewords: argmin takes the
    lowest index on exact ties, and masking the first with inf leaves the
    second, ties included.  Their distances are then taken again with the
    residual kernel, which keeps full relative accuracy and gives each
    received subspace the same bits whatever else the table holds; the
    nearer of the two by the kernel, the lower index on a tie, is the
    decoded codeword.  So the table's rounding, which depends on its other
    columns and on pairwise()'s row blocks (a one-row block is a
    matrix-vector product), decides nothing unless a third codeword ties
    with the two to within roundoff.
    """
    if len(code) == 0:
        raise EmptyCode("cannot decode against an empty code")
    dists = pairwise(code, received)
    columns = np.arange(len(received))
    best = np.argmin(dists, axis=0)
    d_best = _pair_distances(code, best, received, columns)
    if len(code) == 1:
        return Decoded(best, d_best, np.full(len(columns), math.inf))
    dists[best, columns] = math.inf
    second = np.argmin(dists, axis=0)
    d_second = _pair_distances(code, second, received, columns)
    swap = (d_second < d_best) | ((d_second == d_best) & (second < best))
    return Decoded(np.where(swap, second, best), np.where(swap, d_second, d_best),
                   np.where(swap, d_best, d_second))


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
