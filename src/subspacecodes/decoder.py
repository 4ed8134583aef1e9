"""Exhaustive minimum-distance decoding with closed-form decodability tests."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCode
from .subspaces import Subspace, SubspaceCode, pairwise

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


def decode(code, received: Subspace) -> DecodeResult:
    """Nearest codeword in the projection distance, exhaustively."""
    if len(code) == 0:
        raise EmptyCode("cannot decode against an empty code")
    # a copy: _nearest writes into its table, and the code may hand out its own array
    return _nearest(np.array(code.distances_to(received))[:, np.newaxis])[0]


def decode_block(code, received: SubspaceCode) -> list[DecodeResult]:
    """decode() for every subspace of ``received``, from one pairwise() table.

    The table's product can round a distance differently from decode()'s
    one-column product, in the last digits, so an index can differ from
    decode()'s only between codewords tied to within roundoff.
    """
    if len(code) == 0:
        raise EmptyCode("cannot decode against an empty code")
    return _nearest(pairwise(code, received))


def _nearest(dists: np.ndarray) -> list[DecodeResult]:
    """The decode result of each column of a (len code, B) distance table,
    which it overwrites: each column's minimum becomes inf."""
    columns = np.arange(dists.shape[1])
    best = np.argmin(dists, axis=0)  # argmin takes the lowest index on exact ties
    best_d = dists[best, columns]
    # the second-smallest entry is the smallest one besides ``best``, ties
    # included, and inf for a one-codeword code; distances from validated
    # codes are finite, never NaN
    dists[best, columns] = math.inf
    runner = dists.min(axis=0)
    unique = runner - best_d > TIE_TOL
    return [DecodeResult(codeword_index=i, distance_to_received=d,
                         runner_up_distance=r, unique=u)
            for i, d, r, u in zip(best.tolist(), best_d.tolist(), runner.tolist(),
                                  unique.tolist())]


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
    _check_counts(rho, t)
    # written so that a NaN rotation budget fails the test too
    if not rotation >= 0 or noise_dim < 0:
        raise ValueError("rotation budget and noise dimension must be nonnegative")
    s = rho + t
    crowd = (math.sqrt(s + rotation) + math.sqrt(rotation)
             + 2.0 * math.sqrt(noise_dim)) ** 2
    return s + crowd < d_min
