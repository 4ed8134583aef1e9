"""Exhaustive minimum-distance decoding with closed-form decodability tests."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .subspaces import Subspace, SubspaceCode, _pair_distances, pairwise

# distance gap below which two codewords count as tied
TIE_TOL = 1e-9
# received subspaces that decode_block screens first, to see whether the
# rest of the block is worth screening
_PROBE = 2
# multiply-adds of the double-precision table's product (the code's row
# entries times the received rows) below which decode_block does not screen:
# a smaller product costs less than the screen's extra calls
_SCREEN_MIN_PRODUCT = 2 ** 20


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


def single_precision(code: SubspaceCode) -> SubspaceCode:
    """``code`` with its rows rounded to complex64, or to float32 for real
    rows: the copy that decode_block screens with.  Make it once and pass it
    to every decode_block call on the same code."""
    dtype = np.complex64 if np.iscomplexobj(code.rows) else np.float32
    return SubspaceCode._from_rows(code.rows.astype(dtype), code.dims, code.common_dim)


def screened(code: SubspaceCode, received_rows: int) -> bool:
    """Whether decode_block, given ``code``'s single_precision() copy,
    screens a block of ``received_rows`` received rows: when the double
    table's product takes at least _SCREEN_MIN_PRODUCT multiply-adds."""
    return code.rows.size * received_rows >= _SCREEN_MIN_PRODUCT


def _rounding_bound(n: int, a: int, b: int, u: float) -> float:
    """A bound on |pairwise() - exact| for subspaces of dimensions at most a
    and b in ambient dimension n, computed from bases rounded to unit
    roundoff u and then in that precision.  Each entry of C = Z_U Z_V^H is
    off by at most e = (n + 4) u / (1 - (n + 4) u) (the rows have unit norm);
    with ||C||_F^2 <= m = min(a, b), the sum of its a b squared moduli is off
    by 2 e sqrt(a b m) + a b e^2 from the entries' errors, and by
    (2 a b + 1) u (m + 1) from rounding the squares and their sum.  The
    distance a + b - 2 ||C||_F^2 doubles that and rounds once more."""
    m = min(a, b)
    e = (n + 4) * u / (1 - (n + 4) * u)
    overlap = 2 * e * math.sqrt(a * b * m) + a * b * e * e + (2 * a * b + 1) * u * (m + 1)
    return 2 * overlap + 2 * u * (a + b)


def screen_tolerance(n: int, a: int, b: int) -> float:
    """epsilon(n, a, b): a bound on how far a single-precision pairwise()
    table lies from the double-precision one, for codewords of dimension at
    most a and received subspaces of dimension at most b in ambient dimension
    n.  It is the bound for single precision (u = 2^-24) plus the same bound
    for double (u = 2^-53), each table being that close to exact arithmetic
    on the stored bases."""
    return _rounding_bound(n, a, b, 2.0 ** -24) + _rounding_bound(n, a, b, 2.0 ** -53)


def decode_block(code, received: SubspaceCode, *, single: SubspaceCode | None = None) -> Decoded:
    """decode() for every subspace of ``received``: a table of distances
    nominates each received subspace's candidates, and the residual kernel
    ranks them.

    The nominees are a row's two nearest codewords in the double-precision
    pairwise() table (transposed, one row per received subspace; argmin takes
    the lowest index on exact ties, and masking the first with inf leaves the
    second, ties included) and, where the third nearest lies within TIE_TOL
    of the second, every codeword within TIE_TOL of the second.  Their
    distances are taken again with the residual kernel, which keeps full
    relative accuracy and gives each pair the same bits whatever else is
    nominated, and ranked by them, the lower index first on a tie: the first
    two are the decoded codeword and the runner-up.  The table's rounding
    depends on its other columns and on pairwise()'s row blocks, but it is
    far below TIE_TOL, so it never changes the result.  A one- or
    two-codeword code takes the same path: its masked entries are inf, and a
    candidate nominated twice changes no result.

    The double table is formed only where a single-precision screen cannot
    settle the nominees.  The screen is pairwise() on ``single``, the code's
    single_precision() copy, and on a
    single-precision copy of ``received``; each of its entries lies within
    eps = screen_tolerance(n, a, b) of the double table's, a and b the
    largest codeword and received dimensions.  A row is settled when its
    third-nearest entry x3 exceeds its second-nearest x2 by more than
    TIE_TOL + 2 eps; it then nominates just its screen's best and second.
    Proof that these are the double table's nominees: every other codeword w
    has double entry d_w >= x_w - eps >= x3 - eps > x2 + TIE_TOL + eps, which
    is at least TIE_TOL beyond the double entries of both the best and the
    second (each at most x2 + eps).  So the double table's two nearest are
    the same two codewords, and no third lies within TIE_TOL of its second:
    the nominees, and hence every bit of the result, are the same.  Rows not
    settled are nominated from a double table of those rows only.

    The screen runs only when the double table's product takes at least
    _SCREEN_MIN_PRODUCT (2^20) multiply-adds, the code's row entries times
    the received rows: below that its extra calls cost more than the
    product saves (on simulate blocks, 1.7 times the double table's time on
    the README config, at 720 x 456, and about even at 2880 x 412).  When
    ``single`` is not given, the copy is made here for a block of more than
    _PROBE received subspaces; a smaller block, such as decode()'s one,
    goes to the double table unscreened: the cast and the screen then cost
    more than the double table they could save (decode() of one plane
    against CP (127,2) took 11.9 ms with them and 6.4 ms without).

    The block's first two received subspaces are screened alone first.
    When neither settles, the whole block goes to the double table
    unscreened, so a block of exact ties (a CP code's spectrum at t = 0 ties
    at the runner-up in every row) pays for a two-row screen, not the
    block's.  Two rows, not one: a lone near-tie does not send its block to
    double precision, and a one-row table would take NumPy's 4-d sum in
    pairwise(), which is slow right after a BLAS call on some hosts.

    The nominees are ranked by _pair_distances, which gathers their bases
    in slices of at most about 2 MiB (subspaces._BLOCK_BYTES, at 16 n (a +
    b) bytes a pair), so a block's memory does not grow with its tie
    windows.  Traced, a 64-trial block of CP (127,2) over k = 1, t = 0,
    whose rows each tie with about 250 codewords at the runner-up, peaks at
    19 MB beyond the code and its copy, about 2.3 times its double table
    (the table and its transposed copy), where gathering every nominee at
    once took 140 MB; CP (31,2) over t = 0 peaks at 7 MB in its 272-trial
    block.
    """
    if len(code) == 0:
        raise ConfigError("cannot decode against an empty code")
    count = len(received)
    best = np.zeros(count, dtype=np.intp)
    second = np.zeros(count, dtype=np.intp)
    settled = np.zeros(count, dtype=bool)
    if screened(code, received.rows.shape[0]) and (single is not None or count > _PROBE):
        if single is None:
            single = single_precision(code)
        eps = screen_tolerance(code.rows.shape[1], code.max_dim, received.max_dim)
        screen = single_precision(received)
        probe = min(_PROBE, count)
        for lo, hi in ((0, probe), (probe, count)):
            if lo < hi and (lo == 0 or settled[:lo].any()):
                dists = pairwise(single, screen.part(lo, hi)).T.copy()
                best[lo:hi], second[lo:hi], edge = _two_nearest(dists)
                settled[lo:hi] = dists.min(axis=1) > edge + (TIE_TOL + 2 * eps)
    rows = np.arange(count)
    window_at = window_words = np.zeros(0, dtype=np.intp)
    if not settled.all():
        redo = np.flatnonzero(~settled)
        dists = pairwise(code, received if len(redo) == count else _take(received, redo)).T.copy()
        best[redo], second[redo], edge = _two_nearest(dists)
        edge += TIE_TOL
        tied = np.flatnonzero(dists.min(axis=1) <= edge)
        # the rest of each tied row's window; its best and second are masked
        window_at, window_words = np.nonzero(dists[tied] <= edge[tied, np.newaxis])
        window_at = redo[tied[window_at]]
    at = np.concatenate([rows, rows, window_at])
    words = np.concatenate([best, second, window_words])
    d = _pair_distances(code, words, received, at)
    # per row: the least distance, the lowest index at it, and the least of the rest
    nearest = np.full(count, math.inf)
    np.minimum.at(nearest, at, d)
    index = np.full(count, len(code), dtype=np.intp)
    at_nearest = d == nearest[at]
    np.minimum.at(index, at[at_nearest], words[at_nearest])
    runner_up = np.full(count, math.inf)
    rest = words != index[at]
    np.minimum.at(runner_up, at[rest], d[rest])
    return Decoded(index, nearest, runner_up)


def _two_nearest(dists: np.ndarray):
    """The nearest and second-nearest column of each row of the table
    ``dists`` and the second's entry, as float64.  Both entries are masked
    with inf in place, so that dists.min(axis=1) is then the third nearest."""
    rows = np.arange(len(dists))
    best = np.argmin(dists, axis=1)
    dists[rows, best] = math.inf
    second = np.argmin(dists, axis=1)
    edge = dists[rows, second].astype(float)
    dists[rows, second] = math.inf
    return best, second, edge


def _take(code: SubspaceCode, idx: np.ndarray) -> SubspaceCode:
    """Codewords ``idx`` (not empty) of ``code`` as a code of their own."""
    dims = code.dims[idx]
    ends = np.cumsum(dims)
    rows = np.arange(ends[-1]) + np.repeat(code.starts[idx] - (ends - dims), dims)
    return SubspaceCode._from_rows(code.rows[rows], dims)


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
