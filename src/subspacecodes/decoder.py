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
    """``code`` in float32, the copy that decode_block screens with: a real
    code's rows rounded, and each row z of a complex code written as the real
    row [Re z, Im z] of twice its length (see _screen_operands).  Make it once
    and pass it to every decode_block call on the same code."""
    rows = code.rows
    if np.iscomplexobj(rows):
        n = rows.shape[1]
        real = np.empty((len(rows), 2 * n), np.float32)
        real[:, :n], real[:, n:] = rows.real, rows.imag
        rows = real
    return SubspaceCode._from_rows(rows.astype(np.float32, copy=False), code.dims,
                                   code.common_dim)


def screened(code: SubspaceCode, received_rows: int) -> bool:
    """Whether decode_block, given ``code``'s single_precision() copy,
    screens a block of ``received_rows`` received rows: when the double
    table's product takes at least _SCREEN_MIN_PRODUCT multiply-adds."""
    return code.rows.size * received_rows >= _SCREEN_MIN_PRODUCT


def screen_block(code: SubspaceCode, dim: int) -> int:
    """The most received subspaces of dimension ``dim``, in ``code``'s
    field, whose screen against ``code`` takes one pairwise() block: each
    received row is two rows of the screen when the code is complex."""
    return code.one_block((2 if np.iscomplexobj(code.rows) else 1) * dim, np.float32)


def _screen_operands(code: SubspaceCode, single: SubspaceCode, received: SubspaceCode):
    """The real float32 operands of decode_block's screen: the received
    subspaces and the code, from ``single``, its single_precision() copy.

    When both sides are real, the received rows are rounded as they are.
    Otherwise both sides are embedded in R^2n: a code row z as [Re z, Im z]
    (single_precision() writes a complex code so, and a real one is padded
    with zeros here), and each received row v as the two rows [Re v, Im v]
    and [Im v, -Re v], so that a received subspace of dimension b owns 2 b
    consecutive rows, orthonormal as v's are."""
    v = received.rows
    if not (np.iscomplexobj(code.rows) or np.iscomplexobj(v)):
        return SubspaceCode._from_rows(v.astype(np.float32), received.dims,
                                       received.common_dim), single
    n = v.shape[1]
    if not np.iscomplexobj(code.rows):
        rows = np.zeros((len(single.rows), 2 * n), np.float32)
        rows[:, :n] = single.rows
        single = SubspaceCode._from_rows(rows, single.dims, single.common_dim)
    rows = np.empty((len(v), 2, 2 * n), np.float32)
    rows[:, 0, :n], rows[:, 0, n:] = v.real, v.imag
    rows[:, 1, :n] = rows[:, 0, n:]
    np.negative(rows[:, 0, :n], out=rows[:, 1, n:])
    common = 2 * received.common_dim if received.common_dim > 0 else received.common_dim
    return SubspaceCode._from_rows(rows.reshape(-1, 2 * n), 2 * received.dims, common), single


def _gamma(k: int, u: float) -> float:
    """gamma_k = k u / (1 - k u), the bound on the relative error of k
    roundings at unit roundoff u; infinite when k u >= 1."""
    return k * u / (1 - k * u) if k * u < 1 else math.inf


def _rounding_bound(n: int, a: int, b: int, u: float) -> float:
    """A bound on |x - (d + o)| for every entry x of a pairwise() table
    computed in unit roundoff u, codewords of dimension at most a against
    subspaces V of dimension at most b in ambient dimension n: d is the
    exact distance between the stored bases, and o is dim V in
    decode_block's embedded screen and 0 otherwise.  It covers both of
    decode_block's tables: the screen (u = 2^-24) and the double table
    (u = 2^-53), whose complex entries' real and imaginary parts are real
    dot products of length 2n too.

    Each real entry c of the cross-Gram product (of C = Z_U Z_V^H, or its
    real and imaginary part) is a dot product of length at most 2n of two
    unit rows, rounded to precision u.  Each of its terms takes at most
    2n + 2 relative roundings: one for each factor, one for the product and
    at most 2n - 1 in the sum, in whatever order BLAS adds.  So c is off by
    at most e = gamma_{2n+2} (Cauchy-Schwarz).  A pair has at most K = 2 a b
    such entries, and their squares sum to ||C||_F^2 <= m = min(a, b).  The
    computed entries' squares then sum to within E = 2 e sqrt(K m) + K e^2
    of that, and to at most m + E; rounding the squares and their sum, each
    term at most K times, adds gamma_K (m + E).  The entry, the dimensions
    (at most a + 2 b) less twice the sum, doubles that, and adding the
    dimensions rounds once, by at most u (a + 2 b + 2 (m + E)), a bound on
    the sum's magnitude.  That rounding is counted twice: in the screen, the
    second covers, many times over, the rounding of decode_block's window
    edge, x2 + slack, in double."""
    m, K = min(a, b), 2 * a * b
    e = _gamma(2 * n + 2, u)
    entries = 2 * e * math.sqrt(K * m) + K * e * e
    overlap = entries + _gamma(K, u) * (m + entries)
    return 2 * overlap + 2 * u * (a + 2 * b + 2 * (m + entries))


def screen_tolerance(n: int, a: int, b: int) -> float:
    """epsilon(n, a, b): a bound on how far an entry of decode_block's
    screen, less its row's offset, lies from the double-precision pairwise()
    table's, for codewords of dimension at most a and received subspaces of
    dimension at most b in ambient dimension n: _rounding_bound() in single
    precision (u = 2^-24) plus the same in double (u = 2^-53), each table
    being that close to exact arithmetic on the stored bases."""
    return _rounding_bound(n, a, b, 2.0 ** -24) + _rounding_bound(n, a, b, 2.0 ** -53)


def decode_block(code, received: SubspaceCode, *, single: SubspaceCode | None = None) -> Decoded:
    """decode() for every subspace of ``received``: a table of distances
    nominates each received subspace's candidates, and the residual kernel
    ranks them.

    The table holds one row per received subspace, and each row nominates
    its two nearest codewords and every codeword within a slack of its
    second nearest (_nominees).  The nominees' distances are taken again
    with the residual kernel, which keeps full relative accuracy and gives
    each pair the same bits whatever else is nominated, and ranked by them,
    the lower index first on a tie: the first two are the decoded codeword
    and the runner-up.  A codeword nominated twice changes no result, and a
    one-codeword code nominates its one codeword.

    The table is either the double-precision one, pairwise() of the code
    and ``received`` transposed, with slack TIE_TOL, or a single-precision
    screen, with slack TIE_TOL + 2 eps.  The screen is pairwise() on real
    float32 operands (_screen_operands), the received subspaces as A and
    ``single``, the code's single_precision() copy, as B.  When the code or
    the block is complex, both are embedded in R^2n: a code row z as
    [Re z, Im z], and a received row v as the rows [Re v, Im v] and
    [Im v, -Re v], whose dot products with it are Re <z, v> and -Im <z, v>.
    So a pair's real cross-Gram entries square to the same sum as its
    complex ones, and since the embedded V has 2 dim V orthonormal rows,
    each entry of V's row reads d + dim V; with real operands it reads d.
    Write o for that offset, which is the same across a row and so moves no
    nomination.  Each screen entry x_w lies within eps = screen_tolerance(n,
    a, b) of the double table's d_w + o, a and b the largest codeword and
    received dimensions.  Either way every bit of the result is that of the
    double table's nominees W, the codewords with d_w <= d2 + TIE_TOL, d2 a
    row's second-smallest entry:
    - The screen nominates all of W.  Two codewords have x_w <= x2, so
      d2 + o <= x2 + eps, and each w in W has x_w <= d_w + o + eps <= x2 +
      TIE_TOL + 2 eps.
    - A nominee outside W changes nothing.  Its d_w exceeds d2 + TIE_TOL,
      and the residual distance r of each pair lies within delta of its
      double entry, delta (the double table's own rounding) far below
      TIE_TOL / 2: r_w > d2 + TIE_TOL - delta, while the two nearest
      codewords of the double table have r <= d2 + delta.  So w is neither
      the nearest nor the runner-up.
    The second point also makes the result independent of the double
    table's rounding, which depends on its other columns and on pairwise()'s
    row blocks.

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

    The block's first two received subspaces are screened alone first, and
    a row is settled when it nominates just its two nearest.  When one of
    them settles, the rest of the block is screened too, and the screen
    nominates every row; when neither settles, the whole block goes to the
    double table unscreened, so a block of exact ties (a CP code's spectrum
    at t = 0 ties at the runner-up in every row) pays for a two-row screen,
    not the block's.  Two rows, not one, so that a lone near-tie does not
    send its block to double precision.

    The nominees are ranked by _pair_distances, which gathers their bases
    in slices of at most about 2 MiB (subspaces._BLOCK_BYTES, at 16 n (a +
    b) bytes a complex pair), and each table is freed before the ranking,
    so a block's memory does not grow with its tie windows.  Traced, a 64-trial
    block of CP (127,2) over k = 1, t = 0, whose rows each tie with about
    250 codewords at the runner-up, peaks at 19 MB beyond the code and its
    copy, about 2.2 times its double table (the table and its transposed
    copy); CP (31,2) over t = 0 peaks at 6.5 MB in its 272-trial block.
    """
    if len(code) == 0:
        raise ConfigError("cannot decode against an empty code")
    if code.rows.shape[1] != received.rows.shape[1]:
        raise ConfigError(
            f"ambient dimensions differ: {code.rows.shape[1]} vs {received.rows.shape[1]}")
    count = len(received)
    at = None
    if screened(code, received.rows.shape[0]) and (single is not None or count > _PROBE):
        if single is None:
            single = single_precision(code)
        slack = TIE_TOL + 2 * screen_tolerance(code.rows.shape[1], code.max_dim, received.max_dim)
        screen, single = _screen_operands(code, single, received)
        probe = min(_PROBE, count)
        at, words = _nominees(pairwise(screen.part(0, probe), single), slack)
        if np.bincount(at).min() > 2:  # neither probe row settled
            at = None
        elif probe < count:
            more = _nominees(pairwise(screen.part(probe, count), single), slack)
            at, words = np.concatenate([at, probe + more[0]]), np.concatenate([words, more[1]])
    if at is None:
        at, words = _nominees(pairwise(code, received).T.copy(), TIE_TOL)
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


def _nominees(table: np.ndarray, slack: float):
    """The (row, column) pairs of ``table`` that decode_block ranks: each
    row's nearest and second-nearest column and, where the third nearest
    lies within ``slack`` of the second, every column within ``slack`` of
    the second (in float64).  The table is overwritten."""
    rows = np.arange(len(table))
    best = np.argmin(table, axis=1)
    table[rows, best] = math.inf
    second = np.argmin(table, axis=1)
    edge = table[rows, second].astype(float) + slack
    table[rows, second] = math.inf
    tied = np.flatnonzero(table.min(axis=1) <= edge)
    at, words = np.divmod(np.flatnonzero(table[tied] <= edge[tied, np.newaxis]), table.shape[1])
    return np.concatenate([rows, rows, tied[at]]), np.concatenate([best, second, words])


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
