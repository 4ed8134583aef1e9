"""Decoding-guarantee property tests over sampled channel draws.

The three guarantee predicates are checked against what the channel and the
decoder actually do: on small random ensembles and CP codes, every operator
channel draw stays within d(U, V) <= rho + t, and every draw whose
impairments satisfy ``guarantee_noiseless`` or ``guarantee_noisy`` decodes
to the transmitted codeword, and so does every matrix-channel draw whose
perturbation bound satisfies ``guarantee_noisy``.  The predicates are also
related to each other on their own: the chordal condition implies the plain
one, and the noisy condition with no rotation and no noise is the plain one
exactly.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from subspacecodes import (
    CPCodeSpec,
    ChannelSpec,
    FiniteField,
    MatrixChannelSpec,
    apply_matrix_channel,
    apply_noisy_operator_channel,
    apply_operator_channel,
    cp_construct,
    decode,
    distance,
    general_perturbation_bound,
    guarantee_chordal,
    guarantee_noiseless,
    guarantee_noisy,
    guarantee_noisy_slack,
    min_distance_exhaustive,
    orthonormalize,
    random_ensemble_code,
)
from subspacecodes.errors import NumericalError

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
# (p, m, k): CP line codes over GF(p^m) with enough distance to decode
CP_CODES = [(5, 1, 2), (7, 1, 2), (2, 3, 2), (3, 2, 2), (7, 1, 3)]
SEEDS = st.integers(0, 2 ** 32 - 1)


@functools.lru_cache(maxsize=None)
def _cp(p, m, k):
    code = cp_construct(CPCodeSpec(FiniteField(p, m), k))
    return code, min_distance_exhaustive(code)[0]


@functools.lru_cache(maxsize=None)
def _ensemble(n, m, M, complex_field, seed):
    code = random_ensemble_code(n, m, M, np.random.default_rng(seed), complex_field)
    return code, min_distance_exhaustive(code)[0]


@st.composite
def codes(draw):
    """(code, d_min): a CP line code or a small random ensemble."""
    if draw(st.booleans()):
        return _cp(*draw(st.sampled_from(CP_CODES)))
    n = draw(st.integers(3, 9))
    m = draw(st.integers(1, min(3, n - 1)))
    return _ensemble(n, m, draw(st.integers(2, 6)), draw(st.booleans()), draw(st.integers(0, 50)))


def _largest_rotation(d_min, rho, t, noise_dim):
    """Bisected sup of the rotation budgets that keep guarantee_noisy true."""
    lo, hi = 0.0, d_min  # s + 4 * d_min >= d_min, so d_min is never inside
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if guarantee_noisy(d_min, rho, t, mid, noise_dim):
            lo = mid
        else:
            hi = mid
    return lo


@PROPERTY
@given(code=codes(), data=st.data(), seed=SEEDS)
def test_operator_channel_stays_within_rho_plus_t(code, data, seed):
    code, _ = code
    rng = np.random.default_rng(seed)
    U = code[data.draw(st.integers(0, len(code) - 1))]
    k = data.draw(st.integers(0, U.dim + 1))
    t = data.draw(st.integers(0, U.ambient_dim - U.dim))
    V, rho, t_out = apply_operator_channel(U, ChannelSpec(k, t), rng)
    assert (rho, t_out) == (max(0, U.dim - k), t)
    assert V.dim == min(k, U.dim) + t
    assert distance(U, V) <= rho + t + 1e-9


@PROPERTY
@given(code=codes(), data=st.data(), seed=SEEDS)
def test_noiseless_guarantee_gives_a_correct_unique_decode(code, data, seed):
    code, d_min = code
    tx = data.draw(st.integers(0, len(code) - 1))
    U = code[tx]
    n, m = U.ambient_dim, U.dim
    covered = [(k, t) for k in range(m + 1) for t in range(n - m + 1)
               if guarantee_noiseless(d_min, m - k, t)]
    k, t = data.draw(st.sampled_from(covered))
    V, _, _ = apply_operator_channel(U, ChannelSpec(k, t), np.random.default_rng(seed))
    out = decode(code, V)
    assert out.codeword_index == tx
    assert out.unique


@PROPERTY
@given(code=codes(), data=st.data(), seed=SEEDS, share=st.floats(0.0, 0.99))
def test_noisy_guarantee_gives_a_correct_decode(code, data, seed, share):
    code, d_min = code
    tx = data.draw(st.integers(0, len(code) - 1))
    U = code[tx]
    n, m = U.ambient_dim, U.dim
    covered = [(k, t, r_d) for k in range(m + 1) for t in range(n - m + 1)
               for r_d in range(n - k - t + 1)
               if guarantee_noisy(d_min, m - k, t, 0.0, r_d)]
    k, t, r_d = data.draw(st.sampled_from(covered))
    base_dim = k + t
    reach = 2 * min(base_dim, n - base_dim)  # rotate refuses budgets past 2r
    delta = share * min(reach, _largest_rotation(d_min, m - k, t, r_d))
    assert guarantee_noisy(d_min, m - k, t, delta, r_d)
    spec = ChannelSpec(k, t, rotation=delta, noise_dim=r_d)
    V = apply_noisy_operator_channel(U, spec, np.random.default_rng(seed))
    assert V.dim == base_dim + r_d
    assert decode(code, V).codeword_index == tx


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(cp=st.booleans(), data=st.data(), seed=SEEDS, sigma=st.floats(0.01, 0.1))
def test_matrix_channel_noise_inside_its_perturbation_bound_decodes_correctly(
        cp, data, seed, sigma):
    # the noise chain: a codeword's basis X goes through Y = H X + N (l = m,
    # no interference), general_perturbation_bound(A, Y - A) bounds the
    # drift of the row space from A = H X, and guarantee_noisy with that
    # rotation budget and noise dimension promises the decode of <Y>.
    # Trials it does not cover, and trials whose bound's precondition
    # ||A+||_2 ||N||_2 < 1 fails, are discarded, so every example is a
    # covered trial.
    code, d_min = _cp(13, 1, 2) if cp else _ensemble(8, 2, 12, True, 12)
    tx = data.draw(st.integers(0, len(code) - 1))
    X = code[tx].basis
    m = len(X)
    spec = MatrixChannelSpec(l=m, m=m, noise_sigma=sigma)
    Y, A = apply_matrix_channel(X, spec, np.random.default_rng(seed))
    try:
        r_d, delta, _ = general_perturbation_bound(A, Y - A)
    except NumericalError:
        assume(False)
    assume(guarantee_noisy(d_min, 0, 0, delta, r_d))
    assert decode(code, orthonormalize(Y)).codeword_index == tx


COUNTS = st.integers(0, 20)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(d_min=st.floats(0.0, 100.0), rho=COUNTS, t=COUNTS)
@example(d_min=math.nextafter(4.0, math.inf), rho=1, t=1)  # sqrt(2)**2 > 2
@example(d_min=math.nextafter(10.0, math.inf), rho=2, t=3)  # sqrt(5)**2 > 5
@example(d_min=6.0, rho=1, t=2)  # sqrt(3)**2 < 3
def test_guarantee_predicates_nest(d_min, rho, t):
    plain = guarantee_noiseless(d_min, rho, t)
    assert plain == (2 * (rho + t) < d_min)
    if guarantee_chordal(d_min, rho, t):
        assert plain
    assert guarantee_noisy(d_min, rho, t, 0.0, 0) == plain
    assert guarantee_noisy(d_min, rho, t, 0, 0) == plain


def test_a_noisy_guarantee_past_the_float_range_fails_with_slack_minus_inf():
    # the square of the left side overflows; it raised OverflowError
    assert guarantee_noisy(2.0, 0, 0, 1e308, 0) is False
    assert guarantee_noisy_slack(2.0, 0, 0, 1e308, 0) == -math.inf
