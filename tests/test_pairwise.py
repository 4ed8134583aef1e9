"""Pairwise distance engine tests.

The engine (``pairwise``) and the scalar ``distance`` are checked against the
projection route d(U, V) = ||P_U - P_V||_F^2, which the package no longer
uses and which lives here only as the oracle.  Codes mix real and complex
bases and every dimension from 0 to n; the row-block size is varied so that
the blocked loops are exercised at every boundary.
"""

from __future__ import annotations

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import random_unitary
from subspacecodes import (
    CPCodeSpec,
    FiniteField,
    Subspace,
    SubspaceCode,
    cp_construct,
    distance,
    min_distance_exhaustive,
    random_subspace,
)
from subspacecodes import subspaces
from subspacecodes.subspaces import pairwise

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# block sizes: one codeword per block, a few codewords per block, the default
BLOCK_BYTES = st.sampled_from([1, 512, subspaces._BLOCK_BYTES])


def _projection(U: Subspace) -> np.ndarray:
    return U.basis.conj().T @ U.basis


def _oracle(U: Subspace, V: Subspace) -> float:
    diff = _projection(U) - _projection(V)
    return float(np.real(np.vdot(diff, diff)))


def _oracle_min_distance(code: SubspaceCode) -> float:
    """Scalar double loop over all unordered pairs, projection route."""
    proj = [_projection(w) for w in code]
    best = np.inf
    for i, j in itertools.combinations(range(len(proj)), 2):
        diff = proj[i] - proj[j]
        best = min(best, float(np.real(np.vdot(diff, diff))))
    return best


@st.composite
def subspace_lists(draw, max_size=6):
    """(n, seed, dims, complex flag) of a random list of subspaces of C^n or R^n;
    half of the lists share one dimension, which the engine handles apart."""
    n = draw(st.integers(1, 7))
    dims = draw(st.lists(st.integers(0, n), min_size=1, max_size=max_size))
    if draw(st.booleans()):
        dims = [dims[0]] * len(dims)
    return n, draw(st.integers(0, 2 ** 32 - 1)), dims, draw(st.booleans())


def _build(n, seed, dims, complex_field) -> list[Subspace]:
    rng = np.random.default_rng(seed)
    words = [random_subspace(n, m, rng, complex_field) for m in dims]
    # the same span on a mixed basis: a pair at distance 0 up to roundoff
    if words[0].dim > 0:
        mix = random_unitary(words[0].dim, rng)
        words.append(Subspace(mix @ words[0].basis))
    return words


@PROPERTY
@given(a=subspace_lists(), b=subspace_lists(), share=st.booleans(), block_bytes=BLOCK_BYTES)
# two lists that each share one dimension, a different one
@example(a=(5, 1, [3, 3], True), b=(5, 2, [1], False), share=False, block_bytes=2 ** 21)
def test_pairwise_and_distance_match_projection_oracle(a, b, share, block_bytes):
    n, seed_a, dims_a, cx_a = a
    _, seed_b, dims_b, cx_b = b
    dims_b = [min(m, n) for m in dims_b]
    A = _build(n, seed_a, dims_a, cx_a)
    B = _build(n, seed_b, dims_b, cx_b)
    if share:  # pairs at distance 0 across the two lists
        B += A[:2]
    want = np.array([[_oracle(u, v) for v in B] for u in A])
    with mock.patch.object(subspaces, "_BLOCK_BYTES", block_bytes):
        got = pairwise(SubspaceCode(A), SubspaceCode(B))
    assert got.shape == (len(A), len(B))
    assert np.all(got >= 0.0)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    scalar = np.array([[distance(u, v) for v in B] for u in A])
    assert np.all(scalar >= 0.0)
    np.testing.assert_allclose(scalar, want, rtol=0, atol=1e-12)


@PROPERTY
@given(spec=subspace_lists(max_size=12), block_bytes=BLOCK_BYTES)
def test_min_distance_matches_scalar_oracle_on_mixed_codes(spec, block_bytes):
    words = _build(*spec)
    if len(words) < 2:
        words.append(Subspace.zero(spec[0], spec[3]))
    code = SubspaceCode(words)
    with mock.patch.object(subspaces, "_BLOCK_BYTES", block_bytes):
        d_min, (i, j) = min_distance_exhaustive(code)
    assert i < j
    assert d_min >= 0.0
    assert d_min == pytest.approx(_oracle_min_distance(code), abs=1e-12)
    assert _oracle(code[i], code[j]) == pytest.approx(d_min, abs=1e-12)


@pytest.mark.parametrize("q,k", [(5, 2), (7, 2), (7, 3), (11, 2), (13, 2), (3, 2)])
def test_min_distance_matches_scalar_oracle_on_cp_codes(q, k):
    # (3, 2) holds repeated lines: f and f + c x^2 differ by a constant shift
    # on both evaluation points, so d_min is 0 up to roundoff
    code = cp_construct(CPCodeSpec(FiniteField(q), k))
    d_min, (i, j) = min_distance_exhaustive(code)
    want = _oracle_min_distance(code)
    assert d_min == pytest.approx(want, abs=1e-12)
    assert _oracle(code[i], code[j]) == pytest.approx(d_min, abs=1e-12)
    if (q, k) == (3, 2):
        assert d_min == pytest.approx(0.0, abs=1e-12)


def test_min_distance_memory_stays_in_blocks():
    # an M x M complex matrix at M = 3000 would take 144 MB
    rng = np.random.default_rng(23)
    code = SubspaceCode([random_subspace(8, 1, rng) for _ in range(3000)])
    tracemalloc.start()
    try:
        d_min, (i, j) = min_distance_exhaustive(code)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert distance(code[i], code[j]) == pytest.approx(d_min, abs=1e-12)


def test_code_holds_one_copy_of_its_bases():
    # CP (512, 1): 512 lines in C^511, 4 MB of rows; the d_min search works
    # on those rows in place instead of stacking a second copy of them
    code = cp_construct(CPCodeSpec(FiniteField(2, 9), 1))
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        min_distance_exhaustive(code)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < code.rows.nbytes / 4
    assert not code.rows.flags.writeable
    with pytest.raises(ValueError):
        code.rows[0, 0] = 0.0
    for i in (0, 1, 511, -1):
        start = code.starts[i]
        np.testing.assert_array_equal(code[i].basis, code.rows[start:start + code.dims[i]])


def test_codewords_are_read_only_views_of_the_rows():
    rng = np.random.default_rng(29)
    mixed = SubspaceCode([random_subspace(6, m, rng, complex_field=m % 2 == 0)
                          for m in (0, 1, 2, 3)])
    for code in (cp_construct(CPCodeSpec(FiniteField(31), 2)), mixed):
        for word in (code[0], code[-1], *code):
            if word.dim:
                assert np.shares_memory(word.basis, code.rows)
            assert not word.basis.flags.writeable
            assert word.basis.dtype == code.rows.dtype
            with pytest.raises(ValueError):
                word.basis[...] = 0.0


def _reshape_sum_pairwise(A: SubspaceCode, B: SubspaceCode) -> np.ndarray:
    """The engine's constant-dimension branch with the per-pair sum written as
    one 4-d reshape-and-sum, block for block as ``pairwise`` runs it."""
    a, b = A.common_dim, B.common_dim
    parts = []
    for lo, hi in A.blocks(B):
        cross = A.part(lo, hi).rows @ B.rows.conj().T
        overlap = np.square(cross.real) + np.square(cross.imag)
        overlap = overlap.reshape(hi - lo, a, len(B), b).sum(axis=(1, 3))
        parts.append(np.maximum(-2.0 * overlap + (a + b), 0.0))
    return np.concatenate(parts)


@pytest.mark.parametrize("complex_field", [False, True])
def test_pairwise_sums_each_pair_in_the_reshape_sum_order(complex_field):
    # the same table bit for bit, so every d_min, decode and distance table is unchanged
    n = 17
    rng = np.random.default_rng(31)
    for a, b in itertools.product(range(1, 17), repeat=2):
        A = SubspaceCode([random_subspace(n, a, rng, complex_field) for _ in range(5)])
        for size in (1, 3):
            B = SubspaceCode([random_subspace(n, b, rng, complex_field) for _ in range(size)])
            # two codewords of A per block, so three blocks form
            block_bytes = 2 * subspaces._entry_bytes(A.rows.dtype) * B.rows.shape[0] * a
            with mock.patch.object(subspaces, "_BLOCK_BYTES", block_bytes):
                assert len(A.blocks(B)) == 3
                assert np.array_equal(pairwise(A, B), _reshape_sum_pairwise(A, B))


def test_an_empty_part_holds_no_codewords_and_no_rows():
    code = cp_construct(CPCodeSpec(FiniteField(7), 2))
    for lo in (0, 3, len(code)):
        empty = code.part(lo, lo)
        assert len(empty) == 0
        assert empty.rows.shape == (0, code.ambient_dim)
    table = pairwise(code, code.part(0, 0))
    assert table.shape == (len(code), 0)


@pytest.mark.parametrize("complex_field", [False, True])
def test_pairwise_of_a_code_of_no_codewords_is_an_empty_table(complex_field):
    rng = np.random.default_rng(32)
    code = SubspaceCode([random_subspace(5, m, rng, complex_field) for m in (1, 2, 2, 0)])
    for empty in (code.part(2, 2), SubspaceCode._from_rows(np.zeros((0, 5)), [])):
        table = pairwise(empty, code)
        assert table.shape == (0, len(code))
        assert table.dtype == float
