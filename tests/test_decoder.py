"""Minimum distance decoder tests.

``_nearest`` below decodes from one pairwise() table formed in a single row
block; it is the oracle for ``decode_block`` under pairwise()'s row blocking.
"""

from __future__ import annotations

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import decode_block_double
from test_simulate_blocks import _repeated_lines_file
from subspacecodes import (
    CPCodeSpec,
    ChannelSpec,
    FiniteField,
    Subspace,
    SubspaceCode,
    apply_noisy_operator_channel,
    apply_noisy_operator_channel_block,
    apply_operator_channel,
    channel_draw_size,
    cp_construct,
    decode,
    decode_block,
    distance,
    guarantee_chordal,
    guarantee_noiseless,
    guarantee_noisy,
    load_code,
    random_ensemble_code,
    random_subspace,
    rotate,
)
from subspacecodes import decoder, subspaces
from subspacecodes.errors import ConfigError
from subspacecodes.subspaces import _pair_distances, pairwise


def _orthogonal_planes(n=12, m=3):
    eye = np.eye(n)
    return SubspaceCode([Subspace(eye[i * m : (i + 1) * m]) for i in range(n // m)])


def test_decode_picks_the_nearest_codeword():
    code = _orthogonal_planes()
    rng = np.random.default_rng(0)
    for idx in range(4):
        received = rotate(code[idx], 0.4, rng)
        out = decode(code, received)
        assert out.codeword_index == idx
        assert out.unique
        assert out.distance_to_received == pytest.approx(
            distance(code[idx], received), abs=1e-12
        )
        assert out.runner_up_distance >= out.distance_to_received


def test_decode_brute_force_agreement():
    rng = np.random.default_rng(1)
    code = random_ensemble_code(8, 2, 15, rng)
    for _ in range(25):
        received = random_subspace(8, int(rng.integers(1, 4)), rng)
        out = decode(code, received)
        dists = [distance(c, received) for c in code]
        assert out.codeword_index == int(np.argmin(dists))
        assert out.distance_to_received == pytest.approx(min(dists), abs=1e-10)
        second = sorted(dists)[1]
        assert out.runner_up_distance == pytest.approx(second, abs=1e-10)


def test_decode_tie_goes_to_the_lowest_index():
    U = Subspace(np.eye(2, 6))
    code = SubspaceCode([U, U, Subspace(np.eye(6)[2:4])])
    out = decode(code, U)
    assert out.codeword_index == 0
    assert not out.unique
    assert out.runner_up_distance == pytest.approx(0.0, abs=1e-12)


def test_decode_single_codeword_is_trivially_unique():
    U = Subspace(np.eye(2, 6))
    out = decode(SubspaceCode([U]), U)
    assert out.codeword_index == 0
    assert out.unique
    assert out.runner_up_distance == math.inf


def _coordinate_code(rng, n, count):
    """A code of coordinate subspaces of R^n, drawn with repeats: every
    distance, |A| + |B| - 2 |A & B|, is an integer computed exactly by both
    the pairwise table and the residual kernel, and ties are frequent."""
    eye = np.eye(n)
    return SubspaceCode([Subspace(eye[np.flatnonzero(rng.integers(0, 2, n))])
                         for _ in range(count)])


def test_decode_runner_up_with_exact_ties():
    U = Subspace(np.eye(6)[:2])
    V = Subspace(np.eye(6)[2:4])
    received = Subspace(np.eye(6)[4:6])  # at distance exactly 4 from both
    out = decode(SubspaceCode([U, V]), received)
    assert out.codeword_index == 0
    assert out.runner_up_distance == out.distance_to_received == 4.0
    assert not out.unique
    out = decode(SubspaceCode([U, V]), U)  # M = 2, no tie
    assert (out.codeword_index, out.distance_to_received, out.runner_up_distance) == (0, 0.0, 4.0)
    assert out.unique
    out = decode(SubspaceCode([V]), received)  # M = 1
    assert out.runner_up_distance == math.inf and out.unique


def test_decode_runner_up_matches_the_delete_oracle():
    rng = np.random.default_rng(15)
    for _ in range(500):
        # coordinate subspaces force exact ties, at the minimum and above it
        code = _coordinate_code(rng, 4, int(rng.integers(2, 9)))
        received = _coordinate_code(rng, 4, 1)[0]
        dists = np.array([distance(c, received) for c in code])
        out = decode(code, received)
        best = int(np.argmin(dists))
        assert out.codeword_index == best
        assert out.distance_to_received == dists[best]
        assert out.runner_up_distance == np.min(np.delete(dists, best))
        assert out.unique == (out.runner_up_distance > out.distance_to_received)


def test_block_decoder_matches_the_partition_oracle_bit_for_bit():
    rng = np.random.default_rng(16)
    for _ in range(300):
        # coordinate subspaces force exact ties, at the minimum and above it
        M, B = int(rng.integers(1, 9)), int(rng.integers(1, 6))
        code, received = _coordinate_code(rng, 4, M), _coordinate_code(rng, 4, B)
        table = np.array([[distance(c, V) for V in received] for c in code])
        results = decode_block(code, received)
        best = np.argmin(table, axis=0)
        best_d = table[best, np.arange(B)]
        runner = np.partition(table, 1, axis=0)[1] if M > 1 else np.full(B, math.inf)
        assert results.index.tolist() == best.tolist()
        assert results.distance.tolist() == best_d.tolist()
        assert results.runner_up.tolist() == runner.tolist()


def _nearest(code, received: SubspaceCode) -> decoder.Decoded:
    """Oracle: the decode results from the whole (len code, B) pairwise()
    table, its product formed in one block, one received subspace at a time.
    A stable sort of its column nominates the two nearest codewords, or,
    where the third lies within TIE_TOL of the second, every codeword within
    TIE_TOL of the second; the residual kernel then ranks the nominees, the
    lower index winning a tie."""
    with mock.patch.object(subspaces, "_BLOCK_BYTES", 2 ** 62):
        table = pairwise(code, received)
    index, best, runner = [], [], []
    for column, dists in enumerate(table.T):
        order = np.argsort(dists, kind="stable")
        nominees = order[:2]
        if len(order) > 2 and dists[order[2]] <= dists[order[1]] + decoder.TIE_TOL:
            nominees = np.flatnonzero(dists <= dists[order[1]] + decoder.TIE_TOL)
        kernel = _pair_distances(code, nominees, received, np.full(len(nominees), column))
        ranked = sorted(zip(kernel.tolist(), nominees.tolist()))
        index.append(ranked[0][1])
        best.append(ranked[0][0])
        runner.append(ranked[1][0] if len(ranked) > 1 else math.inf)
    return decoder.Decoded(np.array(index, dtype=np.intp), np.array(best), np.array(runner))


@st.composite
def decode_cases(draw):
    """(code, received, kind): coordinate subspaces of R^n, whose distances
    are exact integers with frequent exact ties, or random subspaces of
    dimensions 0 to n, mixed; ``kind`` is "coordinate" or "random".

    A random basis of the whole space lies at an integer distance from every
    subspace of one dimension, which roundoff splits one way in one product
    and another way in the next: such ties to within roundoff are where row
    blocks nominate different pairs, and the TIE_TOL window must absorb them.
    """
    n = draw(st.integers(2, 6))
    M, B = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["random", "coordinate"]))
    if kind == "coordinate":
        return _coordinate_code(rng, n, M), _coordinate_code(rng, n, B), kind
    complex_field = draw(st.booleans())
    dims = draw(st.lists(st.integers(0, n), min_size=M, max_size=M))
    if draw(st.booleans()):  # a code of one dimension takes pairwise()'s other branch
        dims = [dims[0]] * M
    code = SubspaceCode([random_subspace(n, m, rng, complex_field) for m in dims])
    received = SubspaceCode([random_subspace(n, int(rng.integers(0, n + 1)), rng, complex_field)
                             for _ in range(B)])
    return code, received, kind


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=decode_cases(), block=st.sampled_from(["one", "seven", "default"]))
@example(case=(SubspaceCode([Subspace(np.eye(4)[:2])]),
               SubspaceCode([Subspace(np.eye(4)[1:3]), Subspace.zero(4)]), "M = 1"),
         block="one")
@example(case=(SubspaceCode([Subspace(np.eye(4)[:2]), Subspace(np.eye(4)[2:])]),
               SubspaceCode([Subspace(np.eye(4)[1:3]), Subspace(np.eye(4)[:2])]), "M = 2"),
         block="one")
def test_decoder_in_row_blocks_matches_the_one_block_oracle_bit_for_bit(case, block):
    code, received, _ = case
    # pairwise() in blocks of one codeword, of seven, or of the default budget
    entry = subspaces._entry_bytes(code.rows.dtype, received.rows.dtype)
    per_codeword = entry * max(1, received.rows.shape[0]) * max(1, code.max_dim)
    budget = {"one": 1, "seven": 7 * per_codeword, "default": subspaces._BLOCK_BYTES}[block]
    with mock.patch.object(subspaces, "_BLOCK_BYTES", budget):
        blocks = code.blocks(received)
        got = decode_block(code, received)
    if block != "default":
        assert len(blocks) == math.ceil(len(code) / (1 if block == "one" else 7))
    want = _nearest(code, received)
    for got_column, want_column in zip(got, want):
        assert got_column.dtype == want_column.dtype
        assert got_column.tobytes() == want_column.tobytes()


def _received_at_t0(code: SubspaceCode, trials: int, seed: int) -> SubspaceCode:
    """The lines of ``trials`` random codewords of a line code through the
    operator channel over k = 1, t = 0, stacked as simulate stacks a block:
    each lies at distance 0 from its codeword and ties with every codeword
    at the same distance from that one."""
    rng = np.random.default_rng(seed)
    spec = ChannelSpec(k=1)
    n = code.ambient_dim
    sent = code.bases(rng.integers(len(code), size=trials))
    draws = rng.standard_normal((trials, channel_draw_size(1, n, spec, True)))
    received = apply_noisy_operator_channel_block(sent, spec, draws)
    return SubspaceCode._from_rows(received.reshape(-1, n), np.full(trials, 1), 1)


@pytest.mark.parametrize("code", ["cp_3_2", "repeated_lines", "cp_31_2"])
def test_nominees_ranked_in_slices_give_the_same_bits(code, tmp_path, monkeypatch):
    # the residual kernel takes each pair alone, so slices of one pair, of
    # seven and of the default budget rank the tie windows to the same bits
    if code == "repeated_lines":
        code = load_code(_repeated_lines_file(tmp_path))
    else:
        code = cp_construct(CPCodeSpec(FiniteField({"cp_3_2": 3, "cp_31_2": 31}[code]), 2))
    received = _received_at_t0(code, 100, 3)
    single = decoder.single_precision(code)
    pair_bytes = 16 * code.ambient_dim * 2
    slices = []
    residual = subspaces._residual_distances
    monkeypatch.setattr(subspaces, "_residual_distances",
                        lambda zu, zv: slices.append(len(zu)) or residual(zu, zv))
    want = decode_block_double(code, received)
    for pairs in (1, 7, subspaces._BLOCK_BYTES // pair_bytes):
        slices.clear()
        with mock.patch.object(subspaces, "_BLOCK_BYTES", pairs * pair_bytes):
            got = decode_block(code, received, single=single)
        assert max(slices) <= pairs
        if pairs < 200:  # 100 rows nominate at least 200 pairs, so a slice is full
            assert max(slices) == pairs
        for got_column, want_column in zip(got, want):
            assert got_column.tobytes() == want_column.tobytes()


def test_an_all_tie_cp_127_2_block_stays_within_its_memory_bound(monkeypatch):
    # 64 trials (simulate's block for this code) over k = 1, t = 0: every
    # line ties with about 250 codewords at the runner-up, and so the block
    # ranks thousands of nominees.  Their bases, gathered at once, would take
    # several times the double table's 8.3 MB; ranked in slices, the block
    # peaks at about 2.3 tables (the table and its transposed copy)
    code = cp_construct(CPCodeSpec(FiniteField(127), 2))
    single = decoder.single_precision(code)
    received = _received_at_t0(code, 64, 4)
    nominees = []
    ranked = decoder._pair_distances
    monkeypatch.setattr(decoder, "_pair_distances",
                        lambda A, ia, B, ib: nominees.append(len(ia)) or ranked(A, ia, B, ib))
    table = 8 * len(code) * 64
    tracemalloc.start()
    try:
        decode_block(code, received, single=single)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert nominees[0] * 16 * code.ambient_dim * 2 > 4 * table
    assert peak < 3 * table


def test_decoders_leave_the_distances_of_a_code_unchanged():
    rng = np.random.default_rng(17)
    code = SubspaceCode([random_subspace(6, 2, rng) for _ in range(5)])
    received = [random_subspace(6, 2, rng) for _ in range(4)] + [code[1]]
    held = [code.distances_to(V) for V in received]
    kept = [d.copy() for d in held]
    for V in received:
        decode(code, V)
    decode_block(code, SubspaceCode(received))
    for d, want in zip(held, kept):
        np.testing.assert_array_equal(d, want)


@pytest.mark.parametrize("complex_field", [False, True])
def test_block_decoder_columns_are_single_decodes(complex_field):
    rng = np.random.default_rng(14)
    code = SubspaceCode([random_subspace(7, m, rng, complex_field)
                         for m in (2, 2, 1, 3, 2, 0, 2)])
    # a received block with mixed dimensions, codewords among them for exact ties
    received = [random_subspace(7, int(rng.integers(0, 5)), rng, complex_field)
                for _ in range(20)] + [code[0], code[3], code[5]]
    for decoder_code in (code, SubspaceCode([code[2]])):
        results = decode_block(decoder_code, SubspaceCode(received))
        assert all(len(column) == len(received) for column in results)
        # the block's table may round differently from a one-column table, but
        # the distances reported come from the residual kernel, pair by pair
        for index, best, runner, V in zip(*results, received):
            want = decode(decoder_code, V)
            assert index == want.codeword_index
            assert best == want.distance_to_received
            assert runner == want.runner_up_distance
            assert (runner - best > decoder.TIE_TOL) == want.unique
            assert best == distance(decoder_code[index], V)
    with pytest.raises(ConfigError, match="cannot decode against an empty code"):
        decode_block(SubspaceCode([]), SubspaceCode(received))


def test_decode_empty_code_raises():
    with pytest.raises(ConfigError, match="cannot decode against an empty code"):
        decode(SubspaceCode([]), Subspace(np.eye(1, 4)))


def test_noiseless_guarantee_threshold():
    assert guarantee_noiseless(6.0, 1, 1)       # 2*2 < 6
    assert not guarantee_noiseless(6.0, 2, 1)   # 2*3 = 6, strict
    assert guarantee_noiseless(6.0, 0, 0)
    assert not guarantee_noiseless(0.0, 0, 0)
    with pytest.raises(ValueError):
        guarantee_noiseless(6.0, -1, 0)


def test_chordal_guarantee_threshold():
    # 4(sqrt(rho)+sqrt(t))^2 < d_min
    assert guarantee_chordal(6.0, 0, 1)
    assert not guarantee_chordal(6.0, 1, 1)  # 4*4 = 16
    assert guarantee_chordal(4.1, 1, 0)
    assert not guarantee_chordal(4.0, 1, 0)  # exactly 4, strict


def test_noisy_guarantee_reduces_to_noiseless():
    for d_min in (1.0, 3.0, 6.0, 8.5):
        for rho in range(3):
            for t in range(3):
                assert guarantee_noisy(d_min, rho, t, 0.0, 0) == guarantee_noiseless(
                    d_min, rho, t
                )


def test_noisy_guarantee_frozen_cases():
    # rho + t + (sqrt(rho+t+delta) + sqrt(delta) + 2 sqrt(r_d))^2 < d_min
    val = 1 + (math.sqrt(1.05) + math.sqrt(0.05)) ** 2
    assert val < 2.6 and guarantee_noisy(2.6, 1, 0, 0.05, 0)
    assert not guarantee_noisy(2.5, 1, 0, 0.05, 0)
    assert guarantee_noisy(6.0, 0, 0, 0.04, 1)
    assert not guarantee_noisy(6.0, 0, 0, 0.2, 1)
    with pytest.raises(ValueError):
        guarantee_noisy(6.0, 0, 0, -0.1, 0)
    with pytest.raises(ValueError):
        guarantee_noisy(6.0, 0, 0, 0.1, -1)


def test_guarantees_are_monotone():
    grid = [0.0, 0.05, 0.2, 0.8]
    for rho in range(3):
        for t in range(3):
            for i, delta in enumerate(grid[:-1]):
                for r_d in range(2):
                    # shrinking any impairment never turns success into failure
                    if guarantee_noisy(5.0, rho + 1, t, delta, r_d):
                        assert guarantee_noisy(5.0, rho, t, delta, r_d)
                    if guarantee_noisy(5.0, rho, t + 1, delta, r_d):
                        assert guarantee_noisy(5.0, rho, t, delta, r_d)
                    if guarantee_noisy(5.0, rho, t, grid[i + 1], r_d):
                        assert guarantee_noisy(5.0, rho, t, delta, r_d)
                    if guarantee_noisy(5.0, rho, t, delta, r_d + 1):
                        assert guarantee_noisy(5.0, rho, t, delta, r_d)


def test_guaranteed_plain_channel_decoding_always_succeeds():
    code = _orthogonal_planes()  # pairwise distance exactly 6
    rng = np.random.default_rng(2)
    for _ in range(200):
        tx = int(rng.integers(4))
        k = int(rng.integers(1, 4))
        t = int(rng.integers(0, 3))
        rho = 3 - k
        if not guarantee_noiseless(6.0, rho, t):
            continue
        V, rho_out, _ = apply_operator_channel(code[tx], ChannelSpec(k, t), rng)
        assert rho_out == rho
        out = decode(code, V)
        assert out.codeword_index == tx


def test_guaranteed_noisy_decoding_always_succeeds():
    code = _orthogonal_planes()
    rng = np.random.default_rng(3)
    cases = [(2, 0, 0.05, 0), (3, 1, 0.10, 0), (3, 0, 0.04, 1)]
    for k, t, delta, r_d in cases:
        assert guarantee_noisy(6.0, 3 - k, t, delta, r_d)
        spec = ChannelSpec(k, t, rotation=delta, noise_dim=r_d)
        for _ in range(60):
            tx = int(rng.integers(4))
            V = apply_noisy_operator_channel(code[tx], spec, rng)
            assert decode(code, V).codeword_index == tx
