"""decode_block's single-precision screen against the double-precision decoder.

decode_block nominates each received subspace's candidates from a pairwise()
table formed in single precision, and falls back to the double-precision
table for a block whose first two rows the screen cannot settle.  These
tests hold the screen's error to its bound, hold every decode bit for bit
to ``decode_block_double`` (tests/helpers.py), the decoder with no screen,
and check that the benchmark's CP (31,2) config is settled by the screen
alone.
"""

from __future__ import annotations

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import decode_block_double
from test_decoder import decode_cases
from subspacecodes import (CPCodeSpec, FiniteField, Subspace, SubspaceCode, cli, cp_construct,
                           decode_block, random_subspace, save_code)
from subspacecodes import decoder
from subspacecodes.cli import EXIT_OK
from subspacecodes.decoder import TIE_TOL, screen_tolerance, single_precision
from subspacecodes.errors import ConfigError
from subspacecodes.subspaces import pairwise


def _screen_error(A: SubspaceCode, B: SubspaceCode):
    """The largest |screen entry - dim V - double entry| (less 0 instead of
    dim V when both codes are real) and its bound: the screen's table holds
    one row per codeword V of B, from real float32 operands, B's rows
    embedded two a row when either code is complex, and A's read as (Re, Im)
    pairs when A is."""
    embedded = np.iscomplexobj(A.rows) or np.iscomplexobj(B.rows)
    screen, single = decoder._screen_operands(A, B), single_precision(A)
    width = (1 + np.iscomplexobj(A.rows)) * A.rows.shape[1]
    assert screen.rows.shape == ((1 + embedded) * B.rows.shape[0], width)
    assert single.rows.shape == (A.rows.shape[0], width)
    table = pairwise(screen, single)
    assert table.dtype == np.float32
    offset = B.dims[:, np.newaxis] if embedded else 0
    error = np.max(np.abs(table.astype(float) - offset - pairwise(A, B).T), initial=0.0)
    return error, screen_tolerance(A.rows.shape[1], A.max_dim, B.max_dim)


@st.composite
def screen_cases(draw, fields=st.tuples(st.booleans(), st.booleans())):
    """Two codes of subspaces of n <= 64 dimensions, each over R or C as
    ``fields`` draws (A's field, B's), of mixed dimensions (0 and n
    included) or of one dimension each, B holding some of A's codewords so
    that distances of 0 occur too."""
    n = draw(st.integers(1, 64))
    a_complex, b_complex = draw(fields)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dims = st.integers(0, n)

    def code(size: int, same: bool, complex_field: bool) -> list:
        ms = [draw(dims)] * size if same else draw(st.lists(dims, min_size=size, max_size=size))
        return [random_subspace(n, m, rng, complex_field) for m in ms]

    A = code(draw(st.integers(1, 12)), draw(st.booleans()), a_complex)
    B = code(draw(st.integers(1, 6)), draw(st.booleans()), b_complex)
    return SubspaceCode(A), SubspaceCode(B + A[:draw(st.integers(0, 2))])


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(case=screen_cases())
def test_single_precision_table_lies_within_the_screen_tolerance(case):
    A, B = case
    error, eps = _screen_error(A, B)
    assert error <= eps


def test_screen_tolerance_holds_on_cp_1021_1():
    # n = 1020: the widest ambient space a tier-1 test can afford
    code = cp_construct(CPCodeSpec(FiniteField(1021), 1))
    rng = np.random.default_rng(21)
    received = SubspaceCode([random_subspace(1020, m, rng) for m in (0, 1, 2, 3)]
                            + [code[7], code[1000]])
    error, eps = _screen_error(code, received)
    assert 0 < error <= eps
    # and real received subspaces against the complex code
    real = SubspaceCode([random_subspace(1020, m, rng, False) for m in (0, 1, 2, 3)])
    error, eps = _screen_error(code, real)
    assert 0 < error <= eps


def test_screen_tolerance_matches_its_formula():
    # at each of u = 2^-24 (the screen) and 2^-53 (the double table): real
    # dot products of length 2n off by e = (2n + 2) u / (1 - (2n + 2) u),
    # K = 2ab of them a pair, m = min(a, b); E = 2 e sqrt(K m) + K e^2, plus
    # K u / (1 - K u) (m + E) for the squares' sum, doubled, plus
    # 2 u (a + 2b + 2 (m + E))
    n, a, b = 30, 1, 2
    total = 0.0
    for u in (2.0 ** -24, 2.0 ** -53):
        e = 62 * u / (1 - 62 * u)
        entries = 2 * e * 2 + 4 * e * e
        total += 2 * (entries + 4 * u / (1 - 4 * u) * (1 + entries)) + 2 * u * (7 + 2 * entries)
    assert screen_tolerance(n, a, b) == pytest.approx(total, rel=1e-12)
    assert 3.0e-5 < screen_tolerance(30, 1, 2) < 3.2e-5


class _Spy:
    """Counts the received subspaces (A) of decode_block's pairwise() tables
    by precision, checking that each table is one pairwise() block, and the
    nominees that it ranks with the residual kernel."""

    def __init__(self, monkeypatch):
        self.tables = {"single": [], "double": []}
        self.nominees = []
        pairwise_, pair_distances = decoder.pairwise, decoder._pair_distances

        def table(A, B):
            assert A.blocks(B) == [(0, len(A))]
            self.tables["single" if A.rows.dtype == np.float32 else "double"].append(len(A))
            return pairwise_(A, B)

        def ranked(A, ia, B, ib):
            self.nominees.append(len(ia))
            return pair_distances(A, ia, B, ib)

        monkeypatch.setattr(decoder, "pairwise", table)
        monkeypatch.setattr(decoder, "_pair_distances", ranked)


def _triple_line_code(rng) -> SubspaceCode:
    """The line of e_0 in C^5 three times, at different phases (codewords 0,
    6 and 7), and five random lines orthogonal to it (1 to 5).  A received
    line at e_0 ties three ways to within roundoff, so its second and third
    nearest tie; a received line orthogonal to e_0 lies at distance 2 from
    the three copies, which are then never among its three nearest."""
    e0 = np.eye(1, 5, dtype=complex)
    others = [np.hstack([[[0]], random_subspace(4, 1, rng).basis]) for _ in range(5)]
    copies = [np.exp(1j * phase) * e0 for phase in (2.0, 4.0)]
    return SubspaceCode([Subspace(b) for b in [e0, *others, *copies]])


def _orthogonal_to_e0(rng) -> Subspace:
    return Subspace(np.hstack([[[0]], random_subspace(4, 1, rng).basis]))


@pytest.mark.parametrize("ties, path", [
    ((), {"single": [2, 6], "double": []}),        # every row settled by the screen
    ((3, 6), {"single": [2, 6], "double": []}),    # two later rows tied: their windows screened
    ((0,), {"single": [2, 6], "double": []}),      # one probe row tied: the rest screened
    ((0, 1), {"single": [2], "double": [8]}),      # both probe rows tied: the whole block
])
def test_each_screen_path_decodes_bit_for_bit_as_the_double_decoder(ties, path, monkeypatch):
    monkeypatch.setattr(decoder, "_SCREEN_MIN_PRODUCT", 0)  # screen this small table too
    rng = np.random.default_rng(22)
    code = _triple_line_code(rng)
    received = SubspaceCode([code[6] if i in ties else _orthogonal_to_e0(rng)
                             for i in range(8)])
    want = decode_block_double(code, received)
    spy = _Spy(monkeypatch)
    got = decode_block(code, received)
    assert spy.tables == path
    for got_column, want_column in zip(got, want):
        assert got_column.dtype == want_column.dtype
        assert got_column.tobytes() == want_column.tobytes()


def test_a_small_table_is_not_screened(monkeypatch):
    # the README config's block: 20 codewords of dimension 3 in C^12 against
    # 114 received subspaces of dimension 4 is 720 x 456 multiply-adds
    rng = np.random.default_rng(24)
    code = SubspaceCode([random_subspace(12, 3, rng) for _ in range(20)])
    received = SubspaceCode([random_subspace(12, 4, rng) for _ in range(114)])
    assert code.rows.size * received.rows.shape[0] < decoder._SCREEN_MIN_PRODUCT
    spy = _Spy(monkeypatch)
    decode_block(code, received)
    assert spy.tables == {"single": [], "double": [114]}
    assert spy.nominees == [2 * 114]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=decode_cases())
def test_screened_decoder_matches_the_double_decoder_bit_for_bit(case):
    code, received, _ = case
    with mock.patch.object(decoder, "_SCREEN_MIN_PRODUCT", 0):
        got = decode_block(code, received)
    want = decode_block_double(code, received)
    for got_column, want_column in zip(got, want):
        assert got_column.dtype == want_column.dtype
        assert got_column.tobytes() == want_column.tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=screen_cases(fields=st.sampled_from([(False, True), (True, False)])))
def test_mixed_fields_are_screened_and_decode_bit_for_bit(case):
    # a real code against complex received subspaces, or the reverse: the
    # received rows are embedded two a row, and every row that the probe
    # settles is nominated from it
    code, received = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decoder, "_SCREEN_MIN_PRODUCT", 0)
        spy = _Spy(patch)
        got = decode_block(code, received, single=single_precision(code))
    assert spy.tables["single"][0] == min(2, len(received))
    for got_column, want_column in zip(got, decode_block_double(code, received)):
        assert got_column.dtype == want_column.dtype
        assert got_column.tobytes() == want_column.tobytes()


@st.composite
def near_tie_cases(draw):
    """Lines of R^n or C^n whose distances to a random line <r> lie more
    than TIE_TOL but less than 2 eps apart.  The code: lines at angles
    theta = 1e-3 (1 + k / 50) from <r> (k distinct, 0 to 25), at distances
    2 sin^2 theta from 2e-6 to 4.5e-6 and at least 8e-8 apart, less than a
    single-precision distance's rounding near 0, so the screen may order
    them otherwise; perhaps <r> itself; and random lines orthogonal to r;
    in a random order.  The block: two random lines orthogonal to r, which
    settle the screen's probe, then r at random phases."""
    n = draw(st.integers(3, 8))
    complex_field = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    r = random_subspace(n, 1, rng, complex_field).basis

    def orthogonal() -> np.ndarray:
        v = random_subspace(n, 1, rng, complex_field).basis
        v = v - (v @ r.conj().T) * r
        return v / np.linalg.norm(v)

    angles = [1e-3 * (1 + k / 50) for k in
              draw(st.lists(st.integers(0, 25), min_size=3, max_size=8, unique=True))]
    words = [np.cos(theta) * r + np.sin(theta) * orthogonal() for theta in angles]
    words += [r] * draw(st.integers(0, 1))
    words += [orthogonal() for _ in range(draw(st.integers(3, 6)))]
    code = SubspaceCode([Subspace(words[i]) for i in rng.permutation(len(words))])
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, draw(st.integers(1, 6))))
    ties = [r * (phase if complex_field else np.sign(phase.real)) for phase in phases]
    return code, SubspaceCode([Subspace(b) for b in [orthogonal(), orthogonal(), *ties]])


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=near_tie_cases())
def test_near_ties_are_ranked_from_the_screen_bit_for_bit(case):
    # each row at r has its third nearest beyond its second by more than
    # TIE_TOL but by less than 2 eps, inside the screen's window: the rows
    # are ranked from the single-precision table, with no double table, and
    # decode as the double decoder does.  Their gaps are at most 2.5e-6 and
    # the screen's are off by about 1e-6 at most, so each ranks at least its
    # three nearest.
    code, received = case
    eps = screen_tolerance(code.rows.shape[1], 1, 1)
    table = np.sort(pairwise(code, received), axis=0)
    gaps = table[2, 2:] - table[1, 2:]
    assert np.all((TIE_TOL < gaps) & (gaps < 2 * eps))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decoder, "_SCREEN_MIN_PRODUCT", 0)
        spy = _Spy(patch)
        got = decode_block(code, received)
    assert spy.tables == {"single": [2, len(received) - 2], "double": []}
    nominees, = spy.nominees
    assert nominees >= 2 * 2 + 3 * (len(received) - 2)
    for got_column, want_column in zip(got, decode_block_double(code, received)):
        assert got_column.dtype == want_column.dtype
        assert got_column.tobytes() == want_column.tobytes()


def test_decode_block_uses_a_given_single_precision_copy(monkeypatch):
    monkeypatch.setattr(decoder, "_SCREEN_MIN_PRODUCT", 0)
    rng = np.random.default_rng(23)
    code = _triple_line_code(rng)
    received = SubspaceCode([random_subspace(5, m, rng) for m in (1, 2, 0, 1, 5)])
    single = single_precision(code)
    assert single.rows.dtype == np.float32
    pairs = np.stack([code.rows.real, code.rows.imag], axis=2).reshape(len(code.rows), -1)
    assert single.rows.tobytes() == pairs.astype(np.float32).tobytes()
    assert single.dims.tolist() == code.dims.tolist()
    got = decode_block(code, received, single=single)
    want = decode_block_double(code, received)
    for got_column, want_column in zip(got, want):
        assert got_column.tobytes() == want_column.tobytes()


def test_a_screened_block_names_the_ambient_dimensions_it_was_given(monkeypatch):
    # the screen's operands are twice as wide, but the message gives the inputs'
    monkeypatch.setattr(decoder, "_SCREEN_MIN_PRODUCT", 0)
    code = cp_construct(CPCodeSpec(FiniteField(7), 2))
    received = SubspaceCode([random_subspace(5, 1, np.random.default_rng(25)) for _ in range(3)])
    with pytest.raises(ConfigError, match="ambient dimensions differ: 6 vs 5"):
        decode_block(code, received, single=single_precision(code))


def test_decode_does_not_cast_a_large_code(monkeypatch):
    # one plane against CP (127,2) reaches the screen's product threshold,
    # but casting the code would cost more than the double table it could
    # save: decode() pays for no cast, and decodes as the screen would
    code = cp_construct(CPCodeSpec(FiniteField(127), 2))
    rng = np.random.default_rng(24)
    received = [random_subspace(126, 2, rng) for _ in range(3)]
    assert code.rows.size * 2 >= decoder._SCREEN_MIN_PRODUCT
    single = single_precision(code)
    want = [decode_block(code, SubspaceCode([U]), single=single) for U in received]
    casts = []  # the code's copy, then the block's screen operands
    cast, operands = decoder.single_precision, decoder._screen_operands
    monkeypatch.setattr(decoder, "single_precision",
                        lambda c: casts.append(len(c)) or cast(c))
    monkeypatch.setattr(decoder, "_screen_operands",
                        lambda c, r: casts.append(len(r)) or operands(c, r))
    for U, expected in zip(received, want):
        got = decoder.decode(code, U)
        assert (got.codeword_index, got.distance_to_received, got.runner_up_distance) == (
            int(expected.index[0]), float(expected.distance[0]), float(expected.runner_up[0]))
    assert casts == []
    # a block of more than _PROBE received subspaces is still screened
    three = SubspaceCode(received)
    got = decode_block(code, three)
    assert casts == [len(code), 3]
    for got_column, want_column in zip(got, decode_block(code, three, single=single)):
        assert got_column.tobytes() == want_column.tobytes()


def _cp_31_2_file(tmp_path) -> str:
    path = tmp_path / "cp_31_2.code.json"
    save_code(cp_construct(CPCodeSpec(FiniteField(31), 2)), path)
    return str(path)


@pytest.mark.parametrize("t, trials", [(1, 700), (0, 200)])
def test_simulate_writes_the_bytes_of_the_double_decoder(t, trials, tmp_path, monkeypatch,
                                                         capsys):
    # the benchmark's cp-decode config (CP (31,2) over k = 1, t = 1), and the
    # same code at t = 0, where every row ties at the runner-up and each block
    # falls back to the double-precision table
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"code": {"type": "file", "path": _cp_31_2_file(tmp_path)},
                               "channel": {"k": 1, "t": t}, "trials": trials, "seed": 31}))
    screened, double = tmp_path / "screened.csv", tmp_path / "double.csv"
    spy = _Spy(monkeypatch)
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(screened)]) == EXIT_OK
    if t == 0:  # the 200 trials are one block of the 1024 that t = 0 takes; its
        # two probe rows tie, so the whole block is decoded in double, in
        # pairwise() blocks of 136 received lines
        assert spy.tables["single"] == [2]
        assert spy.tables["double"] == [136, 64]
    monkeypatch.setattr(cli, "decode_block",
                        lambda code, received, single: decode_block_double(code, received))
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(double)]) == EXIT_OK
    assert screened.read_bytes() == double.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("t", [1, 0])
def test_a_chunk_long_block_forms_no_table_beyond_one_pairwise_block(t, tmp_path, monkeypatch,
                                                                     capsys):
    # a 1024-trial block of CP (31,2) over k = 1, each table one pairwise()
    # block of received subspaces (_Spy checks): at t = 1 the screen's; at
    # t = 0 the probe ties, and the double table's
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"code": {"type": "file", "path": _cp_31_2_file(tmp_path)},
                               "channel": {"k": 1, "t": t}, "trials": 1024, "seed": 32}))
    blocks = []
    decode = cli.decode_block
    monkeypatch.setattr(cli, "_trial_block", lambda code, spec: 1024)
    monkeypatch.setattr(cli, "decode_block", lambda code, received, single: blocks.append(
        (code, received, single)) or decode(code, received, single=single))
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == EXIT_OK
    (code, received, single), = blocks
    tables = _Spy(monkeypatch).tables
    got = decode_block(code, received, single=single)
    if t == 1:
        assert tables["double"] == [] and len(tables["single"]) > 2
        assert sum(tables["single"]) == 1024
    else:
        assert tables["single"] == [2] and len(tables["double"]) > 1
        assert sum(tables["double"]) == 1024
    for got_column, want_column in zip(got, decode_block_double(code, received)):
        assert got_column.dtype == want_column.dtype
        assert got_column.tobytes() == want_column.tobytes()
    capsys.readouterr()


def test_cp_decode_config_is_settled_by_the_screen_alone(tmp_path, monkeypatch, capsys):
    # 64 trials of CP (31,2) over k = 1, t = 1 are one block.  The screen
    # covers every row and no double-precision table is formed.  Every row
    # ranks its two nearest codewords, and a row whose third-nearest screen
    # entry lies within TIE_TOL + 2 eps of its second ranks its window too.
    # Only a row whose third lies within TIE_TOL + 4 eps of its second in
    # the double table can: here one row, whose gap of 1.8e-5 is inside
    # 2 eps = 6.1e-5 by far more than the screen's error of about 1e-6, so
    # it ranks three.  A broken screen, or one that sends rows to double
    # precision, keeps the bytes but loses the speed; this catches it.
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"code": {"type": "file", "path": _cp_31_2_file(tmp_path)},
                               "channel": {"k": 1, "t": 1}, "trials": 64, "seed": 1}))
    blocks = []
    decode = cli.decode_block

    def recorded(code, received, single):
        blocks.append((code, received))
        return decode(code, received, single=single)

    monkeypatch.setattr(cli, "decode_block", recorded)
    spy = _Spy(monkeypatch)
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == EXIT_OK
    (code, received), = blocks
    table = np.sort(pairwise(code, received), axis=0)
    near = np.count_nonzero(table[2:] - table[1] <= TIE_TOL + 4 * screen_tolerance(30, 1, 2))
    assert near == 1
    assert spy.tables == {"single": [2, 62], "double": []}
    assert spy.nominees == [2 * 64 + near]
    capsys.readouterr()
