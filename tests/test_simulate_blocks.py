"""The blocked `simulate` loop against a loop that runs one trial at a time.

`simulate` runs its trials in blocks, sized from the code and the channel
(`cli._trial_block`): the channel's linear algebra runs once per block and
codeword dimension on stacked arrays, and one pairwise() table picks the
block's decodes.  Chunk c of `cli._TRIAL_CHUNK` trials draws from
`default_rng([seed, 1, c])`: first its codeword indices in one call, then
one row of S normals per trial, S the largest channel draw size over the
code's dimensions that fit, of which each trial's channel use takes the
first ones it needs.  Every distance written comes from the residual
kernel, pair by pair, so the CSV must be byte-identical to the one the
per-chunk loop below writes, whatever the block size.  That loop draws each
chunk's indices and normals at once and then runs one channel call, one
decode and one distance() call per trial, with the columns of v2, which v4
keeps.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from subspacecodes import (CPCodeSpec, FiniteField, Subspace, SubspaceCode,
                           apply_noisy_operator_channel_block, channel_draw_size,
                           cli, cp_construct, decode, distance, guarantee_noisy,
                           guarantee_noisy_slack, min_distance_exhaustive, random_subspace,
                           save_code)
from subspacecodes import decoder, subspaces
from subspacecodes.cli import EXIT_INFEASIBLE, EXIT_OK
from subspacecodes.codes import DEFAULT_SEARCH_CAP, cp_min_distance
from subspacecodes.errors import Infeasible

README = {"code": {"type": "random-ensemble", "n": 12, "m": 3, "M": 20},
          "channel": {"k": 2, "t": 1, "delta": 0.05, "r_d": 1}, "trials": 1000, "seed": 7}
COLUMNS = ["trial", "rho", "t", "delta_rot", "r_d", "tx_index", "rx_index",
           "correct", "d_tx_rx", "guarantee_flag", "runner_up", "margin", "slack"]


def _draw_width(code, spec) -> int:
    """S: the largest channel draw size over the code's dimensions that fit."""
    complex_field = np.iscomplexobj(code.rows)
    sizes = [0]
    for U in code:
        try:
            sizes.append(channel_draw_size(U.dim, U.ambient_dim, spec, complex_field))
        except Infeasible:
            pass
    return max(sizes)


def _per_trial_simulate(cfg: dict, path) -> None:
    """Oracle: the simulate CSV written one chunk of draws, and then one
    trial, at a time."""
    seed = int(cfg["seed"])
    trials = int(cfg["trials"])
    code = cli.build_code_from_config(cfg["code"], seed)
    spec = cli._channel_from_config(cfg["channel"], code)
    if cfg["code"]["type"] == "cp":
        d_min = cp_min_distance(code)
    else:
        d_min, _ = min_distance_exhaustive(code, int(cfg.get("search_cap", DEFAULT_SEARCH_CAP)))
    width = _draw_width(code, spec)
    rows = []
    successes = 0
    for trial in range(trials):
        if trial % cli._TRIAL_CHUNK == 0:
            rng = np.random.default_rng([seed, 1, trial // cli._TRIAL_CHUNK])
            count = min(cli._TRIAL_CHUNK, trials - trial)
            chunk_tx = rng.integers(len(code), size=count)
            chunk_normals = rng.standard_normal((count, width))
        tx = int(chunk_tx[trial % cli._TRIAL_CHUNK])
        normals = chunk_normals[trial % cli._TRIAL_CHUNK]
        U = code[tx]
        size = channel_draw_size(U.dim, U.ambient_dim, spec, U.is_complex)
        V = Subspace(apply_noisy_operator_channel_block(U.basis[np.newaxis], spec,
                                                        normals[np.newaxis, :size])[0])
        result = decode(code, V)
        impairments = (max(0, U.dim - spec.base.k), spec.base.t, spec.rotation, spec.noise_dim)
        flag = guarantee_noisy(d_min, *impairments)
        correct = result.codeword_index == tx
        successes += int(correct)
        rows.append([trial, *impairments, tx, result.codeword_index, correct,
                     distance(U, V), flag, result.runner_up_distance,
                     result.runner_up_distance - result.distance_to_received,
                     guarantee_noisy_slack(d_min, *impairments)])
    rate = successes / trials
    rows.append(["summary", "", "", "", "", "", "", float(rate), "", "", "", "", ""])
    cli._write_csv(str(path), "simulate", cfg, seed, COLUMNS, cli._fmt(rows), version=4)


def _assert_same_csv(tmp_path, cfg: dict) -> None:
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(cfg))
    blocked, oracle = tmp_path / "blocked.csv", tmp_path / "oracle.csv"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(blocked)]) == EXIT_OK
    _per_trial_simulate(cfg, oracle)
    data = blocked.read_bytes()
    assert data.startswith(b"# subspace-codes simulate v4\n")
    assert data == oracle.read_bytes()
    _check_columns(data)


def _check_columns(data: bytes) -> None:
    """Every row, the summary included, has a field per column; the margin is
    never negative, and on a correct decode it is runner_up - d_tx_rx, the
    distance to the decoded codeword being d_tx_rx bit for bit; the slack
    is positive exactly on the rows inside the guarantee."""
    lines = data.decode().splitlines()[2:]
    columns = lines[0].split(",")
    assert columns == COLUMNS
    rows = [dict(zip(columns, line.split(","))) for line in lines[1:]]
    assert all(line.count(",") == len(columns) - 1 for line in lines[1:])
    assert rows[-1]["trial"] == "summary"
    for row in rows[:-1]:
        runner_up, margin = float(row["runner_up"]), float(row["margin"])
        assert margin >= 0
        if row["correct"] == "1":
            assert runner_up - float(row["d_tx_rx"]) == margin
            assert runner_up >= float(row["d_tx_rx"])
        assert (float(row["slack"]) > 0) == (row["guarantee_flag"] == "1")


def _mixed_code_file(tmp_path) -> str:
    rng = np.random.default_rng(5)
    path = tmp_path / "mixed.code.json"
    save_code(SubspaceCode([random_subspace(8, m, rng) for m in (1, 2, 3, 2, 1, 3, 2, 0)]), path)
    return str(path)


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_readme_config_matches_the_per_trial_loop(seed, tmp_path, capsys):
    _assert_same_csv(tmp_path, {**README, "seed": seed})
    capsys.readouterr()


def test_cp_31_2_file_config_matches_the_per_trial_loop(tmp_path, capsys):
    path = tmp_path / "cp_31_2.code.json"
    save_code(cp_construct(CPCodeSpec(FiniteField(31), 2)), path)
    _assert_same_csv(tmp_path, {"code": {"type": "file", "path": str(path)},
                                "channel": {"k": 1, "t": 1}, "trials": 1000, "seed": 3})
    capsys.readouterr()


def test_cp_5_2_config_matches_the_per_trial_loop(tmp_path, capsys):
    # a cp config takes its d_min from one column, in simulate and in the oracle
    _assert_same_csv(tmp_path, {"code": {"type": "cp", "q": 5, "k": 2},
                                "channel": {"k": 1, "t": 1, "delta": 0.2},
                                "trials": 300, "seed": 6})
    capsys.readouterr()


def test_mixed_dimension_code_matches_the_per_trial_loop(tmp_path, capsys):
    _assert_same_csv(tmp_path, {"code": {"type": "file", "path": _mixed_code_file(tmp_path)},
                                "channel": {"k": 2, "t": 1, "delta": 0.1, "r_d": 1},
                                "trials": 300, "seed": 4})
    capsys.readouterr()


def test_real_binary_code_matches_the_per_trial_loop(tmp_path, capsys):
    _assert_same_csv(tmp_path, {"code": {"type": "binary",
                                         "words": ["0000", "0110", "1011", "1101", "1110"]},
                                "channel": {"k": 1, "t": 1, "delta": 0.3, "r_d": 1},
                                "trials": 300, "seed": 5})
    capsys.readouterr()


def _block_size(cfg: dict) -> int:
    """The trials per block that simulate computes for ``cfg``."""
    code = cli.build_code_from_config(cfg["code"], cfg["seed"])
    return cli._trial_block(code, cli._channel_from_config(cfg["channel"], code))


@pytest.mark.parametrize("extra", [None, -1, 0, 1, "2B+3", "C+1"])
def test_trial_counts_around_the_block_size(extra, tmp_path, capsys):
    block = _block_size({**README, "seed": 11})
    assert block > cli._MIN_TRIAL_BLOCK
    # C + 1 trials: a second chunk of one trial, and a block cut at the chunk's end
    assert cli._TRIAL_CHUNK % block
    trials = block + extra if isinstance(extra, int) else {
        None: 1, "2B+3": 2 * block + 3, "C+1": cli._TRIAL_CHUNK + 1}[extra]
    _assert_same_csv(tmp_path, {**README, "seed": 11, "trials": trials})
    capsys.readouterr()


def test_block_size_keeps_to_the_budget_and_the_floor():
    # n = 12, l = 3, b = min(3, 2) + 1 + 1 and M = 20: the channel's arrays and
    # a column of the decode table per trial
    assert _block_size(README) == cli._BLOCK_BYTES // (16 * 12 * (12 + 3 + 2 * 4) + 8 * 20)
    # in a wide ambient space the budget holds a few trials; the floor keeps more
    rng = np.random.default_rng(3)
    wide = SubspaceCode([random_subspace(100, 1, rng) for _ in range(2)])
    spec = cli._channel_from_config({"k": 1, "t": 1}, wide)
    assert cli._BLOCK_BYTES // (16 * 100 * (100 + 1 + 2 * 2) + 8 * 2) < cli._MIN_TRIAL_BLOCK
    assert cli._trial_block(wide, spec) == cli._MIN_TRIAL_BLOCK


CP_31_2 = {"code": {"type": "cp", "q": 31, "k": 2}, "channel": {"k": 1, "t": 1}, "seed": 1}


@pytest.mark.parametrize("cfg, block, rows", [
    (README, 114, 4),
    (CP_31_2, 136, 2),
    ({**CP_31_2, "channel": {"k": 1, "t": 0}}, 272, 1),
    ({**CP_31_2, "code": {"type": "cp", "q": 127, "k": 2}}, 64, 2),
], ids=["readme", "cp_31_2_t1", "cp_31_2_t0", "cp_127_2_t1"])
def test_screened_blocks_fill_one_pairwise_block(cfg, block, rows):
    # the README config is not screened and keeps its budget; CP (31,2)'s
    # blocks of ``rows`` received rows a trial are screened and grow until
    # the screen's float32 product of the block's embedded received rows,
    # two per received row, and the code's 961 rows fills 2 MiB at 4 bytes
    # an entry; CP (127,2)'s product at the floor of 64 trials already
    # exceeds one block
    assert _block_size(cfg) == block
    code = cli.build_code_from_config(cfg["code"], cfg["seed"])
    screened = decoder.screened(code, block * rows)
    assert screened == (cfg is not README)
    if screened and block > cli._MIN_TRIAL_BLOCK:  # one block; one more trial would take two
        received = SubspaceCode._from_rows(
            np.zeros((block * rows, code.ambient_dim), complex), np.full(block, rows), rows)
        screen, single = decoder._screen_operands(
            code, decoder.single_precision(code), received)
        assert screen.rows.dtype == single.rows.dtype == np.float32
        assert screen.rows.shape == (2 * block * rows, 2 * code.ambient_dim)
        assert screen.blocks(single) == [(0, block)]
        assert 4 * len(code) * (block + 1) * 2 * rows > subspaces._BLOCK_BYTES


@pytest.mark.parametrize("t, trials", [(1, 1100), (0, 1100)])
def test_cp_31_2_at_its_screened_block_size_matches_the_per_trial_loop(t, trials, tmp_path,
                                                                       capsys):
    # 1100 trials cut the first chunk of 1024 inside a block (after 7 blocks of
    # 136 or 3 of 272) and leave a second chunk of 76 trials
    path = tmp_path / "cp_31_2.code.json"
    save_code(cp_construct(CPCodeSpec(FiniteField(31), 2)), path)
    cfg = {"code": {"type": "file", "path": str(path)}, "channel": {"k": 1, "t": t},
           "trials": trials, "seed": 12}
    block = _block_size(cfg)
    assert block == {1: 136, 0: 272}[t]
    assert cli._TRIAL_CHUNK % block and trials % block
    _assert_same_csv(tmp_path, cfg)
    capsys.readouterr()


def test_first_overflowing_trial_names_the_error(tmp_path, capsys):
    # dims 1, 2, 3, 2, 1, 3, 2, 0 in ambient 8: seven error dimensions fit
    # next to the codewords of dimension 0 and 1 only, and the message names
    # the dimension of the first trial that sent a larger one
    cfg = {"code": {"type": "file", "path": _mixed_code_file(tmp_path)},
           "channel": {"k": 3, "t": 7}, "trials": 40, "seed": 2}
    with pytest.raises(Infeasible, match="cannot fit") as raised:
        _per_trial_simulate(cfg, tmp_path / "oracle.csv")
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["simulate", "--config", str(cfg_path)]) == EXIT_INFEASIBLE
    assert capsys.readouterr().err == f"infeasible request: {raised.value}\n"


def test_unreachable_rotation_keeps_its_message(tmp_path, capsys):
    cfg = {"code": {"type": "cp", "q": 5, "k": 2}, "channel": {"k": 1, "t": 0, "delta": 2.5},
           "seed": 1}
    path = tmp_path / "sim.json"
    path.write_text(json.dumps({**cfg, "trials": 2 * _block_size(cfg)}))
    assert cli.main(["simulate", "--config", str(path)]) == EXIT_INFEASIBLE
    assert capsys.readouterr().err == (
        "infeasible request: rotation budget 2.5 exceeds the largest distance 2 from a "
        "1-dimensional subspace of ambient dimension 4\n")


def test_seed_longer_than_two_entropy_words_matches_the_per_trial_loop(tmp_path, capsys):
    # 2**70 is three uint32 words, so each chunk's entropy overflows the 4-word pool
    _assert_same_csv(tmp_path, {**README, "seed": 2**70, "trials": 200})
    capsys.readouterr()


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("cfg", ["readme", "mixed", "binary"])
def test_block_size_does_not_change_the_bytes(block, cfg, tmp_path, monkeypatch, capsys):
    cfg = {"readme": {**README, "trials": 100},
           "mixed": {"code": {"type": "file", "path": _mixed_code_file(tmp_path)},
                     "channel": {"k": 2, "t": 1, "delta": 0.1, "r_d": 1},
                     "trials": 100, "seed": 4},
           "binary": {"code": {"type": "binary",
                               "words": ["0000", "0110", "1011", "1101", "1110"]},
                      "channel": {"k": 1, "t": 1, "delta": 0.3, "r_d": 1},
                      "trials": 100, "seed": 5}}[cfg]
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(cfg))
    default, blocked = tmp_path / "default.csv", tmp_path / "blocked.csv"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(default)]) == EXIT_OK
    monkeypatch.setattr(cli, "_trial_block", lambda code, spec: block)
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(blocked)]) == EXIT_OK
    assert blocked.read_bytes() == default.read_bytes()
    capsys.readouterr()


def _repeated_lines_file(tmp_path) -> str:
    """Four random lines of C^6, each three times at different phases: a
    code whose codewords tie with each other to within roundoff."""
    rng = np.random.default_rng(8)
    lines = [random_subspace(6, 1, rng).basis for _ in range(4)]
    path = tmp_path / "repeated.code.json"
    save_code(SubspaceCode([Subspace(np.exp(2j * np.pi * rng.random()) * line)
                            for _ in range(3) for line in lines]), path)
    return str(path)


@pytest.mark.parametrize("code", ["cp_3_2", "repeated_lines"])
def test_codewords_tied_to_within_roundoff_give_one_csv_at_every_block_size(
        code, tmp_path, monkeypatch, capsys):
    # CP (3,2)'s nine lines of C^2 repeat, so every trial's decode meets a
    # three-way tie that the table's roundoff splits differently per block
    if code == "cp_3_2":
        path = tmp_path / "cp_3_2.code.json"
        save_code(cp_construct(CPCodeSpec(FiniteField(3), 2)), path)
    else:
        path = _repeated_lines_file(tmp_path)
    cfg = {"code": {"type": "file", "path": str(path)}, "channel": {"k": 1, "t": 0},
           "trials": 400, "seed": 1}
    _assert_same_csv(tmp_path, cfg)
    default = (tmp_path / "blocked.csv").read_bytes()
    for block in (1, 2, 7):
        monkeypatch.setattr(cli, "_trial_block", lambda code, spec: block)
        out = tmp_path / f"block_{block}.csv"
        assert cli.main(["simulate", "--config", str(tmp_path / "sim.json"),
                         "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == default
    capsys.readouterr()


def test_slack_and_flag_agree_on_both_sides_of_the_guarantee(tmp_path, capsys):
    # no rotation and no noise: a codeword of dimension 0 or 1 loses nothing
    # to k = 1, so rho = 0 and the guarantee holds; dimension 2 or 3 erases
    # rho >= 1, and 2 rho exceeds this code's d_min
    cfg = {"code": {"type": "file", "path": _mixed_code_file(tmp_path)},
           "channel": {"k": 1, "t": 0}, "trials": 200, "seed": 6}
    _assert_same_csv(tmp_path, cfg)
    rows = [line.split(",") for line in (tmp_path / "blocked.csv").read_text().splitlines()[3:-1]]
    flags = {(row[1], row[9]) for row in rows}
    assert flags == {("0", "1"), ("1", "0"), ("2", "0")}
    capsys.readouterr()


def test_a_tiny_rotation_keeps_its_relative_accuracy(tmp_path, capsys):
    # the Gram identity m + m - 2 ||C||^2 would lose 1e-12 to cancellation
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({**README, "channel": {"k": 3, "t": 0, "delta": 1e-12},
                               "trials": 100}))
    out = tmp_path / "sim.csv"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines()[3:-1]]
    assert len(rows) == 100
    for row in rows:
        assert math.isclose(float(row[8]), 1e-12, rel_tol=1e-6)
    capsys.readouterr()
