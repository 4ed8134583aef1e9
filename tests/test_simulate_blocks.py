"""The blocked `simulate` loop against a loop that runs one trial at a time.

`simulate` runs its trials in blocks, sized from the code and the channel
by `cli._plan`: the workers share the one 2 MiB memory budget,
`subspaces._BLOCK_BYTES`, and each cuts its trial blocks from a quarter of
its share.  The channel's linear algebra runs once per block and codeword
dimension on stacked arrays, and one pairwise() table picks the block's
decodes.  Chunk c of `cli._TRIAL_CHUNK` trials draws from
`default_rng([seed, 1, c])`: first its codeword indices in one call, then
one row of S normals per trial, S the largest channel draw size over the
code's dimensions that fit, of which each trial's channel use takes the
first ones it needs.  Every distance written comes from the residual
kernel, pair by pair, so the CSV must be byte-identical to the one the
per-chunk loop below writes, whatever the block size.  That loop draws each
chunk's indices and normals at once and then runs one channel call, one
decode and one distance() call per trial, with the columns of v2, which v5
keeps.  The sizing that `cli._plan` replaced is kept here as its oracle,
`_reference_plan`.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import _qr_rows, _staged_channel
from subspacecodes import (ChannelSpec, CPCodeSpec, FiniteField, Subspace, SubspaceCode,
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
        impairments = (max(0, U.dim - spec.k), spec.t, spec.rotation, spec.noise_dim)
        flag = guarantee_noisy(d_min, *impairments)
        correct = result.codeword_index == tx
        successes += int(correct)
        rows.append([trial, *impairments, tx, result.codeword_index, correct,
                     distance(U, V), flag, result.runner_up_distance,
                     result.runner_up_distance - result.distance_to_received,
                     guarantee_noisy_slack(d_min, *impairments)])
    rate = successes / trials
    rows.append(["summary", "", "", "", "", "", "", float(rate), "", "", "", "", ""])
    cli._write_csv(str(path), "simulate", cfg, seed, COLUMNS, cli._fmt(rows), version=5)


def _assert_same_csv(tmp_path, cfg: dict) -> None:
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(cfg))
    blocked, oracle = tmp_path / "blocked.csv", tmp_path / "oracle.csv"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(blocked)]) == EXIT_OK
    _per_trial_simulate(cfg, oracle)
    data = blocked.read_bytes()
    assert data.startswith(b"# subspace-codes simulate v5\n")
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


def _v4_channel_decisions(cfg: dict) -> tuple[list, list]:
    """Oracle: the codeword sent and the one decoded in each trial of
    ``cfg``, drawn as simulate draws them but sent through the v4 channel,
    which orthonormalized every part by a QR after carrying it."""
    seed, trials = int(cfg["seed"]), int(cfg["trials"])
    code = cli.build_code_from_config(cfg["code"], seed)
    spec = cli._channel_from_config(cfg["channel"], code)
    width = _draw_width(code, spec)
    sent, decoded = [], []
    for lo in range(0, trials, cli._TRIAL_CHUNK):
        rng = np.random.default_rng([seed, 1, lo // cli._TRIAL_CHUNK])
        count = min(cli._TRIAL_CHUNK, trials - lo)
        tx = rng.integers(len(code), size=count)
        normals = rng.standard_normal((count, width))
        for index, row in zip(tx.tolist(), normals):
            U = code[index]
            size = channel_draw_size(U.dim, U.ambient_dim, spec, U.is_complex)
            V = Subspace(_staged_channel(U, spec, row[:size], _qr_rows))
            sent.append(index)
            decoded.append(decode(code, V).codeword_index)
    return sent, decoded


@pytest.mark.parametrize("name", ["readme", "cp_31_2_t1"])
def test_the_v4_channel_makes_every_decision_that_simulate_makes(name, tmp_path, capsys):
    # v5 orthonormalizes the kept, error and noise coefficients before it
    # carries them, and the rotation's draw after the rows it turns, which
    # moves only the last bits of each received basis
    if name == "readme":
        cfg = README
    else:
        path = tmp_path / "cp_31_2.code.json"
        save_code(cp_construct(CPCodeSpec(FiniteField(31), 2)), path)
        cfg = {"code": {"type": "file", "path": str(path)}, "channel": {"k": 1, "t": 1},
               "trials": 1000, "seed": 3}
    cfg_path, out = tmp_path / "sim.json", tmp_path / "sim.csv"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines()[3:-1]]
    sent, decoded = _v4_channel_decisions(cfg)
    assert [int(row[COLUMNS.index("tx_index")]) for row in rows] == sent
    assert [int(row[COLUMNS.index("rx_index")]) for row in rows] == decoded
    capsys.readouterr()


def _block_size(cfg: dict) -> int:
    """The trials per block that simulate computes for ``cfg`` on one worker."""
    code = cli.build_code_from_config(cfg["code"], cfg["seed"])
    return cli._plan(code, cli._channel_from_config(cfg["channel"], code), 1)[1]


def _blocks_of(monkeypatch, block: int) -> None:
    """Has simulate run one worker, in blocks of ``block`` trials, on the
    whole memory budget."""
    budget = subspaces._BLOCK_BYTES
    monkeypatch.setattr(cli, "_plan", lambda code, spec, chunks: (1, block, budget))


# Oracle: simulate's sizing before cli._plan, in three helpers, with the
# trial blocks cut from a budget of their own, 2^19 bytes shared by the
# workers, and the tables from subspaces._BLOCK_BYTES / workers
_TRIAL_BLOCK_BYTES = 2 ** 19


def _received_rows(code: SubspaceCode, spec) -> int:
    """b = min(l, k) + t + r_d, l the code's largest dimension: the rows of
    the largest received basis."""
    return min(code.max_dim, spec.k) + spec.t + spec.noise_dim


def _trial_block(code: SubspaceCode, spec, workers: int = 1) -> int:
    """Trials that simulate runs at once on each of ``workers`` workers,
    which share _TRIAL_BLOCK_BYTES."""
    n, l, b = code.ambient_dim, code.max_dim, _received_rows(code, spec)
    per_trial = 16 * n * (n + l + 2 * b) + 8 * len(code)
    budget = _TRIAL_BLOCK_BYTES // workers
    block = max(cli._MIN_TRIAL_BLOCK, budget // per_trial)
    if decoder.screened(code, block * b):
        block = max(block, min(cli._TRIAL_CHUNK, budget // (16 * n * b)))
    return block


def _workers(code: SubspaceCode, spec, chunks: int) -> int:
    """The most workers, up to min(usable cores, chunks), whose blocks are
    screened and keep their received bases within their share; else 1."""
    n, b = code.ambient_dim, _received_rows(code, spec)
    for workers in range(min(cli._usable_cores(), chunks), 1, -1):
        block = _trial_block(code, spec, workers)
        if (decoder.screened(code, block * b)
                and 16 * n * b * block <= _TRIAL_BLOCK_BYTES // workers):
            return workers
    return 1


def _reference_plan(code: SubspaceCode, spec, chunks: int) -> tuple[int, int, int]:
    """(workers, block, budget) as simulate took them from the three helpers."""
    workers = _workers(code, spec, chunks)
    return workers, _trial_block(code, spec, workers), subspaces._BLOCK_BYTES // workers


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


CP_31_2 = {"code": {"type": "cp", "q": 31, "k": 2}, "channel": {"k": 1, "t": 1}, "seed": 1}


def test_block_size_keeps_to_the_budget_and_the_floor(monkeypatch):
    # n = 12, l = 3, b = min(3, 2) + 1 + 1 and M = 20: the channel's arrays and
    # a column of the decode table per trial
    assert _block_size(README) == subspaces._BLOCK_BYTES // 4 // (16 * 12 * (12 + 3 + 2 * 4)
                                                                 + 8 * 20)
    # in a wide ambient space the budget holds a few trials; the floor keeps more
    rng = np.random.default_rng(3)
    wide = SubspaceCode([random_subspace(100, 1, rng) for _ in range(2)])
    spec = cli._channel_from_config({"k": 1, "t": 1}, wide)
    assert (subspaces._BLOCK_BYTES // 4 // (16 * 100 * (100 + 1 + 2 * 2) + 8 * 2)
            < cli._MIN_TRIAL_BLOCK)
    assert cli._plan(wide, spec, 1)[1] == cli._MIN_TRIAL_BLOCK
    # the floor is also the block for which screened() is asked: with a floor
    # of 1, CP (31,2) over k = 1, t = 0 keeps the weight's 2^19 // 23528 = 22
    # trials, whose received rows are too few to screen, not a chunk of 1024
    cp_127_2 = {**CP_31_2, "code": {"type": "cp", "q": 127, "k": 2}}
    monkeypatch.setattr(cli, "_MIN_TRIAL_BLOCK", 1)
    assert _block_size({**CP_31_2, "channel": {"k": 1, "t": 0}}) == 22
    # the README config and the two t = 1 cases keep their blocks
    assert [_block_size(cfg) for cfg in (README, CP_31_2, cp_127_2)] == [114, 546, 130]


@pytest.mark.parametrize("cfg, block, rows", [
    (README, 114, 4),
    (CP_31_2, 546, 2),
    ({**CP_31_2, "channel": {"k": 1, "t": 0}}, 1024, 1),
    ({**CP_31_2, "code": {"type": "cp", "q": 127, "k": 2}}, 130, 2),
], ids=["readme", "cp_31_2_t1", "cp_31_2_t0", "cp_127_2_t1"])
def test_screened_blocks_fill_one_pairwise_block(cfg, block, rows):
    # the README config is not screened and keeps its budget; a screened
    # block of ``rows`` received rows a trial takes as many trials as keep
    # their received bases, 16 n rows bytes a trial, within the quarter of
    # the budget that goes to trial blocks, up to one chunk (CP (31,2) over
    # t = 0), since decode_block screens it one pairwise() block at a time
    assert _block_size(cfg) == block
    code = cli.build_code_from_config(cfg["code"], cfg["seed"])
    screened = decoder.screened(code, block * rows)
    assert screened == (cfg is not README)
    if screened:
        per_trial = 16 * code.ambient_dim * rows
        share = subspaces._BLOCK_BYTES // 4
        assert block * per_trial <= share
        assert block == cli._TRIAL_CHUNK or (block + 1) * per_trial > share


@pytest.mark.parametrize("t, trials", [(1, 1100), (0, 1100)])
def test_cp_31_2_at_its_screened_block_size_matches_the_per_trial_loop(t, trials, tmp_path,
                                                                       capsys):
    # 1100 trials leave a second chunk of 76 trials, inside a block; at t = 1
    # the first chunk of 1024 is cut too, after one block of 546, and at
    # t = 0 a block is the whole chunk
    path = tmp_path / "cp_31_2.code.json"
    save_code(cp_construct(CPCodeSpec(FiniteField(31), 2)), path)
    cfg = {"code": {"type": "file", "path": str(path)}, "channel": {"k": 1, "t": t},
           "trials": trials, "seed": 12}
    block = _block_size(cfg)
    assert block == {1: 546, 0: 1024}[t]
    assert trials % block and (cli._TRIAL_CHUNK % block or block == cli._TRIAL_CHUNK)
    _assert_same_csv(tmp_path, cfg)
    capsys.readouterr()


@pytest.mark.parametrize("seed, trials", [(0, 3), (2, 40), (4, 40), (6, 2100)])
def test_an_unfittable_codeword_is_refused_before_any_draw(seed, trials, tmp_path,
                                                            monkeypatch, capsys):
    # dims 1, 2, 3, 2, 1, 3, 2, 0 in ambient 8: seven error dimensions fit
    # next to the codewords of dimension 0 and 1 only.  Seed 0's first three
    # trials send only those, seed 2's first larger one is 3-dimensional and
    # seed 4's 2-dimensional; every run is refused, with the smallest
    # dimension that does not fit, before it draws anything
    dims = [1, 2, 3, 2, 1, 3, 2, 0]
    sent = [[dims[i] for i in np.random.default_rng([s, 1, 0]).integers(8, size=t)]
            for s, t in ((0, 3), (2, 40), (4, 40))]
    assert max(sent[0]) == 1 and [m for m in sent[1] if m > 1][0] == 3
    assert [m for m in sent[2] if m > 1][0] == 2
    out = tmp_path / "sim.csv"
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps({"code": {"type": "file", "path": _mixed_code_file(tmp_path)},
                                    "channel": {"k": 3, "t": 7}, "trials": trials,
                                    "seed": seed, "out": str(out)}))

    def no_draw(*args, **kwargs):
        raise AssertionError("simulate drew before it refused the code")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    assert cli.main(["simulate", "--config", str(cfg_path)]) == EXIT_INFEASIBLE
    assert capsys.readouterr().err == (
        "infeasible request: cannot fit 7 error dimensions next to a 2-dimensional subspace "
        "in ambient dimension 8\n")
    assert not out.exists()


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
    _blocks_of(monkeypatch, block)
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(blocked)]) == EXIT_OK
    assert blocked.read_bytes() == default.read_bytes()
    capsys.readouterr()


@pytest.mark.parametrize("cfg", ["cp_7_2", "mixed"])
def test_only_misdecoded_trials_take_the_residual_kernel_again(cfg, tmp_path, monkeypatch,
                                                               capsys):
    # a trial decoded to its sent codeword writes decode_block's distance to
    # it as d_tx_rx; the others, here at least a tenth, take the residual
    # kernel on their sent and received bases, and the CSV is the oracle's
    cfg = {"cp_7_2": {"code": {"type": "cp", "q": 7, "k": 2},
                      "channel": {"k": 1, "t": 1, "delta": 0.8}, "trials": 300, "seed": 2},
           "mixed": {"code": {"type": "file", "path": _mixed_code_file(tmp_path)},
                     "channel": {"k": 2, "t": 2, "delta": 0.2, "r_d": 1},
                     "trials": 300, "seed": 4}}[cfg]
    pairs = []
    residual = cli._residual_distances
    monkeypatch.setattr(cli, "_residual_distances",
                        lambda zu, zv: pairs.append(len(zu)) or residual(zu, zv))
    _assert_same_csv(tmp_path, cfg)
    rows = [line.split(",") for line in (tmp_path / "blocked.csv").read_text().splitlines()[3:-1]]
    wrong = sum(row[7] == "0" for row in rows)
    assert wrong >= len(rows) // 10
    assert sum(pairs) == wrong
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
        _blocks_of(monkeypatch, block)
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


class _CountingPool(concurrent.futures.ThreadPoolExecutor):
    """A ThreadPoolExecutor that keeps a record of itself in ``pools``."""

    pools: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pools.append(self)


def _simulate_at(cores: int, cfg_path, out, monkeypatch, pooled: bool = True) -> int:
    """cli.main's exit code for simulate on ``cfg_path`` with ``cores``
    usable cores, checking that a ``pooled`` run started one pool of
    min(cores, chunks) - 1 threads, and any other none."""
    monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", _CountingPool)
    _CountingPool.pools = []
    argv = ["simulate", "--config", str(cfg_path)] + ([] if out is None else ["--out", str(out)])
    code = cli.main(argv)
    chunks = -(-json.loads(cfg_path.read_text())["trials"] // cli._TRIAL_CHUNK)
    helpers = min(cores, chunks) - 1 if pooled else 0
    assert [len(pool._threads) for pool in _CountingPool.pools] == ([helpers] if helpers else [])
    return code


def _large_mixed_code_file(tmp_path) -> str:
    """400 random subspaces of C^12 of dimensions 1, 2, 3 and 0 in turn: a
    mixed-dimension code large enough that simulate's blocks are screened."""
    rng = np.random.default_rng(5)
    path = tmp_path / "large_mixed.code.json"
    save_code(SubspaceCode([random_subspace(12, m, rng) for m in (1, 2, 3, 0) * 100]), path)
    return str(path)


@pytest.mark.parametrize("name", ["readme", "cp_31_2_t0", "cp_31_2_t1", "mixed"])
def test_the_worker_count_does_not_change_the_bytes(name, tmp_path, monkeypatch, capsys):
    # 2100 trials: chunks of 1024, 1024 and 52, on 1, 2 and 3 cores.  The
    # README config's blocks are not screened, and it runs on one worker
    # whatever the cores; the others' are, and they run on min(cores, 3)
    # workers.  The mixed-dimension code misdecodes about a quarter of its
    # trials
    cp_file = tmp_path / "cp_31_2.code.json"
    if name.startswith("cp"):
        save_code(cp_construct(CPCodeSpec(FiniteField(31), 2)), cp_file)
    cfg = {"readme": {**README, "seed": 13},
           "cp_31_2_t0": {"code": {"type": "file", "path": str(cp_file)},
                          "channel": {"k": 1, "t": 0}, "seed": 14},
           "cp_31_2_t1": {"code": {"type": "file", "path": str(cp_file)},
                          "channel": {"k": 1, "t": 1}, "seed": 15},
           "mixed": {"code": {"type": "file", "path": _large_mixed_code_file(tmp_path)},
                     "channel": {"k": 2, "t": 2, "delta": 0.2, "r_d": 1}, "seed": 16}}[name]
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps({**cfg, "trials": 2100}))
    outs = []
    for cores in (1, 2, 3):
        outs.append(tmp_path / f"cores_{cores}.csv")
        assert _simulate_at(cores, cfg_path, outs[-1], monkeypatch,
                            pooled=name != "readme") == EXIT_OK
    data = outs[0].read_bytes()
    assert all(out.read_bytes() == data for out in outs[1:])
    _check_columns(data)
    rows = [line.split(",") for line in data.decode().splitlines()[3:-1]]
    assert len(rows) == 2100
    if name == "mixed":
        assert sum(row[7] == "0" for row in rows) > len(rows) // 10
        assert {row[1] for row in rows} == {"0", "1"}  # rho: dimensions 0 to 2 lose none
    capsys.readouterr()


@pytest.mark.parametrize("trials", [1000, 3000])
def test_an_unfittable_codeword_is_refused_alike_on_any_number_of_cores(trials, tmp_path,
                                                                       monkeypatch, capsys):
    # 700 lines and a 3- and a 4-dimensional codeword in ambient 6: t = 4
    # error dimensions fit next to a line only, and the code is large enough
    # that its runs would be pooled.  At seed 1375 no trial of chunk 0 sends
    # a larger codeword, chunk 1's first sends the 4-dimensional one and
    # chunk 2's the 3-dimensional one; at 1000 trials and at 3000, on 1, 2
    # and 3 cores, the run is refused for the 3-dimensional one, the smallest
    # that does not fit, before any chunk runs, and writes no CSV
    rng = np.random.default_rng(31)
    words = [random_subspace(6, m, rng) for m in [1] * 700 + [3, 4]]
    path = tmp_path / "overflow.code.json"
    save_code(SubspaceCode(words), path)
    firsts = []
    for chunk in range(3):
        tx = np.random.default_rng([1375, 1, chunk]).integers(len(words), size=cli._TRIAL_CHUNK)
        over = np.flatnonzero(tx >= 700)
        firsts.append((chunk * cli._TRIAL_CHUNK + over[0], words[tx[over[0]]].dim)
                      if len(over) else None)
    assert firsts == [None, (1456, 4), (2061, 3)]
    with pytest.raises(Infeasible, match="3-dimensional") as raised:
        channel_draw_size(3, 6, ChannelSpec(1, 4), True)
    out = tmp_path / "sim.csv"
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps({"code": {"type": "file", "path": str(path)},
                                    "channel": {"k": 1, "t": 4}, "trials": trials,
                                    "seed": 1375}))
    capsys.readouterr()
    for cores in (1, 2, 3):
        assert _simulate_at(cores, cfg_path, out, monkeypatch, pooled=False) == EXIT_INFEASIBLE
        assert capsys.readouterr().err == f"infeasible request: {raised.value}\n"
        assert not out.exists()


@pytest.mark.parametrize("cores, trials, name", [(2, 1000, "cp_31_2"), (1, 2100, "cp_31_2"),
                                                (2, 2100, "ensemble_80")])
def test_a_run_of_one_worker_starts_no_thread(cores, trials, name, tmp_path, monkeypatch,
                                              capsys):
    # one chunk of CP (31,2), whose blocks are screened, runs in this thread
    # whatever the cores; on one core, so do several chunks.  An ensemble of
    # 80 words on the README channel screens one worker's blocks of 682
    # trials but would not screen two workers' of 64, so its chunks run here
    # on two cores too: a second worker's share is one worker's plan on half
    # the budget
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    if name == "cp_31_2":
        path = tmp_path / "cp_31_2.code.json"
        save_code(cp_construct(CPCodeSpec(FiniteField(31), 2)), path)
        cfg = {"code": {"type": "file", "path": str(path)}, "channel": {"k": 1, "t": 1}}
    else:
        cfg = {"code": {"type": "random-ensemble", "n": 12, "m": 3, "M": 80},
               "channel": README["channel"]}
        code = cli.build_code_from_config(cfg["code"], 3)
        spec = cli._channel_from_config(cfg["channel"], code)
        rows = _received_rows(code, spec)
        blocks = []
        for workers in (1, 2):
            with monkeypatch.context() as patched:
                patched.setattr(subspaces, "_BLOCK_BYTES", subspaces._BLOCK_BYTES // workers)
                block = cli._plan(code, spec, 1)[1]
            blocks.append((block, decoder.screened(code, block * rows)))
        assert blocks == [(682, True), (64, False)]
        assert cli._plan(code, spec, 3) == (1, 682, subspaces._BLOCK_BYTES)
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps({**cfg, "trials": trials, "seed": 3}))
    assert cli.main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "sim.csv")]) == EXIT_OK
    capsys.readouterr()


def test_a_failed_chunk_stops_the_handing_out_and_the_lowest_failure_is_raised():
    # chunk 1 fails while chunk 0 runs; chunk 0 then fails too, and no later
    # chunk is started
    started, one_failed = [], threading.Event()

    def run(chunk):
        started.append(chunk)
        if chunk == 1:
            one_failed.set()
            raise ValueError("chunk 1")
        if chunk == 0:
            assert one_failed.wait(timeout=60)
            raise ValueError("chunk 0")

    with pytest.raises(ValueError, match="chunk 0"):
        cli._run_chunks(6, 2, run)
    assert sorted(started) == [0, 1]


def test_every_chunk_runs_once_on_more_workers_than_cores():
    # eight workers, thread switches as often as the interpreter allows: a
    # chunk handed out twice, or lost, breaks the count
    started = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        cli._run_chunks(400, 8, lambda chunk: started.append(chunk) or np.ones(64).sum())
    finally:
        sys.setswitchinterval(interval)
    assert sorted(started) == list(range(400))


def test_an_interrupt_in_a_chunk_is_raised_as_it_comes():
    # chunk 1 is interrupted while chunk 0 runs, and chunk 0 then fails: the
    # interrupt, not the lower chunk's error, comes out
    one_started = threading.Event()

    def run(chunk):
        if chunk == 1:
            one_started.set()
            raise KeyboardInterrupt
        if chunk == 0:
            assert one_started.wait(timeout=60)
            raise ValueError("chunk 0")

    with pytest.raises(KeyboardInterrupt):
        cli._run_chunks(6, 2, run)


def test_an_interrupt_while_the_pool_starts_stops_the_handing_out(monkeypatch):
    # three workers, and the second helper's start is interrupted once the
    # first helper holds chunk 0: that helper ends its chunk, takes no other,
    # and the interrupt is raised once it has stopped
    holding, interrupted, started = threading.Event(), threading.Event(), []

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            if self._threads:
                assert holding.wait(timeout=60)
                interrupted.set()
                raise KeyboardInterrupt
            return super().submit(fn, *args, **kwargs)

    def run(chunk):
        started.append(chunk)
        holding.set()
        assert interrupted.wait(timeout=60)
        time.sleep(0.1)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    with pytest.raises(KeyboardInterrupt):
        cli._run_chunks(6, 3, run)
    assert started == [0]


def test_a_pool_keeps_to_one_malloc_arena_and_a_serial_run_leaves_it_be(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "_one_malloc_arena", lambda: calls.append("arena"))
    cli._run_chunks(3, 1, lambda chunk: None)
    assert calls == []
    cli._run_chunks(3, 2, lambda chunk: None)
    assert calls == ["arena"]


@pytest.mark.parametrize("t, most", [(0, 17), (1, 8)])
def test_the_workers_together_keep_to_one_workers_budget(t, most, monkeypatch):
    # CP (31,2) in C^30 over k = 1: b = 1 + t received rows, 480 b bytes a
    # trial.  Over t = 1, a ninth worker's share holds 60 trials, which the
    # floor of 64 would lift past it; over t = 0 an eighteenth's holds 60
    code = cp_construct(CPCodeSpec(FiniteField(31), 2))
    spec = cli._channel_from_config({"k": 1, "t": t}, code)
    per_trial = 16 * code.ambient_dim * (1 + t)
    for cores in (1, 2, 3, most, most + 1, 64):
        monkeypatch.setattr(cli, "_usable_cores", lambda: cores)
        workers, block, budget = cli._plan(code, spec, 100)
        assert workers == min(cores, most)
        assert budget == subspaces._BLOCK_BYTES // workers
        assert workers * block * per_trial <= subspaces._BLOCK_BYTES // 4
        assert cli._plan(code, spec, 2)[0] == min(cores, 2)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 500), l=st.integers(1, 4), M=st.integers(2, 16129),
       shorter=st.integers(0, 16128), short_dim=st.integers(0, 3), k=st.integers(0, 3),
       t=st.integers(0, 2), r_d=st.integers(0, 1),
       cores=st.sampled_from([1, 2, 3, 8, 9, 17, 18, 64]) | st.integers(1, 64),
       chunks=st.sampled_from([1, 2, 5, 100]) | st.integers(1, 200))
def test_the_plan_is_the_reference_plan(n, l, M, shorter, short_dim, k, t, r_d, cores, chunks):
    # the plan reads of a code only its ambient and largest dimensions, its
    # size and its row count, so the rows are one zero broadcast to their
    # shape: M codewords of dimension l, of which up to M - 1 are shorter
    l = min(l, n)
    dims = np.full(M, l)
    dims[1:1 + min(shorter, M - 1)] = min(short_dim, l - 1)
    code = SubspaceCode._from_rows(np.broadcast_to(np.zeros(1), (int(dims.sum()), n)), dims)
    spec = ChannelSpec(k, t, noise_dim=r_d)
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(cli, "_usable_cores", lambda: cores)
        assert cli._plan(code, spec, chunks) == _reference_plan(code, spec, chunks)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs sched_setaffinity and two usable CPUs")
def test_a_process_pinned_to_one_cpu_writes_the_bytes_of_an_unpinned_one(tmp_path):
    # the worker count comes from the affinity mask: pinned to one CPU, the
    # CLI runs its three chunks in one thread; unpinned, on a pool
    cpu = min(os.sched_getaffinity(0))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                      os.environ.get("PYTHONPATH")]))}

    def pin():
        os.sched_setaffinity(0, {cpu})

    def run(argv, pinned):
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                              timeout=300, preexec_fn=pin if pinned else None)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    probe = ["-c", "from subspacecodes import cli; print(cli._usable_cores())"]
    assert run(probe, True).strip() == "1"
    assert int(run(probe, False)) >= 2
    path = tmp_path / "cp_31_2.code.json"
    save_code(cp_construct(CPCodeSpec(FiniteField(31), 2)), path)
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({"code": {"type": "file", "path": str(path)},
                               "channel": {"k": 1, "t": 1}, "trials": 3000, "seed": 17}))
    outs = {}
    for pinned in (True, False):
        outs[pinned] = tmp_path / f"pinned_{pinned}.csv"
        run(["-m", "subspacecodes.cli", "simulate", "--config", str(cfg),
             "--out", str(outs[pinned])], pinned)
    assert outs[True].read_bytes() == outs[False].read_bytes()
