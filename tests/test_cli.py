"""Command-line interface tests.

Most cases drive cli.main() in process and inspect exit codes and output
files. One subprocess case runs the `subspace-codes` entry point declared in
pyproject.toml, the way the generated console script does, so it needs no
install; a second runs the installed script when it is on PATH.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from subspacecodes import (CPCodeSpec, FiniteField, SubspaceCode, bounds, cli, cp_construct,
                           cp_min_distance, distance, load_code, random_subspace, save_code)
from subspacecodes.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK


def _write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _parse_csv(text):
    lines = text.strip().split("\n")
    header = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    columns = body[0].split(",")
    rows = [ln.split(",") for ln in body[1:]]
    return header, columns, rows


def test_construct_cp_reports_and_saves(tmp_path, capsys):
    out = tmp_path / "cp72.json"
    cfg = _write_cfg(tmp_path, "c.json", {"code": {"type": "cp", "q": 7, "k": 2}, "out": str(out)})
    assert cli.main(["construct", "--config", cfg]) == EXIT_OK
    text = capsys.readouterr().out
    assert "M = 49" in text
    assert "n = 6" in text
    code = load_code(out)
    assert len(code) == 49


def test_construct_binary_words(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "c.json", {"code": {"type": "binary", "words": ["000", "011", "101", "110"]}})
    assert cli.main(["construct", "--config", cfg]) == EXIT_OK
    text = capsys.readouterr().out
    assert "M = 4" in text


def test_main_reuses_one_parser_as_if_each_call_built_its_own(tmp_path, capsys):
    # the parser is built once per process; construct, distance and command
    # lines that argparse refuses (exit 2), in turn, must leave it as a
    # fresh parser would be
    ens = tmp_path / "ens.json"
    cfg = _write_cfg(tmp_path, "ens.cfg.json", {
        "code": {"type": "random-ensemble", "n": 6, "m": 2, "M": 10}, "out": str(ens)})
    cp = tmp_path / "cp.json"
    cp_cfg = _write_cfg(tmp_path, "cp.cfg.json", {"code": {"type": "cp", "q": 7, "k": 2},
                                                  "out": str(cp)})
    table = tmp_path / "table.csv"
    calls = [["construct", "--config", cfg, "--seed", "3"],
             ["construct", "--config", cp_cfg],
             ["distance", str(cp), str(ens), "--out", str(table)],
             ["construct", "--seed", "4"],
             ["construct", "--config", cfg, "--seed", "4"],
             ["distance", str(cp)],
             ["simulate", "--config", cfg, "--trials", "many"],
             ["distance", str(ens), str(cp), "--out", str(table)]]

    def session(fresh: bool) -> list:
        for path in (ens, cp, table):
            path.unlink(missing_ok=True)
        seen = []
        for argv in calls:
            if fresh:
                cli._build_parser.cache_clear()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            seen.append((code, out.out, out.err, ens.read_bytes(), table.read_bytes()
                         if table.exists() else b""))
        return seen

    cli._build_parser.cache_clear()
    reused = session(fresh=False)
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, *_ in reused] == [EXIT_OK, EXIT_OK, EXIT_OK, 2, EXIT_OK, 2, 2, EXIT_OK]
    assert session(fresh=True) == reused


def test_construct_ensemble_needs_seed(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "c.json", {"code": {"type": "random-ensemble", "n": 8, "m": 2, "M": 6}})
    assert cli.main(["construct", "--config", cfg]) == EXIT_CONFIG
    assert cli.main(["construct", "--config", cfg, "--seed", "5"]) == EXIT_OK
    capsys.readouterr()


def test_construct_from_code_file(tmp_path, capsys):
    out = tmp_path / "saved.json"
    cfg = _write_cfg(tmp_path, "c.json", {"code": {"type": "cp", "q": 5, "k": 2}, "out": str(out)})
    assert cli.main(["construct", "--config", cfg]) == EXIT_OK
    cfg2 = _write_cfg(tmp_path, "c2.json", {"code": {"type": "file", "path": str(out)}})
    assert cli.main(["construct", "--config", cfg2]) == EXIT_OK
    assert "M = 25" in capsys.readouterr().out


@pytest.mark.parametrize("binary", [{"words": [""]}, {"words": ["0011"], "length": 0}],
                         ids=["empty_word", "length_zero"])
def test_construct_refuses_binary_words_of_length_zero(binary, tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "c.json", {"code": {"type": "binary", **binary}})
    assert cli.main(["construct", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "at least 1" in err


@pytest.mark.parametrize("binary", [
    {"words": [[0, 1.5], [0, 0]]}, {"words": [[0, True], [0, 0]]}, {"words": "0110"},
    {"words": [["0", "1"], [0, 0]]}, {"words": ["0120"]}, {"words": [[0, None]]},
    {"words": ["01"], "length": "2"}, {"words": ["01"], "length": True},
    {"words": ["01"], "length": 2.5},
], ids=["fraction", "boolean", "string_words", "string_bits", "digit_2", "null_bit",
        "string_length", "boolean_length", "fractional_length"])
def test_construct_refuses_words_that_are_not_binary(binary, tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "c.json", {"code": {"type": "binary", **binary}})
    assert cli.main(["construct", "--config", cfg]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")


def test_construct_reads_integral_floats_as_bits(tmp_path, capsys):
    files = []
    for name, binary in (("ints", {"words": ["01", "00"]}),
                         ("floats", {"words": [[0, 1.0], [0.0, 0]], "length": 2.0})):
        out = tmp_path / f"{name}.json"
        cfg = _write_cfg(tmp_path, f"{name}_cfg.json", {"code": {"type": "binary", **binary},
                                                         "out": str(out)})
        assert cli.main(["construct", "--config", cfg]) == EXIT_OK
        files.append(out.read_bytes())
    assert files[0] == files[1]
    capsys.readouterr()


def test_construct_oversized_code_is_infeasible(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "c.json", {"code": {"type": "cp", "q": 13, "k": 12}})
    assert cli.main(["construct", "--config", cfg]) == EXIT_INFEASIBLE
    capsys.readouterr()


def test_config_error_paths(tmp_path, capsys):
    assert cli.main(["construct", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["construct", "--config", str(bad)]) == EXIT_CONFIG
    nocode = _write_cfg(tmp_path, "nc.json", {"seed": 1})
    assert cli.main(["construct", "--config", nocode]) == EXIT_CONFIG
    unknown = _write_cfg(tmp_path, "u.json", {"code": {"type": "nope"}})
    assert cli.main(["construct", "--config", unknown]) == EXIT_CONFIG
    capsys.readouterr()


def test_simulate_writes_expected_columns(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    cfg = _write_cfg(tmp_path, "s.json", {
        "code": {"type": "cp", "q": 7, "k": 2},
        "channel": {"k": 1, "t": 0},
        "trials": 20, "seed": 11, "out": str(out),
    })
    assert cli.main(["simulate", "--config", cfg]) == EXIT_OK
    capsys.readouterr()
    header, columns, rows = _parse_csv(out.read_text())
    assert header[0] == "# subspace-codes simulate v4"
    assert "seed=11" in header[1]
    assert columns == ["trial", "rho", "t", "delta_rot", "r_d", "tx_index",
                       "rx_index", "correct", "d_tx_rx", "guarantee_flag",
                       "runner_up", "margin", "slack"]
    assert len(rows) == 21  # trials + summary
    assert all(len(r) == len(columns) for r in rows)
    body, summary = rows[:-1], rows[-1]
    assert all(r[7] in ("0", "1") for r in body)
    assert summary[0] == "summary"
    assert float(summary[7]) == 1.0  # identity channel on a line code
    # every trial flagged as guaranteed must be correct
    for r in body:
        if r[9] == "1":
            assert r[7] == "1"


def test_simulate_is_byte_deterministic(tmp_path, capsys):
    out1, out2, out3 = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    base = {
        "code": {"type": "random-ensemble", "n": 10, "m": 2, "M": 8},
        "channel": {"k": 1, "t": 1, "delta": 0.05},
        "trials": 30, "seed": 4,
    }
    cfg = _write_cfg(tmp_path, "s.json", base)
    assert cli.main(["simulate", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    assert cli.main(["simulate", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    assert cli.main(["simulate", "--config", cfg, "--out", str(out3), "--seed", "5"]) == EXIT_OK
    assert out1.read_bytes() != out3.read_bytes()
    capsys.readouterr()


def test_simulate_flags_override_the_config(tmp_path, capsys):
    base = {
        "code": {"type": "random-ensemble", "n": 10, "m": 2, "M": 8},
        "channel": {"k": 1, "t": 1, "delta": 0.05},
    }
    flagged = _write_cfg(tmp_path, "a.json", {**base, "trials": 30, "seed": 4})
    written = _write_cfg(tmp_path, "b.json", {**base, "trials": 5, "seed": 9})
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["simulate", "--config", flagged, "--trials", "5", "--seed", "9",
                     "--out", str(out1)]) == EXIT_OK
    assert cli.main(["simulate", "--config", written, "--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    assert len(_parse_csv(out1.read_text())[2]) == 6  # 5 trials + summary
    capsys.readouterr()


def test_simulate_rho_alias_and_rejections(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    good = _write_cfg(tmp_path, "g.json", {
        "code": {"type": "cp", "q": 5, "k": 2},
        "channel": {"rho": 0, "t": 0},
        "trials": 5, "seed": 2, "out": str(out),
    })
    assert cli.main(["simulate", "--config", good]) == EXIT_OK
    _, _, rows = _parse_csv(out.read_text())
    assert all(r[1] == "0" for r in rows[:-1])
    both = _write_cfg(tmp_path, "b.json", {
        "code": {"type": "cp", "q": 5, "k": 2},
        "channel": {"k": 1, "rho": 0}, "trials": 5, "seed": 2,
    })
    assert cli.main(["simulate", "--config", both]) == EXIT_CONFIG
    noisy = _write_cfg(tmp_path, "n.json", {
        "code": {"type": "cp", "q": 5, "k": 2},
        "channel": {"k": 1, "sigma": 0.1}, "trials": 5, "seed": 2,
    })
    assert cli.main(["simulate", "--config", noisy]) == EXIT_CONFIG
    nochan = _write_cfg(tmp_path, "nc.json", {
        "code": {"type": "cp", "q": 5, "k": 2}, "trials": 5, "seed": 2,
    })
    assert cli.main(["simulate", "--config", nochan]) == EXIT_CONFIG
    capsys.readouterr()


@pytest.mark.parametrize("delta", ['"nan"', "NaN", '"-nan"'])
def test_simulate_refuses_a_nan_rotation_budget(delta, tmp_path, capsys):
    # JSON NaN is not valid JSON but Python's reader takes it, as float("nan");
    # the strings are refused at the config boundary, before any float()
    cfg = tmp_path / "s.json"
    cfg.write_text('{"code": {"type": "cp", "q": 5, "k": 2}, "trials": 3, "seed": 1, '
                   '"channel": {"k": 1, "t": 0, "delta": %s}}' % delta)
    out = tmp_path / "sim.csv"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    if delta == "NaN":
        assert "rotation budget must be a nonnegative number" in err
    else:
        assert "config key 'delta' must be a number" in err
    assert not out.exists()


def test_simulate_refuses_a_negative_rho(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "s.json", {
        "code": {"type": "cp", "q": 5, "k": 2},
        "channel": {"rho": -2, "t": 0}, "trials": 3, "seed": 1,
    })
    assert cli.main(["simulate", "--config", cfg]) == EXIT_CONFIG
    assert "'rho' must be nonnegative" in capsys.readouterr().err


def test_simulate_refuses_a_negative_seed_on_a_file_code(tmp_path, capsys):
    path = tmp_path / "cp52.json"
    save_code(cli.build_code_from_config({"type": "cp", "q": 5, "k": 2}), path)
    out = tmp_path / "s.csv"
    cfg = _write_cfg(tmp_path, "s.json", {"code": {"type": "file", "path": str(path)},
                                          "channel": {"k": 1, "t": 1}, "trials": 3, "seed": 1})
    assert cli.main(["simulate", "--config", cfg, "--seed", "-1", "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: seed must be nonnegative, got -1\n"
    assert not out.exists()


def test_simulate_refuses_a_negative_seed_before_building_the_code(tmp_path, capsys):
    # CP (13,12) exceeds the size cap, which the seed check must come before
    cfg = _write_cfg(tmp_path, "s.json", {"code": {"type": "cp", "q": 13, "k": 12},
                                          "channel": {"k": 1, "t": 0}, "trials": 3, "seed": 1})
    assert cli.main(["simulate", "--config", cfg]) == EXIT_INFEASIBLE
    capsys.readouterr()
    assert cli.main(["simulate", "--config", cfg, "--seed", "-1"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: seed must be nonnegative, got -1\n"


def test_construct_refuses_a_negative_seed(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "c.json", {"code": {"type": "random-ensemble", "n": 8, "m": 2, "M": 6}})
    assert cli.main(["construct", "--config", cfg, "--seed", "-1"]) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: seed must be nonnegative, got -1\n"


def test_simulate_refuses_more_than_2_to_the_32_trials(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "s.json", {"code": {"type": "cp", "q": 13, "k": 12},
                                          "channel": {"k": 1, "t": 0}, "trials": 2**32 + 1,
                                          "seed": 1})
    assert cli.main(["simulate", "--config", cfg]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: at most 2**32 trials, got {2**32 + 1}\n"


SIM_BASE = {"code": {"type": "cp", "q": 5, "k": 2}, "trials": 3, "seed": 1}


@pytest.mark.parametrize("key", ["seed", "trials", "k", "rho", "t", "r_d"])
@pytest.mark.parametrize("value", [2.7, -0.5, float("inf"), "2.5", None])
def test_simulate_refuses_non_integral_counts(key, value, tmp_path, capsys):
    channel = {"rho": 0} if key == "rho" else {"k": 1}
    payload = {**SIM_BASE, "channel": channel}
    (payload["channel"] if key in ("k", "rho", "t", "r_d") else payload)[key] = value
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps(payload))  # inf is written as Infinity, which the reader takes
    assert cli.main(["simulate", "--config", str(cfg)]) == EXIT_CONFIG
    assert f"config key '{key}' must be an integer" in capsys.readouterr().err


def test_simulate_takes_integral_floats_as_counts(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    floats = _write_cfg(tmp_path, "f.json", {**SIM_BASE, "trials": 3.0, "seed": 1.0,
                                              "channel": {"k": 1.0, "t": 0.0, "r_d": 0.0}})
    ints = _write_cfg(tmp_path, "i.json", {**SIM_BASE, "channel": {"k": 1, "t": 0, "r_d": 0}})
    assert cli.main(["simulate", "--config", floats, "--out", str(out1)]) == EXIT_OK
    assert cli.main(["simulate", "--config", ints, "--out", str(out2)]) == EXIT_OK
    # the config hash differs, the trials do not
    body1, body2 = (p.read_text().splitlines()[2:] for p in (out1, out2))
    assert body1 == body2 and len(body1) == 1 + 3 + 1  # columns, trials, summary
    capsys.readouterr()


CP72 = {"code": {"type": "cp", "q": 7, "k": 2}}
ENSEMBLE = {"code": {"type": "random-ensemble", "n": 8, "m": 2, "M": 6}, "seed": 1}

# (subcommand, config, path to an integer key, its value in the config)
INTEGER_KEYS = [
    ("construct", CP72, ("code", "q"), 7),
    ("construct", CP72, ("code", "k"), 2),
    ("construct", ENSEMBLE, ("code", "n"), 8),
    ("construct", ENSEMBLE, ("code", "m"), 2),
    ("construct", ENSEMBLE, ("code", "M"), 6),
    ("construct", ENSEMBLE, ("seed",), 1),
    ("construct", {**CP72, "search_cap": 100}, ("search_cap",), 100),
    ("simulate", {**SIM_BASE, "channel": {"k": 1}, "search_cap": 100}, ("search_cap",), 100),
    ("bounds", {"m": 2}, ("m",), 2),
    ("bounds", {"beta": 1}, ("beta",), 1),
    ("bounds", {"delta_points": 10}, ("delta_points",), 10),
    ("bounds", {"rate_points": 10}, ("rate_points",), 10),
    ("bounds", {"cp_q": [101, 103]}, ("cp_q", 1), 103),
    ("figure3", {"exponents": [3, 5]}, ("exponents", 1), 5),
]


def _with_value(cfg, path, value):
    cfg = json.loads(json.dumps(cfg))
    owner = cfg
    for step in path[:-1]:
        owner = owner[step]
    owner[path[-1]] = value
    return cfg


def _run_body(command, cfg, tmp_path, capsys):
    """Exit code, CSV or report lines on stdout without the # header, and stderr."""
    status = cli.main([command, "--config", _write_cfg(tmp_path, "k.json", cfg)])
    captured = capsys.readouterr()
    return status, [ln for ln in captured.out.splitlines() if not ln.startswith("#")], captured.err


@pytest.mark.parametrize("command, cfg, path, value", INTEGER_KEYS,
                         ids=[f"{c}-{'.'.join(map(str, p))}" for c, _, p, _ in INTEGER_KEYS])
def test_integer_keys_refuse_fractions_and_take_integral_floats(command, cfg, path, value,
                                                                tmp_path, capsys):
    status, want, _ = _run_body(command, cfg, tmp_path, capsys)
    assert status == EXIT_OK and want
    status, got, _ = _run_body(command, _with_value(cfg, path, float(value)), tmp_path, capsys)
    assert status == EXIT_OK and got == want
    # int() would truncate value + 0.5 back to value
    status, got, err = _run_body(command, _with_value(cfg, path, value + 0.5), tmp_path, capsys)
    assert status == EXIT_CONFIG and got == []
    name = next(step for step in reversed(path) if isinstance(step, str))
    assert f"'{name}'" in err and "must be an integer" in err


@pytest.mark.parametrize("command, cfg, path, value", INTEGER_KEYS,
                         ids=[f"{c}-{'.'.join(map(str, p))}" for c, _, p, _ in INTEGER_KEYS])
@pytest.mark.parametrize("kind", ["true", "string"])
def test_integer_keys_refuse_booleans_and_strings(command, cfg, path, value, kind,
                                                  tmp_path, capsys):
    # int() would take true as 1 and "7" as 7
    wrong = True if kind == "true" else str(value)
    status, got, err = _run_body(command, _with_value(cfg, path, wrong), tmp_path, capsys)
    assert status == EXIT_CONFIG and got == []
    name = next(step for step in reversed(path) if isinstance(step, str))
    assert f"'{name}'" in err and "must be an integer" in err


@pytest.mark.parametrize("key", ["seed", "trials", "k", "rho", "t", "r_d"])
@pytest.mark.parametrize("value", [True, "1"])
def test_simulate_refuses_booleans_and_strings_as_counts(key, value, tmp_path, capsys):
    channel = {"rho": 0} if key == "rho" else {"k": 1}
    payload = {**SIM_BASE, "channel": channel}
    (payload["channel"] if key in ("k", "rho", "t", "r_d") else payload)[key] = value
    assert cli.main(["simulate", "--config", _write_cfg(tmp_path, "s.json", payload)]) \
        == EXIT_CONFIG
    assert f"config key '{key}' must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_ensemble_complex_flag_must_be_a_json_boolean(value, tmp_path, capsys):
    cfg = _with_value(ENSEMBLE, ("code", "complex"), value)
    assert cli.main(["construct", "--config", _write_cfg(tmp_path, "e.json", cfg)]) == EXIT_CONFIG
    assert "'complex' must be true or false" in capsys.readouterr().err


def test_ensemble_complex_false_builds_a_real_code(tmp_path, capsys):
    out = tmp_path / "real.json"
    cfg = {**_with_value(ENSEMBLE, ("code", "complex"), False), "out": str(out)}
    assert cli.main(["construct", "--config", _write_cfg(tmp_path, "e.json", cfg)]) == EXIT_OK
    capsys.readouterr()
    assert json.loads(out.read_text())["beta"] == 1


# (subcommand, config, path to a key that no config object reads)
UNKNOWN_KEYS = [
    ("construct", {"code": {**CP72["code"], "character_index": 3}}, ("code", "character_index")),
    ("construct", {"code": {**CP72["code"], "size_cap": 100}}, ("code", "size_cap")),
    ("construct", {"code": {**ENSEMBLE["code"], "complx": False}, "seed": 1}, ("code", "complx")),
    ("construct", {**CP72, "serach_cap": 100}, ("serach_cap",)),
    ("simulate", {**SIM_BASE, "channel": {"k": 1, "sigma": 0}}, ("channel", "sigma")),
    ("simulate", {**SIM_BASE, "channel": {"k": 1, "detla": 5}}, ("channel", "detla")),
    ("simulate", {**SIM_BASE, "channel": {"k": 1}, "trails": 3}, ("trails",)),
    ("bounds", {"delta_mim": 0.1}, ("delta_mim",)),
    ("figure3", {"delta_taget": 0.4}, ("delta_taget",)),
]


@pytest.mark.parametrize("command, cfg, path", UNKNOWN_KEYS,
                         ids=[f"{c}-{'.'.join(p)}" for c, _, p in UNKNOWN_KEYS])
def test_config_refuses_unknown_keys(command, cfg, path, tmp_path, capsys):
    status, got, err = _run_body(command, cfg, tmp_path, capsys)
    assert status == EXIT_CONFIG and got == []
    assert f"key(s): '{path[-1]}'" in err
    # without the key the same config runs
    cfg = json.loads(json.dumps(cfg))
    owner = cfg
    for step in path[:-1]:
        owner = owner[step]
    del owner[path[-1]]
    assert _run_body(command, cfg, tmp_path, capsys)[0] == EXIT_OK


@pytest.mark.parametrize("command, cfg, key", [
    ("simulate", {**SIM_BASE, "channel": {"k": 1, "delta": True}}, "delta"),
    ("simulate", {**SIM_BASE, "channel": {"k": 1, "delta": False}}, "delta"),
    ("bounds", {"delta_min": False}, "delta_min"),
    ("bounds", {"delta_max": True}, "delta_max"),
    ("figure3", {"delta_target": True}, "delta_target"),
])
def test_real_keys_refuse_json_booleans(command, cfg, key, tmp_path, capsys):
    # float() would take true as 1.0 and false as 0.0
    status, got, err = _run_body(command, cfg, tmp_path, capsys)
    assert status == EXIT_CONFIG and got == []
    assert f"config key '{key}' must be a number" in err


@pytest.mark.parametrize("command, cfg, key", [
    ("simulate", {**SIM_BASE, "channel": {"k": 1, "delta": "0.05"}}, "delta"),
    ("simulate", {**SIM_BASE, "channel": {"k": 1, "delta": "abc"}}, "delta"),
    ("simulate", {**SIM_BASE, "channel": {"k": 1, "delta": [1]}}, "delta"),
    ("simulate", {**SIM_BASE, "channel": {"k": 1, "delta": 10 ** 400}}, "delta"),
    ("bounds", {"delta_min": "0.1"}, "delta_min"),
    ("figure3", {"delta_target": None}, "delta_target"),
])
def test_real_keys_refuse_strings_and_other_non_numbers(command, cfg, key, tmp_path, capsys):
    # float() would take "0.05" as 0.05, and fail on the others without naming the key
    status, got, err = _run_body(command, cfg, tmp_path, capsys)
    assert status == EXIT_CONFIG and got == []
    assert f"config key '{key}' must be a number" in err


def test_construct_refuses_an_oversized_cp_code_before_allocating(tmp_path, capsys):
    # CP (997,2) would be 997^2 lines in C^996, a 15.8 GB matrix
    cfg = _write_cfg(tmp_path, "c.json", {"code": {"type": "cp", "q": 997, "k": 2}})
    t0 = time.monotonic()
    assert cli.main(["construct", "--config", cfg]) == EXIT_INFEASIBLE
    assert time.monotonic() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("infeasible request: CP (997,2) has 994009 codewords")


def test_simulate_search_cap_is_infeasible_for_large_codes(tmp_path, capsys):
    # 2**14 distinct lines: words of length 15 that start with 0 are their own representatives
    words = [format(i, "015b") for i in range(2 ** 14)]
    cfg = _write_cfg(tmp_path, "s.json", {
        "code": {"type": "binary", "words": words},
        "channel": {"k": 1, "t": 0}, "trials": 2, "seed": 1,
    })
    assert cli.main(["simulate", "--config", cfg]) == EXIT_INFEASIBLE
    assert capsys.readouterr().err == (
        "infeasible request: 16384 codewords exceed the exhaustive search cap 10000\n")


def test_cp_codes_take_d_min_from_one_column_past_the_search_cap(tmp_path, capsys):
    # CP (13,4) has 28561 codewords, past the exhaustive search cap, which a
    # CP code does not need
    code = cp_construct(CPCodeSpec(FiniteField(13), 4))
    d_min = cp_min_distance(code)
    cfg = _write_cfg(tmp_path, "c.json", {"code": {"type": "cp", "q": 13, "k": 4},
                                          "search_cap": 10})
    assert cli.main(["construct", "--config", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert "M = 28561" in out and f"d_min = {d_min!r}\n" in out
    cfg = _write_cfg(tmp_path, "s.json", {"code": {"type": "cp", "q": 13, "k": 4},
                                          "channel": {"k": 1, "t": 0}, "trials": 2, "seed": 1,
                                          "out": str(tmp_path / "s.csv")})
    assert cli.main(["simulate", "--config", cfg]) == EXIT_OK
    capsys.readouterr()


def test_simulate_unreachable_rotation_is_infeasible(tmp_path, capsys):
    # a received line can be moved by at most d = 2
    cfg = _write_cfg(tmp_path, "s.json", {
        "code": {"type": "cp", "q": 5, "k": 2},
        "channel": {"k": 1, "t": 0, "delta": 2.5}, "trials": 2, "seed": 1,
    })
    assert cli.main(["simulate", "--config", cfg]) == EXIT_INFEASIBLE
    assert "rotation budget" in capsys.readouterr().err


def test_bounds_default_curves(tmp_path, capsys):
    out = tmp_path / "bounds.csv"
    assert cli.main(["bounds", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    header, columns, rows = _parse_csv(out.read_text())
    assert header[0] == "# subspace-codes bounds v1"
    assert columns == ["label", "delta", "rate"]
    labels = {r[0] for r in rows}
    assert {"shannon", "barg_lower", "barg_upper", "gv", "zyablov",
            "blokh_zyablov", "cp_q101", "cp_q1009", "cp_q10007"} <= labels
    by_delta = {float(r[1]): float(r[2]) for r in rows if r[0] == "barg_lower"}
    hi = {float(r[1]): float(r[2]) for r in rows if r[0] == "barg_upper"}
    for d, lo in by_delta.items():
        assert lo < hi[d]


def test_bounds_label_selection_and_validation(tmp_path, capsys):
    out = tmp_path / "b.csv"
    cfg = _write_cfg(tmp_path, "b.json", {"labels": ["gv"], "rate_points": 10})
    assert cli.main(["bounds", "--config", cfg, "--out", str(out)]) == EXIT_OK
    _, _, rows = _parse_csv(out.read_text())
    assert all(r[0] == "gv" for r in rows)
    assert len(rows) == 9
    bad = _write_cfg(tmp_path, "bad.json", {"labels": ["nonsense"]})
    assert cli.main(["bounds", "--config", bad]) == EXIT_CONFIG
    grid = _write_cfg(tmp_path, "grid.json", {"delta_min": 0.9, "delta_max": 0.1})
    assert cli.main(["bounds", "--config", grid]) == EXIT_CONFIG
    capsys.readouterr()


def test_bounds_single_labels_repeat_their_default_rows(tmp_path, capsys):
    grid = {"m": 2, "beta": 1, "delta_points": 7, "delta_max": 1.6, "rate_points": 6,
            "cp_q": [7, 11]}
    out = tmp_path / "all.csv"
    assert cli.main(["bounds", "--config", _write_cfg(tmp_path, "all.json", grid),
                     "--out", str(out)]) == EXIT_OK
    _, _, rows = _parse_csv(out.read_text())
    # a delta grid past 1 keeps only barg_upper there; rate grids skip 0 and 1
    assert [r[0] for r in rows] == (
        ["shannon"] * 4 + ["barg_lower"] * 4 + ["barg_upper"] * 7 + ["cp_q7"] * 6
        + ["cp_q11"] * 6 + ["gv"] * 5 + ["zyablov"] * 5 + ["blokh_zyablov"] * 5)
    for label in ("shannon", "barg_lower", "barg_upper", "cp", "gv", "zyablov",
                  "blokh_zyablov"):
        one = tmp_path / f"{label}.csv"
        cfg = _write_cfg(tmp_path, f"{label}.json", {**grid, "labels": [label]})
        assert cli.main(["bounds", "--config", cfg, "--out", str(one)]) == EXIT_OK
        _, _, got = _parse_csv(one.read_text())
        assert got == [r for r in rows if r[0].startswith(label)]
    bad_q = _write_cfg(tmp_path, "q.json", {"labels": ["gv", "cp"], "cp_q": [7, 9]})
    assert cli.main(["bounds", "--config", bad_q]) == EXIT_CONFIG
    assert "cp curve needs prime q, got 9" in capsys.readouterr().err


def test_bounds_writes_its_rows_as_it_makes_them(tmp_path, capsys):
    # 20 curves of 2500 points are 50000 rows: about 16 MB traced when every
    # row and line is built before the first write; streamed, about a chunk
    grid = [0.02 + (1.0 - 0.02) * i / 2499 for i in range(2500)]
    cfg = _write_cfg(tmp_path, "big.json", {"labels": ["shannon"] * 20, "delta_points": 2500})
    out = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        assert cli.main(["bounds", "--config", cfg, "--out", str(out)]) == EXIT_OK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 21
    body = [f"shannon,{d!r},{bounds.shannon_lower(d)!r}" for d in grid] * 20
    assert out.read_text().splitlines()[2:] == ["label,delta,rate", *body]
    capsys.readouterr()


@pytest.mark.parametrize("bad, message", [({"cp_q": [7, 9]}, "cp curve needs prime q, got 9"),
                                          ({"m": 0}, "dimension m must be at least 1"),
                                          ({"beta": 3}, "beta must be 1 (real) or 2")])
def test_a_refused_bounds_config_leaves_no_file(bad, message, tmp_path, capsys):
    # each refused input is read by a curve after the first, yet no line is written
    cfg = _write_cfg(tmp_path, "bad.json", {"labels": ["gv", "cp", "barg_upper"], **bad})
    out = tmp_path / "b.csv"
    assert cli.main(["bounds", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_figure3_table(tmp_path, capsys):
    out = tmp_path / "f3.csv"
    assert cli.main(["figure3", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    _, columns, rows = _parse_csv(out.read_text())
    assert columns[:6] == ["k_exponent", "n", "p", "chosen_k", "ln_code_size", "n_doubled"]
    assert [int(r[2]) for r in rows] == [3, 7, 13, 31, 61, 127, 251, 509]
    assert [int(r[0]) for r in rows] == list(range(3, 11))
    for r in rows:
        assert int(r[1]) == 2 * int(r[2])
        assert int(r[5]) == 2 * (int(r[2]) - 1)
        assert float(r[4]) == pytest.approx(int(r[3]) * math.log(int(r[2])), abs=1e-12)
    sizes = [float(r[4]) for r in rows]
    assert all(b > a for a, b in zip(sizes, sizes[1:]))
    low = _write_cfg(tmp_path, "low.json", {"exponents": [2]})
    assert cli.main(["figure3", "--config", low]) == EXIT_CONFIG


def test_figure3_exponents_up_to_the_primality_range(tmp_path, capsys):
    top = _write_cfg(tmp_path, "top.json", {"exponents": [65]})
    out = tmp_path / "top.csv"
    assert cli.main(["figure3", "--config", top, "--out", str(out)]) == EXIT_OK
    _, _, rows = _parse_csv(out.read_text())
    assert int(rows[0][2]) == 2**64 - 59  # the largest prime below 2^64
    beyond = _write_cfg(tmp_path, "beyond.json", {"exponents": [66]})
    assert cli.main(["figure3", "--config", beyond]) == EXIT_CONFIG
    assert "primality test" in capsys.readouterr().err


def test_distance_table(tmp_path, capsys):
    cfg_a = _write_cfg(tmp_path, "a.json", {
        "code": {"type": "binary", "words": ["000", "011"]}, "out": str(tmp_path / "a_code.json")})
    cfg_b = _write_cfg(tmp_path, "b.json", {
        "code": {"type": "binary", "words": ["101", "110"]}, "out": str(tmp_path / "b_code.json")})
    assert cli.main(["construct", "--config", cfg_a]) == EXIT_OK
    assert cli.main(["construct", "--config", cfg_b]) == EXIT_OK
    out = tmp_path / "dist.csv"
    assert cli.main(["distance", str(tmp_path / "a_code.json"), str(tmp_path / "b_code.json"),
                     "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    _, columns, rows = _parse_csv(out.read_text())
    assert columns == ["index_a", "index_b", "distance"]
    assert len(rows) == 4
    a = load_code(tmp_path / "a_code.json")
    b = load_code(tmp_path / "b_code.json")
    for r in rows:
        i, j = int(r[0]), int(r[1])
        assert float(r[2]) == pytest.approx(distance(a[i], b[j]), abs=1e-12)


def test_distance_rejects_mismatched_ambients(tmp_path, capsys):
    for name, words in (("a", ["000", "011"]), ("b", ["0101", "0011"])):
        cfg = _write_cfg(tmp_path, f"{name}.json", {
            "code": {"type": "binary", "words": words}, "out": str(tmp_path / f"{name}_code.json")})
        assert cli.main(["construct", "--config", cfg]) == EXIT_OK
    assert cli.main(["distance", str(tmp_path / "a_code.json"),
                     str(tmp_path / "b_code.json")]) == EXIT_CONFIG
    capsys.readouterr()


def test_distance_rejects_non_finite_code_file(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "a.json", {
        "code": {"type": "binary", "words": ["000", "011"]}, "out": str(tmp_path / "a_code.json")})
    assert cli.main(["construct", "--config", cfg]) == EXIT_OK
    blob = json.loads((tmp_path / "a_code.json").read_text())
    blob["codewords"][0] = [[math.nan, 0.0]] * 3
    nan_file = tmp_path / "nan_code.json"
    nan_file.write_text(json.dumps(blob))  # json writes the NaN literal
    assert cli.main(["distance", str(nan_file), str(tmp_path / "a_code.json")]) == EXIT_CONFIG
    assert "non-finite" in capsys.readouterr().err


def test_distance_rejects_a_bad_codeword_in_the_second_dimension_group(tmp_path, capsys):
    rng = np.random.default_rng(3)
    good = tmp_path / "good.json"
    save_code(SubspaceCode([random_subspace(4, m, rng) for m in (1, 2, 1, 2)]), good)
    blob = json.loads(good.read_text())
    blob["codewords"][3][0][0] += 0.5  # first entry of a 2-dimensional codeword
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(blob))
    assert cli.main(["distance", str(good), str(good)]) == EXIT_OK
    capsys.readouterr()
    assert cli.main(["distance", str(bad), str(good)]) == EXIT_CONFIG
    assert "not orthonormal" in capsys.readouterr().err


@pytest.mark.parametrize("tamper,message", [
    (lambda blob: blob.update(n=0), "at least 1"),
    (lambda blob: blob["codewords"].__setitem__(0, [[1.0], [0.0]]), "[re, im] pairs"),
    (lambda blob: blob["codewords"].__setitem__(0, [[[1.0, 0.0]], [[0.0, 0.0]]]),
     "[re, im] pairs"),
    (lambda blob: blob["codewords"][0].__setitem__(0, ["x", 0.0]), "[re, im] pairs"),
    (lambda blob: blob["codewords"][0].__setitem__(0, ["0.5", 0.0]), "[re, im] pairs"),
    (lambda blob: blob["codewords"][0].__setitem__(0, [None, 0.0]), "[re, im] pairs"),
    (lambda blob: blob["codewords"].__setitem__(0, [[1.0, 0.0]] * 2), "multiple"),
    (lambda blob: blob["codewords"].__setitem__(0, [[1.0, 0.0]] * 12), "cannot fit"),
    (lambda blob: blob["codewords"][0][0].__setitem__(1, 0.5), "imaginary"),
    (lambda blob: blob["codewords"][0][0].__setitem__(1, math.nan), "imaginary"),
], ids=["n_zero", "short_pairs", "nested_pairs", "non_numeric", "numeric_string", "null",
        "partial_row", "too_many_rows", "real_with_imaginary", "real_with_nan_imaginary"])
def test_distance_rejects_malformed_code_file(tamper, message, tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "a.json", {
        "code": {"type": "binary", "words": ["000", "011"]}, "out": str(tmp_path / "a_code.json")})
    assert cli.main(["construct", "--config", cfg]) == EXIT_OK
    capsys.readouterr()
    blob = json.loads((tmp_path / "a_code.json").read_text())
    tamper(blob)
    bad = tmp_path / "bad_code.json"
    bad.write_text(json.dumps(blob))
    assert cli.main(["distance", str(bad), str(tmp_path / "a_code.json")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert message in err


_GOOD_HEADER = {"beta": 2, "n": 2, "codewords": [[[1.0, 0.0], [0.0, 0.0]]]}


@pytest.mark.parametrize("codewords,message", [
    ([[[1.0, 0.0], [0.0, 0.0]], 0.5], "[re, im] pairs of numbers"),
    ([[[1.0, 0.0], [0.0, 0.0]], "ab"], "[re, im] pairs of numbers"),
    ([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
     "[re, im] pairs of numbers"),
    ([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], 1.0], [[0.0, 0.0], [1.0, 0.0]]],
     "[re, im] pairs of numbers"),
    ([[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]], "[re, im] pairs of numbers"),
    ([[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]], "not a multiple of the ambient dimension"),
    ([[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]] * 3],
     "3 orthonormal rows cannot fit in ambient dimension 2"),
], ids=["number", "string", "three_numbers_mid_file", "number_mid_file", "triples",
        "partial_row_later", "too_many_rows_later"])
def test_distance_rejects_a_malformed_codeword_anywhere_in_the_file(codewords, message,
                                                                   tmp_path, capsys):
    # the file is read as one array, so a bad codeword after good ones, or
    # pairs of unequal lengths, must still name the fault and not NumPy's
    bad = _write_cfg(tmp_path, "bad.json", {**_GOOD_HEADER, "codewords": codewords})
    assert cli.main(["distance", bad, bad]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: code file {bad}: ")
    assert message in err
    assert "inhomogeneous" not in err


@pytest.mark.parametrize("key,value", [("beta", 2.7), ("beta", True), ("beta", "2"),
                                       ("n", "2"), ("n", 2.9), ("n", False)])
def test_distance_rejects_code_file_header_that_is_not_an_integer(key, value, tmp_path, capsys):
    # the rule of the config integer keys: 2.0 counts, 2.7, booleans and strings do not
    bad = _write_cfg(tmp_path, "bad.json", {**_GOOD_HEADER, key: value})
    assert cli.main(["distance", bad, bad]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: code file {bad}: '{key}' must be an integer")
    good = _write_cfg(tmp_path, "good.json", {**_GOOD_HEADER, "beta": 2.0, "n": 2.0})
    assert cli.main(["distance", good, good]) == EXIT_OK
    assert [w.basis.shape for w in load_code(good)] == [(1, 2)]


@pytest.mark.parametrize("codeword", [[[True, False], [False, False]],
                                      [[1.0, False], [0.0, 0.0]],
                                      [[True, 0], [0, 0]]],
                         ids=["booleans", "boolean_beside_floats", "boolean_beside_integers"])
def test_distance_rejects_boolean_basis_entries(codeword, tmp_path, capsys):
    bad = _write_cfg(tmp_path, "bad.json", {**_GOOD_HEADER, "codewords": [codeword]})
    assert cli.main(["distance", bad, bad]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: code file {bad}:")
    assert "[re, im] pairs of numbers" in err


@pytest.mark.parametrize("blob,message", [
    ([1, 2], "expected a JSON object, got a JSON list"),
    ({"beta": 2, "n": 2}, "missing key(s) 'codewords'"),
    ({"codewords": []}, "missing key(s) 'beta', 'n'"),
    ({**_GOOD_HEADER, "codewords": 3}, "'codewords' must be a list"),
], ids=["top_level_array", "no_codewords", "no_header", "codewords_not_a_list"])
def test_distance_names_the_code_file_and_the_missing_key(blob, message, tmp_path, capsys):
    bad = _write_cfg(tmp_path, "bad.json", blob)
    assert cli.main(["distance", bad, bad]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: code file {bad}: {message}\n"


@pytest.mark.parametrize("extra,named", [({"betta": 7}, "'betta'"),
                                         ({"Codewords": [], "version": 1}, "'Codewords', 'version'")],
                         ids=["misspelt_beside_a_valid_header", "two_unknown"])
def test_code_file_with_an_unknown_key_is_refused(extra, named, tmp_path, capsys):
    bad = _write_cfg(tmp_path, "bad.json", {**_GOOD_HEADER, **extra})
    assert cli.main(["distance", bad, bad]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: code file {bad}: unknown key(s) {named}\n"
    cfg = _write_cfg(tmp_path, "sim.json", {"code": {"type": "file", "path": bad},
                                            "channel": {"k": 1}, "trials": 2, "seed": 1})
    assert cli.main(["simulate", "--config", cfg]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: code file {bad}: unknown key(s) {named}\n"


def test_field_order_checks(tmp_path, capsys):
    # a prime far above the supported maximum is refused before any factoring
    huge = _write_cfg(tmp_path, "h.json", {"code": {"type": "cp", "q": 2 ** 31 - 1, "k": 2}})
    t0 = time.monotonic()
    assert cli.main(["construct", "--config", huge]) == EXIT_CONFIG
    assert time.monotonic() - t0 < 1.0
    assert "exceeds the supported maximum" in capsys.readouterr().err
    composite = _write_cfg(tmp_path, "c.json", {"code": {"type": "cp", "q": 12, "k": 2}})
    assert cli.main(["construct", "--config", composite]) == EXIT_CONFIG
    assert "not a prime power" in capsys.readouterr().err
    power = _write_cfg(tmp_path, "p.json", {"code": {"type": "cp", "q": 9, "k": 2}})
    assert cli.main(["construct", "--config", power]) == EXIT_OK
    assert "M = 81" in capsys.readouterr().out


def _declared_script(name):
    """(module, attribute) of the [project.scripts] entry `name` in pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module, _, attr = target.partition(":")
    return module, attr


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "subspacecodes.cli", "figure3"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("# subspace-codes figure3 v1")
    # Do what the generated console-script wrapper does with the declared target.
    module, attr = _declared_script("subspace-codes")
    wrapper = (
        "import sys\n"
        f"from {module} import {attr}\n"
        "sys.argv[0] = 'subspace-codes'\n"
        f"sys.exit({attr}())\n"
    )
    help_proc = subprocess.run(
        [sys.executable, "-c", wrapper, "--help"], capture_output=True, text=True, timeout=120,
    )
    assert help_proc.returncode == 0, help_proc.stderr
    assert "construct" in help_proc.stdout
    assert help_proc.stdout.startswith("usage: subspace-codes ")


@pytest.mark.skipif(shutil.which("subspace-codes") is None,
                    reason="subspace-codes console script is not installed on PATH")
def test_installed_console_script():
    help_proc = subprocess.run(
        ["subspace-codes", "--help"], capture_output=True, text=True, timeout=120,
    )
    assert help_proc.returncode == 0
    assert "construct" in help_proc.stdout
