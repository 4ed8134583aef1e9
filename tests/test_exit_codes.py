"""The CLI's exit codes follow the error type alone.

ConfigError exits 2, Infeasible 3 and NumericalError 4; cli.main catches
nothing else, so any other exception is a bug and exits 1 with a traceback.
These tests check each input boundary that must exit 2, the bounds grid cap
that exits 3, a bug that exits 1, the library's own refusals with their
messages and their order, and a property: whatever small JSON value
replaces one key of a working config, cli.main returns 0, 2, 3 or 4.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspacecodes import (CPCodeSpec, ChannelSpec, FiniteField, Subspace, SubspaceCode,
                           binary_entropy, binary_to_lines, cli, complex_to_real_double,
                           cp_construct, general_perturbation_bound, min_distance_exhaustive,
                           perturbation_bound, principal_angles, random_coding_rate,
                           random_ensemble_code, random_subspace, save_code)
from subspacecodes import errors
from subspacecodes.cli import EXIT_CONFIG, EXIT_INFEASIBLE, EXIT_OK


def _write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run(command, payload, tmp_path, capsys):
    """Exit code and stderr of one in-process run on ``payload``."""
    status = cli.main([command, "--config", _write_cfg(tmp_path, payload)])
    return status, capsys.readouterr().err


def test_errors_defines_one_value_error_per_exit_code():
    classes = sorted(name for name, obj in vars(errors).items() if isinstance(obj, type))
    assert classes == ["ConfigError", "Infeasible", "NumericalError"]
    assert all(issubclass(getattr(errors, name), ValueError) for name in classes)


# ---------------------------------------------------------------------------
# exit 2 at each input boundary


@pytest.mark.parametrize("command, payload, message", [
    ("construct", {"code": {"type": "cp", "q": 5, "k": 0}}, "need 1 <= k < q"),
    ("construct", {"code": {"type": "cp", "q": 5, "k": 5}}, "need 1 <= k < q"),
    ("construct", {"code": {"type": "binary", "words": []}}, "empty codebook"),
    ("construct", {"code": {"type": "binary", "words": ["0120"]}}, "non-binary word"),
    ("construct", {"code": {"type": "binary", "words": [5]}}, "non-binary word 5"),
    ("construct", {"code": {"type": "binary", "words": [None]}}, "non-binary word None"),
    ("construct", {"code": {"type": "binary", "words": ["01"], "length": 0}}, "at least 1"),
    ("construct", {"code": {"type": "binary", "words": ["01"]}}, "at least two codewords"),
    ("construct", {"code": {"type": "binary", "words": ["01", "10"]}}, "at least two codewords"),
    ("construct", {"code": {"type": "random-ensemble", "n": 6, "m": 2, "M": 1}, "seed": 1},
     "at least two codewords"),
    ("construct", {"code": {"type": "random-ensemble", "n": 6, "m": 0, "M": 4}, "seed": 1},
     "need 0 < m <= n"),
    ("construct", {"code": {"type": "random-ensemble", "n": 6, "m": 7, "M": 4}, "seed": 1},
     "need 0 < m <= n"),
    ("construct", {"code": {"type": "file", "path": 0}}, "'path' must be a path string"),
    ("construct", {"code": {"type": "cp", "q": 5, "k": 2}, "out": 1},
     "'out' must be a path string"),
    ("simulate", {"code": {"type": "cp", "q": 5, "k": 2}, "channel": {"k": -1}, "trials": 2,
                  "seed": 1}, "channel parameters must be nonnegative"),
    ("simulate", {"code": {"type": "cp", "q": 5, "k": 2}, "channel": {"k": 1, "t": -1},
                  "trials": 2, "seed": 1}, "channel parameters must be nonnegative"),
    ("simulate", {"code": {"type": "cp", "q": 5, "k": 2}, "channel": {"k": 1, "r_d": -1},
                  "trials": 2, "seed": 1}, "noise dimension must be nonnegative"),
    ("simulate", {"code": {"type": "cp", "q": 5, "k": 2}, "channel": {"k": 1, "delta": -0.5},
                  "trials": 2, "seed": 1}, "rotation budget must be a nonnegative number"),
    ("bounds", {"labels": "shannon"}, "'labels' must be a list"),
    ("bounds", {"cp_q": 101}, "'cp_q' must be a list"),
    ("figure3", {"exponents": 5}, "'exponents' must be a list"),
    ("figure3", {"out": False}, "'out' must be a path string"),
], ids=["cp_k_zero", "cp_k_q", "empty_codebook", "digit_2", "number_word", "null_word",
        "length_zero", "one_word", "complementary_words", "ensemble_M", "ensemble_m_zero",
        "ensemble_m_past_n", "integer_path", "integer_out", "negative_k", "negative_t",
        "negative_r_d", "negative_delta", "labels_string", "cp_q_number", "exponents_number",
        "boolean_out"])
def test_input_boundaries_exit_2(command, payload, message, tmp_path, capsys):
    status, err = _run(command, payload, tmp_path, capsys)
    assert status == EXIT_CONFIG
    assert err.startswith("config error:") and message in err


ENSEMBLE = {"type": "random-ensemble", "n": 6, "m": 2, "M": 5}


@pytest.mark.parametrize("k", [0, 1])
def test_an_infinite_rotation_budget_exits_2_whatever_k(k, tmp_path, capsys):
    # json writes Infinity, which the reader takes; at k = t = 0 nothing turns,
    # and the budget was written to every row as delta_rot inf and slack -inf
    channel = {"k": k, "t": 0, "delta": math.inf}
    status, err = _run("simulate", {"code": ENSEMBLE, "channel": channel, "trials": 3,
                                    "seed": 1}, tmp_path, capsys)
    assert status == EXIT_CONFIG
    assert err.startswith("config error: rotation budget must be a nonnegative number")


def test_a_huge_rotation_budget_where_nothing_turns_exits_0(tmp_path, capsys):
    # the guarantee's square overflows: its slack is -inf, not an OverflowError
    out = tmp_path / "sim.csv"
    channel = {"k": 0, "t": 0, "delta": 1e308}
    status, err = _run("simulate", {"code": ENSEMBLE, "channel": channel, "trials": 3,
                                    "seed": 1, "out": str(out)}, tmp_path, capsys)
    assert status == EXIT_OK and err == ""
    rows = [line.split(",") for line in out.read_text().splitlines() if line[:1].isdigit()]
    assert len(rows) == 3
    assert all(row[3] == "1e+308" and row[9] == "0" and row[12] == "-inf" for row in rows)


def test_library_raises_config_error_at_the_same_boundaries():
    with pytest.raises(errors.ConfigError, match="need 1 <= k < q"):
        CPCodeSpec(FiniteField(5), 5)
    with pytest.raises(errors.ConfigError, match="non-binary word 5"):
        binary_to_lines([5])
    with pytest.raises(errors.ConfigError, match="empty codebook"):
        binary_to_lines([])
    with pytest.raises(errors.ConfigError, match="need 0 < m <= n"):
        random_ensemble_code(4, 0, 3, None)
    with pytest.raises(errors.ConfigError, match="channel parameters must be nonnegative"):
        ChannelSpec(k=-1)
    with pytest.raises(errors.ConfigError, match="rotation budget"):
        ChannelSpec(1, rotation=math.nan)
    with pytest.raises(errors.ConfigError, match="at least two codewords"):
        min_distance_exhaustive(binary_to_lines(["01", "10"]))


def _code_file(tmp_path, codewords, name="code.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"beta": 2, "codewords": codewords, "n": 2}))
    return str(path)


def test_an_empty_code_file_exits_2_everywhere(tmp_path, capsys):
    empty = _code_file(tmp_path, [])
    assert cli.main(["distance", empty, empty]) == EXIT_CONFIG
    assert "'codewords' is empty" in capsys.readouterr().err
    for command, extra in (("construct", {}),
                           ("simulate", {"channel": {"rho": 0}, "trials": 2, "seed": 1})):
        status, err = _run(command, {"code": {"type": "file", "path": empty}, **extra},
                           tmp_path, capsys)
        assert status == EXIT_CONFIG and "'codewords' is empty" in err


def test_a_one_word_code_file_exits_2_in_construct_and_reads_in_distance(tmp_path, capsys):
    one = _code_file(tmp_path, [[[1.0, 0.0], [0.0, 0.0]]])
    status, err = _run("construct", {"code": {"type": "file", "path": one}}, tmp_path, capsys)
    assert status == EXIT_CONFIG and "at least two codewords" in err
    assert cli.main(["distance", one, one]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "0,0,0.0"


def test_distance_names_both_ambient_dimensions_when_they_differ(tmp_path, capsys):
    three = tmp_path / "three.json"
    three.write_text(json.dumps({"beta": 1, "codewords": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]],
                                 "n": 3}))
    assert cli.main(["distance", _code_file(tmp_path, [[]]), str(three)]) == EXIT_CONFIG
    assert "ambient dimensions differ: 2 vs 3" in capsys.readouterr().err


def test_a_code_file_with_n_past_the_int64_range_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"beta": 2, "codewords": [[]], "n": 1e30}')
    assert cli.main(["distance", str(path), str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: code file {path}")


def test_a_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"exponents": [3], "delta_target": 0.5, "seed": "\xe9"}'.encode("latin-1"))
    assert cli.main(["figure3", "--config", str(path)]) == EXIT_CONFIG
    assert "config is not valid JSON" in capsys.readouterr().err


# an empty "out" names no file: every subcommand refuses it, as a config key
# and as the --out option, before it writes anything
EMPTY_OUT = {
    "construct": {"code": {"type": "cp", "q": 5, "k": 2}},
    "simulate": {"code": {"type": "cp", "q": 5, "k": 2}, "channel": {"k": 1}, "trials": 2,
                 "seed": 1},
    "bounds": {"labels": ["gv"], "rate_points": 4},
    "figure3": {"exponents": [3]},
}


@pytest.mark.parametrize("command", sorted(EMPTY_OUT))
def test_an_empty_out_key_exits_2(command, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    status, err = _run(command, {**EMPTY_OUT[command], "out": ""}, tmp_path, capsys)
    assert status == EXIT_CONFIG
    assert err == "config error: config key 'out' must not be empty\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("command", sorted(EMPTY_OUT) + ["distance"])
def test_an_empty_out_option_exits_2(command, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if command == "distance":
        code = _code_file(tmp_path, [[[1.0, 0.0], [0.0, 0.0]]])
        argv = ["distance", code, code]
    else:
        argv = [command, "--config", _write_cfg(tmp_path, EMPTY_OUT[command])]
    assert cli.main([*argv, "--out", ""]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err == "config error: option '--out' must not be empty\n"
    assert captured.out == ""
    assert len(list(tmp_path.iterdir())) == 1


# ---------------------------------------------------------------------------
# exit 3 and exit 1


@pytest.mark.parametrize("key", ["delta_points", "rate_points"])
def test_bounds_grid_past_the_cap_exits_3(key, tmp_path, capsys):
    status, err = _run("bounds", {key: cli.MAX_GRID_POINTS + 1}, tmp_path, capsys)
    assert status == EXIT_INFEASIBLE
    assert err.startswith("infeasible request:") and f"the cap {cli.MAX_GRID_POINTS}" in err
    status, err = _run("bounds", {key: 1e308}, tmp_path, capsys)
    assert status == EXIT_INFEASIBLE


@pytest.mark.parametrize("n, m, M", [(10 ** 21, 1, 2), (4, 1, 10 ** 22), (10 ** 12, 1, 2),
                                     (4096, 2, 2048)])
def test_an_ensemble_past_the_basis_entry_guard_exits_3(n, m, M, tmp_path, capsys):
    # the first two overflow NumPy's array size, the third cannot be allocated
    code = {"type": "random-ensemble", "n": n, "m": m, "M": M}
    status, err = _run("construct", {"code": code, "seed": 1}, tmp_path, capsys)
    assert status == EXIT_INFEASIBLE
    assert err.startswith("infeasible request:") and "basis entries" in err


def test_a_bug_exits_1_with_a_traceback(tmp_path):
    cfg = _write_cfg(tmp_path, {"code": {"type": "cp", "q": 5, "k": 2}})
    script = ("import sys\n"
              "from subspacecodes import cli\n"
              "def bug(*args):\n"
              "    raise ValueError('bug')\n"
              "cli.code_parameters = bug\n"
              f"sys.argv = ['subspace-codes', 'construct', '--config', {cfg!r}]\n"
              "cli.entry()\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 1
    assert "Traceback" in proc.stderr and "ValueError: bug" in proc.stderr
    assert "config error" not in proc.stderr


# ---------------------------------------------------------------------------
# refusals that the cases above do not reach, each with its message


def _mixed_code_file(tmp_path) -> str:
    rng = np.random.default_rng(3)
    path = tmp_path / "mixed.code.json"
    save_code(SubspaceCode([random_subspace(4, m, rng) for m in (1, 2, 1)]), path)
    return str(path)


def test_a_config_holding_a_json_list_exits_2(tmp_path, capsys):
    for command in ("construct", "simulate", "bounds", "figure3"):
        assert cli.main([command, "--config", _write_cfg(tmp_path, [1, 2])]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: config must be a JSON object\n"


@pytest.mark.parametrize("q", [1, 0, -5])
def test_a_field_order_below_2_exits_2(q, tmp_path, capsys):
    status, err = _run("construct", {"code": {"type": "cp", "q": q, "k": 1}}, tmp_path, capsys)
    assert status == EXIT_CONFIG
    assert err == f"config error: field order {q} is not a prime power\n"


def test_rho_on_a_mixed_dimension_code_exits_2(tmp_path, capsys):
    code = {"type": "file", "path": _mixed_code_file(tmp_path)}
    status, err = _run("simulate", {"code": code, "channel": {"rho": 1}, "trials": 2, "seed": 1},
                       tmp_path, capsys)
    assert status == EXIT_CONFIG
    assert err == "config error: 'rho' needs a constant-dimension code; use 'k'\n"


def test_a_code_file_with_beta_3_exits_2(tmp_path, capsys):
    path = tmp_path / "beta3.json"
    path.write_text(json.dumps({"beta": 3, "codewords": [[[1.0, 0.0], [0.0, 0.0]]], "n": 2}))
    assert cli.main(["distance", str(path), str(path)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: code file {path}: beta must be 1 or 2, got 3\n")
    status, err = _run("construct", {"code": {"type": "file", "path": str(path)}}, tmp_path, capsys)
    assert status == EXIT_CONFIG
    assert err == f"config error: code file {path}: beta must be 1 or 2, got 3\n"


def test_noise_that_cannot_fit_beside_the_rotated_part_exits_3(tmp_path, capsys):
    # b = min(2, k) + t = 3 rows in ambient 4 leave room for one noise dimension
    out = tmp_path / "sim.csv"
    code = {"type": "random-ensemble", "n": 4, "m": 2, "M": 3}
    status, err = _run("simulate", {"code": code, "channel": {"k": 2, "t": 1, "r_d": 2},
                                    "trials": 5, "seed": 1, "out": str(out)}, tmp_path, capsys)
    assert status == EXIT_INFEASIBLE
    assert err == ("infeasible request: cannot fit 2 error dimensions next to a 3-dimensional "
                   "subspace in ambient dimension 4\n")
    assert not out.exists()


@pytest.mark.parametrize("bound", [perturbation_bound, general_perturbation_bound])
def test_the_row_space_bounds_refuse_in_one_order(bound):
    A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    # the shapes first, then the entries, then the rank
    with pytest.raises(ValueError, match="^A and N must share a shape$"):
        bound(A, np.zeros((2, 4)))
    with pytest.raises(ValueError, match="^A and N must share a shape$"):
        bound(np.full((2, 3), math.nan), np.zeros((3, 3)))
    with pytest.raises(errors.ConfigError, match="^N has non-finite entries$"):
        bound(np.zeros((2, 3)), np.full((2, 3), math.inf))
    zero = ("matrix is not of full row rank" if bound is perturbation_bound
            else "zero matrix has no row space to track")
    with pytest.raises(errors.NumericalError, match=f"^{zero}$"):
        bound(np.zeros((2, 3)), np.zeros((2, 3)))
    name = "A" if bound is perturbation_bound else "A1"
    with pytest.raises(errors.NumericalError, match=rf"^\|\|{name}\+\|\|_2 \|\|N\|\|_2 = 2 >= 1$"):
        bound(A, 2.0 * A)


def test_the_plain_row_space_bound_refuses_a_rank_deficient_matrix():
    for A in (np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]]), np.eye(4, 3)):
        with pytest.raises(errors.NumericalError, match="^matrix is not of full row rank$"):
            perturbation_bound(A, 1e-3 * np.ones(A.shape))
    # the general bound takes it, splitting off the dependent row
    r_d, _, _ = general_perturbation_bound(np.eye(4, 3), 1e-3 * np.ones((4, 3)))
    assert r_d == 1


def test_library_refusals_keep_their_messages(tmp_path):
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError, match="^extension degree must be at least 1$"):
        FiniteField(2, 0)
    U, V = random_subspace(5, 1, rng), random_subspace(5, 2, rng)
    with pytest.raises(errors.ConfigError,
                       match="^principal angles need equal dimensions, got 1 and 2$"):
        principal_angles(U, V)
    with pytest.raises(errors.ConfigError, match="^ambient dimensions differ: 5 vs 4$"):
        principal_angles(U, random_subspace(4, 2, rng))
    with pytest.raises(ValueError, match="^need 0 <= m <= n, got m=4, n=3$"):
        random_subspace(3, 4, rng)
    with pytest.raises(ValueError, match="^3 orthonormal rows cannot fit in ambient dimension 2$"):
        Subspace(np.eye(3, 2))
    with pytest.raises(ValueError, match="^refusing to serialize an empty code$"):
        save_code(SubspaceCode([]), tmp_path / "empty.json")
    assert not (tmp_path / "empty.json").exists()
    with pytest.raises(errors.ConfigError,
                       match="^doubling map expects a constant-dimension code$"):
        complex_to_real_double(SubspaceCode([U, V]))
    with pytest.raises(errors.ConfigError, match=r"^entropy argument must lie in \[0, 1\]$"):
        binary_entropy(1.5)


def test_random_coding_rate_refuses_in_one_order():
    with pytest.raises(errors.ConfigError, match=r"^delta must lie in \(0, 1\]$"):
        random_coding_rate(1, 0.0, 2, 0.1)
    with pytest.raises(errors.ConfigError, match="^eps must be nonnegative$"):
        random_coding_rate(1, 0.5, 2, -0.1)
    # m and beta first, then delta, then eps
    with pytest.raises(errors.ConfigError, match=r"^delta must lie in \(0, 1\]$"):
        random_coding_rate(1, 0.0, 2, -0.1)
    with pytest.raises(errors.ConfigError, match="^dimension m must be at least 1$"):
        random_coding_rate(0, 0.0, 2, -0.1)
    with pytest.raises(errors.ConfigError, match=r"^beta must be 1 \(real\) or 2 \(complex\)$"):
        random_coding_rate(1, 0.0, 3, -0.1)


# ---------------------------------------------------------------------------
# property: one key of a working config replaced by a small JSON value

# one working config per code type and subcommand; the file code reads cp52.json
BASES = [
    ("construct", {"code": {"type": "cp", "q": 5, "k": 2}, "search_cap": 100,
                   "out": "code.json"}),
    ("construct", {"code": {"type": "binary", "words": ["0011", "0101", "0110"], "length": 4}}),
    ("construct", {"code": {"type": "random-ensemble", "n": 6, "m": 2, "M": 4,
                            "complex": False}, "seed": 1}),
    ("construct", {"code": {"type": "file", "path": "cp52.json"}}),
    ("simulate", {"code": {"type": "cp", "q": 5, "k": 2},
                  "channel": {"k": 1, "t": 1, "delta": 0.05, "r_d": 1},
                  "trials": 3, "seed": 1, "search_cap": 100, "out": "sim.csv"}),
    ("simulate", {"code": {"type": "binary", "words": [[0, 0, 1, 1], [0, 1, 0, 1]]},
                  "channel": {"rho": 0}, "trials": 2, "seed": 1}),
    ("bounds", {"labels": ["shannon", "cp", "gv"], "m": 2, "beta": 1, "delta_min": 0.1,
                "delta_max": 0.9, "delta_points": 4, "rate_points": 4, "cp_q": [101],
                "seed": 1, "out": "bounds.csv"}),
    ("figure3", {"exponents": [3, 4], "delta_target": 0.5, "seed": 1, "out": "table.csv"}),
]


def _key_paths(node, prefix=()):
    """Every path to a value inside the JSON ``node``, list indices included."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _key_paths(value, prefix + (key,))


CASES = [(command, base, path) for command, base in BASES for path in _key_paths(base)]

SMALL_JSON = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.floats(-3, 3) | st.just(math.nan),
    st.text("01ab.", max_size=3),
    st.lists(st.integers(-3, 3) | st.text("01", max_size=2), max_size=3),
    st.dictionaries(st.sampled_from(["type", "k", "q", "path"]), st.integers(-3, 3),
                    max_size=2),
)


def _with_value(cfg, path, value):
    cfg = json.loads(json.dumps(cfg))
    owner = cfg
    for step in path[:-1]:
        owner = owner[step]
    owner[path[-1]] = value
    return cfg


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding cp52.json, where the property's outputs land."""
    path = tmp_path_factory.mktemp("exit_codes")
    save_code(cp_construct(CPCodeSpec(FiniteField(5), 2)), path / "cp52.json")
    return path


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(CASES), value=SMALL_JSON)
def test_one_replaced_key_exits_with_a_documented_code(workdir, case, value):
    command, base, path = case
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps(_with_value(base, path, value)))
    cwd = os.getcwd()
    os.chdir(workdir)  # a replaced "out" or "path" names a file here
    try:
        assert cli.main([command, "--config", str(cfg)]) in (0, 2, 3, 4)
    finally:
        os.chdir(cwd)
