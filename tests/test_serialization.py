"""Byte-identity tests of the code-file and CSV writers, and loader checks.

The package writes code files from a table of each code's distinct entries
and formats the distance table column by column.  The straightforward writers
they replace live here as the oracles: ``_reference_code_to_dict`` building
one ``[float(re), float(im)]`` list per basis entry and written with
``json.dump``, and a CSV writer that formats every row value by value.  Both
must produce the same bytes as the package on every kind of code, including
entries whose shortest repr is in exponent form, is ``-0.0`` or is not
finite.
"""

from __future__ import annotations

import hashlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from subspacecodes import (
    CPCodeSpec,
    FiniteField,
    Subspace,
    SubspaceCode,
    binary_to_lines,
    cp_construct,
    distance,
    load_code,
    random_ensemble_code,
    random_subspace,
    save_code,
)
from subspacecodes import cli
from subspacecodes.cli import EXIT_OK
from subspacecodes.subspaces import pairwise


# ---------------------------------------------------------------------------
# reference writers


def _reference_code_to_dict(code: SubspaceCode) -> dict:
    words = []
    for w in code:
        flat = np.asarray(w.basis, dtype=complex).reshape(-1)
        words.append([[float(z.real), float(z.imag)] for z in flat])
    return {"beta": code[0].beta, "n": code.ambient_dim, "codewords": words}


def _reference_code_bytes(code: SubspaceCode) -> bytes:
    fh = io.StringIO()
    json.dump(_reference_code_to_dict(code), fh, sort_keys=True, separators=(",", ":"))
    fh.write("\n")
    return fh.getvalue().encode("utf-8")


def _reference_fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _reference_csv(command: str, cfg: dict, seed, columns, rows) -> str:
    hashed = {k: v for k, v in cfg.items() if k != "out"}
    canon = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
    lines = [f"# subspace-codes {command} v1",
             f"# config_sha256={hashlib.sha256(canon.encode('utf-8')).hexdigest()} seed={seed}",
             ",".join(columns)]
    for row in rows:
        lines.append(",".join(_reference_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _reference_distance_csv(path_a, path_b) -> str:
    table = pairwise(load_code(path_a), load_code(path_b)).tolist()
    rows = [[i, j, d] for i, row in enumerate(table) for j, d in enumerate(row)]
    return _reference_csv("distance", {"file_a": str(path_a), "file_b": str(path_b)}, "",
                          ["index_a", "index_b", "distance"], rows)


# ---------------------------------------------------------------------------
# codes


def _mixed_dimension_code(complex_field: bool) -> SubspaceCode:
    rng = np.random.default_rng(41)
    return SubspaceCode([Subspace.zero(5, complex_field)]
                        + [random_subspace(5, m, rng, complex_field) for m in (1, 2, 3, 5)])


def _hand_made_code() -> SubspaceCode:
    # entries whose shortest repr is in exponent form, or is -0.0
    tiny = 1e-17
    a = np.array([[1.0, tiny, -0.0, 0.0],
                  [-tiny, 1.0, 0.0, -0.0]])
    b = np.array([[complex(-0.0, 1.0), complex(2.5e-300, -0.0), complex(-0.0, -0.0), 0j],
                  [0j, complex(-0.0, 0.0), complex(1.0, -1e-20), complex(-3e-18, 0.0)]])
    return SubspaceCode([Subspace(a.astype(complex)), Subspace(b)])


CODES = {
    "cp_13_2": lambda: cp_construct(CPCodeSpec(FiniteField(13), 2)),
    "cp_gf16_3": lambda: cp_construct(CPCodeSpec(FiniteField(2, 4), 3)),
    # the other codes that the cp-certify benchmark writes
    "cp_gf27_2": lambda: cp_construct(CPCodeSpec(FiniteField(3, 3), 2)),
    "cp_31_2": lambda: cp_construct(CPCodeSpec(FiniteField(31), 2)),
    "cp_gf128_2": lambda: cp_construct(CPCodeSpec(FiniteField(2, 7), 2)),
    "ensemble_30_3_200": lambda: random_ensemble_code(30, 3, 200, np.random.default_rng(1001)),
    "complex_ensemble": lambda: random_ensemble_code(5, 2, 12, np.random.default_rng(5)),
    "real_binary": lambda: binary_to_lines(["000000", "001111", "110011", "101010"]),
    "real_ensemble": lambda: random_ensemble_code(5, 3, 8, np.random.default_rng(6), False),
    "mixed_dims_complex": lambda: _mixed_dimension_code(True),
    "mixed_dims_real": lambda: _mixed_dimension_code(False),
    "hand_made": _hand_made_code,
    "zero_dims_only": lambda: SubspaceCode([Subspace.zero(3, True)] * 2),
}


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal entry by entry, signs of zeros included."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(CODES))
def test_code_file_matches_reference_writer(name, tmp_path):
    code = CODES[name]()
    path = tmp_path / "code.json"
    save_code(code, path)
    assert path.read_bytes() == _reference_code_bytes(code)
    loaded = load_code(path)
    assert len(loaded) == len(code)
    for a, b in zip(code, loaded):
        assert _same_bits(a.basis, b.basis)
    again = tmp_path / "again.json"
    save_code(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_hand_made_entries_print_in_exponent_form_and_as_negative_zero(tmp_path):
    path = tmp_path / "code.json"
    save_code(_hand_made_code(), path)
    text = path.read_text()
    for token in ("1e-17", "-1e-17", "2.5e-300", "-1e-20", "-3e-18", "-0.0"):
        assert f"[{token}," in text or f",{token}]" in text


@st.composite
def raw_bases(draw):
    """A (m, n) complex array of arbitrary floats, m <= n."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, n))
    floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    return draw(hnp.arrays(np.complex128, (m, n), elements=st.builds(complex, floats, floats)))


# a NaN with its sign bit set, and -0.0 beside 0.0: distinct bit patterns
_SIGNED_NAN = -np.float64(math.nan)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(basis=raw_bases(), real=st.booleans())
@example(basis=np.array([[complex(_SIGNED_NAN, 0.0), complex(-0.0, math.nan)],
                         [complex(0.0, -0.0), complex(math.inf, -math.inf)]]), real=False)
@example(basis=np.array([[complex(_SIGNED_NAN, 1.0), complex(-0.0, 0.0), complex(0.0, 0.0)]]),
         real=True)
def test_code_file_matches_reference_on_arbitrary_floats(basis, real, tmp_path_factory):
    # the writer does not validate, so any float must print as the reference prints it
    word = Subspace._view(basis.real if real else basis)
    code = SubspaceCode([word, word])
    path = tmp_path_factory.mktemp("floats") / "code.json"
    save_code(code, path)
    assert path.read_bytes() == _reference_code_bytes(code)


def _reference_load_rows(path) -> tuple[np.ndarray, list[int]]:
    """The rows and codeword dimensions of a code file, read one codeword at
    a time: each codeword's pairs as an array of its own, the bases then
    concatenated."""
    blob = json.loads(path.read_text())
    n = blob["n"]
    bases = []
    for pairs in blob["codewords"]:
        flat = np.ascontiguousarray(np.asarray(pairs, dtype=float).reshape(-1, 2))
        bases.append(flat[:, 0].reshape(-1, n) if blob["beta"] == 1
                     else flat.view(complex).reshape(-1, n))
    return np.concatenate(bases), [len(b) for b in bases]


@pytest.mark.parametrize("name", sorted(CODES))
def test_loaded_rows_match_a_codeword_by_codeword_reader(name, tmp_path):
    path = tmp_path / f"{name}.json"
    save_code(CODES[name](), path)
    rows, dims = _reference_load_rows(path)
    code = load_code(path)
    assert _same_bits(code.rows, rows)
    assert code.dims.tolist() == dims
    assert code.starts.tolist() == (np.cumsum(dims) - dims).tolist()
    assert code.common_dim == (dims[0] if len(set(dims)) == 1 else -1)


def test_zero_dimensional_codeword_loads_and_round_trips(tmp_path):
    for beta, complex_field in ((1, False), (2, True)):
        blob = {"beta": beta, "n": 3,
                "codewords": [[], [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]}
        path = tmp_path / f"zero_{beta}.json"
        path.write_text(json.dumps(blob, sort_keys=True, separators=(",", ":")) + "\n")
        code = load_code(path)
        assert [w.dim for w in code] == [0, 1]
        assert all(w.is_complex == complex_field for w in code)
        again = tmp_path / f"again_{beta}.json"
        save_code(code, again)
        assert again.read_bytes() == path.read_bytes()


def test_mixed_real_and_complex_code_round_trips_as_complex(tmp_path):
    rng = np.random.default_rng(17)
    real = random_subspace(5, 2, rng, complex_field=False)
    cplx = random_subspace(5, 1, rng)
    code = SubspaceCode([real, cplx])
    assert np.iscomplexobj(code.rows)
    words = [real, cplx]
    want = [[distance(u, v) for v in words] for u in words]
    np.testing.assert_allclose(pairwise(code, code), want, rtol=0, atol=1e-12)
    path = tmp_path / "mixed.json"
    save_code(code, path)
    assert json.loads(path.read_text())["beta"] == 2
    loaded = load_code(path)
    assert [w.basis.tobytes() for w in loaded] == [
        real.basis.astype(complex).tobytes(), cplx.basis.tobytes()]


# ---------------------------------------------------------------------------
# CSV tables


@pytest.fixture
def saved_codes(tmp_path):
    paths = {}
    for name in ("cp_13_2", "complex_ensemble", "mixed_dims_complex", "real_binary",
                 "real_ensemble", "mixed_dims_real"):
        paths[name] = tmp_path / f"{name}.json"
        save_code(CODES[name](), paths[name])
    return paths


@pytest.mark.parametrize("a,b", [("cp_13_2", "cp_13_2"),
                                 ("complex_ensemble", "mixed_dims_complex"),
                                 ("real_binary", "real_binary"),
                                 ("real_ensemble", "mixed_dims_real")])
def test_distance_table_matches_reference_writer(a, b, saved_codes, tmp_path, capsys):
    path_a, path_b = saved_codes[a], saved_codes[b]
    want = _reference_distance_csv(path_a, path_b)
    out = tmp_path / "dist.csv"
    assert cli.main(["distance", str(path_a), str(path_b), "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == want.encode("utf-8")
    capsys.readouterr()
    assert cli.main(["distance", str(path_a), str(path_b)]) == EXIT_OK
    assert capsys.readouterr().out == want


def test_row_formatting_matches_reference():
    rows = [[0, 1, True, False, 0.1, -0.0, 1e-17, math.inf, -math.inf, math.nan],
            ["summary", "", "", 2.5e+300, 1.0, 12, np.int64(3), "cp_q7"],
            []]
    assert cli._fmt(rows) == [",".join(_reference_fmt(v) for v in row) for row in rows]
