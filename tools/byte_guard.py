"""Check that two source trees write the same bytes on fixed configs.

    python tools/byte_guard.py BASE_TREE [HEAD_TREE]

HEAD_TREE defaults to the tree that holds this script.  The base tree first
writes the input files: a CP (31,2) code and a small random ensemble
(`construct`).  Then each tree, with its own src/ on the path and from the
same scratch directory, so that every path in a header is the same, runs:
`simulate` on the README config and on the CP (31,2) file over k = 1,
t = 0 and t = 1, and a `distance` table of the two files.  An output whose
bytes differ while its first line, the schema version, is the same fails
the check; a moved schema line is a declared change and is only reported.
The exit status is 1 when an output fails and 0 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

README = {"code": {"type": "random-ensemble", "n": 12, "m": 3, "M": 20},
          "channel": {"k": 2, "t": 1, "delta": 0.05, "r_d": 1}, "trials": 1000, "seed": 7}
CP_31_2 = {"type": "file", "path": "cp_31_2.code.json"}
INPUTS = {"cp_31_2": {"code": {"type": "cp", "q": 31, "k": 2}, "out": "cp_31_2.code.json"},
          "ensemble": {"code": {"type": "random-ensemble", "n": 30, "m": 1, "M": 50},
                       "seed": 5, "out": "ensemble.code.json"}}
SIMULATE = {"readme": README,
            "cp_31_2_t0": {"code": CP_31_2, "channel": {"k": 1, "t": 0}, "trials": 3000, "seed": 3},
            "cp_31_2_t1": {"code": CP_31_2, "channel": {"k": 1, "t": 1}, "trials": 3000, "seed": 3}}


def _cli(tree: Path, work: Path, *argv: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, "-m", "subspacecodes.cli", *argv], cwd=work, env=env,
                   check=True, stdout=subprocess.DEVNULL)


def _outputs(tree: Path, work: Path, keep: Path) -> None:
    """Run the fixed commands with ``tree`` in ``work``; move each output to ``keep``."""
    for name in SIMULATE:
        _cli(tree, work, "simulate", "--config", f"{name}.json", "--out", "out.csv")
        shutil.move(work / "out.csv", keep / f"simulate_{name}.csv")
    _cli(tree, work, "distance", "cp_31_2.code.json", "ensemble.code.json", "--out", "out.csv")
    shutil.move(work / "out.csv", keep / "distance.csv")


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    base = Path(argv[0]).resolve()
    head = Path(argv[1]).resolve() if len(argv) == 2 else Path(__file__).resolve().parents[1]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, cfg in {**INPUTS, **SIMULATE}.items():
            (work / f"{name}.json").write_text(json.dumps(cfg), encoding="utf-8")
        for name in INPUTS:
            _cli(base, work, "construct", "--config", f"{name}.json")
        for side, tree in (("base", base), ("head", head)):
            (work / side).mkdir()
            _outputs(tree, work, work / side)
        failed = 0
        for path in sorted((work / "base").iterdir()):
            old, new = path.read_bytes(), (work / "head" / path.name).read_bytes()
            if old == new:
                verdict = "same bytes"
            elif old.split(b"\n", 1)[0] != new.split(b"\n", 1)[0]:
                verdict = "differs, with a new schema line (declared change)"
            else:
                verdict, failed = "DIFFERS under the same schema line", failed + 1
            print(f"{path.name}: {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
