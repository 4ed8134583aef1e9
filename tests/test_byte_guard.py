"""tools/byte_guard.py, the check that two source trees write the same bytes
on its fixed configs, run as a script on this tree and on a changed copy."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUTPUTS = ["distance.csv", "simulate_cp_31_2_t0.csv", "simulate_cp_31_2_t1.csv",
           "simulate_readme.csv"]


def _guard(*trees: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "tools" / "byte_guard.py"), *map(str, trees)],
                          capture_output=True, text=True, check=False)


def test_the_tree_against_itself_writes_the_same_bytes():
    run = _guard(ROOT)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [f"{name}: same bytes" for name in OUTPUTS]


def test_a_moved_simulate_byte_under_the_same_header_fails(tmp_path):
    # the copy names the summary row differently: every simulate CSV keeps its
    # schema line and moves a body byte, and the distance table is untouched
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    cli = tmp_path / "src" / "subspacecodes" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count('",".join(["summary",') == 1
    cli.write_text(text.replace('",".join(["summary",', '",".join(["total",'), encoding="utf-8")
    run = _guard(ROOT, tmp_path)
    assert run.returncode == 1, run.stderr
    verdicts = dict(line.split(": ", 1) for line in run.stdout.splitlines())
    assert verdicts == {name: "same bytes" if name == "distance.csv"
                        else "DIFFERS under the same schema line" for name in OUTPUTS}
