"""Regenerate perfbench/references.json from the library at the current commit.

    python3 perfbench/make_references.py

The CP minimum distances come from the library's exhaustive search.  The
success rates are pooled over ``PASSES`` benchmark passes of ensemble-simulate
and a tenth as many of cp-decode, with seeds the benchmark itself never uses
(run seed 10^6).
"""

from __future__ import annotations

import json
import shutil
import sys

import run
from workloads import WORKLOADS, CPCertify, CliRunner

PASSES = 40


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    lib, cli = run.import_library()
    refs = {"cp_d_min": {}, "success": {}}
    for q, k in CPCertify.CP:
        field = lib.FiniteField(*run.checks.prime_power(q))
        code = lib.cp_construct(lib.CPCodeSpec(field, k))
        refs["cp_d_min"][f"{q},{k}"] = lib.min_distance_exhaustive(code)[0]
    work = run.ROOT / ".perfbench_work" / "references"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in ("ensemble-simulate", "cp-decode"):
            workload = WORKLOADS[name](work, refs, 10 ** 6)
            drive = CliRunner(cli)
            workload.setup(lib, drive)
            passes = PASSES if name == "ensemble-simulate" else PASSES // 10
            correct = 0
            for i in range(passes):
                workload.run_pass(drive, i)
                rows, _ = run.checks.read_simulation(workload.csv)
                correct += sum(r["correct"] == "1" for r in rows)
            total = passes * workload.trials
            refs["success"][name] = {"rate": correct / total, "trials": total}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = run.HERE / "references.json"
    out.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
