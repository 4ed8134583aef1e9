"""The three benchmark workloads and the in-process CLI runner.

Each workload is a closed loop with one client: one process issues one
`subspace-codes` invocation after another through ``subspacecodes.cli.main``.
A workload writes its configs and set-up files once (``setup``), then runs
passes; a pass is the unit that is timed.  Every output of a pass is checked
by ``checks`` outside the timed region, and a failed check marks the
invocation that produced it as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
import traceback
from pathlib import Path

import numpy as np

import checks


class Invocation:
    __slots__ = ("argv", "rc", "stdout", "stderr", "problems")

    def __init__(self, argv, rc, stdout, stderr):
        self.argv, self.rc, self.stdout, self.stderr = argv, rc, stdout, stderr
        self.problems: list[str] = []

    @property
    def ok(self) -> bool:
        return self.rc == 0 and not self.problems


class CliRunner:
    """Runs CLI invocations in-process and keeps every one of them."""

    def __init__(self, cli):
        self.cli = cli
        self.tracer = None
        self.invocations: list[Invocation] = []

    def __call__(self, *argv) -> Invocation:
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        tracer = self.tracer
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.current_invocation = len(self.invocations)
                sid = tracer.begin(tracer.intern(f"cli.{argv[0]}"))
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects a command line this way
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a program bug is a failed invocation, not a crash
                traceback.print_exc()
                rc = 1
            finally:
                if tracer is not None:
                    tracer.finish(sid)
        inv = Invocation(argv, rc, out.getvalue(), err.getvalue())
        self.invocations.append(inv)
        return inv

    def check(self, inv: Invocation, check, *args) -> None:
        """Run an output check of a successful invocation; its problems, or
        the exception it raised, mark the invocation as failed."""
        if inv.rc != 0:
            return
        try:
            inv.problems.extend(check(*args))
        except Exception as exc:  # a malformed output is a failed check
            inv.problems.append(f"output check {check.__name__} raised {exc!r}")


def _csv_counts(path: Path) -> dict:
    data = path.read_bytes()
    return {"cli.csv_rows": data.count(b"\n") - 3, "cli.csv_bytes": len(data)}


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, sort_keys=True), encoding="utf-8")
    return path


class Workload:
    name = ""

    def __init__(self, work: Path, refs: dict, run_seed: int):
        self.work = work
        self.refs = refs
        self.run_seed = run_seed

    def pass_seed(self, i: int) -> int:
        return self.run_seed * 1000 + i

    def setup(self, lib, drive: CliRunner) -> None:
        raise NotImplementedError

    def run_pass(self, drive: CliRunner, i: int) -> dict:
        """Run one pass; return its timed stages as (start, end) perf_counter
        pairs, the whole pass under "pass"."""
        raise NotImplementedError

    def check_pass(self, drive: CliRunner) -> None:
        raise NotImplementedError

    def repeat_check(self, drive: CliRunner) -> list[str]:
        """Reproducibility check made once per run; problems found."""
        return []

    def pass_counts(self) -> dict:
        """Counters read from the outputs of the last pass (traced runs)."""
        return _csv_counts(self.csv)


class CPCertify(Workload):
    """`construct` on five CP codes and one random ensemble, then `distance`
    between the saved (31,2) code and the ensemble."""

    name = "cp-certify"
    CP = [(13, 2), (16, 3), (27, 2), (31, 2), (128, 2)]
    ENSEMBLE = {"type": "random-ensemble", "n": 30, "m": 3, "M": 200}

    def setup(self, lib, drive):
        w = self.work
        self.cp_cfg = []
        for q, k in self.CP:
            code = w / f"cp_{q}_{k}.code.json"
            cfg = _write_json(w / f"cp_{q}_{k}.cfg.json",
                              {"code": {"type": "cp", "q": q, "k": k}, "out": str(code)})
            self.cp_cfg.append((q, k, cfg, code))
        self.ens_code = w / "ensemble.code.json"
        self.ens_cfg = _write_json(w / "ensemble.cfg.json",
                                   {"code": self.ENSEMBLE, "out": str(self.ens_code)})
        self.csv = w / "distance.csv"
        # warm-up: the same three subcommands on small codes
        warm_cp = _write_json(w / "warm_cp.cfg.json",
                              {"code": {"type": "cp", "q": 7, "k": 2},
                               "out": str(w / "warm_cp.code.json")})
        warm_ens = _write_json(w / "warm_ens.cfg.json",
                               {"code": {"type": "random-ensemble", "n": 6, "m": 2, "M": 10},
                                "out": str(w / "warm_ens.code.json")})
        drive("construct", "--config", warm_cp)
        drive("construct", "--config", warm_ens, "--seed", self.pass_seed(999))
        drive("distance", w / "warm_cp.code.json", w / "warm_ens.code.json",
              "--out", w / "warm_distance.csv")

    def run_pass(self, drive, i):
        seed = self.pass_seed(i)
        t0 = time.perf_counter()
        self.cp_runs = [drive("construct", "--config", cfg) for _, _, cfg, _ in self.cp_cfg]
        self.ens_run = drive("construct", "--config", self.ens_cfg, "--seed", seed)
        t1 = time.perf_counter()
        self.table_run = drive("distance", self.cp_cfg[3][3], self.ens_code,
                               "--out", self.csv)
        t2 = time.perf_counter()
        self.sample_rng = np.random.default_rng([self.run_seed, i])
        return {"pass": (t0, t2), "construct": (t0, t1), "table": (t1, t2)}

    def check_pass(self, drive):
        refs = self.refs["cp_d_min"]
        for (q, k, _, code), inv in zip(self.cp_cfg, self.cp_runs):
            drive.check(inv, checks.check_cp_construct, inv.stdout, code, q, k, refs[f"{q},{k}"])
        e = self.ENSEMBLE
        drive.check(self.ens_run, checks.check_ensemble_construct,
                    self.ens_run.stdout, self.ens_code, e["n"], e["m"], e["M"])
        if self.cp_runs[3].ok and self.ens_run.ok:
            drive.check(self.table_run, checks.check_distance_table,
                        self.csv, self.cp_cfg[3][3], self.ens_code, self.sample_rng)
        else:
            self.table_run.problems.append("its input code files failed their checks")


class Simulate(Workload):
    """One `simulate` invocation per pass; the seed changes from pass to pass."""

    trials = 0
    channel: dict = {}
    channel_bound = False

    def code_config(self, lib) -> dict:
        raise NotImplementedError

    def warm_code_config(self, lib) -> dict:
        raise NotImplementedError

    def setup(self, lib, drive):
        w = self.work
        self.csv = w / "trials.csv"
        self.cfg = _write_json(w / "simulate.cfg.json",
                               {"code": self.code_config(lib), "channel": self.channel,
                                "trials": self.trials, "seed": 0, "out": str(self.csv)})
        warm = _write_json(w / "warm.cfg.json",
                           {"code": self.warm_code_config(lib), "channel": self.channel,
                            "trials": 20, "seed": 0, "out": str(w / "warm.csv")})
        drive("simulate", "--config", warm, "--seed", self.pass_seed(999))

    def run_pass(self, drive, i):
        self.seed = self.pass_seed(i)
        t0 = time.perf_counter()
        self.run = drive("simulate", "--config", self.cfg, "--seed", self.seed)
        return {"pass": (t0, time.perf_counter())}

    def check_pass(self, drive):
        drive.check(self.run, checks.check_simulation, self.csv, self.trials,
                    self.refs["success"][self.name], self.channel_bound)

    def pass_counts(self):
        rows, _ = checks.read_simulation(self.csv)
        counts = _csv_counts(self.csv)
        counts["decoder.decode.wrong"] = sum(r["correct"] != "1" for r in rows)
        return counts

    def repeat_check(self, drive):
        again = self.work / "trials_repeat.csv"
        inv = drive("simulate", "--config", self.cfg, "--seed", self.seed, "--out", again)
        drive.check(inv, checks.check_identical, again, self.csv)
        return inv.problems


class EnsembleSimulate(Simulate):
    """The README's `simulate` config: noisy channel on a small random ensemble."""

    name = "ensemble-simulate"
    trials = 1000
    channel = {"k": 2, "t": 1, "delta": 0.05, "r_d": 1}
    CODE = {"type": "random-ensemble", "n": 12, "m": 3, "M": 20}

    def code_config(self, lib):
        return self.CODE

    def warm_code_config(self, lib):
        return self.CODE


class CPDecode(Simulate):
    """`simulate` on the saved CP (31,2) code over the pure operator channel."""

    name = "cp-decode"
    trials = 10000
    channel = {"k": 1, "t": 1, "delta": 0, "r_d": 0}
    channel_bound = True

    def _cp_file(self, lib, q: int, k: int) -> dict:
        path = self.work / f"cp_{q}_{k}.code.json"
        lib.save_code(lib.cp_construct(lib.CPCodeSpec(lib.FiniteField(q), k)), path)
        return {"type": "file", "path": str(path)}

    def code_config(self, lib):
        return self._cp_file(lib, 31, 2)

    def warm_code_config(self, lib):
        return self._cp_file(lib, 7, 2)


WORKLOADS = {w.name: w for w in (CPCertify, EnsembleSimulate, CPDecode)}
