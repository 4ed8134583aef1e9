"""Benchmark of the `subspace-codes` CLI on three fixed workloads.

    python3 perfbench/run.py --workload cp-certify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory.  With ``--trace 0`` the run measures the end-to-end
metrics; with ``--trace 1`` it installs span wrappers around the library's
public functions (``spans.py``) and reports the per-layer metrics instead.
Metric names and units come from ``BENCHMARK.json``.  A human-readable report
goes to standard output, and its last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See ``perfbench/NOTES.md`` for the workloads, the metrics and the noise seen.
"""

from __future__ import annotations

import os

# one BLAS thread: the matrices are small, and a fixed count keeps runs steady
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from hostspeed import SpeedSampler  # noqa: E402
from spans import SpanStats, Tracer  # noqa: E402
from workloads import WORKLOADS, CliRunner  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7


def environment() -> dict:
    """Versions, usable cores and thread settings, recorded with every result."""
    env = {"python": platform.python_version(), "numpy": np.__version__}
    try:
        env["scipy"] = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        env["scipy"] = "absent"
    try:
        env["openblas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        env["openblas"] = "unknown"
    env["nproc"] = len(os.sched_getaffinity(0))
    env.update(THREAD_ENV)
    return env


def import_library():
    """Import of the library from this checkout's ``src``."""
    lib = importlib.import_module("subspacecodes")
    cli = importlib.import_module("subspacecodes.cli")
    if not Path(lib.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"subspacecodes was imported from {lib.__file__}, not from src/")
    return lib, cli


def summary(values: list[float], unit: str, higher_is_better: bool) -> str:
    """Median, sample count, and the highest percentile with at least ten
    samples beyond it (on the bad side)."""
    line = f"median {statistics.median(values):<10.6g} {unit:<4} n={len(values):<3}"
    n = len(values)
    if n <= 10:
        return line + " no tail (n <= 10)"
    pct = 100.0 * (n - 10) / n
    if higher_is_better:
        pct = 100.0 - pct
    return line + f" p{pct:.4g} {np.percentile(values, pct):.6g}"


def checked_pass(workload, drive: CliRunner, i: int) -> dict:
    """One pass, then its output checks (outside the pass's intervals)."""
    intervals = workload.run_pass(drive, i)
    workload.check_pass(drive)
    return intervals


def timed_loop(run_pass, seconds: float) -> dict:
    """Passes 0, 1, ... until their summed wall time reaches ``seconds`` (at
    least one).  ``run_pass(i)`` returns the (start, end) interval of each
    stage of pass ``i``; the result lists them per stage, one per pass."""
    stages = defaultdict(list)
    used, i = 0.0, 0
    while i == 0 or used < seconds:
        intervals = run_pass(i)
        i += 1
        used += intervals["pass"][1] - intervals["pass"][0]
        for key, interval in intervals.items():
            stages[key].append(interval)
    return stages


def layer_metrics(tracer: Tracer, passes: int, overhead: float) -> dict:
    s = SpanStats(tracer)
    c = tracer.counters
    per = 1.0 / passes
    m = {}
    for cmd in ("construct", "simulate", "distance"):
        m[f"cli.{cmd}.calls"] = s.calls(f"cli.{cmd}") * per
        m[f"cli.{cmd}.s"] = s.total(f"cli.{cmd}") * per
    for key in ("cli.exit_nonzero", "cli.csv_rows", "cli.csv_bytes", "decoder.decode.wrong",
                "finitefield.mul_vec.elements", "codes.min_distance_exhaustive.pairs",
                "codes.cp_construct.codewords", "codes.save_code.bytes",
                "codes.load_code.bytes", "subspaces.distance.projection_bytes",
                "decoder.decode.codewords_scanned", "decoder.decode.nonunique",
                "decoder.guarantee_noisy.hits"):
        m[key] = c.get(key, 0.0) * per
    for name in ("finitefield.FiniteField", "finitefield.trace_table", "finitefield.mul_vec",
                 "finitefield.add_vec", "finitefield.pow_vec",
                 "codes.min_distance_exhaustive", "codes.cp_construct",
                 "codes.random_ensemble_code", "codes.save_code", "codes.load_code",
                 "codes.distances_to", "subspaces.orthonormalize", "subspaces.complement",
                 "subspaces.direct_sum", "channel.apply_noisy_operator_channel",
                 "channel.erase", "channel.random_error_subspace", "channel.rotate",
                 "decoder.decode"):
        m[f"{name}.s"] = s.total(name) * per
    for name in ("finitefield.mul_vec", "subspaces.distance", "subspaces.orthonormalize",
                 "decoder.decode"):
        m[f"{name}.calls"] = s.calls(name) * per
    m["subspaces.distance.self_s"] = s.self_total("subspaces.distance") * per
    drawn = s.children("subspaces.random_subspace", "codes.random_ensemble_code").sum()
    m["codes.random_ensemble_code.rejected"] = (
        drawn - c.get("codes.random_ensemble_code.codewords", 0.0)) * per
    for name in ("channel.apply_noisy_operator_channel", "decoder.decode"):
        m[f"{name}.s_p50"] = s.percentile(name, 50)
        m[f"{name}.s_p99"] = s.percentile(name, 99)
    steps = s.children("subspaces.orthonormalize", "channel.rotate")
    m["channel.rotate.svd_steps"] = float(steps.mean()) if steps.size else 0.0
    m["channel.rotate.svd_steps_max"] = float(steps.max()) if steps.size else 0.0
    in_band = [0.9 * b - checks.TOL <= checks.gram_distance(u, v) <= b + checks.TOL
               for u, v, b in tracer.rotations]
    m["channel.rotate.in_band_ratio"] = sum(in_band) / len(in_band) if in_band else 0.0
    # shares of the trial loop: simulate time minus code build and d_min
    trial_s = m["cli.simulate.s"] - per * sum(
        s.child_total(child, "cli.simulate") for child in
        ("codes.random_ensemble_code", "codes.load_code", "codes.min_distance_exhaustive"))
    for name in ("channel.apply_noisy_operator_channel", "channel.rotate", "decoder.decode"):
        m[f"{name}.share_of_trials"] = m[f"{name}.s"] / trial_s if trial_s > 0 else 0.0
    construct_s = m["cli.construct.s"]
    m["codes.min_distance_exhaustive.share_of_construct"] = (
        per * s.child_total("codes.min_distance_exhaustive", "cli.construct") / construct_s
        if construct_s > 0 else 0.0)
    m["trace.overhead_ratio"] = overhead
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    refs = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    workload_cls = WORKLOADS[args.workload]
    sys.path.insert(0, str(ROOT / "src"))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    drive = CliRunner(cli=None)
    # host-speed samples convert wall intervals to reference seconds
    # (hostspeed.py); the traced run uses them for trace.overhead_ratio
    sampler = SpeedSampler()
    sampler.start()
    try:
        t0 = time.perf_counter()
        try:
            lib, drive.cli = import_library()
        except ImportError as exc:
            print(f"cannot import the library from {ROOT / 'src'}: {exc}", file=sys.stderr)
            return 2
        imported = (t0, time.perf_counter())
        setup = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload = workload_cls(work, refs, args.seed)
            workload.setup(lib, drive)
            setup.append((t0, time.perf_counter()))
        if not all(inv.rc == 0 for inv in drive.invocations):
            bad = next(inv for inv in drive.invocations if inv.rc != 0)
            print(f"warm-up invocation {bad.argv} exited {bad.rc}:\n{bad.stderr}",
                  file=sys.stderr)
            return 3

        if args.trace:
            tracer = Tracer()
            ratios = []

            def paired_pass(i):
                """Pass i untraced, then again traced on the same seed; the
                overhead ratio compares the two in reference seconds."""
                untraced = checked_pass(workload, drive, i)["pass"]
                first = len(drive.invocations)
                drive.tracer = tracer
                tracer.install()
                try:
                    intervals = workload.run_pass(drive, i)
                finally:
                    tracer.uninstall()
                    drive.tracer = None
                workload.check_pass(drive)
                for key, value in workload.pass_counts().items():
                    tracer.counters[key] += value
                tracer.counters["cli.exit_nonzero"] += sum(
                    inv.rc != 0 for inv in drive.invocations[first:])
                ratios.append(sampler.reference_seconds(*intervals["pass"])
                              / sampler.reference_seconds(*untraced))
                return intervals

            stages = timed_loop(paired_pass, args.seconds)
            tracer.write(ROOT / ".perfbench_work" / f"spans-{args.workload}.npz")
            values = layer_metrics(tracer, len(stages["pass"]), statistics.median(ratios))
        else:
            stages = timed_loop(lambda i: checked_pass(workload, drive, i), args.seconds)
            values = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        repeat_problems = workload.repeat_check(drive)
    finally:
        sampler.stop()
        shutil.rmtree(work, ignore_errors=True)

    samples = {"import": [imported], "setup": setup, **stages}
    ref = {k: [sampler.reference_seconds(a, b) for a, b in v] for k, v in samples.items()}
    # the library is imported once, cold; the set-ups after it are repeated
    values["setup_s"] = ref["import"][0] + statistics.median(ref["setup"])
    values["pass_norm_s"] = statistics.median(ref["pass"])
    attempted = len(drive.invocations)
    failed = sum(not inv.ok for inv in drive.invocations)
    report(args, workload, samples, ref, values, wanted, attempted, failed, drive)
    result = {
        "correct": failed == 0 and not repeat_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


def report(args, workload, samples, ref, values, wanted, attempted, failed, drive) -> None:
    """Human-readable summary: every stage as wall time and in reference
    seconds; the CLI throughput of simulate workloads."""
    print(f"# subspacecodes benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in environment().items()))
    clocks = {"wall": {k: [b - a for a, b in v] for k, v in samples.items()}, "ref": ref}
    for clock, stages in clocks.items():
        for key, seconds in stages.items():
            print(f"{key + '_s ' + clock:<20} {summary(seconds, 's', False)}")
        if hasattr(workload, "trials"):
            rates = [workload.trials / t for t in stages["pass"]]
            print(f"{'trials_per_s ' + clock:<20} {summary(rates, '1/s', True)}")
    if not args.trace:
        print(f"{'peak_rss_mb':<20} {values['peak_rss_mb']:.6g} MB")
    print(f"{'fail_ratio':<20} {failed}/{attempted} = {failed / attempted:.6g} failed/attempted")
    for inv in drive.invocations:
        if not inv.ok:
            print(f"FAILED {' '.join(inv.argv)} (exit {inv.rc})", file=sys.stderr)
            for line in inv.problems[:5] + inv.stderr.splitlines()[-20:]:
                print(f"  {line}", file=sys.stderr)
    if args.trace:
        width = max(len(m["name"]) for m in wanted)
        for m in wanted:
            print(f"  {m['name']:<{width}} {values[m['name']]:.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
