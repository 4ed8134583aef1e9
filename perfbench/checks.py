"""Output checks for the benchmark, written independently of the library.

Code files are read with the JSON module and turned into basis matrices here;
distances are recomputed through the Gram identity

    d(U, V) = dim U + dim V - 2 ||Z_U Z_V^H||_F^2,

which never forms a projection matrix, so it does not share a code path with
the library's projection route.  Each check returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

TOL = 1e-9


def read_code(path) -> tuple[int, list[np.ndarray]]:
    """Ambient dimension and list of basis matrices of a saved code file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    n = int(data["n"])
    bases = []
    for pairs in data["codewords"]:
        flat = np.array(pairs, dtype=float)
        bases.append((flat[:, 0] + 1j * flat[:, 1]).reshape(-1, n))
    return n, bases


def gram_distance(a: np.ndarray, b: np.ndarray) -> float:
    cross = a @ b.conj().T
    return float(a.shape[0] + b.shape[0] - 2.0 * np.real(np.vdot(cross, cross)))


def gram_min_distance(bases: list[np.ndarray]) -> float:
    """Exact minimum pairwise distance of a constant-dimension code."""
    m = bases[0].shape[0]
    stacked = np.concatenate(bases)
    overlap = np.abs(stacked @ stacked.conj().T) ** 2
    M = len(bases)
    overlap = overlap.reshape(M, m, M, m).sum(axis=(1, 3))
    d = 2.0 * m - 2.0 * overlap
    np.fill_diagonal(d, np.inf)
    return float(d.min())


def cp_bound(q: int, k: int) -> float:
    """Normalized CP distance bound 1 - ((k-1) sqrt(q) + 1)^2 / (q-1)^2."""
    return 1.0 - ((k - 1) * math.sqrt(q) + 1.0) ** 2 / (q - 1) ** 2


def prime_power(q: int) -> tuple[int, int]:
    """(p, m) with q = p^m, for a prime power q."""
    p = next(f for f in range(2, q + 1) if q % f == 0)
    m = round(math.log(q, p))
    if p ** m != q:
        raise ValueError(f"{q} is not a prime power")
    return p, m


def cp_size(q: int, k: int) -> int:
    p, _ = prime_power(q)
    return q ** sum(1 for i in range(1, k + 1) if i % p)


def parse_construct(stdout: str) -> dict:
    """Printed parameters of `construct`: M, n and d_min."""
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition("=")
        key = key.strip()
        if key.startswith("codewords"):
            out["M"] = int(value)
        elif key.startswith("ambient"):
            out["n"] = int(value)
        elif key.startswith("min distance"):
            out["d_min"] = float(value)
    return out


def check_cp_construct(stdout: str, path, q: int, k: int, reference: float) -> list[str]:
    problems = []
    params = parse_construct(stdout)
    M, n = cp_size(q, k), q - 1
    if params.get("M") != M or params.get("n") != n:
        problems.append(f"cp({q},{k}) printed M={params.get('M')} n={params.get('n')}, "
                        f"expected M={M} n={n}")
    d_min = params.get("d_min")
    if d_min is None or not abs(d_min - reference) <= TOL:
        problems.append(f"cp({q},{k}) d_min {d_min!r} differs from reference {reference!r}")
    elif d_min < 2.0 * cp_bound(q, k) - TOL:
        problems.append(f"cp({q},{k}) d_min {d_min!r} below the Weil bound "
                        f"{2.0 * cp_bound(q, k)!r}")
    file_n, bases = read_code(path)
    if file_n != n or len(bases) != M:
        problems.append(f"cp({q},{k}) file reloads with M={len(bases)} n={file_n}")
    return problems


def check_ensemble_construct(stdout: str, path, n: int, m: int, M: int) -> list[str]:
    problems = []
    params = parse_construct(stdout)
    file_n, bases = read_code(path)
    if params.get("M") != M or params.get("n") != n or file_n != n or len(bases) != M:
        return [f"ensemble printed M={params.get('M')} n={params.get('n')}, file has "
                f"M={len(bases)} n={file_n}, expected M={M} n={n}"]
    if any(b.shape[0] != m for b in bases):
        problems.append("ensemble file holds codewords of the wrong dimension")
    oracle = gram_min_distance(bases)
    d_min = params.get("d_min")
    if d_min is None or not abs(d_min - oracle) <= TOL:
        problems.append(f"ensemble d_min {d_min!r} differs from the Gram oracle {oracle!r}")
    return problems


def check_distance_table(path, file_a, file_b, rng: np.random.Generator,
                         samples: int = 64) -> list[str]:
    """Row count M_a M_b, and a seeded sample of entries against the oracle."""
    (_, a), (_, b) = read_code(file_a), read_code(file_b)
    total = len(a) * len(b)
    picks = set(rng.choice(total, size=min(samples, total), replace=False).tolist())
    found = {}
    rows = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("index_a"):
                continue
            if rows in picks:
                found[rows] = line
            rows += 1
    if rows != total:
        return [f"distance table has {rows} rows, expected {total}"]
    problems = []
    for r, line in sorted(found.items()):
        i, j, value = line.rstrip("\n").split(",")
        want_i, want_j = divmod(r, len(b))
        if (int(i), int(j)) != (want_i, want_j):
            problems.append(f"distance row {r} is ({i},{j}), expected ({want_i},{want_j})")
            continue
        oracle = gram_distance(a[want_i], b[want_j])
        if not abs(float(value) - oracle) <= TOL:
            problems.append(f"distance ({i},{j}) = {value} differs from the Gram oracle {oracle!r}")
    return problems


def check_identical(path, reference) -> list[str]:
    """A rerun with the same seed must reproduce the CSV byte for byte."""
    with open(path, "rb") as fh, open(reference, "rb") as ref:
        if fh.read() != ref.read():
            return [f"{path} differs from {reference} although the seed is the same"]
    return []


def read_simulation(path) -> tuple[list[dict], float]:
    """Trial rows of a `simulate` CSV and its summary success rate."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    columns = lines[0].split(",")
    rows, summary = [], math.nan
    for line in lines[1:]:
        fields = dict(zip(columns, line.split(",")))
        if fields["trial"] == "summary":
            summary = float(fields["correct"])
        else:
            rows.append(fields)
    return rows, summary


def check_simulation(path, trials: int, reference: dict, channel_bound: bool) -> list[str]:
    """Row count, guarantee implies success, summary = mean(correct),
    success rate within the binomial tolerance of the reference, and (on the
    pure operator channel) d(tx, rx) <= rho + t for every row."""
    rows, summary = read_simulation(path)
    if len(rows) != trials:
        return [f"simulation has {len(rows)} trial rows, expected {trials}"]
    problems = []
    correct = [int(r["correct"]) for r in rows]
    for r in rows:
        if r["guarantee_flag"] == "1" and r["correct"] != "1":
            problems.append(f"trial {r['trial']} is inside the guarantee but decoded wrongly")
        if channel_bound and float(r["d_tx_rx"]) > int(r["rho"]) + int(r["t"]) + TOL:
            problems.append(f"trial {r['trial']} has d_tx_rx {r['d_tx_rx']} > rho + t")
    rate = sum(correct) / trials
    if summary != rate:
        problems.append(f"summary rate {summary!r} is not the mean of correct {rate!r}")
    floor = success_floor(reference, trials)
    if rate < floor:
        problems.append(f"success rate {rate!r} below the reference floor {floor!r}")
    return problems


def success_floor(reference: dict, trials: int) -> float:
    """Lowest acceptable success rate of one invocation.

    The reference rate was pooled over ``reference["trials"]`` trials.  Its
    error probability is taken as at least 6.9 / trials_ref, the one-sided
    99.9% bound when no error was seen.  The floor sits four binomial standard
    deviations of one invocation, plus one trial, below the reference rate.
    """
    err = max(1.0 - reference["rate"], 6.9 / reference["trials"])
    return reference["rate"] - 4.0 * math.sqrt(err * (1.0 - err) / trials) - 1.0 / trials
