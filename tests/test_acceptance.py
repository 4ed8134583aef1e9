"""End-to-end acceptance gate.

Eleven numbered checks cover the full pipeline at fixed seeds, tolerances,
and runtime budgets: code sizes and distances, the character-sum bound,
guaranteed decoding over the plain and noisy channels, the distance lemma
suite, sphere embeddings, row-space perturbation bounds, bound-curve
ordering, the largest-prime scaling table, and CSV determinism.  Each check
prints exactly one `[acceptance NN] PASS/FAIL` line on the live terminal.

A final frequency report (no pass/fail threshold) summarizes small-instance
random-ensemble minimum distances against the random-coding benchmark,
since the asymptotic ensemble statements are not testable at desk scale.
"""

from __future__ import annotations

import itertools
import json
import math
import time

import numpy as np
import pytest

from helpers import random_unitary
from subspacecodes import (
    CPCodeSpec,
    ChannelSpec,
    FiniteField,
    Subspace,
    SubspaceCode,
    apply_noisy_operator_channel,
    apply_operator_channel,
    barg_lower,
    barg_upper,
    blokh_zyablov_rate,
    cli,
    complement,
    cp_construct,
    cp_distance_bound,
    cp_monomial_set,
    decode,
    direct_sum,
    distance,
    general_perturbation_bound,
    guarantee_noiseless,
    guarantee_noisy,
    is_prime,
    min_distance_exhaustive,
    orthonormalize,
    perturbation_bound,
    random_ensemble_code,
    random_subspace,
    rq_factorize,
    weil_sum,
    zyablov_delta,
)
from subspacecodes.codes import CP_MAX_ENTRIES
from subspacecodes.errors import Infeasible


def _gate(capfd, index: int, name: str, budget: float, body) -> None:
    t0 = time.monotonic()
    error: BaseException | None = None
    try:
        body()
    except BaseException as exc:  # report, then re-raise for pytest
        error = exc
    elapsed = time.monotonic() - t0
    ok = error is None and elapsed < budget
    with capfd.disabled():
        print(f"[acceptance {index:02d}] {'PASS' if ok else 'FAIL'} "
              f"{name} ({elapsed:.1f}s, budget {budget:.0f}s)")
    if error is not None:
        raise error
    assert elapsed < budget, f"runtime budget exceeded: {elapsed:.1f}s >= {budget:.0f}s"


# -- 01 ---------------------------------------------------------------------


def test_01_cp_code_sizes(capfd):
    def body():
        assert len(cp_construct(CPCodeSpec(FiniteField(5), 2))) == 25
        assert len(cp_construct(CPCodeSpec(FiniteField(7), 3))) == 343
        refused = []
        for q in (3, 5, 7, 11, 13):
            field = FiniteField(q)
            for k in range(1, q):
                spec = CPCodeSpec(field, k)
                predicted = q ** math.ceil(k * (q - 1) / q)
                assert q ** len(cp_monomial_set(spec)) == predicted
                if predicted <= 2500:
                    assert len(cp_construct(spec)) == predicted
                elif predicted * (q - 1) > CP_MAX_ENTRIES:
                    with pytest.raises(Infeasible, match="basis entries"):
                        cp_construct(spec)
                    refused.append((q, k))
        assert refused == [(q, k) for q in (11, 13) for k in range(6, q)]

    _gate(capfd, 1, "cp code sizes exact over the q,k grid", 10.0, body)


# -- 02 ---------------------------------------------------------------------


def test_02_cp_exhaustive_distance_meets_bound(capfd):
    def body():
        grid = [(5, 1, 2), (7, 1, 2), (7, 1, 3), (11, 1, 2), (13, 1, 2),
                (2, 4, 3), (3, 3, 2), (2, 5, 3)]
        for p, m, k in grid:
            spec = CPCodeSpec(FiniteField(p, m), k)
            code = cp_construct(spec)
            d_min, _ = min_distance_exhaustive(code, cap=30000)
            delta = d_min / 2.0
            assert delta >= cp_distance_bound(spec) - 1e-9, (p, m, k)

    _gate(capfd, 2, "cp exhaustive min distance meets the bound", 60.0, body)


# -- 03 ---------------------------------------------------------------------


def test_03_character_sum_bound_exhaustive(capfd):
    def body():
        fields = {5: FiniteField(5), 7: FiniteField(7), 9: FiniteField(3, 2),
                  11: FiniteField(11), 13: FiniteField(13)}
        for q, field in fields.items():
            for d in (2, 3, 4):
                if math.gcd(d, q) != 1:
                    continue
                cap = (d - 1) * math.sqrt(q) + 1e-9
                for lower in itertools.product(range(q), repeat=d):
                    assert abs(weil_sum(field, list(lower) + [1])) <= cap, (q, d, lower)

    _gate(capfd, 3, "character sums of all monic polynomials within (d-1)sqrt(q)",
          120.0, body)


# -- 04 ---------------------------------------------------------------------


def _noiseless_config_run(code, d_min, k, t, trials, seed):
    spec = ChannelSpec(k=k, t=t)
    m = code[0].dim
    assert guarantee_noiseless(d_min, max(m - k, 0), t)
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        tx = int(rng.integers(len(code)))
        V, rho, t_out = apply_operator_channel(code[tx], spec, rng)
        out = decode(code, V)
        assert out.codeword_index == tx, (k, t, trial)


def test_04_guaranteed_noiseless_decoding(capfd):
    def body():
        trials = 10_000
        cp = cp_construct(CPCodeSpec(FiniteField(7), 2))
        cp_dmin, _ = min_distance_exhaustive(cp)
        # lines have pairwise distance at most 2, so 2(rho+t) < d_min forces
        # rho = t = 0; the guarantee region is exactly the lossless channel
        assert cp_dmin <= 2.0
        _noiseless_config_run(cp, cp_dmin, k=1, t=0, trials=trials, seed=41)

        ens = random_ensemble_code(12, 3, 50, np.random.default_rng(7))
        ens_dmin, _ = min_distance_exhaustive(ens)
        assert ens_dmin > 2.0  # premise for the two impaired configurations
        _noiseless_config_run(ens, ens_dmin, k=2, t=0, trials=trials, seed=42)
        _noiseless_config_run(ens, ens_dmin, k=3, t=1, trials=trials, seed=43)

    _gate(capfd, 4, "guaranteed noiseless decoding is always correct", 120.0, body)


# -- 05 ---------------------------------------------------------------------


def test_05_guaranteed_noisy_decoding(capfd):
    def body():
        eye = np.eye(12)
        code = SubspaceCode([Subspace(eye[i * 3:(i + 1) * 3]) for i in range(4)])
        d_min, _ = min_distance_exhaustive(code)
        assert d_min == pytest.approx(6.0, abs=1e-12)
        configs = [  # (k, t, rotation, extra noise dims), all inside the guarantee
            (2, 0, 0.05, 0),
            (3, 1, 0.10, 0),
            (2, 1, 0.05, 0),
            (3, 0, 0.04, 1),
        ]
        for k, t, delta, r_d in configs:
            assert guarantee_noisy(d_min, 3 - k, t, delta, r_d)
        trials = 10_000
        for trial in range(trials):
            k, t, delta, r_d = configs[trial % len(configs)]
            rho = 3 - k
            rng = np.random.default_rng([55, trial])
            tx = int(rng.integers(4))
            spec = ChannelSpec(k, t, rotation=delta, noise_dim=r_d)
            V = apply_noisy_operator_channel(code[tx], spec, rng)
            cap = (math.sqrt(rho + t + delta) + math.sqrt(r_d)) ** 2
            assert distance(code[tx], V) <= cap + 1e-9, trial
            assert decode(code, V).codeword_index == tx, trial

    _gate(capfd, 5, "guaranteed noisy decoding is always correct", 180.0, body)


# -- 06 ---------------------------------------------------------------------


def test_06_distance_lemma_suite(capfd):
    def body():
        tol = 1e-9
        trials = 1000
        for n in (6, 12):
            for trial in range(trials):
                rng = np.random.default_rng([66, n, trial])
                use_complex = trial % 2 == 0
                mu = int(rng.integers(1, n))
                mv = int(rng.integers(1, n))
                U = random_subspace(n, mu, rng, complex_field=use_complex)
                V = random_subspace(n, mv, rng, complex_field=use_complex)

                # rotation invariance
                Q = random_unitary(n, rng, complex_field=use_complex)
                d0 = distance(U, V)
                assert abs(distance(orthonormalize(U.basis @ Q),
                                    orthonormalize(V.basis @ Q)) - d0) < tol

                # complement duality
                assert abs(distance(complement(U), complement(V)) - d0) < tol

                # direct sum with a piece of the complement adds its dimension
                room = n - mu
                if room:
                    td = int(rng.integers(1, room + 1))
                    coeff = rng.standard_normal((td, n))
                    if use_complex:
                        coeff = coeff + 1j * rng.standard_normal((td, n))
                    T = orthonormalize(coeff @ (np.eye(n) - U.projection))
                    if T.dim == td:
                        assert abs(distance(U, direct_sum(U, T)) - td) < tol

                # relaxed triangle inequality, factor 2
                W = random_subspace(n, int(rng.integers(1, n)), rng,
                                    complex_field=use_complex)
                assert distance(U, W) <= 2.0 * (distance(U, V) + distance(V, W)) + tol

                # nested chains add exactly
                big = random_subspace(n, n - 1, rng, complex_field=use_complex)
                mid = orthonormalize(big.basis[: max(1, (n - 1) // 2)])
                small = orthonormalize(big.basis[:1])
                assert abs(distance(small, big)
                           - distance(small, mid) - distance(mid, big)) < tol

                # squared norm is submultiplicative through the gram product
                B = rng.standard_normal((mu, n))
                if use_complex:
                    B = B + 1j * rng.standard_normal((mu, n))
                assert (np.linalg.norm(B.conj().T @ B)
                        <= np.linalg.norm(B) ** 2 + tol)

    _gate(capfd, 6, "distance lemma suite at n = 6 and n = 12", 30.0, body)


# -- 07 ---------------------------------------------------------------------


def test_07_sphere_embeddings(capfd):
    def body():
        for trial in range(1000):
            rng = np.random.default_rng([77, trial])
            n = int(rng.integers(2, 13))
            m = int(rng.integers(0, n + 1))
            use_complex = trial % 2 == 0
            U = (random_subspace(n, m, rng, complex_field=use_complex)
                 if m else Subspace.zero(n))
            P = U.projection
            assert abs(np.linalg.norm(P - (m / n) * np.eye(n)) ** 2
                       - m * (n - m) / n) < 1e-9
            assert abs(np.linalg.norm(P - 0.5 * np.eye(n)) ** 2 - n / 4.0) < 1e-9

    _gate(capfd, 7, "projection embeddings land on both spheres", 10.0, body)


# -- 08 ---------------------------------------------------------------------


def test_08_perturbation_bounds(capfd):
    def body():
        for trial in range(1000):
            rng = np.random.default_rng([88, trial])
            l, n = (3, 8) if trial % 2 == 0 else (5, 10)
            A = rng.standard_normal((l, n)) + 1j * rng.standard_normal((l, n))
            G = rng.standard_normal((l, n)) + 1j * rng.standard_normal((l, n))
            margin = float(rng.uniform(1e-4, 0.3))
            N = G * (margin / (np.linalg.norm(np.linalg.pinv(A), 2)
                               * np.linalg.norm(G, 2)))
            eps, bound = perturbation_bound(A, N)
            d = distance(orthonormalize(A), orthonormalize(A + N))
            assert d <= bound + 1e-9, trial

            R, Q = rq_factorize(A)
            assert (np.linalg.norm(A - R @ Q) / np.linalg.norm(A)) <= 1e-9, trial

        for trial in range(1000):
            rng = np.random.default_rng([99, trial])
            base = rng.standard_normal((3, 9)) + 1j * rng.standard_normal((3, 9))
            mix = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            A = np.vstack([base, mix @ base])
            N = 1e-4 * (rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9)))
            r_d, _, total = general_perturbation_bound(A, N)
            assert r_d == 1
            d = distance(orthonormalize(A), orthonormalize(A + N))
            assert r_d - 1e-9 <= d <= total + 1e-9, trial

    _gate(capfd, 8, "row-space perturbation bounds hold", 60.0, body)


# -- 09 ---------------------------------------------------------------------


def _entropy_grid(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    inside = (x > 0) & (x < 1)
    xi = x[inside]
    out[inside] = -xi * np.log2(xi) - (1 - xi) * np.log2(1 - xi)
    return out


def test_09_bound_curve_ordering(capfd):
    def body():
        for i in range(1, 1001):
            delta = i / 1000.0
            assert barg_lower(1, delta, 1) < barg_upper(1, delta, 1)
            assert barg_lower(2, delta, 2) < barg_upper(2, delta, 2)

        # dense-grid oracle: vectorized bisection for the entropy inverse
        r_grid = np.linspace(1e-6, 1.0 - 1e-6, 100_000)
        target = 1.0 - r_grid
        lo = np.zeros_like(r_grid)
        hi = np.full_like(r_grid, 0.5)
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            below = _entropy_grid(mid) < target
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        gv_grid = 0.5 * (lo + hi)
        for rate in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95):
            mask = r_grid > rate
            oracle = float(np.max(gv_grid[mask] * (1.0 - rate / r_grid[mask])))
            assert abs(zyablov_delta(rate) - oracle) < 1e-6, rate

        def single_level_rate(delta):
            a, b = 0.0, 1.0
            for _ in range(60):
                mid = 0.5 * (a + b)
                if zyablov_delta(mid) > delta:
                    a = mid
                else:
                    b = mid
            return a

        for delta in (0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.45):
            assert blokh_zyablov_rate(delta) >= single_level_rate(delta) - 1e-9

    _gate(capfd, 9, "bound curves are ordered and match brute-force grids", 30.0, body)


# -- 10 ---------------------------------------------------------------------


def test_10_prime_table_scaling(capfd, tmp_path):
    def body():
        out = tmp_path / "table.csv"
        assert cli.main(["figure3", "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in out.read_text().strip().split("\n")
                if not ln.startswith("#")][1:]
        assert len(rows) == 8
        sizes = []
        for row, exponent in zip(rows, range(3, 11)):
            p = int(row[2])
            # p really is the largest prime below 2^(exponent-1)
            assert is_prime(p) and p < 2 ** (exponent - 1)
            assert all(not is_prime(x) for x in range(p + 1, 2 ** (exponent - 1)))
            assert int(row[1]) == 2 * p  # doubled ambient dimension
            chosen_k = int(row[3])
            assert cp_distance_bound(CPCodeSpec(FiniteField(p), chosen_k)) >= 0.5
            if chosen_k + 1 < p:
                assert cp_distance_bound(CPCodeSpec(FiniteField(p), chosen_k + 1)) < 0.5
            sizes.append(float(row[4]))
        assert all(b > a for a, b in zip(sizes, sizes[1:]))

    _gate(capfd, 10, "largest-prime table certified at target distance 1/2", 10.0, body)


# -- 11 ---------------------------------------------------------------------


def test_11_simulation_determinism(capfd, tmp_path):
    def body():
        cfg = {
            "code": {"type": "random-ensemble", "n": 12, "m": 3, "M": 20},
            "channel": {"k": 2, "t": 1, "delta": 0.05, "r_d": 1},
            "trials": 200,
            "seed": 2024,
        }
        cfg_path = tmp_path / "sim.json"
        cfg_path.write_text(json.dumps(cfg))
        out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    _gate(capfd, 11, "simulate reruns are byte-identical", 60.0, body)


# -- ensemble frequency report (no threshold) --------------------------------


def test_12_ensemble_frequency_report(capfd):
    lines = ["[ensemble report] small-instance random-ensemble minimum distances",
             "[ensemble report] n=12 m=3 complex, 30 draws per size; benchmark is"
             " the zero-slack random-coding distance exp(-4R/(beta*m))"]
    for M in (10, 50):
        deltas = []
        for seed in range(30):
            code = random_ensemble_code(12, 3, M, np.random.default_rng([123, M, seed]))
            d_min, _ = min_distance_exhaustive(code)
            assert d_min > 0.0
            deltas.append(d_min / (2 * 3))
        rate = math.log(M) / 12.0
        benchmark = math.exp(-4.0 * rate / (2 * 3))
        frac = sum(d >= benchmark for d in deltas) / len(deltas)
        lines.append(
            f"[ensemble report] M={M:3d} rate={rate:.4f} benchmark delta={benchmark:.4f}"
            f" observed min/median/max = {min(deltas):.4f}/{sorted(deltas)[15]:.4f}/"
            f"{max(deltas):.4f} fraction >= benchmark: {frac:.2f}")
    lines.append("[ensemble report] the benchmark is asymptotic in the ambient"
                 " dimension; falling short at n=12 is expected (union-bound"
                 " slack), the table records the gap, nothing is asserted")
    with capfd.disabled():
        for line in lines:
            print(line)
