"""Rate/distance bound calculator tests.

The Zyablov maximizer, found from its stationarity condition, is checked
against a dense brute-force grid built on an independent bisection inverse of
the binary entropy function, against the former grid + golden-section search
over gv_binary_delta, and against high-precision reference values.  The
closed-form Blokh-Zyablov rate is checked against adaptive quadrature of its
defining integral.
"""

from __future__ import annotations

import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from subspacecodes import (
    barg_lower,
    barg_upper,
    binary_entropy,
    blokh_zyablov_rate,
    gv_binary_delta,
    random_coding_rate,
    shannon_lower,
    zyablov_delta,
)
from subspacecodes.errors import ConfigError


def _h(x: float) -> float:
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _h_inverse(y: float) -> float:
    lo, hi = 0.0, 0.5
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if _h(mid) < y:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _blokh_zyablov_oracle(delta: float) -> float:
    """The defining integral by adaptive quadrature over 1 / gv_binary_delta."""
    upper = 1.0 - _h(delta)
    if upper <= 0.0:
        return 0.0
    with warnings.catch_warnings():
        # for tiny delta the integrand climbs steeply towards x = upper and
        # quad warns that it cannot reach the 1e-10 relative tolerance; the
        # comparisons allow 1e-9
        warnings.simplefilter("ignore", IntegrationWarning)
        integral, _ = quad(lambda x: 1.0 / gv_binary_delta(x), 0.0, upper,
                           epsabs=1e-8, epsrel=1e-10, limit=200)
    return max(upper - delta * integral, 0.0)


def _zyablov_oracle(rate: float, points: int = 20000) -> float:
    """Brute-force maximum over the grid r = rate + (1 - rate) i / points,
    0 < i < points, with _h_inverse's 80-step bisection run on all points
    at once."""
    r = rate + (1.0 - rate) * np.arange(1, points) / points
    r = r[r < 1.0]
    y = 1.0 - r
    lo, hi = np.zeros_like(r), np.full_like(r, 0.5)
    for _ in range(80):
        mid = (lo + hi) / 2.0
        below = -mid * np.log2(mid) - (1.0 - mid) * np.log2(1.0 - mid) < y
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return float(np.max((lo + hi) / 2.0 * (1.0 - rate / r), initial=0.0))


def _zyablov_grid_golden_oracle(rate: float) -> float:
    """A 513-point grid over x in [rate, 1], refined by golden-section search
    to 1e-9, with one gv_binary_delta bisection per objective evaluation."""
    if rate == 1.0:
        return 0.0

    def objective(x: float) -> float:
        return gv_binary_delta(x) * (1.0 - rate / x)

    grid_points = 512
    xs = [rate + (1.0 - rate) * i / grid_points for i in range(grid_points + 1)]
    vals = [objective(x) for x in xs]
    i_best = max(range(len(vals)), key=vals.__getitem__)
    a = xs[max(i_best - 1, 0)]
    b = xs[min(i_best + 1, len(xs) - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > 1e-9:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    return max(vals[i_best], objective(0.5 * (a + b)), 0.0)


def test_packing_lower_bound_values():
    assert barg_lower(4, 0.5, 2) == pytest.approx(4.0 * math.log(2.0), abs=1e-12)
    assert barg_lower(4, 0.5, 2) == pytest.approx(2.772588722239781, abs=1e-12)
    assert barg_lower(1, 1.0, 1) == pytest.approx(0.0, abs=1e-15)
    assert barg_lower(3, 0.2, 1) == pytest.approx(-0.5 * 3 * math.log(0.2), abs=1e-12)


def test_packing_upper_bound_values():
    expected = -0.5 * math.log(1.0 - math.sqrt(0.5))
    assert barg_upper(1, 1.0, 1) == pytest.approx(expected, abs=1e-12)
    assert barg_upper(1, 1.0, 1) == pytest.approx(0.613973588649758, abs=1e-12)
    assert barg_upper(2, 0.3, 2) == pytest.approx(5.100925187318982, abs=1e-10)


def test_lower_is_below_upper_on_a_dense_grid():
    for m in (1, 2, 4, 8):
        for beta in (1, 2):
            for i in range(1, 1000):
                delta = i / 1000.0
                assert barg_lower(m, delta, beta) < barg_upper(m, delta, beta)


def test_bounds_decrease_in_delta():
    prev_lo, prev_hi = math.inf, math.inf
    for i in range(1, 200):
        delta = i / 200.0
        lo = barg_lower(2, delta, 2)
        hi = barg_upper(2, delta, 2)
        assert lo <= prev_lo + 1e-15
        assert hi <= prev_hi + 1e-15
        prev_lo, prev_hi = lo, hi


def test_shannon_and_random_coding_relations():
    assert shannon_lower(math.exp(-2.0)) == pytest.approx(1.0, abs=1e-12)
    assert shannon_lower(0.3) == pytest.approx(barg_lower(1, 0.3, 1), abs=1e-15)
    got = random_coding_rate(3, 0.2, 2, 0.01)
    assert got == pytest.approx(-0.25 * 2 * 3 * math.log(0.2) - 0.01, abs=1e-12)
    assert got == pytest.approx(barg_lower(3, 0.2, 2) / 2.0 - 0.01, abs=1e-12)


def test_domain_validation():
    with pytest.raises(ConfigError, match=r"delta must lie in \(0, 1\]"):
        barg_lower(2, 0.0, 1)
    with pytest.raises(ConfigError, match=r"delta must lie in \(0, 1\]"):
        barg_lower(2, 1.5, 1)  # lower bound needs delta <= 1
    barg_upper(2, 1.5, 1)      # upper bound allows delta up to 2
    with pytest.raises(ConfigError, match=r"delta must lie in \(0, 2\]"):
        barg_upper(2, 2.5, 1)
    with pytest.raises(ConfigError, match="dimension m must be at least 1"):
        barg_lower(0, 0.5, 1)
    with pytest.raises(ConfigError, match=r"beta must be 1 \(real\) or 2 \(complex\)"):
        barg_lower(2, 0.5, 3)
    with pytest.raises(ConfigError, match=r"delta must lie in \(0, 1\]"):
        shannon_lower(0.0)
    with pytest.raises(ConfigError, match=r"rate must lie in \[0, 1\]"):
        gv_binary_delta(-0.1)
    with pytest.raises(ConfigError, match=r"rate must lie in \(0, 1\]"):
        zyablov_delta(1.2)
    with pytest.raises(ConfigError, match=r"delta must lie in \(0, 1/2\]"):
        blokh_zyablov_rate(-0.5)


def test_binary_entropy_values():
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-12)
    assert binary_entropy(0.25) == pytest.approx(_h(0.25), abs=1e-12)


def test_gv_radius_inverts_the_entropy():
    assert gv_binary_delta(0.5) == pytest.approx(0.1100278644385071, abs=1e-9)
    assert gv_binary_delta(0.0) == pytest.approx(0.5)
    assert gv_binary_delta(1.0) == pytest.approx(0.0)
    for rate in (0.05, 0.2, 0.35, 0.6, 0.85, 0.99):
        delta = gv_binary_delta(rate)
        assert binary_entropy(delta) == pytest.approx(1.0 - rate, abs=1e-10)
        assert delta == pytest.approx(_h_inverse(1.0 - rate), abs=1e-10)


def test_zyablov_matches_brute_force_grid():
    for rate in (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9):
        assert zyablov_delta(rate) == pytest.approx(_zyablov_oracle(rate), abs=1e-6)
    assert zyablov_delta(0.3) == pytest.approx(0.044011306391724785, abs=1e-9)


def test_zyablov_matches_grid_and_golden_section():
    cli_grid = [i / 50 for i in range(1, 50)]
    for rate in cli_grid + [1e-6, 1e-3, 0.999, 0.999999]:
        assert zyablov_delta(rate) == pytest.approx(_zyablov_grid_golden_oracle(rate), abs=1e-12)


def test_gv_reference_values_at_small_rates():
    # 1 - h(g) = rate solved by a 60-digit mpmath bisection, to 30 digits
    assert gv_binary_delta(1e-10) == pytest.approx(0.499994112949887490636307493224, abs=1e-12)
    assert gv_binary_delta(1e-14) == pytest.approx(0.499999941129498874226333494045, abs=1e-12)
    assert gv_binary_delta(1e-16) == pytest.approx(0.499999994112949887422626674478, abs=1e-12)
    assert gv_binary_delta(5e-17) == pytest.approx(0.499999995837226944211511285785, abs=1e-12)


def test_zyablov_reference_values_at_small_rates():
    # golden-section maximization of g (1 - R / (1 - h(g))) in 60-digit mpmath
    assert zyablov_delta(1e-16) == pytest.approx(0.499995109475147729685969027118, abs=1e-12)
    assert zyablov_delta(1e-20) == pytest.approx(0.499999773001474055108947297896, abs=1e-12)
    assert zyablov_delta(1e-30) == pytest.approx(0.499999999894636607047768777158, abs=1e-12)


def test_zyablov_reference_values():
    # direct maximization of delta_GV(x) (1 - R / x) over x to 30 digits
    # (mpmath: bisected inverse entropy, golden section in x), which does
    # not use the stationarity condition
    assert zyablov_delta(0.1) == pytest.approx(0.1287741133910986855, abs=1e-15)
    assert zyablov_delta(0.5) == pytest.approx(0.01539620346440390450, abs=1e-15)
    assert zyablov_delta(0.9) == pytest.approx(0.0002993092847187473575, abs=1e-15)


# The comparator gv_binary_delta holds to 1e-12 down to rates of 5e-17 (see
# the reference values above), and the maximizing x for a small rate R is
# about 1.4 R^(2/3), so even at R = 1e-30 the comparator is evaluated where
# it is accurate; dense x-scans at R = 1e-18, 1e-20, 1e-24 and 1e-30
# exceeded zyablov_delta by at most 4.6e-13.
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(rate=st.floats(min_value=1e-30, max_value=1.0, exclude_max=True),
       frac=st.floats(min_value=0.0, max_value=1.0))
def test_zyablov_is_the_maximum(rate, frac):
    x = min(rate + (1.0 - rate) * frac, 1.0)
    assert gv_binary_delta(x) * (1.0 - rate / x) <= zyablov_delta(rate) + 1e-12


def test_zyablov_extreme_rates():
    assert zyablov_delta(1.0) == 0.0
    assert 0.0 <= zyablov_delta(1.0 - 2.0 ** -53) < 1e-30
    # 1e-30 is held to 1e-12 by the reference values; at the two smallest
    # rates the true values lie about 1e-100 below 1/2, and 1 - h(g) is formed
    # without cancellation, so only the last bits of 1/2 may be lost
    for rate in (1e-300, 5e-324):
        assert 0.5 - 1e-15 < zyablov_delta(rate) <= 0.5


def test_zyablov_edges_and_monotonicity():
    assert zyablov_delta(1.0) == pytest.approx(0.0, abs=1e-12)
    vals = [zyablov_delta(r / 40.0) for r in range(1, 40)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    # always below the plain GV radius at the same rate
    for rate in (0.1, 0.4, 0.8):
        assert zyablov_delta(rate) < gv_binary_delta(rate)


def test_concatenation_bound_exceeds_single_level():
    # invert the single-level trade-off by bisection, then require the
    # two-level integral form to give at least that much rate
    def zyablov_rate(delta):
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2.0
            if zyablov_delta(mid) > delta:
                lo = mid
            else:
                hi = mid
        return lo

    for delta in (0.02, 0.05, 0.1, 0.2, 0.3, 0.4):
        assert blokh_zyablov_rate(delta) >= zyablov_rate(delta) - 1e-9


def test_concatenation_bound_values_and_edges():
    assert blokh_zyablov_rate(0.1) == pytest.approx(0.25240559405542273, abs=1e-8)
    assert blokh_zyablov_rate(0.3) == pytest.approx(0.01983930521807399, abs=1e-8)
    assert blokh_zyablov_rate(0.5) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ConfigError, match=r"delta must lie in \(0, 1/2\]"):
        blokh_zyablov_rate(0.6)
    vals = [blokh_zyablov_rate(d / 20.0) for d in range(1, 10)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_concatenation_bound_matches_quadrature():
    cli_grid = [0.5 * i / 50 for i in range(1, 50)]
    for delta in cli_grid + [1e-6, 1e-3, 0.4999]:
        assert blokh_zyablov_rate(delta) == pytest.approx(_blokh_zyablov_oracle(delta), abs=1e-9)


def test_concatenation_bound_reference_values():
    # the defining integral to 20 digits: tanh-sinh quadrature over a
    # bisected inverse of the binary entropy
    assert blokh_zyablov_rate(0.1) == pytest.approx(0.252405594055386692, abs=1e-14)
    assert blokh_zyablov_rate(0.3) == pytest.approx(0.0198393052180711193, abs=1e-14)


def test_concatenation_bound_raises_no_warning():
    # 1e-6 up to 0.42 on a log grid, then the CLI grid and the top of the domain
    deltas = [10.0 ** (-6 + i / 8) for i in range(46)]
    deltas += [0.5 * i / 50 for i in range(1, 50)] + [0.4999, 0.5]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rates = [blokh_zyablov_rate(d) for d in deltas]
    assert all(0.0 <= r < 1.0 for r in rates)


def test_cli_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import subspacecodes.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
