"""Channel model tests: erasures, errors, rotation, additive noise, and the
matrix observation model with its RQ-based row-space perturbation bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import _per_trial_noisy_channel, _qr_rows, same_subspace
from subspacecodes import (
    ChannelSpec,
    MatrixChannelSpec,
    Subspace,
    apply_matrix_channel,
    apply_noisy_operator_channel,
    apply_noisy_operator_channel_block,
    apply_operator_channel,
    channel_draw_size,
    complement,
    direct_sum,
    distance,
    erase,
    general_perturbation_bound,
    guarantee_noisy,
    orthonormalize,
    perturbation_bound,
    random_error_subspace,
    random_subspace,
    rotate,
    rq_factorize,
)
from subspacecodes.channel import (_erase_stack, _error_stack, _into_complements,
                                   _rank_r_rows)
from subspacecodes.errors import ConfigError, Infeasible, NumericalError
from subspacecodes.subspaces import _gaussian

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def _contained_in(inner: Subspace, outer: Subspace, tol=1e-9) -> bool:
    if inner.dim == 0:
        return True
    P = outer.projection
    return bool(np.linalg.norm(inner.basis @ P - inner.basis) < tol)


def test_erasure_keeps_a_subspace_of_the_input():
    rng = np.random.default_rng(1)
    U = random_subspace(10, 4, rng)
    for k in (0, 1, 2, 3, 4, 7):
        V = erase(U, k, rng)
        assert V.dim == min(k, 4)
        assert _contained_in(V, U)
    assert erase(U, 0, rng).dim == 0


def test_erasure_distance_is_the_lost_dimension():
    rng = np.random.default_rng(2)
    for _ in range(20):
        U = random_subspace(9, 4, rng)
        k = int(rng.integers(0, 5))
        V = erase(U, k, rng)
        assert distance(U, V) == pytest.approx(max(4 - k, 0), abs=1e-9)


def test_error_subspace_avoids_the_input():
    rng = np.random.default_rng(3)
    U = random_subspace(8, 3, rng)
    E = random_error_subspace(U, 2, rng)
    assert E.dim == 2
    assert np.linalg.norm(E.basis @ U.projection) < 1e-10
    assert random_error_subspace(U, 0, rng).dim == 0
    with pytest.raises(Infeasible, match="cannot fit 6 error dimensions"):
        random_error_subspace(U, 6, rng)


def test_operator_channel_bookkeeping_and_distance_bound():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(4, 12))
        m = int(rng.integers(1, n - 1))
        U = random_subspace(n, m, rng)
        k = int(rng.integers(0, m + 2))
        t = int(rng.integers(0, min(3, n - m) + 1))
        V, rho, t_out = apply_operator_channel(U, ChannelSpec(k=k, t=t), rng)
        assert rho == max(m - k, 0)
        assert t_out == t
        assert V.dim == min(k, m) + t
        assert distance(U, V) <= rho + t + 1e-9


def test_channel_output_triangle_inequality_with_any_reference():
    rng = np.random.default_rng(5)
    for _ in range(60):
        U = random_subspace(9, 3, rng)
        spec = ChannelSpec(k=int(rng.integers(1, 4)), t=int(rng.integers(0, 3)))
        V, rho, t = apply_operator_channel(U, spec, rng)
        T = random_subspace(9, int(rng.integers(1, 5)), rng)
        assert distance(U, T) <= rho + t + distance(V, T) + 1e-9


def test_channel_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec(k=-1)
    with pytest.raises(ValueError):
        ChannelSpec(k=2, t=-1)
    with pytest.raises(ValueError):
        ChannelSpec(k=2, rotation=-0.5)
    with pytest.raises(ValueError):
        ChannelSpec(k=2, noise_dim=-1)


@pytest.mark.parametrize("budget", [math.nan, -math.nan])
def test_nan_rotation_budget_is_refused(budget):
    with pytest.raises(ValueError, match="nonnegative number"):
        ChannelSpec(k=2, rotation=budget)
    U = random_subspace(6, 2, np.random.default_rng(3))
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError, match="nonnegative number"):
        rotate(U, budget, rng)
    with pytest.raises(ValueError):
        guarantee_noisy(10.0, 1, 1, budget, 0)


def test_an_infinite_rotation_budget_is_refused_even_where_nothing_turns():
    rng = np.random.default_rng(4)
    for U in (Subspace.zero(5), random_subspace(6, 2, rng)):
        with pytest.raises(ConfigError, match="rotation budget must be a nonnegative number"):
            rotate(U, math.inf, rng)
    # a zero-dimensional subspace takes any finite budget and comes back unturned
    assert rotate(Subspace.zero(5), 1e308, rng).dim == 0


def test_rotation_respects_budget_and_dimension():
    rng = np.random.default_rng(6)
    for budget in (0.05, 0.3, 1.0, 2.5):
        for _ in range(10):
            U = random_subspace(10, 3, rng)
            V = rotate(U, budget, rng)
            assert V.dim == 3
            d = distance(U, V)
            assert d <= budget + 1e-12
            assert d >= 0.5 * budget  # lands well inside the target band
    U = random_subspace(10, 3, rng)
    assert same_subspace(U, rotate(U, 0.0, rng))


@st.composite
def rotation_cases(draw):
    """(n, m, complex flag, seed, budget) with 0 < budget <= 2 min(m, n - m)."""
    n = draw(st.integers(2, 12))
    m = draw(st.integers(1, n - 1))
    reach = 2 * min(m, n - m)
    fraction = draw(st.floats(0.0, 1.0, exclude_min=True))
    return n, m, draw(st.booleans()), draw(st.integers(0, 2 ** 32 - 1)), reach * fraction


@PROPERTY
@given(case=rotation_cases())
# b > n - b: only n - b of the rows turn, here as far as they can
@example(case=(7, 5, True, 11, 4.0))
@example(case=(9, 8, False, 12, 0.75))
def test_rotation_lands_on_the_budget(case):
    n, m, complex_field, seed, budget = case
    rng = np.random.default_rng(seed)
    U = random_subspace(n, m, rng, complex_field)
    V = rotate(U, budget, rng)
    assert V.dim == m
    assert V.is_complex == complex_field
    Subspace(V.basis)  # orthonormal rows, finite entries
    assert abs(distance(U, V) - budget) <= 1e-12


def test_rotation_consumes_one_gaussian_draw():
    # one standard_normal call of dim U * n entries, two per entry over C
    for complex_field in (False, True):
        U = random_subspace(7, 3, np.random.default_rng(1), complex_field)
        rng, twin, oracle = (np.random.default_rng(2) for _ in range(3))
        V = rotate(U, 0.7, rng)
        twin.standard_normal(U.basis.size * (2 if complex_field else 1))
        assert rng.bit_generator.state == twin.bit_generator.state
        # the draw is the stage oracle's rotate coefficients, (re, im) pairs over C
        spec = ChannelSpec(k=3, rotation=0.7)
        assert np.array_equal(V.basis, _per_trial_noisy_channel(U, spec, oracle))


def test_rotation_beyond_reach_is_refused():
    rng = np.random.default_rng(9)
    for n, m in ((10, 3), (10, 7), (6, 3), (2, 1)):
        U = random_subspace(n, m, rng)
        reach = 2 * min(m, n - m)
        assert distance(U, rotate(U, reach, rng)) == pytest.approx(reach, abs=1e-12)
        with pytest.raises(Infeasible, match="exceeds the largest distance"):
            rotate(U, reach * (1 + 1e-9), rng)
    # the whole space has no direction to turn towards
    with pytest.raises(Infeasible, match="exceeds the largest distance"):
        rotate(Subspace.full(5), 0.1, rng)
    assert rotate(Subspace.full(5), 0.0, rng).dim == 5
    assert rotate(Subspace.zero(5), 0.3, rng).dim == 0


def test_noisy_channel_reduces_to_plain_channel():
    base = ChannelSpec(k=2, t=1)
    for seed in range(10):
        U = random_subspace(10, 4, np.random.default_rng([seed, 1]))
        V1, _, _ = apply_operator_channel(U, base, np.random.default_rng([seed, 2]))
        V2 = apply_noisy_operator_channel(
            U, ChannelSpec(k=2, t=1, rotation=0.0, noise_dim=0), np.random.default_rng([seed, 2])
        )
        assert same_subspace(V1, V2)


def test_noisy_channel_dimension_and_distance_budget():
    rng = np.random.default_rng(8)
    for _ in range(40):
        U = random_subspace(12, 3, rng)
        k = int(rng.integers(1, 4))
        t = int(rng.integers(0, 2))
        r_d = int(rng.integers(0, 2))
        delta = float(rng.uniform(0.0, 0.4))
        spec = ChannelSpec(k=k, t=t, rotation=delta, noise_dim=r_d)
        V = apply_noisy_operator_channel(U, spec, rng)
        rho = max(3 - k, 0)
        assert V.dim == min(k, 3) + t + r_d
        cap = (math.sqrt(rho + t + delta) + math.sqrt(r_d)) ** 2
        assert distance(U, V) <= cap + 1e-9


def _direct_sum_channel(U, spec, rng):
    """Oracle: the operator channel with its sum re-derived through direct_sum."""
    kept = erase(U, spec.k, rng)
    return direct_sum(kept, random_error_subspace(U, spec.t, rng))


def _direct_sum_noisy_channel(U, spec, rng):
    """Oracle: the noisy channel with both sums re-derived through direct_sum."""
    rotated = rotate(_direct_sum_channel(U, spec, rng), spec.rotation, rng)
    return direct_sum(rotated, random_error_subspace(rotated, spec.noise_dim, rng))


def test_stacked_sums_match_the_direct_sum_oracle():
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(3, 11))
        m = int(rng.integers(1, n))
        complex_field = bool(rng.integers(2))
        U = random_subspace(n, m, rng, complex_field)
        base = ChannelSpec(k=int(rng.integers(0, m + 2)), t=int(rng.integers(0, n - m + 1)))
        seed = int(rng.integers(2 ** 32))
        for run, oracle, spec in (
            (lambda *a: apply_operator_channel(*a)[0], _direct_sum_channel, base),
            (apply_noisy_operator_channel, _direct_sum_noisy_channel, base),
        ):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert same_subspace(run(U, spec, got_rng), oracle(U, spec, want_rng))
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


@st.composite
def noisy_channel_cases(draw):
    """(n, m, k, t, r_d, delta, complex flag, seed) with the operator channel's
    output of dimension b in [1, n - 1], 0 < delta <= 2 min(b, n - b) and
    r_d <= n - b."""
    n = draw(st.integers(2, 10))
    m = draw(st.integers(1, n - 1))
    k = draw(st.integers(0, m + 1))
    kept = min(k, m)
    t = draw(st.integers(0 if kept else 1, min(n - m, n - 1 - kept)))
    b = kept + t
    delta = 2 * min(b, n - b) * draw(st.floats(0.0, 1.0, exclude_min=True))
    r_d = draw(st.integers(0, n - b))
    return n, m, k, t, r_d, delta, draw(st.booleans()), draw(st.integers(0, 2 ** 32 - 1))


@PROPERTY
@given(case=noisy_channel_cases())
# b + r_d = n: the noise fills what the rotated part leaves
@example(case=(6, 3, 2, 1, 3, 3.0, True, 5))
@example(case=(5, 4, 3, 1, 1, 1.0, False, 6))
def test_noisy_channel_output_and_draw_order(case):
    n, m, k, t, r_d, delta, complex_field, seed = case
    U = random_subspace(n, m, np.random.default_rng([seed, 1]), complex_field)
    spec = ChannelSpec(k=k, t=t, rotation=delta, noise_dim=r_d)
    rng = np.random.default_rng([seed, 2])
    V = apply_noisy_operator_channel(U, spec, rng)
    Subspace(V.basis)  # orthonormal rows, finite entries
    b = min(k, m) + t
    assert V.dim == b + r_d
    assert V.is_complex == complex_field
    # the documented draw: one standard_normal call holding the erase, error,
    # rotate and noise coefficients, in order, two normals per complex entry
    entries = (k * m if m > k else 0) + t * (n - m) + b * n + r_d * (n - b)
    size = 2 * entries if complex_field else entries
    assert channel_draw_size(m, n, spec, complex_field) == size
    twin = np.random.default_rng([seed, 2])
    twin.standard_normal(size)
    assert rng.bit_generator.state == twin.bit_generator.state
    # split in that order, as the stage oracle splits it
    assert np.array_equal(V.basis, _per_trial_noisy_channel(U, spec, np.random.default_rng([seed, 2])))


def test_noisy_channel_without_rotation_or_noise_is_the_plain_channel_bitwise():
    for seed in range(20):
        rng = np.random.default_rng([seed, 3])
        n = int(rng.integers(2, 11))
        m = int(rng.integers(1, n + 1))
        U = random_subspace(n, m, rng, bool(seed % 2))
        base = ChannelSpec(k=int(rng.integers(0, m + 2)), t=int(rng.integers(0, n - m + 1)))
        V1, _, _ = apply_operator_channel(U, base, np.random.default_rng(seed))
        V2 = apply_noisy_operator_channel(U, base, np.random.default_rng(seed))
        assert V2.basis.dtype == V1.basis.dtype
        assert np.array_equal(V2.basis, V1.basis)


def _stage_spec(stage, U, arg):
    """The spec of the channel use that the stand-alone ``stage`` is."""
    if stage is erase:
        return ChannelSpec(arg)
    if stage is random_error_subspace:
        return ChannelSpec(0, arg)
    return ChannelSpec(U.dim, rotation=arg)


def _stage_entries(stage, U, arg):
    """The Gaussian entries ``stage`` draws: a (k, dim U) erase draw when it
    erases, a (t, n - dim U) error draw, a (dim U, n) rotate draw when it
    turns a nonzero U."""
    n, m = U.ambient_dim, U.dim
    if stage is erase:
        return arg * m if m > arg else 0
    if stage is random_error_subspace:
        return arg * (n - m)
    return m * n if arg > 0 and m > 0 else 0


@pytest.mark.parametrize("stage, dim, arg", [
    (erase, 4, 2), (erase, 4, 0), (erase, 4, 4), (erase, 4, 6), (erase, 0, 2), (erase, 7, 3),
    (random_error_subspace, 4, 2), (random_error_subspace, 4, 3), (random_error_subspace, 4, 0),
    (random_error_subspace, 0, 5), (random_error_subspace, 7, 0),
    (rotate, 4, 0.7), (rotate, 4, 6.0), (rotate, 4, 0.0), (rotate, 1, 2.0), (rotate, 0, 0.3),
    (rotate, 7, 0.0),
], ids=lambda value: getattr(value, "__name__", None))
@pytest.mark.parametrize("complex_field", [False, True])
def test_each_stage_is_the_channel_use_with_its_spec(stage, dim, arg, complex_field):
    U = random_subspace(7, dim, np.random.default_rng([dim, 1]), complex_field)
    spec = _stage_spec(stage, U, arg)
    rng, channel_rng, oracle_rng, twin = (np.random.default_rng(5) for _ in range(4))
    V = stage(U, arg, rng)
    W = apply_noisy_operator_channel(U, spec, channel_rng)
    assert V.basis.dtype == W.basis.dtype == U.basis.dtype
    assert np.array_equal(V.basis, W.basis)
    assert np.array_equal(V.basis, _per_trial_noisy_channel(U, spec, oracle_rng))
    entries = _stage_entries(stage, U, arg)
    twin.standard_normal(2 * entries if complex_field else entries)
    for used in (channel_rng, oracle_rng, twin):
        assert rng.bit_generator.state == used.bit_generator.state
    if stage is erase:
        assert V.dim == min(dim, arg) and _contained_in(V, U)
    elif stage is random_error_subspace:
        assert V.dim == arg
        assert np.max(np.abs(V.basis @ U.basis.conj().T), initial=0.0) <= 1e-12
    else:
        assert V.dim == dim and abs(distance(U, V) - (arg if dim else 0.0)) <= 1e-12


@pytest.mark.parametrize("stage, dim, arg", [
    (random_error_subspace, 4, 4), (random_error_subspace, 7, 1), (rotate, 7, 0.1),
    (rotate, 4, 6.5), (rotate, 1, 2.5),
], ids=lambda value: getattr(value, "__name__", None))
@pytest.mark.parametrize("complex_field", [False, True])
def test_each_stage_refuses_what_its_channel_use_refuses(stage, dim, arg, complex_field):
    U = random_subspace(7, dim, np.random.default_rng([dim, 2]), complex_field)
    rng, untouched = np.random.default_rng(6), np.random.default_rng(6)
    with pytest.raises(Infeasible, match="cannot fit|exceeds the largest distance") as refused:
        stage(U, arg, rng)
    with pytest.raises(Infeasible) as channel_refused:
        apply_noisy_operator_channel(U, _stage_spec(stage, U, arg), rng)
    assert str(refused.value) == str(channel_refused.value)
    assert rng.bit_generator.state == untouched.bit_generator.state


def _svd_rows(raw, r):
    """The channel's orthonormalization before v4: the first r right singular
    vectors of raw, a basis of the same row space as _qr_rows's when raw has
    rank r."""
    return np.linalg.svd(raw, full_matrices=False)[2][:r]


def _gram_schmidt(raw):
    """Modified Gram-Schmidt on the rows of one matrix of full row rank."""
    out = []
    for row in raw:
        v = row.copy()
        for e in out:
            v = v - (e.conj() @ v) * e
        out.append(v / np.linalg.norm(v))
    return np.array(out)


@pytest.mark.parametrize("shape", [(114, 1, 12), (114, 3, 12), (32, 1, 30), (5, 3, 7)])
@pytest.mark.parametrize("complex_field", [False, True])
def test_rank_r_rows_is_gram_schmidt(shape, complex_field):
    raw = _gaussian(np.random.default_rng(list(shape)), shape, complex_field)
    got = _rank_r_rows(raw, shape[1], "test")
    assert got.shape == shape and got.dtype == raw.dtype
    want = np.stack([_gram_schmidt(matrix) for matrix in raw])
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("defect", ["duplicated", "zero"])
@pytest.mark.parametrize("complex_field", [False, True])
def test_rank_r_rows_refuses_a_rank_deficient_matrix_in_the_stack(defect, complex_field):
    raw = _gaussian(np.random.default_rng(4), (5, 3, 7), complex_field)
    if defect == "duplicated":
        raw[2, 2] = raw[2, 0]
    else:
        raw[3, 1] = 0.0
    with pytest.raises(RuntimeError, match="rank-deficient test draw"):
        _rank_r_rows(raw, 3, "test")


def test_rank_r_rows_takes_the_rows_from_r_on_as_dependent():
    # the rotation orthonormalizes b draws after the b rows it turns, which
    # leaves them rank r = n - b < b when 2b > n: rows r to b - 1 fail the
    # rank test on purpose, and an independent one is refused
    for complex_field in (False, True):
        raw = _gaussian(np.random.default_rng(8), (4, 3, 7), complex_field)
        raw[:, 2] = 0.5 * raw[:, 0] - 2.0 * raw[:, 1]
        got = _rank_r_rows(raw, 2, "test")
        want = np.stack([_qr_rows(matrix, 2) for matrix in raw])
        assert np.max(np.abs(got - want)) <= 1e-12
        raw[1, 2] += 1e-3
        with pytest.raises(RuntimeError, match="rank-deficient test draw"):
            _rank_r_rows(raw, 2, "test")


@pytest.mark.parametrize("count, k, m, n", [(114, 2, 3, 12), (546, 1, 2, 31), (3, 3, 5, 9),
                                            (1, 1, 4, 6)])
@pytest.mark.parametrize("complex_field", [False, True])
def test_kept_part_is_gram_schmidt_of_the_combined_rows(count, k, m, n, complex_field):
    # GS(c) Z = GS(c Z) for Z with orthonormal rows
    rng = np.random.default_rng([count, k, m, n])
    Z = np.stack([random_subspace(n, m, rng, complex_field).basis for _ in range(count)])
    coeff = _gaussian(rng, (count, k, m), complex_field)
    got = _erase_stack(Z, coeff)
    assert got.shape == (count, k, n) and got.dtype == Z.dtype
    want = np.stack([_qr_rows(c @ basis, k) for c, basis in zip(coeff, Z)])
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("count, t, m, n", [(114, 1, 3, 12), (114, 1, 4, 12), (546, 1, 2, 31),
                                            (3, 3, 2, 9), (2, 4, 0, 5)])
@pytest.mark.parametrize("complex_field", [False, True])
def test_error_part_is_gram_schmidt_of_the_carried_rows(count, t, m, n, complex_field):
    # _into_complements is an isometry onto Z-perp, so it carries GS(c) to
    # the Gram-Schmidt basis of the carried rows
    rng = np.random.default_rng([count, t, m, n, 1])
    Z = np.stack([random_subspace(n, m, rng, complex_field).basis for _ in range(count)])
    coeff = _gaussian(rng, (count, t, n - m), complex_field)
    got = _error_stack(Z, coeff)
    assert got.shape == (count, t, n) and got.dtype == Z.dtype
    want = np.stack([_qr_rows(rows, t) for rows in _into_complements(Z, coeff)])
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("count, b, n", [(114, 3, 12), (20, 8, 12), (5, 4, 7), (3, 1, 2)])
@pytest.mark.parametrize("complex_field", [False, True])
def test_rotation_directions_are_gram_schmidt_of_the_projected_draw(count, b, n, complex_field):
    # GS([Z; g]) less Z's rows is GS of g projected onto Z-perp
    rng = np.random.default_rng([count, b, n, 2])
    Z = np.stack([random_subspace(n, b, rng, complex_field).basis for _ in range(count)])
    g = _gaussian(rng, (count, b, n), complex_field)
    r = min(b, n - b)
    got = _rank_r_rows(g, r, "test", Z)
    assert got.shape == (count, r, n) and got.dtype == Z.dtype
    want = np.stack([_qr_rows(rows - (rows @ basis.conj().T) @ basis, r)
                     for rows, basis in zip(g, Z)])
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.max(np.abs(got @ Z.conj().transpose(0, 2, 1))) <= 1e-14


def test_received_bases_are_orthonormal_across_the_channel_sweep():
    # the kept and error parts are carried after their coefficients are
    # orthonormalized; b > n - b turns rows that fail the rank test on purpose
    rng = np.random.default_rng(31)
    cases = 0
    for n in range(2, 13):
        for m in range(1, n + 1):
            for k, t, r_d in ((1, 0, 0), (m - 1, 1, 0), (m, 0, 1), (2, 1, 1), (m + 1, n - m, 0)):
                b = min(m, k) + t
                if k < 0 or m + t > n or b + r_d > n or b == 0:
                    continue
                for rotation in (0.0, 0.7 * 2 * min(b, n - b)):
                    spec = ChannelSpec(k=k, t=t, rotation=rotation, noise_dim=r_d)
                    for complex_field in (False, True):
                        Z = np.stack([random_subspace(n, m, rng, complex_field).basis
                                      for _ in range(5)])
                        draws = rng.standard_normal(
                            (5, channel_draw_size(m, n, spec, complex_field)))
                        V = apply_noisy_operator_channel_block(Z, spec, draws)
                        assert V.shape == (5, b + r_d, n)
                        gram = V @ V.conj().transpose(0, 2, 1)
                        assert np.max(np.abs(gram - np.eye(b + r_d))) <= 1e-13
                        cases += 1 if rotation and 2 * b > n else 0
    assert cases >= 50


@st.composite
def equivariance_cases(draw):
    """(n, m, k, delta, complex flag, seed) for a channel with t = r_d = 0
    whose kept part, of dimension b = min(m, k) in [1, n - 1], turns by
    0 < delta <= 2 min(b, n - b)."""
    n = draw(st.integers(2, 10))
    m = draw(st.integers(1, n - 1))
    k = draw(st.integers(1, m + 1))
    b = min(m, k)
    delta = 2 * min(b, n - b) * draw(st.floats(0.0, 1.0, exclude_min=True))
    return n, m, k, delta, draw(st.booleans()), draw(st.integers(0, 2 ** 32 - 1))


@PROPERTY
@given(case=equivariance_cases())
def test_channel_commutes_with_a_unitary_when_its_rotate_draw_turns_too(case):
    # channel(U Q) = channel(U) Q when the rotate draw g becomes g Q: the kept
    # part's coefficients act on the rows, and Gram-Schmidt, unlike LAPACK's
    # sign convention, does not depend on the coordinates
    n, m, k, delta, complex_field, seed = case
    rng = np.random.default_rng(seed)
    U = random_subspace(n, m, rng, complex_field)
    Q = orthonormalize(_gaussian(rng, (n, n), complex_field)).basis
    spec = ChannelSpec(k=k, rotation=delta)
    draws = rng.standard_normal(channel_draw_size(m, n, spec, complex_field))
    coeffs = draws.view(complex) if complex_field else draws
    turned = coeffs.copy()
    erased = k * m if m > k else 0
    turned[erased:] = (coeffs[erased:].reshape(min(m, k), n) @ Q).ravel()
    turned_draws = turned.view(float) if complex_field else turned
    got = apply_noisy_operator_channel_block((U.basis @ Q)[np.newaxis], spec,
                                             turned_draws[np.newaxis])[0]
    want = apply_noisy_operator_channel_block(U.basis[np.newaxis], spec, draws[np.newaxis])[0]
    assert np.max(np.abs(got - want @ Q)) <= 1e-12


@PROPERTY
@given(case=noisy_channel_cases())
def test_the_svd_route_spans_the_same_parts_and_turns_by_the_same_budget(case):
    # the kept, error and noise parts are the row spaces of their draws, so
    # either orthonormalization gives the same subspace; the rotation pairs
    # the rows with other directions but lands on its budget under both
    n, m, k, t, r_d, delta, complex_field, seed = case
    rng = np.random.default_rng([seed, 1])
    U = random_subspace(n, m, rng, complex_field)
    if m > k:
        coeff = _gaussian(rng, (1, k, m), complex_field)
        kept = Subspace(_erase_stack(U.basis[np.newaxis], coeff)[0])
        assert distance(kept, Subspace(_svd_rows(coeff[0] @ U.basis, k))) <= 1e-12
    b = min(k, m) + t
    # the error part lies next to U, the noise part next to a b-dimensional subspace
    for dim, S in ((t, U), (r_d, random_subspace(n, b, rng, complex_field))):
        if dim:
            Z = S.basis[np.newaxis]
            coeff = _gaussian(rng, (1, dim, n - S.dim), complex_field)
            carried = Subspace(_error_stack(Z, coeff)[0])
            svd = Subspace(_svd_rows(_into_complements(Z, coeff)[0], dim))
            assert distance(carried, svd) <= 1e-12
    before = Subspace(_per_trial_noisy_channel(
        U, ChannelSpec(k=k, t=t), np.random.default_rng([seed, 2])))
    turned = ChannelSpec(k=k, t=t, rotation=delta)
    for orth in (_qr_rows, _svd_rows):
        # the rotate draw follows the erase and error draws in the one call
        after = Subspace(_per_trial_noisy_channel(U, turned, np.random.default_rng([seed, 2]),
                                                  orth))
        assert after.dim == b
        assert abs(distance(before, after) - delta) <= 1e-12


def _svd_complement_map(U, coeff):
    """Oracle: the error part as it was drawn before the reflectors, the row
    space of coeff times the last n - m rows of U's full SVD."""
    comp = np.eye(U.ambient_dim, dtype=U.basis.dtype) if U.dim == 0 else (
        np.linalg.svd(U.basis, full_matrices=True)[2][U.dim:])
    return orthonormalize(coeff @ comp)


def _reflector_map(U, coeff):
    return Subspace(_error_stack(U.basis[np.newaxis], coeff[np.newaxis])[0])


def test_reflector_map_has_the_svd_complement_maps_distribution():
    # both maps send coeff to the row space of coeff times an isometry onto
    # U-perp, so the distance between the images of two draws is the same
    # whichever isometry carries them: only the realization differs
    rng = np.random.default_rng(21)
    for _ in range(300):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(0, n))
        t = int(rng.integers(1, n - m + 1))
        complex_field = bool(rng.integers(2))
        U = random_subspace(n, m, rng, complex_field)
        c1, c2 = (_gaussian(rng, (t, n - m), complex_field) for _ in range(2))
        want = distance(_svd_complement_map(U, c1), _svd_complement_map(U, c2))
        assert abs(distance(_reflector_map(U, c1), _reflector_map(U, c2)) - want) <= 1e-12


def test_reflector_map_takes_the_same_bits_whatever_the_basis_layout():
    # the bases a channel stage passes on may be stacked in C or in Fortran
    # order; the QR's reflectors once followed that layout, and the products
    # with them moved in the last bit
    rng = np.random.default_rng(23)
    for n, m, t in ((4, 3, 1), (6, 3, 1), (9, 4, 3), (12, 6, 5)):
        for complex_field in (False, True):
            Z = np.stack([random_subspace(n, m, rng, complex_field).basis for _ in range(3)])
            coeff = _gaussian(rng, (3, t, n - m), complex_field)
            want = _into_complements(Z, coeff)
            for layout in (np.asfortranarray(Z), Z.transpose(0, 2, 1).copy().transpose(0, 2, 1)):
                assert np.array_equal(_into_complements(layout, coeff), want)


# a stack of bases in C order, in Fortran order, and with each basis in Fortran order
LAYOUTS = {"C": np.ascontiguousarray, "F": np.asfortranarray,
           "per-basis F": lambda Z: Z.transpose(0, 2, 1).copy().transpose(0, 2, 1)}


def test_channel_block_takes_the_same_bits_whatever_the_basis_layout():
    # every stage, the erase stage's coeff @ Z included, once rounded
    # otherwise when the sent bases came in Fortran order
    rng = np.random.default_rng(29)
    for n, m, k, t, delta, r_d in ((5, 3, 1, 1, 0.0, 0), (6, 4, 2, 1, 0.2, 1), (8, 3, 2, 2, 0.5, 2),
                                   (9, 5, 3, 2, 0.0, 1), (12, 6, 4, 3, 0.4, 2),
                                   (7, 7, 3, 0, 0.0, 0), (10, 4, 2, 3, 0.0, 0)):
        spec = ChannelSpec(k=k, t=t, rotation=delta, noise_dim=r_d)
        for complex_field in (False, True):
            Z = np.stack([random_subspace(n, m, rng, complex_field).basis for _ in range(4)])
            draws = rng.standard_normal((4, channel_draw_size(m, n, spec, complex_field)))
            want = apply_noisy_operator_channel_block(Z, spec, draws)
            for layout in LAYOUTS.values():
                assert np.array_equal(apply_noisy_operator_channel_block(layout(Z), spec, draws),
                                      want)


@st.composite
def error_stack_cases(draw):
    """(n, m, t, count, complex flag, seed) with 0 <= m < n and 1 <= t <= n - m."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(0, n - 1))
    t = draw(st.integers(1, n - m))
    return n, m, t, draw(st.integers(1, 4)), draw(st.booleans()), draw(st.integers(0, 2 ** 32 - 1))


@PROPERTY
@given(case=error_stack_cases())
# m = n - t: the error rows span all of the complement
@example(case=(6, 4, 2, 3, True, 13))
@example(case=(5, 0, 5, 2, False, 14))
def test_error_rows_are_orthonormal_and_avoid_the_sent_subspace(case):
    n, m, t, count, complex_field, seed = case
    rng = np.random.default_rng(seed)
    Z = np.stack([random_subspace(n, m, rng, complex_field).basis for _ in range(count)])
    coeff = _gaussian(rng, (count, t, n - m), complex_field)
    E = _error_stack(Z, coeff)
    assert E.shape == (count, t, n)
    assert E.dtype == Z.dtype
    assert np.max(np.abs(E @ E.conj().transpose(0, 2, 1) - np.eye(t))) <= 1e-12
    assert np.max(np.abs(E @ Z.conj().transpose(0, 2, 1)), initial=0.0) <= 1e-12
    if m == 0:  # nothing to avoid: the row space of the coefficients themselves
        for rows, c in zip(E, coeff):
            assert same_subspace(Subspace(rows), orthonormalize(c))


@st.composite
def channel_block_cases(draw):
    """(spec, n, dims, complex flag, layout, seed): a channel spec and a block
    of transmitted dimensions, mixed, that it can serve in ambient dimension
    n, and the layout (LAYOUTS) of the stacked sent bases."""
    n = draw(st.integers(2, 9))
    k = draw(st.integers(0, n))
    t = draw(st.integers(0, n - 1))
    r_d = draw(st.integers(0, n - 1))
    rotating = draw(st.booleans())

    def base(m):
        return min(m, k) + t

    fits = [m for m in range(n + 1) if m + t <= n and base(m) + r_d <= n
            and not (rotating and base(m) in (0, n))]
    assume(fits)
    reach = min(2 * min(base(m), n - base(m)) for m in fits) if rotating else 0
    delta = reach * draw(st.floats(0.0, 1.0, exclude_min=True)) if rotating else 0.0
    spec = ChannelSpec(k=k, t=t, rotation=delta, noise_dim=r_d)
    dims = draw(st.lists(st.sampled_from(fits), min_size=1, max_size=10))
    return (spec, n, dims, draw(st.booleans()), draw(st.sampled_from(sorted(LAYOUTS))),
            draw(st.integers(0, 2 ** 32 - 1)))


@PROPERTY
@given(case=channel_block_cases())
# the noise stage on a Fortran-ordered stack, which once rounded otherwise
@example(case=(ChannelSpec(k=1, t=2, noise_dim=1), 4, [0, 1], False, "C", 0))
# sent bases in other layouts, through the erase stage, the rotation and the noise
@example(case=(ChannelSpec(k=1, t=1), 5, [3, 3, 2], True, "F", 1))
@example(case=(ChannelSpec(k=2, t=1, rotation=0.3, noise_dim=1), 6, [3, 2, 3], False,
               "per-basis F", 2))
# edge dimensions: the whole space sent, nothing sent, all erased, the output filling the space
@example(case=(ChannelSpec(k=2, t=0), 4, [4, 4], True, "F", 3))
@example(case=(ChannelSpec(k=0, t=3), 3, [0, 0], True, "per-basis F", 4))
@example(case=(ChannelSpec(k=0, t=1, noise_dim=1), 3, [2, 1], False, "F", 5))
@example(case=(ChannelSpec(k=1, t=0, noise_dim=1), 2, [1, 2], True, "F", 6))
def test_channel_block_is_the_per_trial_channel_bitwise(case):
    spec, n, dims, complex_field, layout, seed = case
    sent = [random_subspace(n, m, np.random.default_rng([seed, i]), complex_field)
            for i, m in enumerate(dims)]
    for m in dict.fromkeys(dims):  # one stack per transmitted dimension
        members = [i for i, d in enumerate(dims) if d == m]
        rngs = [np.random.default_rng([seed, i, 1]) for i in members]
        twins = [np.random.default_rng([seed, i, 1]) for i in members]
        oracles = [np.random.default_rng([seed, i, 1]) for i in members]
        size = channel_draw_size(m, n, spec, complex_field)
        draws = np.stack([rng.standard_normal(size) for rng in rngs])
        received = apply_noisy_operator_channel_block(
            LAYOUTS[layout](np.stack([sent[i].basis for i in members])), spec, draws)
        assert received.shape == (len(members), min(m, spec.k) + spec.t
                                  + spec.noise_dim, n)
        for i, V, rng, twin, oracle in zip(members, received, rngs, twins, oracles):
            U = sent[i]
            single = apply_noisy_operator_channel(U, spec, twin)
            assert V.dtype == single.basis.dtype == U.basis.dtype
            assert np.array_equal(V, single.basis)
            assert np.array_equal(V, _per_trial_noisy_channel(U, spec, oracle))
            assert rng.bit_generator.state == twin.bit_generator.state
            assert rng.bit_generator.state == oracle.bit_generator.state


def test_channel_block_checks_the_shape_of_its_draws():
    U = random_subspace(5, 2, np.random.default_rng(1))
    spec = ChannelSpec(k=1, t=1)
    size = channel_draw_size(2, 5, spec, True)
    assert size == 2 * (1 * 2 + 1 * 3)  # erase (1, 2) and error (1, 3), complex
    bases = np.stack([U.basis, U.basis])
    with pytest.raises(ValueError, match=r"2 bases of dimension 2 need draws of shape "
                                         r"\(2, 10\), got \(1, 10\)"):
        apply_noisy_operator_channel_block(bases, spec, np.zeros((1, size)))
    assert apply_noisy_operator_channel_block(bases[:0], spec, np.zeros((0, size))).shape == (0, 2, 5)


def test_matrix_channel_identity_path_is_exact():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
    spec = MatrixChannelSpec(l=3, m=3, h=np.eye(3, 3))
    Y, A = apply_matrix_channel(X, spec, rng)
    assert np.array_equal(Y, X)
    assert np.array_equal(A, X)


def test_matrix_channel_pinned_topology():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((3, 10)) + 1j * rng.standard_normal((3, 10))
    E = rng.standard_normal((2, 10)) + 1j * rng.standard_normal((2, 10))
    H = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    G = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    spec = MatrixChannelSpec(l=5, m=3, t=2, h=H, g=G, interference=E)
    Y, A = apply_matrix_channel(X, spec, rng)
    assert np.allclose(A, H @ X + G @ E)
    assert np.array_equal(Y, A)  # sigma = 0
    # observed rows live inside row(X) + row(E)
    S = direct_sum(orthonormalize(X), orthonormalize(E))
    assert np.linalg.norm(Y @ S.projection - Y) < 1e-9


def test_matrix_channel_noise_level():
    sigma = 0.25
    spec = MatrixChannelSpec(l=4, m=4, noise_sigma=sigma, h=np.eye(4, 4))
    rng = np.random.default_rng(11)
    X = np.zeros((4, 12), dtype=complex)
    total = 0.0
    trials = 600
    for _ in range(trials):
        Y, _ = apply_matrix_channel(X, spec, rng)
        total += float(np.linalg.norm(Y) ** 2)
    mean = total / trials
    expected = sigma**2 * 4 * 12
    assert mean == pytest.approx(expected, rel=0.15)


def test_matrix_channel_draws_are_reproducible():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
    spec = MatrixChannelSpec(l=4, m=2, t=1, noise_sigma=0.1)
    y1, _ = apply_matrix_channel(X, spec, np.random.default_rng(99))
    y2, _ = apply_matrix_channel(X, spec, np.random.default_rng(99))
    assert np.array_equal(y1, y2)


def test_matrix_channel_shape_validation():
    with pytest.raises(ValueError):
        MatrixChannelSpec(l=0, m=2)
    with pytest.raises(ValueError):
        MatrixChannelSpec(l=2, m=2, noise_sigma=-1.0)
    spec = MatrixChannelSpec(l=3, m=2, h=np.eye(2))
    with pytest.raises(ValueError):
        apply_matrix_channel(np.zeros((2, 5)), spec, np.random.default_rng(0))
    with pytest.raises(ValueError):
        apply_matrix_channel(np.zeros((3, 5)), MatrixChannelSpec(l=3, m=2), np.random.default_rng(0))


def _matrix_channel_oracle(X, spec, rng):
    """The matrix channel with one draw-or-pin branch per component."""
    def gauss(shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)

    X = np.asarray(X, dtype=complex)
    n = X.shape[1]
    if spec.h is not None:
        H = np.asarray(spec.h, dtype=complex)
    else:
        H = gauss((spec.l, spec.m))
    A = H @ X
    if spec.t > 0:
        G = gauss((spec.l, spec.t)) if spec.g is None else np.asarray(spec.g, dtype=complex)
        if spec.interference is None:
            E = gauss((spec.t, n))
        else:
            E = np.asarray(spec.interference, dtype=complex)
        A = A + G @ E
    if spec.noise_sigma > 0:
        Y = A + spec.noise_sigma * gauss((spec.l, n))
    else:
        Y = A.copy()
    return Y, A


def test_matrix_channel_matches_the_branchwise_oracle_bitwise():
    rng = np.random.default_rng(14)
    l, m, n = 4, 3, 7
    X = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    for h_mode in ("drawn", "pinned", "identity"):
        for t in (0, 2):
            for pin_g in (False, True):
                for pin_e in (False, True):
                    for sigma in (0.0, 0.3):
                        spec = MatrixChannelSpec(
                            l=l, m=m, t=t, noise_sigma=sigma,
                            h=(rng.standard_normal((l, m)) if h_mode == "pinned"
                               else np.eye(l, m) if h_mode == "identity" else None),
                            g=rng.standard_normal((l, t)) + 1j if pin_g else None,
                            interference=rng.standard_normal((t, n)) if pin_e else None)
                        got_rng, want_rng = np.random.default_rng(7), np.random.default_rng(7)
                        Y, A = apply_matrix_channel(X, spec, got_rng)
                        Y0, A0 = _matrix_channel_oracle(X, spec, want_rng)
                        assert np.array_equal(Y, Y0) and np.array_equal(A, A0)
                        assert Y.dtype == A.dtype == complex
                        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_matrix_channel_rejects_wrong_shape_pins():
    X = np.ones((2, 5))
    rng = np.random.default_rng(0)
    cases = (
        (dict(h=np.eye(3)), "pinned H has the wrong shape"),
        (dict(t=1, g=np.ones((3, 2))), "pinned G has the wrong shape"),
        (dict(t=1, interference=np.ones((1, 4))), "pinned interference has the wrong shape"),
    )
    for pins, message in cases:
        with pytest.raises(ValueError, match=message):
            apply_matrix_channel(X, MatrixChannelSpec(l=3, m=2, **pins), rng)


def test_rq_factorization_against_scipy():
    rng = np.random.default_rng(13)
    for l, n in [(3, 3), (3, 8), (5, 10)]:
        for make_complex in (False, True):
            A = rng.standard_normal((l, n))
            if make_complex:
                A = A + 1j * rng.standard_normal((l, n))
            R, Q = rq_factorize(A)
            assert np.linalg.norm(A - R @ Q) / np.linalg.norm(A) < 1e-12
            assert np.allclose(Q @ Q.conj().T, np.eye(l), atol=1e-10)
            assert np.allclose(R, np.triu(R), atol=1e-10)
            diag = np.diagonal(R)
            assert np.all(np.abs(diag.imag) < 1e-12)
            assert np.all(diag.real > 0)
            # scipy computes the same factorization up to diagonal phases
            Rs, Qs = scipy.linalg.rq(A, mode="economic")
            phases = np.diagonal(Rs) / np.abs(np.diagonal(Rs))
            assert np.allclose(Rs / phases[np.newaxis, :], R, atol=1e-9)
            assert np.allclose(phases[:, np.newaxis] * Qs, Q, atol=1e-9)


def test_rq_rejects_rank_deficient_and_tall_input():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((1, 6))
    stacked = np.vstack([a, 2.0 * a, rng.standard_normal((1, 6))])
    with pytest.raises(NumericalError, match="not of full row rank"):
        rq_factorize(stacked)
    with pytest.raises(ValueError):
        rq_factorize(rng.standard_normal((7, 4)))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_rq_refuses_a_non_finite_matrix(value):
    A = np.eye(2, 4)
    A[1, 3] = value
    with pytest.raises(ConfigError, match="^A has non-finite entries"):
        rq_factorize(A)


@pytest.mark.parametrize("bound", [perturbation_bound, general_perturbation_bound])
@pytest.mark.parametrize("operand, value", [
    ("N", math.nan),  # the 2-norm's SVD did not converge
    ("A", math.inf),  # read as a rank deficiency
    ("N", math.inf),  # returned a NaN bound
])
def test_perturbation_bounds_refuse_non_finite_operands(bound, operand, value):
    matrices = {"A": np.eye(2, 5), "N": np.full((2, 5), 1e-3)}
    matrices[operand][1, 3] = value
    with pytest.raises(ConfigError, match=f"^{operand} has non-finite entries"):
        bound(matrices["A"], matrices["N"])


def test_perturbation_bound_hand_case():
    A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    N = np.zeros((2, 3))
    N[0, 2] = 0.1
    eps, bound = perturbation_bound(A, N)
    scale = (1.0 + math.sqrt(2.0)) * 1.0 / (1.0 - 0.1) * 0.1
    assert eps == pytest.approx(scale**2, abs=1e-12)
    assert bound == pytest.approx(2.0 * eps + eps**2, abs=1e-12)
    d = distance(orthonormalize(A), orthonormalize(A + N))
    assert d <= bound + 1e-12


def test_perturbation_bound_monte_carlo():
    rng = np.random.default_rng(15)
    for _ in range(150):
        l, n = (3, 8) if rng.uniform() < 0.5 else (5, 10)
        A = rng.standard_normal((l, n)) + 1j * rng.standard_normal((l, n))
        N = 1e-3 * (rng.standard_normal((l, n)) + 1j * rng.standard_normal((l, n)))
        eps, bound = perturbation_bound(A, N)
        d = distance(orthonormalize(A), orthonormalize(A + N))
        assert d <= bound + 1e-12
        assert 0.0 <= eps


def test_perturbation_bound_precondition():
    A = np.eye(2, 5)
    with pytest.raises(NumericalError, match=r"\|\|A\+\|\|_2 \|\|N\|\|_2 = .* >= 1"):
        perturbation_bound(A, 2.0 * np.eye(2, 5))


def test_general_perturbation_bound_rank_deficient():
    rng = np.random.default_rng(16)
    for _ in range(60):
        base = rng.standard_normal((3, 9)) + 1j * rng.standard_normal((3, 9))
        coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        A = np.vstack([base, coeffs @ base])  # rank 3, l = 4
        N = 1e-4 * (rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9)))
        r_d, delta, total = general_perturbation_bound(A, N)
        assert r_d == 1
        d = distance(orthonormalize(A), orthonormalize(A + N))
        assert r_d - 1e-9 <= d <= total + 1e-9
        assert total == pytest.approx((math.sqrt(r_d) + math.sqrt(delta)) ** 2, abs=1e-12)


def test_general_perturbation_bound_full_rank_matches_plain_bound():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((3, 7))
    N = 1e-3 * rng.standard_normal((3, 7))
    r_d, delta, total = general_perturbation_bound(A, N)
    assert r_d == 0
    _, bound = perturbation_bound(A, N)
    assert delta == pytest.approx(bound, abs=1e-12)
    assert total == pytest.approx(bound, abs=1e-12)


def test_noise_dimension_matches_rank_deficiency():
    # a rank-deficient signal matrix seen through the matrix channel loses
    # exactly r_d dimensions relative to the row count
    rng = np.random.default_rng(18)
    base = rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8))
    A = np.vstack([base, base[0] + base[1]])
    assert orthonormalize(A).dim == 2
    N = 1e-5 * (rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8)))
    r_d, _, _ = general_perturbation_bound(A, N)
    assert r_d == 1
    # the perturbed matrix is generically full rank: dimension comes back
    assert orthonormalize(A + N).dim == 3
