"""Geometry layer tests.

Distances are checked against an independent Gram-Schmidt oracle that never
touches the package's own orthonormalization or projection code, and against
the basis cross-Gram route for equal dimensions.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import random_unitary, same_subspace
from subspacecodes import (
    Subspace,
    SubspaceCode,
    chordal_distance,
    complement,
    direct_sum,
    distance,
    erase,
    orthonormalize,
    principal_angles,
    random_error_subspace,
    random_subspace,
    rotate,
)
from subspacecodes import decode, min_distance_exhaustive
from subspacecodes.errors import ConfigError
from subspacecodes.subspaces import _gaussian, _residual_distances, pairwise


def _gram_schmidt(rows, tol=1e-10):
    """Plain modified Gram-Schmidt, used only as a reference."""
    basis: list[np.ndarray] = []
    for v in np.asarray(rows, dtype=complex):
        w = v.astype(complex)
        scale = np.linalg.norm(w)
        for b in basis:
            w = w - np.vdot(b, w) * b
        # second pass for numerical safety
        for b in basis:
            w = w - np.vdot(b, w) * b
        nrm = np.linalg.norm(w)
        if nrm > tol * max(1.0, scale):
            basis.append(w / nrm)
    if not basis:
        return np.zeros((0, np.asarray(rows).shape[1]), dtype=complex)
    return np.array(basis)


def _projection_oracle(rows) -> np.ndarray:
    b = _gram_schmidt(rows)
    return b.conj().T @ b


def _distance_oracle(rows_u, rows_v) -> float:
    d = _projection_oracle(rows_u) - _projection_oracle(rows_v)
    return float(np.linalg.norm(d) ** 2)


def _gram_route_distance(U: Subspace, V: Subspace) -> float:
    """Equal-dimension distance through the basis cross-Gram matrix C = Z_U Z_V^H:
    2 (m - ||C||_F^2)."""
    assert U.dim == V.dim
    cross = U.basis @ V.basis.conj().T
    return float(2.0 * (U.dim - np.real(np.vdot(cross, cross))))


def test_distance_matches_oracle_random_real():
    rng = np.random.default_rng(101)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        mu = int(rng.integers(1, n + 1))
        mv = int(rng.integers(1, n + 1))
        ru = rng.standard_normal((mu, n))
        rv = rng.standard_normal((mv, n))
        U = orthonormalize(ru)
        V = orthonormalize(rv)
        assert distance(U, V) == pytest.approx(_distance_oracle(ru, rv), abs=1e-10)


def test_distance_matches_oracle_random_complex():
    rng = np.random.default_rng(102)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        mu = int(rng.integers(1, n + 1))
        ru = rng.standard_normal((mu, n)) + 1j * rng.standard_normal((mu, n))
        rv = rng.standard_normal((mu, n)) + 1j * rng.standard_normal((mu, n))
        U = orthonormalize(ru)
        V = orthonormalize(rv)
        assert distance(U, V) == pytest.approx(_distance_oracle(ru, rv), abs=1e-10)
        assert _gram_route_distance(U, V) == pytest.approx(distance(U, V), abs=1e-10)


def test_hand_example_plane_vs_tilted_plane():
    # span{e1,e2} against span{e1,(e2+e3)/sqrt2} in R^3: the projections
    # differ by 1/2 on a 2x2 block, squared norm exactly 1.
    U = Subspace(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    V = Subspace(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]) / np.array([[1.0], [math.sqrt(2.0)]]))
    assert distance(U, V) == pytest.approx(1.0, abs=1e-12)
    assert _gram_route_distance(U, V) == pytest.approx(1.0, abs=1e-12)
    th = principal_angles(U, V)
    assert th == pytest.approx([0.0, math.pi / 4], abs=1e-12)


def test_zero_and_full_subspaces():
    z = Subspace.zero(5)
    f = Subspace.full(5)
    assert z.dim == 0 and f.dim == 5
    assert distance(z, f) == pytest.approx(5.0)
    assert np.allclose(f.projection, np.eye(5))
    assert np.allclose(z.projection, np.zeros((5, 5)))
    rng = np.random.default_rng(0)
    U = random_subspace(5, 2, rng)
    assert distance(U, z) == pytest.approx(2.0, abs=1e-12)
    assert distance(U, f) == pytest.approx(3.0, abs=1e-12)


def test_distance_identity_of_indiscernibles():
    rng = np.random.default_rng(7)
    U = random_subspace(6, 3, rng)
    same_span = orthonormalize(rng.standard_normal((3, 3)) @ U.basis)
    assert distance(U, same_span) == pytest.approx(0.0, abs=1e-18)
    assert same_subspace(U, same_span)
    other = random_subspace(6, 3, rng)
    assert not same_subspace(U, other)


def test_validation_rejects_non_finite_bases():
    for bad in (math.nan, math.inf):
        basis = np.eye(2, 4)
        basis[1, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            Subspace(basis)


def test_gram_route_requires_equal_dimensions():
    rng = np.random.default_rng(8)
    U = random_subspace(6, 2, rng)
    V = random_subspace(6, 3, rng)
    # unlike the equal-dimension Gram route, distance takes any dimensions
    assert distance(U, V) >= 1.0 - 1e-12


def test_chordal_and_angle_consistency():
    rng = np.random.default_rng(9)
    for _ in range(25):
        U = random_subspace(7, 3, rng)
        V = random_subspace(7, 3, rng)
        th = principal_angles(U, V)
        assert np.all(np.diff(th) >= -1e-12)  # nondecreasing
        assert np.all(th >= -1e-12) and np.all(th <= math.pi / 2 + 1e-12)
        c = chordal_distance(U, V)
        assert c**2 == pytest.approx(float(np.sum(np.sin(th) ** 2)), abs=1e-9)
        assert distance(U, V) == pytest.approx(2.0 * c**2, abs=1e-9)


def test_complement_projection_and_duality():
    rng = np.random.default_rng(10)
    for n, m in [(5, 2), (8, 3), (6, 6), (4, 0)]:
        U = random_subspace(n, m, rng) if m else Subspace.zero(n)
        Uc = complement(U)
        assert Uc.dim == n - m
        assert np.allclose(U.projection + Uc.projection, np.eye(n), atol=1e-10)
    U = random_subspace(9, 4, rng)
    V = random_subspace(9, 2, rng)
    assert distance(complement(U), complement(V)) == pytest.approx(distance(U, V), abs=1e-9)


def test_direct_sum_dimensions_and_overlap_rejection():
    rng = np.random.default_rng(11)
    U = random_subspace(8, 3, rng)
    E = orthonormalize(rng.standard_normal((2, 8)) + 1j * rng.standard_normal((2, 8)))
    D = direct_sum(U, E)
    assert D.dim == 5
    for part in (U, E):
        assert np.linalg.norm(part.basis @ D.projection - part.basis) < 1e-9
    with pytest.raises(ConfigError, match="intersection is nontrivial"):
        direct_sum(U, U)


def test_sum_of_overlapping_spans_collapses():
    U = Subspace(np.eye(2, 6))
    V = Subspace(np.eye(3, 6))  # contains U
    with pytest.raises(ConfigError, match=r"dim\(U \+ V\) = 3 < 2 \+ 3"):
        direct_sum(U, V)


def test_sum_of_zero_subspaces_promotes_to_complex():
    S = direct_sum(Subspace.zero(5, complex_field=False), Subspace.zero(5))
    assert (S.dim, S.ambient_dim, S.is_complex) == (0, 5, True)
    assert not direct_sum(Subspace.zero(5, False), Subspace.zero(5, False)).is_complex


def test_orthonormalize_drops_dependent_rows():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((2, 7))
    stacked = np.vstack([a, a[0] + a[1], 2.0 * a[0]])
    U = orthonormalize(stacked)
    assert U.dim == 2
    assert np.allclose(U.projection, _projection_oracle(a), atol=1e-9)
    assert orthonormalize(np.zeros((3, 4))).dim == 0


@pytest.mark.parametrize("dtype", [np.float32, np.complex64])
def test_single_precision_input_gives_a_double_basis(dtype):
    rng = np.random.default_rng(13)
    complex_field = np.issubdtype(dtype, np.complexfloating)
    raw = [_gaussian(rng, (2, 6), complex_field).astype(dtype) for _ in range(4)]
    words = [orthonormalize(r) for r in raw]
    want = np.result_type(dtype, np.float64)
    assert all(w.basis.dtype == want for w in words)
    assert orthonormalize(np.zeros((3, 4), dtype=dtype)).basis.dtype == want
    assert Subspace(np.eye(2, 4, dtype=dtype)).basis.dtype == want
    code = SubspaceCode(words)
    table = pairwise(code, code)
    assert table.dtype == np.float64
    assert np.all(np.diagonal(table) < 1e-12)
    assert decode(code, words[2]).codeword_index == 2
    d_min, _ = min_distance_exhaustive(code)
    assert d_min == np.min(table[~np.eye(4, dtype=bool)])


def test_subspace_rejects_non_orthonormal_basis():
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 1.0, 0.0]]))
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 0.0], [1.0, 0.0]]))


def test_basis_is_read_only():
    # the checked constructor and every route that builds orthonormal rows unchecked
    rng = np.random.default_rng(41)
    U = random_subspace(6, 2, rng)
    built = [Subspace(np.eye(2, 4)), U, orthonormalize(rng.standard_normal((3, 6))),
             orthonormalize(np.zeros((2, 6))), complement(U), complement(Subspace.zero(6)),
             complement(Subspace.full(6)), Subspace.zero(6), Subspace.full(6, complex_field=False),
             erase(U, 1, rng), random_error_subspace(U, 2, rng), rotate(U, 0.5, rng)]
    for V in built:
        assert not V.basis.flags.writeable
        with pytest.raises(ValueError):
            V.basis[...] = 0.0


def test_mismatched_ambient_dimensions_raise():
    U = Subspace(np.eye(2, 4))
    V = Subspace(np.eye(2, 5))
    with pytest.raises(ConfigError, match="ambient dimensions differ: 4 vs 5"):
        distance(U, V)


def test_random_subspace_and_unitary_properties():
    rng = np.random.default_rng(13)
    U = random_subspace(10, 4, rng)
    assert U.dim == 4 and U.ambient_dim == 10 and U.is_complex and U.beta == 2
    R = random_subspace(10, 4, rng, complex_field=False)
    assert not R.is_complex and R.beta == 1
    Q = random_unitary(6, rng)
    assert np.allclose(Q @ Q.conj().T, np.eye(6), atol=1e-10)
    # same seed, same draw
    q1 = random_unitary(5, np.random.default_rng(42))
    q2 = random_unitary(5, np.random.default_rng(42))
    assert np.array_equal(q1, q2)


def test_rotation_invariance_small_batch():
    rng = np.random.default_rng(14)
    for _ in range(20):
        U = random_subspace(6, 2, rng)
        V = random_subspace(6, 3, rng)
        Q = random_unitary(6, rng)
        Ur = orthonormalize(U.basis @ Q)
        Vr = orthonormalize(V.basis @ Q)
        assert distance(Ur, Vr) == pytest.approx(distance(U, V), abs=1e-9)
        if U.dim == V.dim:
            assert chordal_distance(Ur, Vr) == pytest.approx(chordal_distance(U, V), abs=1e-9)


def test_two_relaxed_triangle_small_batch():
    rng = np.random.default_rng(15)
    for _ in range(30):
        dims = rng.integers(1, 5, size=3)
        U, V, T = (random_subspace(7, int(m), rng) for m in dims)
        assert distance(U, T) <= 2.0 * (distance(U, V) + distance(V, T)) + 1e-9


def test_direct_sum_distance_is_added_dimension():
    rng = np.random.default_rng(16)
    for _ in range(20):
        U = random_subspace(8, 3, rng)
        T = orthonormalize(rng.standard_normal((2, 8)) @ (np.eye(8) - U.projection))
        assert T.dim == 2
        assert distance(U, direct_sum(U, T)) == pytest.approx(2.0, abs=1e-9)


def test_nested_chain_gives_exact_triangle():
    # for U <= V <= T the projections commute and the relaxed inequality
    # tightens to equality of defects: d(U,T) = d(U,V) + d(V,T)
    rng = np.random.default_rng(17)
    for _ in range(20):
        big = random_subspace(9, 6, rng)
        V = orthonormalize(big.basis[:4])
        U = orthonormalize(big.basis[:2])
        lhs = distance(U, big)
        assert lhs == pytest.approx(distance(U, V) + distance(V, big), abs=1e-9)
        assert lhs == pytest.approx(4.0, abs=1e-9)


def test_sphere_embedding_identities_small_batch():
    rng = np.random.default_rng(18)
    for _ in range(25):
        n = int(rng.integers(2, 10))
        m = int(rng.integers(0, n + 1))
        U = random_subspace(n, m, rng) if m else Subspace.zero(n)
        P = U.projection
        centered = float(np.linalg.norm(P - (m / n) * np.eye(n)) ** 2)
        assert centered == pytest.approx(m * (n - m) / n, abs=1e-9)
        half = float(np.linalg.norm(P - 0.5 * np.eye(n)) ** 2)
        assert half == pytest.approx(n / 4.0, abs=1e-9)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
       st.integers(0, 2 ** 32 - 1), st.booleans())
@example((1, 0), 0, False)
@example((12, 12), 0, False)
@example((12, 0), 0, True)
@example((7, 7), 0, True)
def test_sphere_embedding_identities_property(shape, seed, complex_field):
    n, m = shape
    U = random_subspace(n, m, np.random.default_rng(seed), complex_field)
    P = U.projection
    centered = float(np.linalg.norm(P - (m / n) * np.eye(n)) ** 2)
    assert centered == pytest.approx(m * (n - m) / n, abs=1e-9)
    half = float(np.linalg.norm(P - 0.5 * np.eye(n)) ** 2)
    assert half == pytest.approx(n / 4.0, abs=1e-9)


def test_squared_operator_norm_bound_of_gram_product():
    rng = np.random.default_rng(19)
    for _ in range(25):
        B = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        lhs = float(np.linalg.norm(B.conj().T @ B))
        assert lhs <= float(np.linalg.norm(B)) ** 2 + 1e-9


@pytest.mark.parametrize("complex_field", [False, True])
def test_stacked_distance_kernel_is_its_stack_of_one_bit_for_bit(complex_field):
    # each pair of a stack is computed alone: the same bits as distance() on
    # the pair, for either operand the larger, zero and full dimensions included
    rng = np.random.default_rng(23)
    for n, a, b in [(30, 2, 2), (12, 3, 4), (12, 4, 3), (8, 1, 3), (5, 0, 2), (5, 2, 0),
                    (6, 6, 2), (7, 3, 3), (40, 5, 7)]:
        for count in (1, 2, 5, 32, 33):
            zu = np.stack([random_subspace(n, a, rng, complex_field).basis for _ in range(count)])
            zv = np.stack([random_subspace(n, b, rng, complex_field).basis for _ in range(count)])
            stacked = _residual_distances(zu, zv)
            assert stacked.shape == (count,)
            for i in range(count):
                one = _residual_distances(zu[i:i + 1], zv[i:i + 1])[0]
                assert stacked[i] == one == distance(Subspace(zu[i]), Subspace(zv[i]))


def test_code_bases_stack_codewords_of_one_dimension():
    rng = np.random.default_rng(24)
    code = SubspaceCode([random_subspace(6, m, rng) for m in (2, 1, 2, 0, 2)])
    stack = code.bases(np.array([4, 0, 4]))
    assert stack.shape == (3, 2, 6)
    for basis, i in zip(stack, (4, 0, 4)):
        assert np.array_equal(basis, code[i].basis)
    assert code.bases(np.array([3])).shape == (1, 0, 6)
    with pytest.raises(ConfigError, match="codewords of one dimension only"):
        code.bases(np.array([0, 1]))
