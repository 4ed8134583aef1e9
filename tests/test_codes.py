"""Code construction tests.

The character-polynomial construction for GF(5), k=2 is rebuilt from scratch
here (two nested coefficient loops, direct complex exponentials) and the
package output is required to match it vector for vector.  Over other fields
the construction is checked bit for bit against a codeword-by-codeword loop
that evaluates each polynomial in the field before taking its trace.
"""

from __future__ import annotations

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_unitary
from subspacecodes import (
    CPCodeSpec,
    FiniteField,
    Subspace,
    SubspaceCode,
    binary_to_lines,
    code_parameters,
    complex_to_real_double,
    cp_construct,
    cp_distance_bound,
    cp_max_k_for_delta,
    cp_min_distance,
    cp_monomial_set,
    cp_simplified_bound,
    distance,
    dual_code,
    line_delta_from_hamming,
    load_code,
    min_distance_exhaustive,
    random_ensemble_code,
    random_subspace,
    save_code,
)
from subspacecodes import codes
from subspacecodes.errors import ConfigError, Infeasible
from subspacecodes.subspaces import TOL_EQUAL, _gaussian, orthonormalize, pairwise


def _cp52_oracle():
    """All 25 normalized character vectors of a*x + b*x^2 over GF(5)."""
    vectors = []
    for a in range(5):
        for b in range(5):
            v = [
                np.exp(2j * np.pi * ((a * x + b * x * x) % 5) / 5) / 2.0
                for x in (1, 2, 3, 4)
            ]
            vectors.append(np.array(v))
    return vectors


def _line_key(vec):
    return tuple(np.round(vec, 9).tolist())


def test_cp_5_2_matches_handwritten_construction():
    code = cp_construct(CPCodeSpec(FiniteField(5), 2))
    assert len(code) == 25
    got = {_line_key(c.basis[0]) for c in code}
    want = {_line_key(v) for v in _cp52_oracle()}
    assert got == want


def test_cp_5_2_min_distance_matches_line_oracle():
    code = cp_construct(CPCodeSpec(FiniteField(5), 2))
    vecs = [c.basis[0] for c in code]
    best = min(
        2.0 * (1.0 - abs(np.vdot(u, v)) ** 2)
        for u, v in itertools.combinations(vecs, 2)
    )
    d_min, pair = min_distance_exhaustive(code)
    assert d_min == pytest.approx(best, abs=1e-12)
    assert d_min == pytest.approx(0.6909830056250521, abs=1e-12)
    assert distance(code[pair[0]], code[pair[1]]) == pytest.approx(
        d_min, abs=1e-12
    )


def _cp_loop_oracle(spec: CPCodeSpec, chi_index: int) -> np.ndarray:
    """Codeword vectors of the CP code under the character chi_j(x) = chi(j x),
    j = chi_index, one polynomial at a time: accumulate f(a) = sum_d c_d a^d
    in the field, then look up chi_j(f(a))."""
    field = spec.field
    q, n = field.q, spec.n
    pts = np.arange(1, q, dtype=np.int64)
    powmat = [field.pow_vec(pts, d) for d in cp_monomial_set(spec)]
    chi = np.full(n, chi_index % q, dtype=np.int64)
    vecs = []
    for coeff in itertools.product(range(q), repeat=len(powmat)):
        acc = np.zeros(n, dtype=np.int64)
        for c, row in zip(coeff, powmat):
            if c:
                acc = field.add_vec(acc, field.mul_vec(np.full(n, c, dtype=np.int64), row))
        vecs.append(field.character_roots[field.trace_table[field.mul_vec(chi, acc)]]
                    * (1.0 / math.sqrt(n)))
    return np.array(vecs)


@pytest.mark.parametrize("p,m,k,chi", [
    (13, 1, 2, 1), (2, 4, 3, 1), (3, 3, 2, 1), (31, 1, 2, 1), (2, 7, 2, 1),
    (7, 1, 4, 1), (5, 2, 3, 1), (7, 1, 3, 3), (3, 2, 4, 5), (2, 3, 5, 6),
])
def test_cp_construct_matches_codeword_loop_bit_for_bit(p, m, k, chi):
    spec = CPCodeSpec(FiniteField(p, m), k)
    got = np.array([w.basis[0] for w in cp_construct(spec)])
    if chi != 1:
        # chi_j(f(a)) = chi((j f)(a)): the row of coefficient tuple c under
        # chi_j is the row of j c under chi; tuples are numbered with the
        # first monomial slowest
        field, q = spec.field, spec.q
        tuples = np.array(list(itertools.product(range(q), repeat=len(cp_monomial_set(spec)))))
        scaled = field.mul_vec(tuples, chi % q)
        got = got[scaled @ q ** np.arange(tuples.shape[1])[::-1]]
    assert np.array_equal(got, _cp_loop_oracle(spec, chi))


def test_cp_first_codeword_is_the_all_ones_line():
    code = cp_construct(CPCodeSpec(FiniteField(7), 3))
    first = code[0].basis[0]
    assert np.allclose(first, np.ones(6) / math.sqrt(6), atol=1e-12)


@pytest.mark.parametrize(
    "p,m,k,expected",
    [
        (5, 1, 2, [1, 2]),
        (7, 1, 3, [1, 2, 3]),
        (3, 2, 4, [1, 2, 4]),
        (2, 3, 5, [1, 3, 5]),
        (3, 1, 2, [1, 2]),
        (2, 2, 3, [1, 3]),
    ],
)
def test_monomial_set_skips_characteristic_multiples(p, m, k, expected):
    spec = CPCodeSpec(FiniteField(p, m), k)
    monomials = cp_monomial_set(spec)
    assert monomials == expected
    assert len(monomials) == math.ceil(k * (p - 1) / p)


def test_code_size_formula_across_fields():
    for p, m in [(3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (2, 3)]:
        field = FiniteField(p, m)
        q = p**m
        for k in range(1, q):
            spec = CPCodeSpec(field, k)
            predicted = q ** len(cp_monomial_set(spec))
            assert predicted == q ** math.ceil(k * (p - 1) / p)
            if predicted <= 700:
                code = cp_construct(spec)
                assert len(code) == predicted
                if m == 1:
                    # prime fields: the character is injective, so distinct
                    # coefficient tuples always give distinct vectors
                    keys = {_line_key(c.basis[0]) for c in code}
                    assert len(keys) == predicted


def test_extension_field_vectors_can_collide_beyond_separation_regime():
    # over GF(8) the character only sees the trace, a 3-to-1 GF(2) map, so
    # 512 degree-5 coefficient tuples produce just 64 distinct sign vectors;
    # the positive-distance regime ((k-1)sqrt(q)+1 < n) is not in force here
    spec = CPCodeSpec(FiniteField(2, 3), 5)
    assert cp_distance_bound(spec) < 0.0
    code = cp_construct(spec)
    assert len(code) == 512
    keys = {_line_key(c.basis[0]) for c in code}
    assert len(keys) == 64


def test_top_degree_monomial_only_shifts_phase():
    # x^(q-1) is constant on the nonzero points, so at k = q - 1 the lines
    # coalesce q-fold even though all vectors stay distinct
    code = cp_construct(CPCodeSpec(FiniteField(3), 2))
    assert len(code) == 9
    keys = {_line_key(c.basis[0]) for c in code}
    assert len(keys) == 9
    d_min, _ = min_distance_exhaustive(code)
    assert d_min == pytest.approx(0.0, abs=1e-12)
    distinct_lines = {
        _line_key(c.basis[0] / (c.basis[0][0] / abs(c.basis[0][0])))
        for c in code
    }
    assert len(distinct_lines) == 3


def test_cp_gram_inequality_pairs():
    # distinct codewords differ by a nonzero polynomial of degree <= k, so
    # the rescaled inner product obeys n*|<u,v>| <= (k-1)sqrt(q) + 1
    for q, k in [(5, 2), (7, 2)]:
        spec = CPCodeSpec(FiniteField(q), k)
        code = cp_construct(spec)
        n = q - 1
        cap = (k - 1) * math.sqrt(q) + 1.0
        vecs = [c.basis[0] for c in code]
        for u, v in itertools.combinations(vecs, 2):
            assert n * abs(np.vdot(u, v)) <= cap + 1e-9


def test_cp_distance_bound_values():
    assert cp_distance_bound(CPCodeSpec(FiniteField(5), 2)) == pytest.approx(
        (5.0 - math.sqrt(5.0)) / 8.0, abs=1e-12
    )
    assert cp_distance_bound(CPCodeSpec(FiniteField(5), 2)) == pytest.approx(
        0.3454915028125263, abs=1e-12
    )
    got = cp_distance_bound(CPCodeSpec(FiniteField(13), 2))
    assert got == pytest.approx(1.0 - (math.sqrt(13.0) + 1.0) ** 2 / 144.0, abs=1e-12)


def test_cp_exhaustive_distance_meets_bound():
    for q, k in [(5, 2), (7, 2), (11, 2)]:
        spec = CPCodeSpec(FiniteField(q), k)
        code = cp_construct(spec)
        d_min, _ = min_distance_exhaustive(code)
        delta = d_min / 2.0  # lines: max dimension 1
        assert delta >= cp_distance_bound(spec) - 1e-9


# (p, m, k): the grid of the acceptance gate on the exhaustive CP distance
@pytest.mark.parametrize("p,m,k", [(5, 1, 2), (7, 1, 2), (7, 1, 3), (11, 1, 2), (13, 1, 2),
                                   (2, 4, 3), (3, 3, 2), (2, 5, 3)])
def test_cp_min_distance_from_one_column_matches_the_exhaustive_search(p, m, k):
    code = cp_construct(CPCodeSpec(FiniteField(p, m), k))
    d_min, _ = min_distance_exhaustive(code, cap=30000)
    assert cp_min_distance(code) == pytest.approx(d_min, rel=0, abs=1e-15)


@pytest.mark.parametrize("p,m,k", [(5, 1, 2), (2, 4, 3), (3, 3, 2)])
def test_cp_codeword_0_is_the_zero_polynomial_line(p, m, k):
    # the one-column d_min takes codeword 0 as u_0, the all-ones vector over sqrt n
    code = cp_construct(CPCodeSpec(FiniteField(p, m), k))
    n = code.ambient_dim
    np.testing.assert_allclose(code[0].basis, np.full((1, n), 1 / math.sqrt(n)), rtol=0,
                               atol=1e-15)


@pytest.mark.parametrize("q", [5, 13, 17, 29, 37, 41, 7, 31, 43])
def test_cp_bound_is_attained_at_k2_exactly_when_q_is_1_mod_4(q):
    # d_min/2 = 1 - max |S|^2 / n^2 over the differences h = a x + b x^2, and
    # S = sum over x != 0 of chi(h(x)) is the complete sum less its x = 0
    # term, 1.  For b != 0 the complete sum is a p-th root of unity times +-g,
    # with g the quadratic Gauss sum: sqrt(q) when q = 1 (mod 4), so a = 0 and
    # a non-square b give S = -sqrt(q) - 1 and the bound is met; i sqrt(q)
    # when q = 3 (mod 4), so |S| < sqrt(q) + 1
    spec = CPCodeSpec(FiniteField(q), 2)
    d_min, _ = min_distance_exhaustive(cp_construct(spec))
    gap = d_min / 2.0 - cp_distance_bound(spec)
    if q % 4 == 1:
        assert abs(gap) <= 1e-15
    else:
        assert gap == pytest.approx({7: 0.08321, 31: 7.702e-4, 43: 1.2367e-4}[q], rel=1e-3)


def test_cp_simplified_bound_value_and_domain():
    q, rate = 101, 0.2
    expected = 1.0 - q * rate**2 / math.log(q) ** 2
    assert cp_simplified_bound(q, rate) == pytest.approx(expected, abs=1e-12)
    assert cp_simplified_bound(q, rate) == pytest.approx(0.8103227378870943, abs=1e-10)
    with pytest.raises(ValueError):
        cp_simplified_bound(10, 0.2)  # not prime
    with pytest.raises(ValueError):
        cp_simplified_bound(101, 0.0)


def test_cp_max_k_for_target_distance():
    for q, expected in [(3, 1), (7, 2), (13, 3), (61, 6), (509, 16)]:
        k = cp_max_k_for_delta(q, 0.5)
        assert k == expected
        field = FiniteField(q)
        assert cp_distance_bound(CPCodeSpec(field, k)) >= 0.5
        if k + 1 < q:
            assert cp_distance_bound(CPCodeSpec(field, k + 1)) < 0.5
    assert cp_max_k_for_delta(3, 0.999) == 0  # unattainable


def _cp_max_k_scan(q, delta_target):
    """The largest k by scanning k = 1, 2, ... up to the first failing bound."""
    n, sq, best = q - 1, math.sqrt(q), 0
    for k in range(1, q):
        if 1.0 - ((k - 1) * sq + 1.0) ** 2 / n**2 < delta_target:
            break
        best = k
    return best


def test_cp_max_k_matches_the_scan():
    primes = [q for q in range(2, 3000) if all(q % d for d in range(2, math.isqrt(q) + 1))]
    for q in primes:
        for delta in (1e-9, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999, 1.0):
            assert cp_max_k_for_delta(q, delta) == _cp_max_k_scan(q, delta)


def test_cp_field_cap_refuses_before_building_tables():
    for p, m, k in [(3, 10, 1), (2, 16, 1), (257, 1, 2)]:
        field = FiniteField(p, m)
        with pytest.raises(Infeasible, match=f"needs at most {4096 * 4095} basis entries"):
            cp_construct(CPCodeSpec(field, k))
        assert field._exp is None


def test_cp_size_and_field_caps():
    with pytest.raises(Infeasible, match="needs at most"):
        cp_construct(CPCodeSpec(FiniteField(13), 12))
    with pytest.raises(Infeasible, match="needs at most"):
        cp_construct(CPCodeSpec(FiniteField(257), 2))  # 16,908,544 basis entries
    with pytest.raises(Infeasible, match="needs at most"):
        cp_construct(CPCodeSpec(FiniteField(2, 13), 1))  # field too big to enumerate
    with pytest.raises(ValueError):
        CPCodeSpec(FiniteField(5), 0)
    with pytest.raises(ValueError):
        CPCodeSpec(FiniteField(5), 5)


def test_cp_other_character_same_geometry():
    # the code evaluated through chi_2(x) = chi(2x) has the same size and
    # minimum distance as the chi_1 code that cp_construct builds
    spec = CPCodeSpec(FiniteField(5), 2)
    base = cp_construct(spec)
    alt = SubspaceCode([Subspace(v[np.newaxis]) for v in _cp_loop_oracle(spec, 2)])
    assert len(alt) == len(base)
    d0, _ = min_distance_exhaustive(base)
    d1, _ = min_distance_exhaustive(alt)
    assert d1 == pytest.approx(d0, abs=1e-9)


def test_binary_even_weight_code_gives_four_equidistant_lines():
    code = binary_to_lines(["000", "011", "101", "110"])
    assert len(code) == 4
    assert code.ambient_dim == 3
    # oracle: +-1 vectors, normalized; squared line distance 2(1-<u,v>^2)
    vecs = []
    for word in ("000", "011", "101", "110"):
        v = np.array([1.0 if ch == "0" else -1.0 for ch in word]) / math.sqrt(3.0)
        vecs.append(v)
    for u, v in itertools.combinations(vecs, 2):
        assert 2.0 * (1.0 - np.dot(u, v) ** 2) == pytest.approx(16.0 / 9.0, abs=1e-12)
    d_min, _ = min_distance_exhaustive(code)
    assert d_min == pytest.approx(16.0 / 9.0, abs=1e-12)


def test_binary_lines_collapse_complement_pairs():
    code = binary_to_lines(["0000", "1111", "0011", "1100"])
    assert len(code) == 2
    listy = binary_to_lines([[0, 0, 1, 1], [0, 1, 0, 1]])
    assert len(listy) == 2
    with pytest.raises(ConfigError, match="word of length 4, expected 3"):
        binary_to_lines(["001", "0011"])


def test_binary_codebook_given_as_one_string_is_refused():
    # iterating "0110" would read four one-bit words: one codeword in R^1
    with pytest.raises(ValueError, match="sequence of words"):
        binary_to_lines("0110")
    with pytest.raises(ValueError, match="sequence of words"):
        binary_to_lines("0110", 4)
    assert len(binary_to_lines(("0110", "0011"))) == 2


def test_line_distance_from_crossover_fraction():
    assert line_delta_from_hamming(0.0) == pytest.approx(0.0)
    assert line_delta_from_hamming(0.5) == pytest.approx(1.0)
    assert line_delta_from_hamming(1.0) == pytest.approx(0.0)
    assert line_delta_from_hamming(0.25) == pytest.approx(0.75, abs=1e-12)
    gammas = np.linspace(0.0, 0.5, 20)
    vals = [line_delta_from_hamming(float(g)) for g in gammas]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    with pytest.raises(ConfigError, match=r"must lie in \[0, 1\]"):
        line_delta_from_hamming(1.2)
    # consistency with actual binary lines: distance = 2(1 - (1-2g)^2) ... no,
    # the normalized line distance for crossover g*n bits is 1-(1-2g)^2
    u = binary_to_lines(["000000"])[0]
    v = binary_to_lines(["110000"])[0]
    assert distance(u, v) / 2.0 == pytest.approx(
        line_delta_from_hamming(2.0 / 6.0), abs=1e-12
    )


def test_random_ensemble_properties():
    rng = np.random.default_rng(7)
    code = random_ensemble_code(12, 3, 50, rng)
    assert len(code) == 50
    assert all(c.dim == 3 and c.ambient_dim == 12 for c in code)
    d_min, _ = min_distance_exhaustive(code)
    assert d_min > 0.0
    again = random_ensemble_code(12, 3, 50, np.random.default_rng(7))
    assert all(
        np.array_equal(a.basis, b.basis)
        for a, b in zip(code, again)
    )
    real = random_ensemble_code(6, 2, 5, rng, complex_field=False)
    assert not real[0].is_complex


def test_random_ensemble_matches_a_restacking_loop():
    # the reference re-stacks every accepted word for each candidate
    for n, m, M, complex_field in [(12, 3, 50, True), (6, 2, 5, False)]:
        rng = np.random.default_rng(11)
        words = []
        while len(words) < M:
            cand = random_subspace(n, m, rng, complex_field)
            if not words or np.all(pairwise(SubspaceCode([cand]), SubspaceCode(words))
                                   > TOL_EQUAL):
                words.append(cand)
        code = random_ensemble_code(n, m, M, np.random.default_rng(11), complex_field)
        assert all(a.basis.tobytes() == b.basis.tobytes() for a, b in zip(code, words))


def test_random_ensemble_retry_guard():
    # in a 1-dimensional ambient space every line is the same line
    with pytest.raises(Infeasible, match="could not draw 2 distinct subspaces"):
        random_ensemble_code(1, 1, 2, np.random.default_rng(0))


def _per_candidate_ensemble(n, m, M, rng, complex_field):
    """The ensemble drawn one candidate at a time, each orthonormalized by
    its own SVD and screened by its own pairwise() row: the loop that
    random_ensemble_code's batches replace."""
    buf = np.empty((M * m, n), dtype=complex if complex_field else float)
    code = SubspaceCode._from_rows(buf.view(), np.full(M, m, dtype=np.intp))
    for i in range(M):
        for _ in range(codes.ENSEMBLE_MAX_RETRIES):
            cand = orthonormalize(_gaussian(rng, (m, n), complex_field))
            assert cand.dim == m
            if i == 0 or np.all(pairwise(SubspaceCode([cand]), code.part(0, i)) > TOL_EQUAL):
                buf[i * m:(i + 1) * m] = cand.basis
                break
        else:
            raise Infeasible(f"could not draw {M} distinct subspaces")
    return code


def _drawn(draw, n, m, M, seed, complex_field):
    """(rows or None if the draw gave up, rows dtype, generator state after)."""
    rng = np.random.default_rng(seed)
    try:
        rows = draw(n, m, M, rng, complex_field).rows
        got = (rows.tobytes(), rows.dtype, rows.shape)
    except Infeasible:
        got = None
    return got, rng.bit_generator.state


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 12), data=st.data(), M=st.integers(2, 40),
       complex_field=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_random_ensemble_batches_draw_what_the_per_candidate_loop_draws(
        n, data, M, complex_field, seed):
    # same rows, same bytes and the generator left in the same state, also
    # when both give up (m = n, or n = 1: every draw spans the same space)
    m = data.draw(st.integers(1, n), label="m")
    want = _drawn(_per_candidate_ensemble, n, m, M, seed, complex_field)
    assert _drawn(random_ensemble_code, n, m, M, seed, complex_field) == want


@pytest.mark.parametrize("per_batch", [1, 3])
@pytest.mark.parametrize("n, m, M, complex_field", [(30, 3, 40, True), (5, 2, 17, False)])
def test_random_ensemble_small_batches_give_the_same_bytes(per_batch, n, m, M, complex_field):
    want = _drawn(random_ensemble_code, n, m, M, 8, complex_field)
    sizes = []
    draw = codes._random_bases

    def recorded(n, m, count, rng, complex_field):
        sizes.append(count)
        return draw(n, m, count, rng, complex_field)

    # a table row against all M codewords is 8 M bytes
    with mock.patch.object(codes, "_BLOCK_BYTES", 8 * M * per_batch), \
            mock.patch.object(codes, "_random_bases", recorded):
        got = _drawn(random_ensemble_code, n, m, M, 8, complex_field)
    assert got == want
    assert set(sizes[:-1]) == {per_batch} and 1 <= sizes[-1] <= per_batch


@pytest.mark.parametrize("n, m", [(1, 1), (2, 2)])
def test_random_ensemble_gives_up_when_every_draw_spans_the_same_space(n, m):
    for complex_field in (True, False):
        rng = np.random.default_rng(4)
        with pytest.raises(Infeasible, match=f"m = {m}, n = {n}"):
            random_ensemble_code(n, m, 3, rng, complex_field)


def test_random_ensemble_rejects_a_repeated_span_on_another_basis():
    rng = np.random.default_rng(2)
    first = random_subspace(6, 2, rng)
    again = Subspace(random_unitary(2, rng) @ first.basis)
    other = random_subspace(6, 2, rng)
    assert 0.0 < distance(first, again) < 1e-12  # equal up to roundoff only
    draws = iter([first, again, other])
    with mock.patch.object(codes, "_random_bases", lambda n, m, count, *args: np.stack(
            [next(draws).basis for _ in range(count)])):
        code = random_ensemble_code(6, 2, 2, rng)
    assert [w.basis.tobytes() for w in code] == [first.basis.tobytes(), other.basis.tobytes()]


def test_dual_code_preserves_distances():
    rng = np.random.default_rng(11)
    code = random_ensemble_code(8, 3, 12, rng)
    dual = dual_code(code)
    assert all(c.dim == 5 for c in dual)
    for i in (0, 3, 7):
        for j in (1, 5, 11):
            assert distance(dual[i], dual[j]) == pytest.approx(
                distance(code[i], code[j]), abs=1e-9
            )
    d0, _ = min_distance_exhaustive(code)
    d1, _ = min_distance_exhaustive(dual)
    assert d1 == pytest.approx(d0, abs=1e-9)


def test_real_doubling_doubles_distances():
    code = cp_construct(CPCodeSpec(FiniteField(5), 2))
    doubled = complex_to_real_double(code)
    assert doubled.ambient_dim == 8
    assert len(doubled) == 25
    assert all(not c.is_complex and c.dim == 2 for c in doubled)
    d0, _ = min_distance_exhaustive(code)
    d1, _ = min_distance_exhaustive(doubled)
    assert d1 == pytest.approx(2.0 * d0, abs=1e-9)
    for i, j in [(0, 1), (2, 17), (5, 24)]:
        assert distance(doubled[i], doubled[j]) == pytest.approx(
            2.0 * distance(code[i], code[j]), abs=1e-9
        )
    # normalized min distance is invariant: both d/(2l) agree
    assert d1 / (2 * 2) == pytest.approx(d0 / (2 * 1), abs=1e-9)


def test_code_parameters_frozen_for_cp_5_2():
    code = cp_construct(CPCodeSpec(FiniteField(5), 2))
    params = code_parameters(code, min_distance_exhaustive(code)[0])
    assert params.ambient_dim == 4
    assert params.max_dim == 1
    assert params.size == 25
    assert params.normalized_weight == pytest.approx(0.25)
    assert params.rate == pytest.approx(math.log(25.0) / 4.0, abs=1e-12)
    assert params.normalized_min_distance == pytest.approx(
        params.min_distance / 2.0, abs=1e-15
    )


def test_exhaustive_search_cap():
    code = cp_construct(CPCodeSpec(FiniteField(5), 2))
    with pytest.raises(Infeasible, match="25 codewords exceed the exhaustive search cap 10"):
        min_distance_exhaustive(code, cap=10)


def test_search_cap_holds_on_every_call():
    # a code keeps no minimum distance, so a second call with a lower cap is refused too
    code = random_ensemble_code(6, 2, 20, np.random.default_rng(5))
    d_min, pair = min_distance_exhaustive(code, 100)
    with pytest.raises(Infeasible, match="20 codewords exceed the exhaustive search cap 5"):
        min_distance_exhaustive(code, 5)
    assert min_distance_exhaustive(code, 20) == (d_min, pair)


def test_distances_to_agrees_with_scalar_loop():
    rng = np.random.default_rng(13)
    from subspacecodes import random_subspace

    code = random_ensemble_code(9, 3, 8, rng)
    received = random_subspace(9, 4, rng)
    got = code.distances_to(received)
    want = [distance(c, received) for c in code]
    assert np.allclose(got, want, atol=1e-10)
    # mixed dimensions use the slow path but must agree too
    mixed = SubspaceCode(
        [random_subspace(9, m, rng) for m in (1, 2, 3, 3, 4)]
    )
    got = mixed.distances_to(received)
    want = [distance(c, received) for c in mixed]
    assert np.allclose(got, want, atol=1e-10)
    assert not mixed.is_constant_dimension


def test_code_rejects_mixed_ambients():
    with pytest.raises(ConfigError, match="codewords live in different ambient spaces"):
        SubspaceCode([Subspace(np.eye(1, 4)), Subspace(np.eye(1, 5))])


def test_json_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    code = random_ensemble_code(6, 2, 9, rng)
    path = tmp_path / "code.json"
    save_code(code, path)
    loaded = load_code(path)
    assert len(loaded) == 9
    for a, b in zip(code, loaded):
        assert np.array_equal(a.basis, b.basis)
    # saving again is byte identical
    path2 = tmp_path / "again.json"
    save_code(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_json_round_trip_real_code(tmp_path):
    code = binary_to_lines(["0000", "0011", "0101"])
    path = tmp_path / "real.json"
    save_code(code, path)
    loaded = load_code(path)
    assert not loaded[0].is_complex
    assert loaded[0].beta == 1


def test_loader_rejects_tampered_file(tmp_path):
    import json

    code = binary_to_lines(["0000", "0011"])
    path = tmp_path / "code.json"
    save_code(code, path)
    blob = json.loads(path.read_text())
    blob["codewords"][0][0][0] = 3.0  # breaks unit norm
    path.write_text(json.dumps(blob))
    with pytest.raises(ValueError):
        load_code(path)
