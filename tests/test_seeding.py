"""The vectorised trial seeding against NumPy's own `default_rng`.

`simulate` seeds trial ``trial`` of a run as ``default_rng([seed, 1, trial])``.
`seeding` computes every trial's PCG64 seed words in one pass instead, so
each generator here must carry the same state and draw the same numbers as
the per-trial `default_rng` it replaces.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspacecodes.seeding import _Words, generators, trial_seed_words

# seeds of 2**64 and above give entropy longer than SeedSequence's 4-word pool
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**70, 2**96 + 3]
TRIALS = [0, 1, 31, 32, 33, 4095, 9999]


def _assert_same_generator(rng: np.random.Generator, seed: int, trial: int) -> None:
    oracle = np.random.default_rng([seed, 1, trial])
    assert rng.bit_generator.state == oracle.bit_generator.state
    assert rng.integers(961, size=3).tolist() == oracle.integers(961, size=3).tolist()
    assert rng.standard_normal(5).tobytes() == oracle.standard_normal(5).tobytes()
    assert rng.bit_generator.state == oracle.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
def test_generators_match_default_rng(seed):
    words = trial_seed_words(seed, TRIALS)
    assert words.shape == (len(TRIALS), 4) and words.dtype == np.uint64
    for trial, row, rng in zip(TRIALS, words, generators(words)):
        expected = np.random.SeedSequence([seed, 1, trial]).generate_state(4, np.uint64)
        assert row.tolist() == expected.tolist()
        _assert_same_generator(rng, seed, trial)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**80 - 1), trial=st.integers(0, 2**32 - 1))
def test_generators_match_default_rng_property(seed, trial):
    (rng,) = generators(trial_seed_words(seed, [trial]))
    _assert_same_generator(rng, seed, trial)


def test_a_run_of_trials_is_one_row_per_trial():
    words = trial_seed_words(7, np.arange(100))
    assert np.array_equal(words[37:38], trial_seed_words(7, [37]))
    assert trial_seed_words(7, []).shape == (0, 4)


@pytest.mark.parametrize("seed, trials", [(-1, [0]), (-(2**40), [0]), (1, [-1]), (1, [2**32])])
def test_out_of_range_entropy_is_refused(seed, trials):
    with pytest.raises(ValueError):
        trial_seed_words(seed, trials)


def test_generators_take_only_rows_of_four_words():
    words = trial_seed_words(5, np.arange(6))
    for bad in (words[0], words[:, :3], words.reshape(3, 8)):
        with pytest.raises(ValueError):
            generators(bad)
    # a strided view is copied to contiguous rows first
    strided = [rng.bit_generator.state for rng in generators(words[::2])]
    assert strided == [np.random.default_rng([5, 1, trial]).bit_generator.state for trial in (0, 2, 4)]


def test_the_seed_words_serve_only_pcg64s_request():
    seed_seq = _Words(trial_seed_words(3, [0])[0])
    assert np.array_equal(seed_seq.generate_state(4, np.uint64), trial_seed_words(3, [0])[0])
    for n_words, dtype in [(8, np.uint32), (2, np.uint64), (4, np.uint32)]:
        with pytest.raises(ValueError):
            seed_seq.generate_state(n_words, dtype)
