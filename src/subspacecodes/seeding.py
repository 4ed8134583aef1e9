"""One generator per `simulate` trial: the one ``np.random.default_rng``
builds from the entropy ``[seed, 1, trial]``.

NumPy's ``SeedSequence`` (numpy/random/bit_generator.pyx) splits each
nonnegative integer of the entropy into little-endian uint32 words and
hashes them into a pool of 4 words.  ``hashmix`` xors a word with a running
constant (INIT_A 0x43b0d7e5), multiplies the constant by MULT_A 0x931e8875,
multiplies the word by the new constant and xors in the word's top 16 bits;
``mix(x, y)`` is 0xca01f9dd x - 0x4973f715 y with the same 16-bit fold.  The
first 4 words (zeros past a shorter entropy) fill the pool, every pool word
is mixed into every other, and each entropy word past the pool is mixed
into every pool word.  ``generate_state(4, np.uint64)`` hashes the pool
cyclically into 8 words with a second constant (INIT_B 0x8b51f9dd, times
MULT_B 0x58f38ded) and pairs them as little-endian uint64.  Only the trial
word differs between a run's trials, so the whole run is hashed as columns
of uint32 arrays in one pass; PCG64 then seeds itself from each row in C.
Every operand is ``np.uint32``, so NumPy's casting rules before and after
NEP 50 give the same bits.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_POOL = 4
_U = np.uint32
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED


def _hashmix(value, const: list[int], mult: int):
    """SeedSequence's hash of ``value``; steps the running ``const[0]``."""
    value = value ^ _U(const[0])
    const[0] = const[0] * mult & _MASK32
    value = value * _U(const[0])
    return value ^ value >> _U(16)


def _mix(x, y):
    result = _U(0xCA01F9DD) * x - _U(0x4973F715) * y
    return result ^ result >> _U(16)


def trial_seed_words(seed: int, trials) -> np.ndarray:
    """(T, 4) uint64: ``SeedSequence([seed, 1, trial]).generate_state(4,
    np.uint64)`` for each trial in ``trials`` (integers in [0, 2**32))."""
    trials = np.asarray(trials)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if trials.size and (trials.min() < 0 or trials.max() > _MASK32):
        raise ValueError("trial indices must lie in [0, 2**32)")
    seed_words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    ones = np.ones(trials.shape, dtype=_U)
    entropy = [_U(word) * ones for word in seed_words + [1]] + [trials.astype(_U)]
    padding = [np.zeros_like(ones)] * (_POOL - len(entropy))
    const = [_INIT_A]
    pool = [_hashmix(word, const, _MULT_A) for word in (entropy + padding)[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], const, _MULT_A))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hashmix(word, const, _MULT_A))
    const = [_INIT_B]
    state = [_hashmix(pool[i % _POOL], const, _MULT_B).astype(np.uint64)
             for i in range(2 * _POOL)]
    return np.stack([lo | hi << np.uint64(32) for lo, hi in zip(state[::2], state[1::2])], axis=-1)


class _Words(ISeedSequence):
    """A seed sequence that hands PCG64 one precomputed row of seed words."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _POOL or np.dtype(dtype) != np.uint64:
            raise ValueError("the seed words serve PCG64's generate_state(4, np.uint64) only")
        return self.words


def generators(words: np.ndarray) -> list[np.random.Generator]:
    """One PCG64 ``Generator`` per row of ``trial_seed_words``."""
    # PCG64 reads the 4 words of each row through a raw pointer
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if words.ndim != 2 or words.shape[1] != _POOL:
        raise ValueError(f"seed words must have shape (T, {_POOL}), got {words.shape}")
    return [np.random.Generator(np.random.PCG64(_Words(row))) for row in words]
