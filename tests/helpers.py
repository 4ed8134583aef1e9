"""Helpers shared by the tests: a Haar-random unitary and subspace equality
up to tolerance, which the package itself does not need."""

from __future__ import annotations

import numpy as np

from subspacecodes import Subspace, distance
from subspacecodes.subspaces import TOL_EQUAL, _gaussian


def random_unitary(n: int, rng: np.random.Generator,
                   complex_field: bool = True) -> np.ndarray:
    """Haar-distributed unitary (orthogonal when real) n x n matrix."""
    q, r = np.linalg.qr(_gaussian(rng, (n, n), complex_field))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def same_subspace(U: Subspace, V: Subspace) -> bool:
    """Equality up to numerical tolerance: distance below TOL_EQUAL."""
    return distance(U, V) < TOL_EQUAL
