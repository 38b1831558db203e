"""Seeded random states, unitaries, and measurements.

The command-line tools derive one substream per trial from a counter-based
generator (philox4x64, keyed by ``(seed, index)``), so re-runs are bitwise
reproducible and trials can be fanned out in any order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .tensor_core import DensityOperator, HilbertSpace, StateVector

_MASK = (1 << 64) - 1


def substream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator for trial ``index`` of run ``seed``."""
    key = np.array([int(seed) & _MASK, int(index) & _MASK], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    return _haar_unitaries(dim, [rng])[0]


def _haar_unitaries(dim: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """One ``haar_unitary`` per generator, stacked (len(rngs), dim, dim).

    Each generator draws its own Ginibre matrix; one batched QR (the same
    LAPACK call per matrix) factors them all.
    """
    g = np.stack([rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                  for rng in rngs])
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


def haar_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_pure_state(space: HilbertSpace, rng: np.random.Generator) -> StateVector:
    return StateVector(space, haar_vector(space.dim, rng))


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Density matrix from a normalised Wishart draw of the given rank."""
    rank = dim if rank is None else int(rank)
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_density_operator(space: HilbertSpace, rng: np.random.Generator,
                            rank: int | None = None) -> DensityOperator:
    return DensityOperator(space, random_density(space.dim, rng, rank))

