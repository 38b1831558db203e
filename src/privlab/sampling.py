"""Seeded random states, unitaries, and measurements.

The command-line tools derive one substream per trial from a counter-based
generator (philox4x64, keyed by ``(seed, index)``), so re-runs are bitwise
reproducible and trials can be fanned out in any order.  Batched draws
(``_keyed_normals``) re-key one Philox per call with the same ``(seed, index)``
keys instead of building a generator per trial, so every stream is unchanged.
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


def _keyed_normals(seed: int, indices: Sequence[int], shape: tuple[int, ...]) -> np.ndarray:
    """``substream(seed, i).normal(size=shape)`` for each i, stacked (len(indices), *shape).

    One Philox of the call's own is re-keyed per index through its ``state`` setter,
    which skips the entropy-seeded ``SeedSequence`` a new keyed Philox builds unread.
    """
    bits = np.random.Philox(key=0)
    rng, fresh = np.random.Generator(bits), bits.state
    out = np.empty((len(indices), *shape))
    for row, i in zip(out, indices):
        fresh["state"]["key"] = np.array([int(seed) & _MASK, int(i) & _MASK], dtype=np.uint64)
        bits.state = fresh
        row[...] = rng.normal(size=shape)
    return out


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix."""
    return _haar_unitaries(rng.normal(size=(1, 2, dim, dim)))[0]


def _haar_unitaries(normals: np.ndarray) -> np.ndarray:
    """One ``haar_unitary`` per Ginibre draw (T, 2, dim, dim) of real then imaginary
    parts, stacked (T, dim, dim) and factored by one batched QR (one LAPACK call each)."""
    q, r = np.linalg.qr(normals[:, 0] + 1j * normals[:, 1])
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


def haar_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    return _haar_vectors(rng.normal(size=(1, 2, dim)))[0]


def _haar_vectors(normals: np.ndarray) -> np.ndarray:
    """One ``haar_vector`` per draw (T, 2, dim), each row normalised on its own."""
    v = normals[:, 0] + 1j * normals[:, 1]
    for row in v:
        row /= np.linalg.norm(row)
    return v


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

