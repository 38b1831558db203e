"""Seeded draws: the batched keyed draws against one substream per key."""

import numpy as np
import pytest

from privlab import haar_unitary, haar_vector, substream
from privlab.sampling import _haar_unitaries, _haar_vectors, _keyed_normals

SEEDS = [0, -1, 2 ** 31 - 1, 2 ** 63 + 5]
INDICES = [0, 20_000, 2 ** 64 - 1]


@pytest.mark.parametrize("shape", [(2, 5), (2, 3, 3)])
@pytest.mark.parametrize("seed", SEEDS)
def test_keyed_normals_are_substream_draws_bit_for_bit(seed, shape):
    # pins the layout of numpy's Philox state that the re-keying writes
    got = _keyed_normals(seed, INDICES, shape)
    want = np.stack([substream(seed, i).normal(size=shape) for i in INDICES])
    assert got.shape == (len(INDICES), *shape)
    assert got.tobytes() == want.tobytes()


def test_keyed_normals_of_no_index_are_empty():
    assert _keyed_normals(3, [], (2, 4)).shape == (0, 2, 4)


def test_keyed_normals_leave_a_live_generator_alone():
    rng = substream(11, 4)
    head = rng.normal(size=6)
    _keyed_normals(11, [4, 5], (2, 3))
    tail = rng.normal(size=6)
    _keyed_normals(11, [4], (6,))
    want = substream(11, 4).normal(size=18)
    assert np.concatenate([head, tail, rng.normal(size=6)]).tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_haar_draws_are_the_single_draws(seed):
    for dim in (1, 2, 5):
        want = np.stack([haar_unitary(dim, substream(seed, i)) for i in INDICES])
        got = _haar_unitaries(_keyed_normals(seed, INDICES, (2, dim, dim)))
        assert got.tobytes() == want.tobytes()
        want = np.stack([haar_vector(dim, substream(seed, i)) for i in INDICES])
        got = _haar_vectors(_keyed_normals(seed, INDICES, (2, dim)))
        assert got.tobytes() == want.tobytes()
