"""Labeled tensor registers: marginals, purification, distances."""

import math
import tracemalloc

import numpy as np
import pytest

from privlab import (CqEnsemble, DensityOperator, HilbertSpace,
                     LinearOperator, Povm, StateVector,
                     fidelity, haar_unitary, helstrom_pair, measure, partial_trace,
                     pure_state_trace_distance, purify, substream,
                     trace_distance, trace_norm, von_neumann_entropy)
from privlab.info_measures import _cq_blocks
from privlab.tensor_core import (AMPLITUDE_CAP, apply_to_vector, embed_operator,
                                 permute_vector, sqrt_psd,
                                 tensor_product, vector_marginal)
from privlab.sampling import random_density_operator, random_pure_state


def naive_partial_trace(dims, labels, matrix, keep):
    """Index-loop oracle for the marginal on ``keep``."""
    keep = tuple(keep)
    kept_axes = [labels.index(x) for x in keep]
    traced_axes = [i for i in range(len(dims)) if labels[i] not in keep]
    kd = [dims[i] for i in kept_axes]
    td = [dims[i] for i in traced_axes]
    out = np.zeros((int(np.prod(kd)), int(np.prod(kd))), dtype=np.complex128)
    t = matrix.reshape(tuple(dims) * 2)
    for ki in np.ndindex(*kd):
        for kj in np.ndindex(*kd):
            acc = 0.0
            for ti in np.ndindex(*td) if td else [()]:
                left = [0] * len(dims)
                right = [0] * len(dims)
                for a, v in zip(kept_axes, ki):
                    left[a] = v
                for a, v in zip(kept_axes, kj):
                    right[a] = v
                for a, v in zip(traced_axes, ti):
                    left[a] = v
                    right[a] = v
                acc += t[tuple(left) + tuple(right)]
            i = int(np.ravel_multi_index(ki, kd)) if kd else 0
            j = int(np.ravel_multi_index(kj, kd)) if kd else 0
            out[i, j] = acc
    return out


def test_hilbert_space_accessors():
    h = HilbertSpace((2, 3, 4), ("A", "B", "C"))
    assert h.dim == 24
    assert h.dim_of("B") == 3
    assert h.axis("C") == 2
    assert tuple(h.dims_of(("C", "A"))) == (4, 2)
    sub = h.restrict(("B", "C"))
    assert sub.labels == ("B", "C") and sub.dims == (3, 4)
    with pytest.raises(ValueError):
        HilbertSpace((2, 2), ("A", "A"))
    with pytest.raises(ValueError):
        HilbertSpace((2, 0), ("A", "B"))
    # exact integer product: an int64 product would wrap to 0 here
    assert HilbertSpace((2 ** 32, 2 ** 32), ("A", "B")).dim == 2 ** 64


def test_state_vector_validation():
    h = HilbertSpace((2,), ("A",))
    with pytest.raises(ValueError):
        StateVector(h, np.array([1.0, 1.0]))
    psi = StateVector(h, np.array([1.0, 0.0]))
    assert abs(psi.overlap(psi) - 1.0) < 1e-12


def test_density_operator_validation():
    h = HilbertSpace((2,), ("A",))
    with pytest.raises(ValueError):
        DensityOperator(h, np.array([[0.9, 0.0], [0.0, 0.3]]))
    with pytest.raises(ValueError):
        DensityOperator(h, np.array([[0.5, 0.5], [-0.5, 0.5]]))
    with pytest.raises(ValueError):
        DensityOperator(h, np.array([[1.4, 0.0], [0.0, -0.4]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_states_reject_non_finite_entries(bad):
    h = HilbertSpace((2,), ("A",))
    with pytest.raises(ValueError, match="finite"):
        StateVector(h, np.array([1.0, bad]))
    with pytest.raises(ValueError, match="finite"):
        DensityOperator(h, np.array([[1.0, bad], [bad, 0.0]]))
    with pytest.raises(ValueError, match="finite"):
        DensityOperator(h, np.array([[bad, 0.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("kind", ["povm", "operator", "ensemble"])
def test_operators_and_ensembles_reject_non_finite_entries(kind, bad):
    h = HilbertSpace((2,), ("A",))
    half = DensityOperator(h, np.eye(2) / 2)
    build = {
        "povm": lambda: Povm((np.diag([1.0, bad]), np.zeros((2, 2)))),
        "operator": lambda: LinearOperator(h, np.diag([1.0, bad])),
        "ensemble": lambda: CqEnsemble(np.array([bad, 0.5]), (half, half)),
    }[kind]
    with pytest.raises(ValueError, match="finite"):
        build()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("helper", [von_neumann_entropy, sqrt_psd, trace_norm,
                                    lambda m: helstrom_pair(m, np.eye(2) / 2)],
                         ids=["von_neumann_entropy", "sqrt_psd", "trace_norm",
                              "helstrom_pair"])
def test_spectral_helpers_reject_non_finite_matrices(helper, bad):
    m = np.eye(2, dtype=np.complex128) / 2
    m[0, 1] = m[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        helper(m)


def test_partial_trace_matches_loop_oracle():
    for seed in range(6):
        dims, labels = (2, 3, 2), ("A", "B", "C")
        rho = random_density_operator(HilbertSpace(dims, labels), substream(seed))
        for keep in (("A",), ("B",), ("A", "C"), ("B", "C"), ("A", "B", "C")):
            want = naive_partial_trace(dims, labels, rho.matrix, keep)
            got = partial_trace(rho, keep)
            assert got.space.labels == tuple(keep)
            assert np.allclose(got.matrix, want, atol=1e-12)


def test_partial_trace_of_pure_product_is_pure():
    a = StateVector(HilbertSpace((2,), ("A",)), np.array([1.0, 0.0]))
    b = StateVector(HilbertSpace((3,), ("B",)), np.array([0.0, 1.0, 0.0]) + 0j)
    ab = a.tensor(b)
    red = partial_trace(ab, ("B",))
    assert np.allclose(red.matrix, np.diag([0.0, 1.0, 0.0]))


def test_vector_marginal_agrees_with_partial_trace():
    for seed in range(6):
        space = HilbertSpace((2, 2, 3), ("A", "B", "E"))
        psi = random_pure_state(space, substream(10 + seed))
        m = vector_marginal(space, psi.amplitudes, ("A", "E"))
        want = partial_trace(psi, ("A", "E")).matrix
        assert np.allclose(m, want, atol=1e-12)


def test_purify_round_trip():
    for seed in range(5):
        space = HilbertSpace((2, 3), ("A", "B"))
        rho = random_density_operator(space, substream(20 + seed), rank=3)
        psi = purify(rho, "E")
        assert "E" in psi.space.labels
        back = partial_trace(psi, ("A", "B"))
        assert np.allclose(back.matrix, rho.matrix, atol=1e-10)


def test_trace_norm_is_singular_value_sum():
    rng = substream(31)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    assert abs(trace_norm(m) - np.linalg.svd(m, compute_uv=False).sum()) < 1e-10


def test_trace_distance_frozen_and_oracle():
    h = HilbertSpace((2,), ("A",))
    zero = DensityOperator(h, np.diag([1.0, 0.0]))
    plus = DensityOperator(h, np.full((2, 2), 0.5))
    # analytic: (1/2)||rho - sigma||_1 = sqrt(2)/2 for |0> vs |+>
    assert abs(trace_distance(zero, plus) - math.sqrt(2) / 2) < 1e-12
    for seed in range(5):
        r = random_density_operator(h, substream(40 + seed))
        s = random_density_operator(h, substream(50 + seed))
        want = 0.5 * np.abs(np.linalg.eigvalsh(r.matrix - s.matrix)).sum()
        assert abs(trace_distance(r, s) - want) < 1e-12


def test_trace_distance_triangle_inequality():
    h = HilbertSpace((3,), ("A",))
    for seed in range(8):
        a = random_density_operator(h, substream(60 + seed))
        b = random_density_operator(h, substream(70 + seed))
        c = random_density_operator(h, substream(80 + seed))
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12


def test_fidelity_pure_states_overlap():
    h = HilbertSpace((2,), ("A",))
    zero = DensityOperator(h, np.diag([1.0, 0.0]))
    plus = DensityOperator(h, np.full((2, 2), 0.5))
    # root fidelity of pure states is |<a|b>|
    assert abs(fidelity(zero, plus) - math.sqrt(0.5)) < 1e-12
    assert abs(fidelity(zero, zero) - 1.0) < 1e-12


def test_fidelity_fuchs_van_de_graaf():
    h = HilbertSpace((3,), ("A",))
    for seed in range(8):
        r = random_density_operator(h, substream(90 + seed))
        s = random_density_operator(h, substream(100 + seed))
        f = fidelity(r, s)
        t = trace_distance(r, s)
        assert 1.0 - f <= t + 1e-10
        assert t <= math.sqrt(max(0.0, 1.0 - f * f)) + 1e-10


def test_pure_state_trace_distance_matches_density():
    # unnormalised convention: Tr|a - b| = 2 * (normalised trace distance)
    space = HilbertSpace((2, 2), ("A", "B"))
    for seed in range(5):
        a = random_pure_state(space, substream(110 + seed))
        b = random_pure_state(space, substream(120 + seed))
        want = 2.0 * trace_distance(a.density(), b.density())
        assert abs(pure_state_trace_distance(a, b) - want) < 1e-9


def test_sqrt_psd_squares_back():
    rng = substream(130)
    for _ in range(4):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = g @ g.conj().T
        r = sqrt_psd(a)
        assert np.allclose(r @ r, a, atol=1e-10)


def test_permute_vector_round_trip():
    space = HilbertSpace((2, 3, 2), ("A", "B", "C"))
    psi = random_pure_state(space, substream(140))
    perm = permute_vector(space, psi.amplitudes, ("C", "A", "B"))
    pspace = HilbertSpace((2, 2, 3), ("C", "A", "B"))
    back = permute_vector(pspace, perm, ("A", "B", "C"))
    assert np.allclose(back, psi.amplitudes)
    # oracle: explicit einsum transpose
    want = psi.amplitudes.reshape(2, 3, 2).transpose(2, 0, 1).reshape(-1)
    assert np.allclose(perm, want)


def test_state_vector_permuted_and_marginal():
    space = HilbertSpace((2, 3), ("A", "B"))
    psi = random_pure_state(space, substream(150))
    flip = psi.permuted(("B", "A"))
    assert flip.space.labels == ("B", "A")
    assert np.allclose(partial_trace(flip, ("A",)).matrix,
                       partial_trace(psi, ("A",)).matrix)
    assert np.allclose(psi.marginal(("B",)).matrix,
                       partial_trace(psi, ("B",)).matrix)


def test_embed_and_apply_operator():
    space = HilbertSpace((2, 3, 2), ("A", "B", "C"))
    rng = substream(160)
    op = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    big = embed_operator(space, op, ("B", "C"))
    psi = random_pure_state(space, substream(161))
    direct = big @ psi.amplitudes
    routed = apply_to_vector(space, psi.amplitudes, op, ("B", "C"))
    assert np.allclose(direct, routed, atol=1e-12)
    # embedding identity on the untouched register
    eye_a = embed_operator(space, np.eye(2), ("A",))
    assert np.allclose(eye_a, np.eye(12))


def test_tensor_product_orders_labels():
    a = random_density_operator(HilbertSpace((2,), ("A",)), substream(170))
    b = random_density_operator(HilbertSpace((3,), ("B",)), substream(171))
    ab = tensor_product(a, b)
    assert ab.space.labels == ("A", "B")
    assert np.allclose(ab.matrix, np.kron(a.matrix, b.matrix))


# ---------------------------------------------------------------------------
# the block-reduction kernel behind partial_trace, measure and the cq blocks


def embedded_measure(rho, povms):
    """Joint outcome probabilities and unnormalised kept blocks, computed by
    embedding every element into the full space and multiplying it by rho."""
    space = rho.space
    measured = {x for labels, _ in povms for x in labels}
    kept = tuple(x for x in space.labels if x not in measured)
    embedded = [[embed_operator(space, e, labels) for e in povm.elements]
                for labels, povm in povms]
    probs = np.zeros(tuple(povm.n_outcomes for _, povm in povms))
    blocks = {}
    for idx in np.ndindex(*probs.shape):
        op = np.eye(space.dim)
        for which, j in enumerate(idx):
            op = op @ embedded[which][j]
        weighted = op @ rho.matrix
        probs[idx] = np.trace(weighted).real
        if kept:
            blocks[idx] = naive_partial_trace(space.dims, space.labels, weighted, kept)
    return probs, blocks


def isometry_povm(m, n_outcomes, rng):
    """Non-projective POVM E_j = W_j^dagger W_j from the blocks of a Haar isometry."""
    w = haar_unitary(m * n_outcomes, rng)[:, :m].reshape(n_outcomes, m, m)
    return Povm(tuple(b.conj().T @ b for b in w))


MEASURE_CASES = [
    ((2, 3, 2), ("A", "B", "C"), [("B",)]),
    ((2, 3, 2), ("A", "B", "C"), [("A",), ("C",)]),
    ((2, 3, 2, 2), ("A", "B", "C", "D"), [("A",), ("B",), ("D",)]),
    ((2, 3, 2, 2), ("A", "B", "C", "D"), [("C", "A"), ("D",)]),
    ((3, 2, 2), ("A", "B", "C"), [("C", "B"), ("A",)]),  # nothing kept
]


@pytest.mark.parametrize("projective", [True, False])
@pytest.mark.parametrize("dims,labels,groups", MEASURE_CASES)
def test_measure_matches_embedded_oracle(dims, labels, groups, projective):
    # each trial measures a mixed state and a pure one, given as amplitudes
    space = HilbertSpace(dims, labels)
    for trial in range(3):
        rng = substream(300, trial)
        rho = random_density_operator(space, rng)
        psi = random_pure_state(space, rng)
        povms = []
        for g in groups:
            m = int(np.prod(space.dims_of(g)))
            povm = (Povm.projective_from_columns(haar_unitary(m, rng)) if projective
                    else isometry_povm(m, 3, rng))
            povms.append((g, povm))
        for state, oracle_rho in ((rho, rho), (psi, psi.density())):
            res = measure(state, povms)
            probs, blocks = embedded_measure(oracle_rho, povms)
            assert res.probs.shape == probs.shape
            assert np.allclose(res.probs, probs, rtol=0.0, atol=1e-12)
            assert set(res.conditionals) == set(blocks)
            for idx, block in blocks.items():
                want = block / probs[idx]
                want = 0.5 * (want + want.conj().T)
                assert np.allclose(res.conditionals[idx].matrix, want, rtol=0.0, atol=1e-12)


def test_pure_state_measure_never_forms_the_density_matrix():
    # d = 16: two 16-outcome POVMs stack 256 kets of 4096 amplitudes, exactly
    # AMPLITUDE_CAP; the D x D matrix alone would take 256 MB
    d = 16
    space = HilbertSpace((d, d, d), ("A", "B", "E"))
    psi = random_pure_state(space, substream(340))
    fourier = np.exp(2j * np.pi * np.outer(np.arange(d), np.arange(d)) / d) / np.sqrt(d)
    povms = [(("A",), Povm.standard_basis(d)),
             (("B",), Povm.projective_from_columns(fourier))]
    tracemalloc.start()
    try:
        res = measure(psi, povms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    amps = psi.amplitudes.reshape(d, d, d)
    want = np.sum(np.abs(np.einsum("bk,abe->ake", fourier.conj(), amps)) ** 2, axis=-1)
    assert np.allclose(res.probs, want, rtol=0.0, atol=1e-12)
    # d = 17 stacks 289 x 4913 kets, over the cap, and is refused before allocating
    space = HilbertSpace((17, 17, 17), ("A", "B", "E"))
    psi = random_pure_state(space, substream(341))
    basis = Povm.standard_basis(17)
    with pytest.raises(ValueError, match=f"above the {AMPLITUDE_CAP} cap"):
        measure(psi, [(("A",), basis), (("B",), basis)])


def test_partial_trace_non_contiguous_keep():
    dims, labels = (2, 3, 2, 3), ("A", "B", "C", "D")
    for trial in range(3):
        rho = random_density_operator(HilbertSpace(dims, labels), substream(320, trial))
        for keep in (("A", "C"), ("B", "D"), ("A", "D"), ("A", "B", "D")):
            want = naive_partial_trace(dims, labels, rho.matrix, keep)
            assert np.allclose(partial_trace(rho, keep).matrix, want,
                               rtol=0.0, atol=1e-12)


def test_cq_blocks_same_for_vector_and_density():
    space = HilbertSpace((3, 2, 3), ("A", "B", "E"))
    for trial in range(3):
        rng = substream(330, trial)
        psi = random_pure_state(space, rng)
        cols = haar_unitary(3, rng)
        for side in (("E",), ("B",), ("B", "E")):
            from_vector = _cq_blocks(psi, "A", cols, side)
            from_density = _cq_blocks(psi.density(), "A", cols, side)
            assert np.allclose(from_vector, from_density, rtol=0.0, atol=1e-12)
            for x in range(3):
                proj = embed_operator(space, np.outer(cols[:, x], cols[:, x].conj()), ("A",))
                want = naive_partial_trace(space.dims, space.labels,
                                           proj @ psi.density().matrix, side)
                assert np.allclose(from_vector[x], want, rtol=0.0, atol=1e-12)

