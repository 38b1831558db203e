"""Private-state certification: direct distances, conjugate decoders."""

import json
import math

import numpy as np
import pytest

from privlab import (ConjugateBasis, DensityOperator, HilbertSpace,
                     InvariantViolation, Povm, PrivacyReport, StateVector,
                     TwistingOperator, build_private_state, ccq_blocks,
                     ccq_fidelity_to_key, certify_private,
                     epsilon_secret_direct, fidelity, haar_unitary,
                     haar_vector, key_error_rates, maximally_entangled,
                     purify, random_density_operator, random_pure_state,
                     sqrt_psd, star_projective_povm, substream,
                     trace_norm, twisting_conjugate_measurement,
                     twisting_unitary, uhlmann_conjugate_measurement)
from privlab import cli, privacy
from privlab.cli import build_state
from privlab.privacy import _conjugate_key_elements
from conftest import assert_povm, largest_side


def random_private_state(d, shield_dim, seed):
    t = TwistingOperator.random(d, shield_dim, substream(seed))
    xi = StateVector(HilbertSpace((shield_dim,), ("S",)),
                     haar_vector(shield_dim, substream(seed + 5000)))
    return build_private_state(d, t, xi), t


def test_ccq_blocks_of_bell_state():
    phi = maximally_entangled(2)
    blocks = ccq_blocks(phi)
    assert set(blocks) == {(j, k) for j in range(2) for k in range(2)}
    for (j, k), b in blocks.items():
        assert b.shape == (1, 1)
        want = 0.5 if j == k else 0.0
        assert abs(b[0, 0] - want) < 1e-12


def test_ccq_blocks_trace_to_key_distribution():
    psi = random_pure_state(HilbertSpace((2, 2, 3), ("A", "B", "E")),
                            substream(3))
    blocks = ccq_blocks(psi)
    total = sum(float(np.trace(b).real) for b in blocks.values())
    assert total == pytest.approx(1.0, abs=1e-10)
    # oracle: Tr B_jk = <jk| rho_AB |jk>
    rho_ab = psi.marginal(("A", "B")).matrix.reshape(2, 2, 2, 2)
    for (j, k), b in blocks.items():
        assert float(np.trace(b).real) == pytest.approx(
            float(rho_ab[j, k, j, k].real), abs=1e-12)


def test_ccq_blocks_rejects_eve_label_clash():
    rho = DensityOperator(HilbertSpace((2, 2), ("A", "E")), np.eye(4) / 4)
    with pytest.raises(ValueError):
        ccq_blocks(rho)


def test_epsilon_secret_direct_ideal_and_flipped():
    assert epsilon_secret_direct(maximally_entangled(2)) == pytest.approx(
        0.0, abs=1e-12)
    # a merely classically correlated key leaks to the purifying Eve:
    # her conditional states are orthogonal, giving distance 1/2
    cc = DensityOperator(HilbertSpace((2, 2), ("A", "B")),
                         np.diag([0.5, 0.0, 0.0, 0.5]))
    assert epsilon_secret_direct(cc) == pytest.approx(0.5, abs=1e-12)
    # anti-correlated key is maximally far
    anti = DensityOperator(HilbertSpace((2, 2), ("A", "B")),
                           np.diag([0.0, 0.5, 0.5, 0.0]))
    assert epsilon_secret_direct(anti) == pytest.approx(1.0, abs=1e-12)


def test_epsilon_secret_direct_oracle():
    # full trace-distance oracle against the explicitly built ideal ccq
    for seed in range(6):
        psi = random_pure_state(HilbertSpace((2, 2, 2), ("A", "B", "E")),
                                substream(30 + seed))
        blocks = ccq_blocks(psi)
        rho_e = np.sum([b for b in blocks.values()], axis=0)
        d = 2
        de = rho_e.shape[0]
        measured = np.zeros((d * d * de, d * d * de), dtype=np.complex128)
        ideal = np.zeros_like(measured)
        for (j, k), b in blocks.items():
            jk = np.zeros((d * d, d * d))
            jk[j * d + k, j * d + k] = 1.0
            measured += np.kron(jk, b)
            if j == k:
                ideal += np.kron(jk, rho_e / d)
        want = 0.5 * trace_norm(measured - ideal)
        assert epsilon_secret_direct(psi) == pytest.approx(want, abs=1e-10)


def _oracle_blocks(psi, eves):
    # per-block einsum over the explicitly permuted amplitudes
    space = psi.space
    rest = [x for x in space.labels if x not in ("A", "B") + eves]
    order = ["A", "B"] + rest + list(eves)
    arr = psi.amplitudes.reshape(space.dims).transpose([space.axis(x) for x in order])
    w = arr.reshape(space.dim_of("A"), space.dim_of("B"), -1,
                    int(np.prod(space.dims_of(eves))))
    return {(j, k): np.einsum("se,sf->ef", w[j, k], w[j, k].conj())
            for j in range(w.shape[0]) for k in range(w.shape[1])}


def _oracle_ccq_pair(blocks, da, db):
    # explicit measured ccq and its own-marginal ideal key
    rho_e = np.sum(list(blocks.values()), axis=0)
    de = rho_e.shape[0]
    measured = np.zeros((da * db * de,) * 2, dtype=np.complex128)
    ideal = np.zeros_like(measured)
    for (j, k), b in blocks.items():
        jk = np.zeros((da * db, da * db))
        jk[j * db + k, j * db + k] = 1.0
        measured += np.kron(jk, b)
        if j == k:
            ideal += np.kron(jk, rho_e / da)
    return measured, ideal


# (dims, labels, eve_labels, mixed): B larger than A, lab registers besides
# A and B, a two-register environment in scrambled order, and mixed inputs
CCQ_SHAPES = [
    ((2, 3, 3), ("A", "B", "E"), ("E",), False),
    ((2, 2, 3, 2), ("A", "B", "S", "E"), ("E",), False),
    ((2, 3, 2, 2, 3), ("R", "B", "S", "A", "E"), ("E", "R"), False),
    ((3, 4, 2, 2, 2), ("A", "B", "Sq", "E", "R"), ("E", "R"), False),
    ((2, 3, 2), ("A", "B", "S"), ("E",), True),
    ((3, 3), ("A", "B"), ("E", "R"), True),
]


@pytest.mark.parametrize("case", range(len(CCQ_SHAPES)))
def test_ccq_direct_figures_match_explicit_oracle(case):
    dims, labels, eves, mixed = CCQ_SHAPES[case]
    space = HilbertSpace(dims, labels)
    rng = substream(90 + case)
    if mixed:
        state = random_density_operator(space, rng, rank=3)
        psi = purify(state, eves[0])
        oracle_eves = (eves[0],)
    else:
        state = psi = random_pure_state(space, rng)
        oracle_eves = eves
    want_blocks = _oracle_blocks(psi, oracle_eves)
    blocks = ccq_blocks(state, eve_labels=eves)
    assert sorted(blocks) == sorted(want_blocks)
    for key, b in blocks.items():
        np.testing.assert_allclose(b, want_blocks[key], rtol=0, atol=1e-12)
    da, db = space.dim_of("A"), space.dim_of("B")
    measured, ideal = _oracle_ccq_pair(want_blocks, da, db)
    assert epsilon_secret_direct(state, eve_labels=eves) == pytest.approx(
        0.5 * trace_norm(measured - ideal), abs=1e-12)
    if da == db:
        # square roots of the rank-deficient full matrices turn rounding
        # dust of 1e-17 into about 3e-9, so this cross-check is coarser
        assert ccq_fidelity_to_key(state, eve_labels=eves) == pytest.approx(
            fidelity(measured, ideal), abs=1e-8)


def _root_without_dust(b):
    # B_jj is rank-deficient here; a square root would turn its rounding
    # eigenvalues (about 1e-17) into components of about 3e-9
    vals, vecs = np.linalg.eigh(b)
    vals = np.where(vals > 1e-14, vals, 0.0)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def test_ccq_fidelity_matches_block_formula():
    # F = sum_j F(B_jj, rho_E / d) on the block dict, wider B included
    for case, (dims, labels) in enumerate([((2, 3, 2, 3), ("A", "B", "S", "E")),
                                           ((3, 3, 4), ("A", "B", "E"))]):
        psi = random_pure_state(HilbertSpace(dims, labels), substream(110 + case))
        blocks = ccq_blocks(psi)
        d = psi.space.dim_of("A")
        rho_e = np.sum(list(blocks.values()), axis=0)
        root_key = sqrt_psd(rho_e / d)
        want = sum(np.sum(np.linalg.svd(_root_without_dust(blocks[(j, j)]) @ root_key,
                                        compute_uv=False)) for j in range(d))
        assert ccq_fidelity_to_key(psi) == pytest.approx(want, abs=1e-12)


def test_epsilon_secret_direct_guess_register_larger_than_key():
    # B has one extra failure slot holding zero mass: distance unchanged
    phi = maximally_entangled(2)
    amps = np.zeros((2, 3), dtype=np.complex128)
    amps[:, :2] = phi.amplitudes.reshape(2, 2)
    wide = StateVector(HilbertSpace((2, 3), ("A", "B")), amps.reshape(-1))
    assert epsilon_secret_direct(wide) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        epsilon_secret_direct(StateVector(HilbertSpace((3, 2), ("A", "B")),
                                          np.eye(3, 2).reshape(-1) / math.sqrt(2)))


def direct_distance_oracle(state, eve_labels=("E",)):
    """The d-fold formula: off-diagonal traces + sum_j ||B_jj - rho_E / d||_1."""
    blocks = ccq_blocks(state, eve_labels=eve_labels)
    d = state.space.dim_of("A")
    rho_e = np.sum(list(blocks.values()), axis=0)
    total = sum(trace_norm(b - rho_e / d) if j == k else float(np.trace(b).real)
                for (j, k), b in blocks.items())
    return float(min(max(0.5 * total, 0.0), 1.0))


def _state_with_spectrum(dims, labels, spectrum, seed):
    """A density on (dims, labels) with the given eigenvalues, random eigenvectors."""
    space = HilbertSpace(dims, labels)
    vecs = haar_unitary(space.dim, substream(seed))
    lam = np.zeros(space.dim)
    lam[:len(spectrum)] = np.asarray(spectrum) / np.sum(spectrum)
    return DensityOperator(space, (vecs * lam) @ vecs.conj().T)


def _vector_with_env_spectrum(dims, labels, spectrum, seed):
    """A pure state whose environment E has the given spectrum (rank <= lab dim)."""
    space = HilbertSpace(dims, labels)
    lab, e = space.dim // space.dim_of("E"), space.dim_of("E")
    lam = np.asarray(spectrum) / np.sum(spectrum)
    lab_vecs = haar_unitary(lab, substream(seed))[:, :lam.size]
    env_vecs = haar_unitary(e, substream(seed, 1))[:, :lam.size]
    amps = (lab_vecs * np.sqrt(lam)) @ env_vecs.T  # (lab, E), E last
    return StateVector(space, amps.reshape(-1))


def _ccq_shape_state(case):
    dims, labels, eves, mixed = CCQ_SHAPES[case]
    space = HilbertSpace(dims, labels)
    if mixed:
        return random_density_operator(space, substream(90 + case), rank=3), eves
    return random_pure_state(space, substream(90 + case)), eves


_SPLIT = 1e-10  # wider than the clustering window 1e-13 / r: the clusters stay apart
DIRECT_CASES = {
    **{f"werner_d{d}": lambda d=d: (build_state({"kind": "werner", "d": d, "p": 0.9}, 5)[0],
                                    ("E",)) for d in range(2, 13)},
    "werner_d4_pure": lambda: (build_state({"kind": "werner", "d": 4, "p": 1.0}, 5)[0], ("E",)),
    **{f"twisted_d{d}_s{s}": lambda d=d, s=s: (
        build_state({"kind": "twisted", "d": d, "shield_dim": s}, 5)[0], ("E",))
       for d, s in ((2, 2), (3, 4), (4, 8))},
    "twisted_density_d3_s3": lambda: (random_private_state(3, 3, 41)[0], ("E",)),
    "noisy_twisted_d3": lambda: (_noisy_private_state(3, 81, 0.12), ("E",)),
    "shielded_bit": lambda: (build_state({"kind": "shielded_bit", "s": 0.6}, 5)[0], ("E",)),
    "mixed_s3_rank4": lambda: (random_density_operator(
        HilbertSpace((2, 2, 3), ("A", "B", "S")), substream(120), rank=4), ("E",)),
    "mixed_s2_full": lambda: (random_density_operator(
        HilbertSpace((3, 3, 2), ("A", "B", "S")), substream(121)), ("E",)),
    # rho_E of rank 4, one eigenvalue tiny, inside an 8-dimensional environment
    "vector_rank_deficient_env": lambda: (_vector_with_env_spectrum(
        (2, 2, 8), ("A", "B", "E"), [0.5, 0.3, 0.2, 1e-9], 122), ("E",)),
    # degenerate clusters larger than s, next to clusters split by _SPLIT
    "mixed_split_clusters": lambda: (_state_with_spectrum(
        (2, 2, 2), ("A", "B", "S"),
        [0.2] * 3 + [0.2 + _SPLIT, 0.1, 0.1 - _SPLIT, 0.1, 0.05], 123), ("E",)),
    "vector_split_clusters": lambda: (_vector_with_env_spectrum(
        (2, 3, 2, 12), ("A", "B", "S", "E"),
        [0.1] * 4 + [0.1 + _SPLIT, 0.1 - _SPLIT] + [0.03] * 5 + [0.03 + _SPLIT], 124),
        ("E",)),
    **{f"ccq_shape_{case}": lambda case=case: _ccq_shape_state(case)
       for case in range(len(CCQ_SHAPES))},
}


@pytest.mark.parametrize("case", sorted(DIRECT_CASES))
def test_direct_distance_matches_trace_norm_oracle(case):
    state, eves = DIRECT_CASES[case]()
    want = direct_distance_oracle(state, eves)
    assert abs(epsilon_secret_direct(state, eve_labels=eves) - want) <= 1e-12


def test_direct_distance_splits_a_stack_over_the_cap(monkeypatch, factorised):
    # Werner d=5 compresses to 2 x 2 blocks; a cap of 8 allows two per eigvalsh
    state = build_state({"kind": "werner", "d": 5, "p": 0.9}, 5)[0]
    want = epsilon_secret_direct(state)
    monkeypatch.setattr(privacy, "AMPLITUDE_CAP", 8)
    factorised["eigvalsh"].clear()
    assert abs(epsilon_secret_direct(state) - want) <= 1e-15
    assert factorised["eigvalsh"] == [(2, 2)] * 3


def test_environment_marginal_is_budgeted_before_it_is_built():
    # a StateVector's e x e rho_E sits at the cap for e = 1024 and above it for e = 1025
    psi = random_pure_state(HilbertSpace((2, 2, 1024), ("A", "B", "E")), substream(140))
    assert 0.0 < epsilon_secret_direct(psi) <= 1.0
    wide = random_pure_state(HilbertSpace((2, 2, 1025), ("A", "B", "E")), substream(141))
    with pytest.raises(ValueError, match="amplitudes"):
        epsilon_secret_direct(wide)


def test_werner_direct_distance_factorises_only_its_purification(factorised):
    state = build_state({"kind": "werner", "d": 12, "p": 0.9}, 5)[0]
    for shapes in factorised.values():
        shapes.clear()
    eps = epsilon_secret_direct(state)
    assert factorised["eigh"] == [(144, 144)]  # the purification
    assert largest_side(*(v for k, v in factorised.items() if k != "eigh")) < 144
    assert abs(eps - direct_distance_oracle(state)) <= 1e-12


def test_private_states_are_exactly_private():
    for d, seed in ((2, 0), (3, 1)):
        gamma, _ = random_private_state(d, 3, 40 + seed)
        assert epsilon_secret_direct(gamma) == pytest.approx(0.0, abs=1e-10)
        assert ccq_fidelity_to_key(gamma) == pytest.approx(1.0, abs=1e-10)


def test_key_error_rates_on_werner():
    d = 2
    phi = maximally_entangled(d).density()
    for p in (1.0, 0.9, 0.6):
        mat = p * phi.matrix + (1 - p) * np.eye(4) / 4
        rho = DensityOperator(phi.space, mat)
        cb = ConjugateBasis.fourier(d)
        povm = star_projective_povm(cb)
        p_e, p_tilde_e = key_error_rates(rho, cb, povm, povm_labels=("B",))
        # standard-basis agreement: P(a=b) = p + (1-p)/d
        assert p_e == pytest.approx((1 - p) * (1 - 1 / d), abs=1e-10)
        # Werner states are invariant under the conjugate twirl
        assert p_tilde_e == pytest.approx((1 - p) * (1 - 1 / d), abs=1e-10)


def test_star_projective_povm_is_conjugated_basis():
    for d in (2, 3):
        cb = ConjugateBasis.fourier(d)
        povm = star_projective_povm(cb)
        assert_povm(povm, d)
        star = cb.conjugated()
        for y in range(d):
            assert np.allclose(povm.elements[y], star.projector(y), atol=1e-12)


def test_twisting_conjugate_measurement_closure():
    # exact twisted states: the twisting-built decoder nails the conjugate key
    for d, seed in ((2, 2), (3, 3)):
        gamma, t = random_private_state(d, 3, 50 + seed)
        cb = ConjugateBasis.fourier(d)
        povm = twisting_conjugate_measurement(t, cb)
        assert_povm(povm, d * 3)
        p_e, p_tilde_e = key_error_rates(gamma, cb, povm,
                                         povm_labels=("B", "S"))
        assert p_e <= 1e-12
        assert p_tilde_e <= 1e-12


def test_certify_private_report_consistency():
    for d, seed in ((2, 4), (3, 5)):
        gamma, t = random_private_state(d, 2, 60 + seed)
        cb = ConjugateBasis.fourier(d)
        povm = twisting_conjugate_measurement(t, cb)
        rep = certify_private(gamma, cb, povm, povm_labels=("B", "S"))
        assert isinstance(rep, PrivacyReport)
        assert rep.eps_certified == pytest.approx(
            rep.p_e + math.sqrt(rep.p_tilde_e), abs=1e-12)
        assert rep.eps_direct <= rep.eps_certified + 1e-6
        assert rep.eps_direct <= 1e-9


def test_certify_private_default_measurement():
    phi = maximally_entangled(2)
    rep = certify_private(phi.density())
    assert rep.eps_direct == pytest.approx(0.0, abs=1e-10)
    assert rep.p_e == pytest.approx(0.0, abs=1e-10)


def test_certified_bound_holds_for_random_measurements():
    # certified-bound soundness on arbitrary (state, measurement) pairs
    violations = 0
    for seed in range(40):
        d = 2 if seed % 2 == 0 else 3
        sh = 2
        psi = random_pure_state(HilbertSpace((d, d, sh), ("A", "B", "S")),
                                substream(900 + seed))
        rho = psi.density()
        cb = ConjugateBasis.fourier(d)
        cols = __import__("privlab").haar_unitary(d * sh, substream(1900 + seed))
        povm = Povm.projective_from_columns(cols[:, :])
        # collapse the d*sh outcomes onto d guesses cyclically
        grouped = []
        for y in range(d):
            el = np.sum([povm.elements[i] for i in range(d * sh)
                         if i % d == y], axis=0)
            grouped.append(el)
        gp = Povm(tuple(grouped), tuple(range(d)))
        p_e, p_tilde_e = key_error_rates(rho, cb, gp, povm_labels=("B", "S"))
        eps = epsilon_secret_direct(rho)
        if eps > p_e + math.sqrt(p_tilde_e) + 1e-6:
            violations += 1
    assert violations == 0


def test_privacy_report_validation():
    with pytest.raises(InvariantViolation):
        PrivacyReport(p_e=0.0, p_tilde_e=0.0, eps_certified=0.0,
                      eps_direct=0.5, measurement_used="test")
    with pytest.raises(InvariantViolation):
        PrivacyReport(p_e=-0.2, p_tilde_e=0.0, eps_certified=1.0,
                      eps_direct=0.0, measurement_used="test")
    rep = PrivacyReport(p_e=0.1, p_tilde_e=0.04, eps_certified=0.3,
                        eps_direct=0.25, measurement_used="test")
    assert rep.measurement_used == "test"


@pytest.mark.parametrize("bound", [float("nan"), -0.1, float("inf")])
def test_privacy_report_rejects_bad_certified_bound(bound):
    with pytest.raises(InvariantViolation):
        PrivacyReport(p_e=0.1, p_tilde_e=0.01, eps_certified=bound,
                      eps_direct=0.3, measurement_used="test")


def double_loop_conjugate_elements(conj_basis, omega):
    """Oracle: element y has (k, k') block (P*_y)_{k k'} omega(k, k')."""
    d = conj_basis.d
    s = omega(0, 0).shape[0]
    star = conj_basis.conjugated()
    elements = []
    for y in range(d):
        proj = star.projector(y)
        el = np.zeros((d * s, d * s), dtype=np.complex128)
        for k in range(d):
            for kp in range(d):
                el[k * s:(k + 1) * s, kp * s:(kp + 1) * s] = proj[k, kp] * omega(k, kp)
        elements.append(0.5 * (el + el.conj().T))
    return elements


def test_conjugate_povm_assembly_matches_double_loop():
    for seed, (d, s, pad) in enumerate(((2, 3, 2), (3, 2, 3), (4, 2, 1))):
        cb = ConjugateBasis.fourier(d)
        t = TwistingOperator.random(d, s, substream(400 + seed))
        diag = t.diagonal_blocks()
        got = twisting_conjugate_measurement(t, cb).elements
        want = double_loop_conjugate_elements(
            cb, lambda k, kp: diag[k] @ diag[kp].conj().T)
        for a, b in zip(got, want, strict=True):
            assert np.max(np.abs(a - b)) < 1e-12
        # Uhlmann form: lab unitaries W_k compressed onto s of their rows
        ws = [haar_unitary(s * pad, substream(500 + seed, k)) for k in range(d)]
        rows = np.arange(s) * pad
        got = _conjugate_key_elements(cb, np.vstack([w[rows] for w in ws]))
        want = double_loop_conjugate_elements(
            cb, lambda k, kp: (ws[k] @ ws[kp].conj().T)[np.ix_(rows, rows)])
        for a, b in zip(got, want, strict=True):
            assert np.max(np.abs(a - b)) < 1e-12


def test_uhlmann_on_exact_private_state():
    gamma, _ = random_private_state(2, 2, 70)
    rec = uhlmann_conjugate_measurement(gamma)
    assert rec.fidelity == pytest.approx(1.0, abs=1e-8)
    assert rec.p_e <= 1e-9
    assert rec.p_tilde_e <= rec.bound + 1e-6
    assert rec.pad_dim >= 1
    assert_povm(rec.povm, 4)


def test_uhlmann_bound_on_noisy_private_states():
    for d, seed, w in ((2, 80, 0.08), (3, 81, 0.12)):
        gamma, _ = random_private_state(d, 2, seed)
        dim = gamma.space.dim
        mixed = DensityOperator(gamma.space,
                                (1 - w) * gamma.matrix + w * np.eye(dim) / dim)
        eps = float(__import__("privlab").trace_distance(mixed, gamma))
        rec = uhlmann_conjugate_measurement(mixed)
        assert rec.p_tilde_e <= 2 * eps - eps * eps + 1e-6
        assert rec.p_e <= eps + 1e-9
        assert rec.eps <= eps + 1e-9  # Uhlmann eps is the purified distance floor
        assert rec.povm_labels == ("B", "S")


def test_uhlmann_rejects_mismatched_keys():
    rho = DensityOperator(HilbertSpace((2, 3), ("A", "B")), np.eye(6) / 6)
    with pytest.raises(ValueError):
        uhlmann_conjugate_measurement(rho)


def padded_uhlmann_oracle(state, rng=None):
    """The partner built on the padded purification, with dr x dr SVDs.

    A and B are copied onto |0> ancillas of a lab register R of dimension
    dr = s d^2 g, the own-marginal key purification kappa_0 is rotated by
    the polar factor of psi_t^dag kappa_0, the copies are undone, and the
    lab unitaries W_k = polar(M_k pinv(M_0)) are compressed onto s rows.
    With ``rng`` the null-space completion of every SVD is replaced by
    independent Haar unitaries.
    """
    rho = state if isinstance(state, DensityOperator) else state.density()
    space = rho.space
    d = space.dim_of("A")
    cb = ConjugateBasis.fourier(d)
    shield = tuple(x for x in space.labels if x not in ("A", "B"))
    s = math.prod(space.dims_of(shield))
    perm = [space.axis(x) for x in ("A", "B", *shield)]
    n = len(space.dims)
    mat = rho.matrix.reshape(space.dims * 2).transpose(
        perm + [n + a for a in perm]).reshape(space.dim, space.dim)
    psi = purify(DensityOperator(HilbertSpace((d, d, s), ("A", "B", "S")), mat), "E")
    r = psi.space.dim_of("E")
    psi4 = psi.amplitudes.reshape(d, d, s, r)
    g = max(1, math.ceil(r / (d * s)))
    dr = s * d * d * g

    def svd(m):
        u, sv, vh = np.linalg.svd(m)
        if rng is not None:
            q = int(np.sum(sv > 1e-10 * max(float(sv[0]), 1e-300)))
            u, vh = u.copy(), vh.copy()
            if q < u.shape[0]:
                u[:, q:] = u[:, q:] @ haar_unitary(u.shape[0] - q, rng)
                vh[q:] = haar_unitary(u.shape[0] - q, rng) @ vh[q:]
        return u, sv, vh

    psi_t = np.zeros((d, d, r, s, d, d, g), dtype=np.complex128)
    for a in range(d):
        for b in range(d):
            psi_t[a, b, :, :, a, b, 0] = psi4[a, b].T
    psi_t = psi_t.reshape(d * d * r, dr)
    evals, evecs = np.linalg.eigh(np.einsum("absr,abst->rt", psi4, psi4.conj()))
    evals = np.clip(evals, 0.0, None)
    kap0 = np.zeros((d, d, r, dr), dtype=np.complex128)
    for k in range(d):
        for i in range(r):
            kap0[k, k, :, k * r + i] = math.sqrt(evals[i] / d) * evecs[:, i]
    kap0 = kap0.reshape(d * d * r, dr)
    u_x, sing, vh_x = svd(psi_t.conj().T @ kap0)
    fid = float(min(max(np.sum(sing), 0.0), 1.0))
    kp = (kap0 @ (vh_x.conj().T @ u_x.conj().T)).reshape(d, d, r, s, d, d, g)
    mats = [math.sqrt(d) * np.roll(np.roll(kp[k, k], -k, axis=2), -k, axis=3)
            .reshape(r, dr).T for k in range(d)]
    pinv0 = np.linalg.pinv(mats[0], rcond=1e-8)
    ws = []
    for k in range(d):
        u_k, _, vh_k = svd(mats[k] @ pinv0)
        ws.append(u_k @ vh_k)
    rows = np.arange(s) * (d * d * g)
    elements = _conjugate_key_elements(cb, np.vstack([w[rows] for w in ws]))
    rest = np.eye(d * s) - np.sum(elements, axis=0)
    labels = tuple(range(d))
    if float(np.max(np.abs(rest))) > 1e-12:
        elements.append(0.5 * (rest + rest.conj().T))
        labels = labels + ("fail",)
    p_e, p_tilde_e = key_error_rates(rho, cb, Povm(tuple(elements), labels),
                                     povm_labels=("B", *shield))
    eps = float(min(max(1.0 - fid, 0.0), 1.0))
    return {"p_e": p_e, "p_tilde_e": p_tilde_e, "fidelity": fid, "eps": eps,
            "bound": 2.0 * eps - eps * eps, "pad_dim": g}


def _noisy_private_state(d, seed, w):
    gamma, _ = random_private_state(d, 2, seed)
    dim = gamma.space.dim
    return DensityOperator(gamma.space, (1 - w) * gamma.matrix + w * np.eye(dim) / dim)


UHLMANN_CASES = {
    **{f"werner_d{d}": ("werner", {"d": d, "p": 0.9}) for d in range(2, 7)},
    **{f"twisted_d{d}_s{s}": ("twisted", {"d": d, "shield_dim": s})
       for d, s in ((2, 2), (3, 4), (4, 8))},
    "shielded_bit": ("shielded_bit", {"s": 0.6}),
    "noisy_d2": ("noisy", (2, 80, 0.08)),
    "noisy_d3": ("noisy", (3, 81, 0.12)),
}


@pytest.mark.parametrize("case", sorted(UHLMANN_CASES))
def test_uhlmann_blocks_match_padded_oracle(case):
    kind, spec = UHLMANN_CASES[case]
    if kind == "noisy":
        state = _noisy_private_state(*spec)
    else:
        state = build_state({"kind": kind, **spec}, 5)[0]
    rec = uhlmann_conjugate_measurement(state)
    want = padded_uhlmann_oracle(state)
    for key, value in want.items():
        assert abs(getattr(rec, key) - value) <= 1e-12, key
    # the oracle's null-space completion carries no payload
    shuffled = padded_uhlmann_oracle(state, substream(909))
    assert abs(shuffled["p_tilde_e"] - want["p_tilde_e"]) < 1e-12


def test_uhlmann_factorises_only_small_blocks(factorised):
    state = build_state({"kind": "twisted", "d": 4, "shield_dim": 8}, 5)[0]
    rec = uhlmann_conjugate_measurement(state)
    assert rec.p_tilde_e <= rec.bound + 1e-6
    assert not factorised["pinv"]
    assert factorised["svd"]
    assert largest_side(factorised["svd"]) <= 8  # max(s, r) = max(8, 1)


def unitary_private_state(d, t, xi):
    """U (Phi_d (x) xi) U^dag with the assembled (d d s)^2 twisting unitary."""
    base = np.kron(maximally_entangled(d).density().matrix, xi.density().matrix)
    u = twisting_unitary(t).matrix
    return DensityOperator(t.space, u @ base @ u.conj().T)


def test_pure_shield_private_state_matches_twisting_unitary():
    for d, s, seed in ((2, 2, 1), (3, 5, 2), (4, 16, 3)):
        t = TwistingOperator.random(d, s, substream(seed))
        xi = StateVector(HilbertSpace((s,), ("S",)), haar_vector(s, substream(seed, 1)))
        got = build_private_state(d, t, xi)
        want = unitary_private_state(d, t, xi)
        assert got.space == want.space
        assert np.max(np.abs(got.matrix - want.matrix)) <= 1e-12


TWISTED_OPS = [(cmd, d, s, seed)
               for d, s in ((4, 8), (3, 16), (4, 16))
               for cmd in ("projective", "twisting", "uhlmann", "rates")
               for seed in (1, 5, 9)]


@pytest.mark.parametrize("cmd,d,s,seed", TWISTED_OPS)
def test_twisted_cli_payloads_match_the_density_path(cmd, d, s, seed, monkeypatch):
    argv = (["rates"] if cmd == "rates" else ["verify", "--measurement", cmd]) + [
        "--state", "twisted", "--d", str(d), "--shield-dim", str(s), "--seed", str(seed)]
    got = json.loads(cli.run(argv))["results"]
    monkeypatch.setattr(cli, "_private_vector", unitary_private_state)
    want = json.loads(cli.run(argv))["results"]
    assert set(got) == set(want)
    for key, value in want.items():
        if isinstance(value, float):
            # eps_certified is sqrt(p~_e), the square root of rounding dust
            tol = 1e-6 if key == "eps_certified" else 1e-12
            assert abs(got[key] - value) <= tol, key
        else:
            assert got[key] == value, key
