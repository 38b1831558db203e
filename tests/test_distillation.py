"""Rates, one-shot distillation, coherent hashing chain, two-copy scenario."""

import json
import math

import numpy as np
import pytest

import privlab
from privlab import (ConjugateBasis, CqEnsemble, CssCode, DensityOperator, HilbertSpace,
                     InvariantViolation, Povm, RateBreakdown, StateVector,
                     build_css_decoders, coherent_hashing_sim,
                     coherent_information, distillable_rate, extend_with_copy,
                     haar_unitary, holevo_information, maximally_entangled,
                     one_shot_distill, partial_trace,
                     pure_state_trace_distance, purify,
                     random_density_operator, random_pure_state,
                     sample_universal_css, shannon_entropy, shielded_bit_state,
                     substream, tensor_power_grouped, two_copy_scenario)
from privlab import distillation, privacy, tensor_core
from privlab.cli import build_state, run
from privlab.cli import build_code
from privlab.distillation import (_canonical_pure, _chain_distance, _code_tables,
                                  _encode, _extract, _gram, _guess_error, _logical_weight)
from conftest import largest_side


def werner(p, d=2):
    phi = maximally_entangled(d).density()
    dim = d * d
    return DensityOperator(phi.space,
                           p * phi.matrix + (1 - p) * np.eye(dim) / dim)


def shield_pair(s):
    phi0 = np.array([1.0, 0.0])
    phi1 = np.array([s, math.sqrt(1.0 - s * s)])
    return phi0, phi1


def test_distillable_rate_bell():
    rb = distillable_rate(maximally_entangled(2))
    assert rb.rate == pytest.approx(1.0, abs=1e-9)
    assert rb.ck_rate == pytest.approx(1.0, abs=1e-9)
    assert rb.coherent_info == pytest.approx(1.0, abs=1e-9)
    assert rb.h_z == pytest.approx(1.0, abs=1e-9)
    assert rb.i_ze == pytest.approx(0.0, abs=1e-9)
    assert rb.identity_residual <= 1e-10


def test_rate_identity_on_random_pure_states():
    # I(X:CBS) = H(Z) - I(Z:E) for globally pure inputs
    for seed in range(25):
        psi = random_pure_state(HilbertSpace((2, 2, 2, 2),
                                             ("A", "B", "S", "E")),
                                substream(100 + seed))
        rb = distillable_rate(psi)
        assert rb.identity_residual <= 1e-10
        assert rb.rate == pytest.approx(rb.ck_rate, abs=1e-8)


def test_ck_rate_matches_coherent_information_of_marginal():
    for seed in range(20):
        d = (2, 3)[seed % 2]
        psi = random_pure_state(HilbertSpace((d, d, d), ("A", "B", "E")),
                                substream(200 + seed))
        rho = partial_trace(psi, ("A", "B"))
        want = coherent_information(rho, target="B")
        assert distillable_rate(rho).ck_rate == pytest.approx(want, abs=1e-8)


def test_rate_is_reported_even_when_negative():
    # maximally mixed: I(Z:B) = 0 while the purifying Eve reads Z perfectly
    # from her half, so I(Z:E) = 1 and ck_rate = -1 (no clamping)
    mm = DensityOperator(HilbertSpace((2, 2), ("A", "B")), np.eye(4) / 4)
    rb = distillable_rate(mm)
    assert rb.coherent_info == pytest.approx(-1.0, abs=1e-9)
    assert rb.ck_rate == pytest.approx(-1.0, abs=1e-9)
    assert rb.i_zb == pytest.approx(0.0, abs=1e-9)


def ensemble_rate_oracle(state, conj_basis=None) -> RateBreakdown:
    """The rate bound from conditional-state ensembles, one density per outcome."""
    psi = _canonical_pure(state)
    space = psi.space
    d = space.dim_of("A")
    if conj_basis is None:
        conj_basis = ConjugateBasis.fourier(d)
    shield = tuple(x for x in space.labels if x not in ("A", "B", "E"))
    has_e = "E" in space.labels

    ens_zb = loop_ensemble(psi, None, ("B",))
    i_zb = holevo_information(ens_zb)
    h_z = shannon_entropy(ens_zb.probs)
    i_ze = holevo_information(loop_ensemble(psi, None, ("E",))) if has_e else 0.0
    ens_x = loop_ensemble(psi, conj_basis.vectors, ("C", "B") + shield, copy_a=True)
    i_x_cbs = holevo_information(ens_x)

    lab = psi.marginal(("A", "B") + shield)
    coherent_info = coherent_information(lab, target=("B",) + shield)
    rate = i_zb - h_z + i_x_cbs
    return RateBreakdown(i_zb=i_zb, i_ze=i_ze, h_z=h_z, i_x_cbs=i_x_cbs,
                         rate=rate, ck_rate=i_zb - i_ze,
                         coherent_info=coherent_info,
                         identity_residual=abs(i_x_cbs - (h_z - i_ze)))


def _haar_phase_basis(d, seed):
    """A conjugate basis that is not Fourier: Fourier columns with Haar row phases."""
    u = haar_unitary(d, substream(seed))
    x, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return ConjugateBasis(d, 2.0 * np.pi * x * k / d + np.angle(u[0])[None, :])


RATE_CASES = {
    **{f"werner_d{d}": lambda d=d: (werner(0.9, d), None) for d in range(2, 7)},
    "bell_d3": lambda: (maximally_entangled(3), None),
    "shielded_bit": lambda: (build_state({"kind": "shielded_bit", "s": 0.6}, 0)[0], None),
    **{f"twisted_d{d}_s{s}": lambda d=d, s=s: (
        build_state({"kind": "twisted", "d": d, "shield_dim": s}, 5)[0], None)
       for d, s in ((2, 2), (3, 5), (4, 16))},
    "mixed_abs": lambda: (random_density_operator(
        HilbertSpace((2, 3, 2), ("A", "B", "S")), substream(61)), None),
    "vector_with_e": lambda: (random_pure_state(
        HilbertSpace((3, 2, 3, 2), ("E", "A", "S", "B")), substream(62)), None),
    "haar_phase_basis": lambda: (random_pure_state(
        HilbertSpace((3, 3, 2, 2), ("A", "B", "S", "E")), substream(63)),
        _haar_phase_basis(3, 64)),
}


@pytest.mark.parametrize("case", sorted(RATE_CASES))
def test_rates_match_the_ensemble_oracle(case):
    state, basis = RATE_CASES[case]()
    got = distillable_rate(state, basis)
    want = ensemble_rate_oracle(state, basis)
    for field, value in vars(want).items():
        assert abs(getattr(got, field) - value) <= 1e-12, field


def test_twisted_rates_factorise_only_small_blocks(factorised, monkeypatch):
    purified = []
    for mod in (privlab, tensor_core, privacy, distillation):
        monkeypatch.setattr(mod, "purify",
                            lambda *a, _f=mod.purify, **k: purified.append(1) or _f(*a, **k))
    res = json.loads(run(["rates", "--state", "twisted", "--d", "4",
                          "--shield-dim", "16", "--seed", "1"]))["results"]
    assert res["identity_residual"] <= 1e-10
    assert not purified
    assert largest_side(factorised["eigvalsh"], factorised["eigh"],
                        factorised["svd"]) <= 16


def test_tensor_power_grouped_layout():
    psi = random_pure_state(HilbertSpace((2, 3), ("A", "B")), substream(7))
    two = tensor_power_grouped(psi, 2)
    assert two.space.dims == (4, 9)
    assert two.space.labels == ("A", "B")
    # oracle: copy-major grouping of the kron square
    a = psi.amplitudes.reshape(2, 3)
    want = np.einsum("ab,cd->acbd", a, a).reshape(-1)
    assert np.allclose(two.amplitudes, want, atol=1e-12)


def test_extend_with_copy():
    psi = random_pure_state(HilbertSpace((2, 2), ("A", "B")), substream(8))
    ext = extend_with_copy(psi)
    assert ext.space.labels == ("A", "C", "B")
    amps = ext.amplitudes.reshape(2, 2, 2)
    orig = psi.amplitudes.reshape(2, 2)
    for a in range(2):
        for c in range(2):
            want = orig[a] if a == c else 0.0
            assert np.allclose(amps[a, c], want)


def test_one_shot_trivial_code_on_bell_pairs():
    phi2 = tensor_power_grouped(maximally_entangled(2), 2)
    code = CssCode.trivial(2, 2)
    decs = build_css_decoders(phi2, code)
    out = one_shot_distill(phi2, code, decs.key_decoders, decs.conj_decoders)
    assert out.key_dims[0] == 4
    assert out.transcript["eps_direct"] <= 1e-12
    assert out.transcript["p_prime_e"] <= 1e-12
    assert out.transcript["eps_z"] <= 1e-12
    assert out.transcript["eps_x"] <= 1e-12
    assert out.report.eps_direct <= out.report.eps_certified + 1e-6


def test_one_shot_proof_invariants_on_noisy_input():
    code = CssCode.from_stabilizers(2, [[1, 1]], [], n=2)
    for p in (0.97, 0.9):
        st = tensor_power_grouped(__import__("privlab").purify(werner(p), "E"), 2)
        decs = build_css_decoders(st, code)
        out = one_shot_distill(st, code, decs.key_decoders, decs.conj_decoders)
        tr = out.transcript
        # proof chain: encoded key error is bounded by the string-level error
        assert tr["p_prime_e"] <= tr["eps_z"] + 1e-9
        assert tr["eps_certified"] == pytest.approx(
            tr["p_prime_e"] + math.sqrt(tr["p_tilde_prime_e"]), abs=1e-12)
        assert tr["eps_direct"] <= tr["eps_certified"] + 1e-6
        assert tr["k"] == 1 and tr["n"] == 2


def test_one_shot_final_state_registers():
    phi2 = tensor_power_grouped(maximally_entangled(2), 2)
    code = CssCode.from_stabilizers(2, [[1, 1]], [], n=2)
    decs = build_css_decoders(phi2, code)
    out = one_shot_distill(phi2, code, decs.key_decoders, decs.conj_decoders)
    labels = out.final_state.space.labels
    # encoded key registers first, then Bob's side with the public record
    assert labels[0] == "A" and "Bq" in labels and "R" in labels
    assert out.key_dims == (2, 3)


ONE_SHOT_CASES = {
    "werner_d9": lambda seed: (werner(0.9, 9), build_code(
        {"kind": "sampled", "d": 3, "n": 2, "m_z": 1}, seed)),
    "werner_d8": lambda seed: (werner(0.9, 8), build_code(
        {"kind": "sampled", "d": 2, "n": 3, "m_z": 1, "m_x": 1}, seed)),
}


@pytest.mark.parametrize("case,seed", [(c, s) for c in sorted(ONE_SHOT_CASES) for s in (1, 7)])
def test_one_shot_eps_direct_is_the_final_state_distance(case, seed):
    # R copies the z-syndrome, so the distance splits over its values exactly
    state, code = ONE_SHOT_CASES[case](seed)
    decs = build_css_decoders(state, code)
    out = one_shot_distill(state, code, decs.key_decoders, decs.conj_decoders)
    want = privlab.epsilon_secret_direct(out.final_state, eve_labels=("E", "R"))
    assert want > 1e-3
    assert out.transcript["eps_direct"] == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("case,seed", [(c, s) for c in sorted(ONE_SHOT_CASES) for s in (1, 7)])
def test_one_shot_transcript_errors_equal_the_decoder_scores(case, seed):
    # _guess_error on the one-shot rows and _class_pgms' hit sums score the same decoders
    state, code = ONE_SHOT_CASES[case](seed)
    decs = build_css_decoders(state, code)
    out = one_shot_distill(state, code, decs.key_decoders, decs.conj_decoders)
    assert out.transcript["eps_z"] == pytest.approx(decs.z_result.average_error, abs=1e-12)
    assert out.transcript["eps_x"] == pytest.approx(decs.x_result.average_error, abs=1e-12)


def test_one_shot_eps_direct_on_shielded_input():
    res = two_copy_scenario(*shield_pair(0.6), "XX", adaptive=True)
    shielded = tensor_power_grouped(shielded_bit_state(*shield_pair(0.6)), 2)
    z_code = CssCode.from_stabilizers(2, [[1, 1]], [], n=2)
    decs = build_css_decoders(shielded, z_code)
    for out in (one_shot_distill(res.state, res.code, res.key_decoders, res.conj_decoders),
                one_shot_distill(shielded, z_code, decs.key_decoders, decs.conj_decoders)):
        want = privlab.epsilon_secret_direct(out.final_state, eve_labels=("E", "R"))
        assert want > 1e-3
        assert out.transcript["eps_direct"] == pytest.approx(want, abs=1e-12)


def test_shielded_bit_state_amplitudes():
    phi0, phi1 = shield_pair(0.6)
    psi = shielded_bit_state(phi0, phi1)
    assert psi.space.labels == ("A", "B", "S", "E")
    amps = psi.amplitudes.reshape(2, 2, 2, 2)
    for a in range(2):
        assert np.allclose(amps[a, a, :, 0], 0.5 * phi0, atol=1e-12)
        assert np.allclose(amps[a, a, :, 1], 0.5 * (-1.0) ** a * phi1,
                           atol=1e-12)
        assert np.allclose(amps[a, 1 - a], 0.0)
    # the key is perfectly correlated but Eve holds phase information:
    # her conditional states differ by the sign of the overlap, eps = s/2
    assert __import__("privlab").epsilon_secret_direct(psi) == pytest.approx(
        0.3, abs=1e-12)


def test_two_copy_scenario_analytics():
    phi0, phi1 = shield_pair(0.6)
    ad = two_copy_scenario(phi0, phi1, "XX", adaptive=True)
    na = two_copy_scenario(phi0, phi1, "XX", adaptive=False)
    s = 0.6
    assert ad.analytic_error == pytest.approx(
        0.5 - 0.5 * math.sqrt(1 - s ** 4), abs=1e-12)
    assert na.analytic_error == pytest.approx(
        0.5 - 0.5 * math.sqrt(1 - s ** 2), abs=1e-12)
    assert ad.error_prob == pytest.approx(ad.analytic_error, abs=1e-6)
    assert na.error_prob == pytest.approx(na.analytic_error, abs=1e-6)
    assert ad.error_prob < na.error_prob
    assert ad.overlap == pytest.approx(s, abs=1e-12)


def test_two_copy_scenario_orthogonal_shields():
    phi0, phi1 = shield_pair(0.0)
    for adaptive in (True, False):
        res = two_copy_scenario(phi0, phi1, "XX", adaptive=adaptive)
        assert res.error_prob == pytest.approx(0.0, abs=1e-10)


def test_two_copy_scenario_strictness_sweep():
    for s in np.linspace(0.1, 0.9, 9):
        ad = two_copy_scenario(*shield_pair(float(s)), "XX", adaptive=True)
        na = two_copy_scenario(*shield_pair(float(s)), "XX", adaptive=False)
        assert ad.error_prob < na.error_prob


def test_two_copy_single_copy_stabilizers():
    phi0, phi1 = shield_pair(0.6)
    for stab in ("XI", "IX"):
        res = two_copy_scenario(phi0, phi1, stab, adaptive=True)
        assert res.error_prob == pytest.approx(
            0.5 - 0.5 * math.sqrt(1 - 0.36), abs=1e-6)


def test_one_shot_on_two_copy_scenario():
    phi0, phi1 = shield_pair(0.6)
    res = two_copy_scenario(phi0, phi1, "XX", adaptive=True)
    out = one_shot_distill(res.state, res.code, res.key_decoders,
                           res.conj_decoders)
    tr = out.transcript
    assert tr["k"] == 1
    assert tr["p_tilde_prime_e"] == pytest.approx(res.error_prob, abs=1e-9)
    assert tr["eps_certified"] == pytest.approx(
        tr["p_prime_e"] + math.sqrt(tr["p_tilde_prime_e"]), abs=1e-12)
    assert tr["eps_direct"] <= tr["eps_certified"]


def test_hashing_sim_ideal_input():
    res = coherent_hashing_sim(maximally_entangled(2), 1, CssCode.trivial(2, 1))
    assert res.encoded_fidelity >= 1.0 - 1e-9
    assert res.eps_z <= 1e-12 and res.eps_x <= 1e-12
    assert res.overlap_psi2 >= 1.0 - 1e-10


def test_hashing_sim_werner_chain():
    code = CssCode.from_stabilizers(2, [[1, 1]], [], n=2)
    res = coherent_hashing_sim(werner(0.95), 2, code)
    assert res.n == 2 and res.key_dim == 2
    assert res.overlap_psi2 >= 1.0 - res.eps_z - 1e-9
    assert res.td_psi2 <= res.bound_psi2 + 1e-9
    assert res.td_psi3 <= res.bound_psi3 + 1e-9
    assert res.td_psi4 <= res.bound_psi4 + 1e-9
    assert res.bound_psi2 == pytest.approx(2 * math.sqrt(2 * res.eps_z),
                                           abs=1e-12)
    assert res.bound_psi4 == pytest.approx(
        2 * (math.sqrt(2 * res.eps_z) + math.sqrt(2 * res.eps_x)), abs=1e-12)
    # the ideal branch of the same run reaches the perfect encoded key
    assert res.ideal_encoded_fidelity >= 1.0 - 1e-9


def test_hashing_sim_general_pure_state():
    rng = substream(44)
    psi = random_pure_state(HilbertSpace((2, 2, 2), ("A", "B", "E")), rng)
    code = CssCode.from_stabilizers(2, [], [[1, 1]], n=2)
    res = coherent_hashing_sim(psi, 2, code)
    assert res.overlap_psi2 >= 1.0 - res.eps_z - 1e-9
    assert res.td_psi3 <= res.bound_psi3 + 1e-9
    assert res.td_psi4 <= res.bound_psi4 + 1e-9


def test_hashing_sim_qutrit():
    psi = random_pure_state(HilbertSpace((3, 3, 3), ("A", "B", "E")),
                            substream(45))
    code = CssCode.from_stabilizers(3, [[1, 2]], [], n=2)
    res = coherent_hashing_sim(psi, 2, code)
    assert res.key_dim == 3
    assert res.td_psi4 <= res.bound_psi4 + 1e-9


def test_hashing_sim_enforces_amplitude_cap():
    # one environment column of the n=5 chain holds 32 * 32 * 33 * 33 amplitudes
    code5 = CssCode.from_stabilizers(2, [[1, 1, 1, 1, 1]], [], n=5)
    with pytest.raises(ValueError, match="amplitude"):
        coherent_hashing_sim(werner(0.95), 5, code5)


FOUR_COPY_CODES = {"z1111": ([[1, 1, 1, 1]], []), "z1111_x1100": ([[1, 1, 1, 1]], [[1, 1, 0, 0]])}


@pytest.fixture(scope="module", params=sorted(FOUR_COPY_CODES))
def four_copy_chain(request):
    """The n=4 chain on Werner(0.95), run once per code (a few seconds each)."""
    mz, mx = FOUR_COPY_CODES[request.param]
    return coherent_hashing_sim(werner(0.95), 4, CssCode.from_stabilizers(2, mz, mx, n=4))


def test_hashing_sim_four_copies_meets_every_chain_bound(four_copy_chain):
    # E is streamed in chunks of columns, so the chain runs under the cap at n=4
    res = four_copy_chain
    assert res.n == 4 and res.key_dim in (8, 4)
    assert res.eps_z == pytest.approx(0.07670472888270297, abs=1e-9)
    assert res.overlap_psi2 >= 1.0 - res.eps_z
    assert res.td_psi2 <= res.bound_psi2
    assert res.td_psi3 <= res.bound_psi3
    assert res.td_psi4 <= res.bound_psi4
    assert res.bound_psi3 == pytest.approx(2.0 * math.sqrt(2.0 * res.eps_x), abs=1e-12)
    assert res.bound_psi4 == pytest.approx(
        2.0 * (math.sqrt(2.0 * res.eps_z) + math.sqrt(2.0 * res.eps_x)), abs=1e-12)
    assert res.ideal_encoded_fidelity >= 1.0 - 1e-9
    assert 0.5 < res.encoded_fidelity <= 1.0


def test_one_shot_code_dimension_mismatch():
    phi2 = tensor_power_grouped(maximally_entangled(2), 2)
    code = CssCode.from_stabilizers(3, [[1, 2]], [], n=2)
    with pytest.raises(ValueError):
        build_css_decoders(phi2, code)


def _encoded_fidelity_oracle(arr, tab, k_dim):
    # encode A and the guess register, then <phi|rho_AD|phi> on the logical parts
    dd = arr.shape[0]
    baux = dd // k_dim
    w2 = _encode(arr, tab).reshape((k_dim, baux) + arr.shape[1:-1] + (k_dim + 1, baux))
    w2 = np.moveaxis(w2, -2, 1).reshape(k_dim * (k_dim + 1), -1)
    rho = w2 @ w2.conj().T
    phi = np.zeros(k_dim * (k_dim + 1), dtype=np.complex128)
    for lam in range(k_dim):
        phi[lam * (k_dim + 1) + lam] = 1.0 / math.sqrt(k_dim)
    return math.sqrt(min(max(float(np.real(phi.conj() @ rho @ phi)), 0.0), 1.0))


@pytest.mark.parametrize("d,n,m_z,m_x,seed", [(2, 3, 1, 0, 0), (2, 3, 1, 1, 1),
                                             (3, 2, 1, 0, 2), (2, 2, 0, 0, 3)])
def test_logical_fidelity_matches_encoded_oracle(d, n, m_z, m_x, seed):
    code = sample_universal_css(d, n, m_z, m_x, substream(60 + seed))
    tab = _code_tables(code)
    k_dim, dd = d ** code.k, d ** n
    rng = substream(70 + seed)
    shape = (dd, dd, 2, d ** m_x, dd + 1, dd + 1)
    arr = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    arr /= np.linalg.norm(arr)
    # mostly on the logical diagonal, so the fidelity is far from zero
    for a in range(dd):
        arr[a, ..., a] += 3.0 / math.sqrt(dd)
    arr /= np.linalg.norm(arr)
    want = _encoded_fidelity_oracle(arr, tab, k_dim)
    assert 0.1 < want < 1.0
    assert math.sqrt(_logical_weight(arr, tab, k_dim) / k_dim) == pytest.approx(want, abs=1e-12)
    # the weight is a sum over the middle axes, so chunks of E add up
    halves = _logical_weight(arr[:, :, :1], tab, k_dim) + _logical_weight(arr[:, :, 1:], tab, k_dim)
    assert halves == pytest.approx(_logical_weight(arr, tab, k_dim), abs=1e-12)


def test_chain_distance_matches_pure_state_distance_and_rejects_bad_norms():
    rng = substream(80)
    a = rng.normal(size=(4, 3, 5)) + 1j * rng.normal(size=(4, 3, 5))
    b = a + 0.3 * (rng.normal(size=a.shape) + 1j * rng.normal(size=a.shape))
    a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
    flat = lambda x: StateVector(HilbertSpace((x.size,), ("X",)), x.reshape(-1))
    assert _chain_distance(_gram(a, b)) == pytest.approx(
        pure_state_trace_distance(flat(a), flat(b)), abs=1e-12)
    # the sums of chunks give the same distance
    assert _chain_distance(_gram(a[:1], b[:1]) + _gram(a[1:], b[1:])) == pytest.approx(
        _chain_distance(_gram(a, b)), abs=1e-12)
    for bad in (np.nan, np.inf, 2.0):
        c = b.copy()
        c[1, 2, 3] = bad
        with pytest.raises(InvariantViolation):
            _chain_distance(_gram(a, c))
        with pytest.raises(InvariantViolation):
            _chain_distance(_gram(c, a))


@pytest.mark.parametrize("d,flag", [(2, None), (2, "--mz-rows"), (2, "--mx-rows"),
                                    (3, "--mz-rows")])
def test_hashing_sim_exact_bell_input_gives_zero_distances(d, flag):
    # equal chain states: the distances come from ||a - b||^2, not 1 - |<a|b>|^2
    argv = ["hashing-sim", "--state", "bell", "--d", str(d), "--n", "2",
            "--code-kind", "explicit", "--code-d", str(d), "--code-n", "2"]
    res = json.loads(run(argv + ([flag, "1 1"] if flag else [])))["results"]
    for key in ("td_psi2", "td_psi3", "td_psi4"):
        assert res[key] <= 1e-12


def test_two_copy_scenario_enforces_amplitude_cap():
    # the decoders act on (B1, B2, S1, S2): (4 * 50^2)^2 entries each
    phi0, phi1 = np.eye(50)[0], np.eye(50)[1]
    with pytest.raises(ValueError, match="amplitudes"):
        two_copy_scenario(phi0, phi1)


# ---------------------------------------------------------------------------
# conditional ensembles and guess errors against per-outcome loops


def loop_conditional_ensemble(psi, basis, keep, copy_a=False):
    """Per-outcome oracle: the (unnormalised) conditional vector of each x,
    then its reduced density matrix on ``keep`` by an explicit product."""
    space = psi.space
    rest = tuple(x for x in space.labels if x != "A")
    d = space.dim_of("A")
    amps = psi.permuted(("A",) + rest).amplitudes.reshape(d, -1)
    labels = (("C",) if copy_a else ()) + rest
    dims = ((d,) if copy_a else ()) + space.dims_of(rest)
    kept = [i for i, x in enumerate(labels) if x in keep]
    traced = [i for i in range(len(labels)) if i not in kept]
    kdim = int(np.prod([dims[i] for i in kept]))
    probs, mats = [], []
    for x in range(d):
        if copy_a:
            w = basis[:, x].conj()[:, None] * amps
        else:
            w = (amps if basis is None else basis.conj().T @ amps)[x]
        p = float(np.sum(np.abs(w) ** 2))
        w = w.reshape(dims).transpose(kept + traced).reshape(kdim, -1)
        probs.append(p)
        mats.append(w @ w.conj().T / p if p > 1e-14 else np.eye(kdim) / kdim)
    return np.array(probs) / sum(probs), mats


def loop_ensemble(psi, basis, keep, copy_a=False):
    """``loop_conditional_ensemble`` as a CqEnsemble of validated densities."""
    probs, mats = loop_conditional_ensemble(psi, basis, keep, copy_a=copy_a)
    space = HilbertSpace((mats[0].shape[0],), ("K",))
    return CqEnsemble(probs, tuple(DensityOperator(space, 0.5 * (m + m.conj().T))
                                   for m in mats))


def loop_guess_error(ens, decoders, keys, class_of, value_of):
    """The explicit double loop over outcomes and decoder elements."""
    error = 0.0
    for x in range(len(ens.states)):
        q = float(ens.probs[x])
        if q <= 1e-14:
            continue
        dec = decoders[keys[class_of[x]]]
        good = 0.0
        for el, lab in zip(dec.elements, dec.outcome_labels):
            if lab != "fail" and value_of[int(lab)] == value_of[x]:
                good += float(np.trace(el @ ens.states[x].matrix).real)
        error += q * (1.0 - good)
    return float(min(max(error, 0.0), 1.0))


def loop_string_errors(psi, code, key_decoders, conj_decoders):
    """eps_z and eps_x by one conditional per string, read off the amplitudes
    of a canonical (A, B, shield..., E) state: the key strings are guessed
    from B alone, the conjugate strings from (B, shield)."""
    tab = _code_tables(code)
    dd, e_dim = psi.space.dim_of("A"), psi.space.dim_of("E")
    amps = psi.amplitudes.reshape(dd, -1, e_dim)
    conj_rows = np.tensordot(tab.v.conj().T, amps, axes=(1, 0))
    errors = []
    for rows, kdim, keys, class_of, decoders in (
            (amps, dd, list(tab.alpha_classes), tab.alpha_of, key_decoders),
            (conj_rows, amps.shape[1], list(tab.beta_classes), tab.beta_of, conj_decoders)):
        succ = 0.0
        for x in range(dd):
            w = rows[x].reshape(kdim, -1)
            dec = decoders[keys[class_of[x]]]
            for el, lab in zip(dec.elements, dec.outcome_labels):
                if lab != "fail" and int(lab) == x:
                    succ += float(np.trace(el @ (w @ w.conj().T)).real)
        errors.append(min(max(1.0 - succ, 0.0), 1.0))
    return errors


def test_guess_error_matches_explicit_loops():
    code = CssCode.from_stabilizers(2, [[1, 1]], [], n=2)
    tab = _code_tables(code)
    strings = np.arange(4)
    for p in (0.97, 0.9):
        psi = _canonical_pure(tensor_power_grouped(purify(werner(p), "E"), 2))
        decs = build_css_decoders(psi, code)
        ens_z = loop_ensemble(psi, None, ("B",))
        ens_x = loop_ensemble(psi, tab.v, ("B",))
        rows_z = psi.amplitudes.reshape(4, 4, -1)
        rows_x = np.tensordot(tab.v.conj().T, rows_z, axes=(1, 0))
        for rows, ens, decoders, classes, class_of in (
                (rows_z, ens_z, decs.key_decoders, tab.alpha_classes, tab.alpha_of),
                (rows_x, ens_x, decs.conj_decoders, tab.beta_classes, tab.beta_of)):
            assert _guess_error(rows, decoders, classes, strings) == pytest.approx(
                loop_guess_error(ens, decoders, list(classes), class_of, strings), abs=1e-12)
        out = one_shot_distill(psi, code, decs.key_decoders, decs.conj_decoders)
        eps_z, eps_x = loop_string_errors(psi, code, decs.key_decoders, decs.conj_decoders)
        assert out.transcript["eps_z"] == pytest.approx(eps_z, abs=1e-12)
        assert out.transcript["eps_x"] == pytest.approx(eps_x, abs=1e-12)
    for stab, adaptive in (("XX", True), ("XX", False), ("XI", True)):
        res = two_copy_scenario(*shield_pair(0.6), stab, adaptive=adaptive)
        tab2 = _code_tables(res.code)
        ens = loop_ensemble(res.state, tab2.v, ("B", "S"))
        assert res.error_prob == pytest.approx(
            loop_guess_error(ens, res.conj_decoders, list(tab2.beta_classes), tab2.beta_of,
                             tab2.mu_of), abs=1e-12)
        # the shielded state exercises the (B, shield) conditionals of eps_x
        out = one_shot_distill(res.state, res.code, res.key_decoders, res.conj_decoders)
        eps_z, eps_x = loop_string_errors(res.state, res.code, res.key_decoders,
                                          res.conj_decoders)
        assert out.transcript["eps_z"] == pytest.approx(eps_z, abs=1e-12)
        assert out.transcript["eps_x"] == pytest.approx(eps_x, abs=1e-12)


def dense_extract(amps, tab):
    """Both syndromes of A (axis 0) copied onto trailing R, T axes, R stored
    densely: beta is read in the conjugate basis, then alpha in the standard
    basis, so R holds alpha_of[a]."""
    v = tab.v
    mask_shape = (-1,) + (1,) * (amps.ndim - 1)
    rows = np.arange(amps.shape[0])
    g0 = np.tensordot(v.conj().T, amps, axes=(1, 0))
    out = np.zeros(amps.shape + (len(tab.alpha_classes), len(tab.beta_classes)),
                   dtype=np.complex128)
    for beta in range(len(tab.beta_classes)):
        gb = np.where((tab.beta_of == beta).reshape(mask_shape), g0, 0.0)
        out[rows, ..., tab.alpha_of, beta] = np.tensordot(v, gb, axes=(1, 0))
    return out


@pytest.mark.parametrize("d,n,m_z,m_x,seed", [(2, 3, 1, 0, 0), (2, 3, 1, 1, 1),
                                             (3, 2, 1, 0, 2), (2, 2, 0, 0, 3),
                                             (2, 3, 2, 0, 4)])
def test_extraction_indexes_r_from_alpha(d, n, m_z, m_x, seed):
    code = sample_universal_css(d, n, m_z, m_x, substream(60 + seed))
    tab = _code_tables(code)
    dd = d ** n
    amps = random_pure_state(HilbertSpace((dd, dd, 3), ("A", "B", "E")),
                             substream(75 + seed)).amplitudes.reshape(dd, dd, 3)
    dense = dense_extract(amps, tab)
    # R is one-hot: nothing outside r = alpha_of[a]
    off = dense.copy()
    off[np.arange(dd), ..., tab.alpha_of, :] = 0.0
    assert np.max(np.abs(off)) == 0.0
    assert np.allclose(dense.sum(axis=-2), _extract(amps, tab), atol=1e-13)


def loop_p_tilde_prime_e(psi, code, conj_decoders):
    """The conjugate test p~'_e by the explicit loop over beta and decoder roots:
    each beta slice of the densely extracted state is decoded by its own class
    decoder, read in the conjugate basis, and scored on the logical value mu."""
    psi = _canonical_pure(psi)
    tab = _code_tables(code)
    dd, e_dim = psi.space.dim_of("A"), psi.space.dim_of("E")
    amps = psi.amplitudes.reshape(dd, dd, -1, e_dim)
    s_dim, r_dim = amps.shape[2], len(tab.alpha_classes)
    t1 = dense_extract(amps, tab)
    succ_x = 0.0
    for beta, key in enumerate(tab.beta_classes):
        dec = conj_decoders[key]
        sl = t1[:, :, :, :, :, beta].reshape(dd, dd * s_dim, e_dim, r_dim)
        for root, lab in zip(dec.sqrt_elements(), dec.outcome_labels):
            if lab == "fail":
                continue
            mu_hat = tab.mu_of[int(lab)]
            applied = np.tensordot(root, sl, axes=(1, 1))
            ga = np.tensordot(tab.v.conj().T, applied, axes=(1, 1))
            succ_x += float(np.sum(np.abs(ga[tab.mu_of == mu_hat]) ** 2))
    return min(max(1.0 - succ_x, 0.0), 1.0)


def test_p_tilde_prime_e_matches_per_beta_loop():
    # Werner d=8 on a code with one stabilizer of each kind, so every beta
    # class has its own decoder
    code = sample_universal_css(2, 3, 1, 1, substream(90))
    assert code.m_x == 1
    st = werner(0.9, 8)
    decs = build_css_decoders(st, code)
    out = one_shot_distill(st, code, decs.key_decoders, decs.conj_decoders)
    want = loop_p_tilde_prime_e(st, code, decs.conj_decoders)
    assert want > 1e-3
    assert out.transcript["p_tilde_prime_e"] == pytest.approx(want, abs=1e-12)
    # the shielded two-copy states, with and without the adaptive decoder
    for stab, adaptive in (("XX", True), ("XX", False), ("XI", True), ("IX", True)):
        res = two_copy_scenario(*shield_pair(0.6), stab, adaptive=adaptive)
        out = one_shot_distill(res.state, res.code, res.key_decoders, res.conj_decoders)
        want = loop_p_tilde_prime_e(res.state, res.code, res.conj_decoders)
        assert want > 1e-3
        assert out.transcript["p_tilde_prime_e"] == pytest.approx(want, abs=1e-12)


def count_density_builds(monkeypatch):
    """Record one entry for every ``DensityOperator`` constructed."""
    built = []
    check = DensityOperator.__post_init__
    monkeypatch.setattr(DensityOperator, "__post_init__",
                        lambda self: built.append(1) or check(self))
    return built


def test_css_decoders_factorise_per_class_and_build_no_density(factorised, monkeypatch):
    # Werner d=8 on a code with one stabilizer of each kind: 2 alpha and 2 beta
    # classes of 4 strings each
    code = sample_universal_css(2, 3, 1, 1, substream(90))
    st = werner(0.9, 8)
    for log in factorised.values():
        log.clear()
    built = count_density_builds(monkeypatch)
    decs = build_css_decoders(st, code)
    assert not built
    n_classes = len(decs.key_decoders) + len(decs.conj_decoders)
    assert n_classes == 4
    # one QR and one small SVD per class, one eigvalsh per POVM check, and
    # the single eigh that purifies the input; nothing per string
    assert len(factorised["qr"]) == len(factorised["svd"]) == n_classes
    assert len(factorised["eigvalsh"]) == n_classes
    assert len(factorised["eigh"]) == 1


def test_one_shot_scores_decoders_without_conditional_ensembles(monkeypatch):
    # scoring the decoders reads the amplitudes, not conditional densities
    code = sample_universal_css(2, 3, 1, 1, substream(90))
    st = werner(0.9, 8)
    decs = build_css_decoders(st, code)
    built = count_density_builds(monkeypatch)
    one_shot_distill(st, code, decs.key_decoders, decs.conj_decoders)
    assert not built


def test_two_copy_scenario_builds_only_the_key_conditionals(monkeypatch):
    # the key and conjugate decoders come straight from the amplitudes
    built = count_density_builds(monkeypatch)
    two_copy_scenario(*shield_pair(0.6), "XX", adaptive=True)
    assert not built


def test_four_copy_conjugate_decoders_complete_to_machine_precision():
    # the n=4 hashing decoders: the copied conjugate class average has support
    # eigenvalues down to 2.4e-8, where an inverse square root of the average
    # completes only to about 5e-10
    code = CssCode.from_stabilizers(2, [[1, 1, 1, 1]], [], n=4)
    psi = tensor_power_grouped(_canonical_pure(werner(0.95)), 4)
    decs = build_css_decoders(psi, code, x_on_copy=True)
    for dec in (*decs.key_decoders.values(), *decs.conj_decoders.values()):
        total = np.sum(dec.elements, axis=0)
        assert np.max(np.abs(total - np.eye(dec.dim))) <= 1e-12
    assert decs.conj_decoders[()].dim == 256
    # the errors of the inverse-square-root construction
    assert decs.z_result.average_error == pytest.approx(0.07670472888270297, abs=1e-9)
    assert decs.x_result.average_error == pytest.approx(0.14062772726589967, abs=1e-9)


def test_one_shot_rejects_missing_or_misshapen_decoders():
    phi2 = tensor_power_grouped(maximally_entangled(2), 2)
    code = CssCode.from_stabilizers(2, [[1, 1]], [], n=2)
    decs = build_css_decoders(phi2, code)
    keys, conj = dict(decs.key_decoders), dict(decs.conj_decoders)
    wide = Povm((np.eye(8),), ("fail",))
    first = next(iter(keys))
    for key_decoders, conj_decoders, match in (
            ({k: v for k, v in keys.items() if k != first}, conj, "missing key decoder"),
            ({**keys, first: wide}, conj, "key decoders must act on B"),
            (keys, {k: wide for k in conj}, r"decoders must act on \(B, shield\)")):
        with pytest.raises(ValueError, match=match):
            one_shot_distill(phi2, code, key_decoders, conj_decoders)
