"""Rates, one-shot distillation, coherent hashing chain, two-copy scenario."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

import privlab
from privlab import (ConjugateBasis, CqEnsemble, CssCode, DensityOperator, HilbertSpace,
                     InvariantViolation, Povm, RateBreakdown, StateVector,
                     build_css_decoders, coherent_hashing_sim,
                     coherent_information, distillable_rate, extend_with_copy,
                     haar_unitary, holevo_information, maximally_entangled,
                     one_shot_distill, partial_trace,
                     purify,
                     random_density_operator, random_pure_state,
                     sample_universal_css, shannon_entropy, shielded_bit_state,
                     substream, tensor_power_grouped, two_copy_scenario)
from privlab import css_codes, discrimination, distillation, privacy, tensor_core
from privlab.cli import _shield_pair, build_state, run
from privlab.cli import build_code
from privlab.css_codes import all_strings
from privlab.discrimination import _class_pgms, _guess_error, _guess_slots, _row_weights
from privlab.tensor_core import _chain_distance, _gram
from privlab.distillation import HashingSimResult, _extract, _key_decode, _logical_weight
from conftest import largest_side, loop_class_errors


def werner(p, d=2):
    phi = maximally_entangled(d).density()
    dim = d * d
    return DensityOperator(phi.space,
                           p * phi.matrix + (1 - p) * np.eye(dim) / dim)


def _encode(arr, tab):
    """Map A (axis 0) by ``zperm`` and the guess register (last axis) by ``cperm``,
    from the plain layout of ``_key_decode``: the oracle of its encoded layout.

    The guess axis grows to (k_dim + 1) * r_dim * t_dim values, so it splits
    into a logical part with a fail value and an auxiliary part.
    """
    dd = arr.shape[0]
    out = np.zeros_like(arr)
    out[tab.zperm] = arr
    enc = np.zeros(arr.shape[:-1] + (dd + len(tab.alpha_classes) * len(tab.beta_classes),),
                   dtype=np.complex128)
    enc[..., tab.cperm] = out
    return enc


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
    psi = purify(state) if isinstance(state, DensityOperator) else state
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
    for mod in (privlab, tensor_core):
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


def test_one_shot_builds_the_final_state_when_it_is_read(monkeypatch):
    state, code = ONE_SHOT_CASES["werner_d8"](1)
    decs = build_css_decoders(state, code)
    wraps = []
    vector = distillation.StateVector
    monkeypatch.setattr(distillation, "StateVector", lambda *a: wraps.append(1) or vector(*a))
    out = one_shot_distill(state, code, decs.key_decoders, decs.conj_decoders)
    assert not wraps
    assert out.final_state is out.final_state and len(wraps) == 1


@pytest.mark.parametrize("case,seed", [(c, s) for c in sorted(ONE_SHOT_CASES) for s in (1, 7)])
def test_one_shot_transcript_errors_equal_the_decoder_scores(case, seed):
    # _guess_error on the one-shot rows and _class_pgms' hit sums score the same decoders
    state, code = ONE_SHOT_CASES[case](seed)
    decs = build_css_decoders(state, code)
    out = one_shot_distill(state, code, decs.key_decoders, decs.conj_decoders)
    assert out.transcript["eps_z"] == pytest.approx(decs.z_result.average_error, abs=1e-12)
    assert out.transcript["eps_x"] == pytest.approx(decs.x_result.average_error, abs=1e-12)


@pytest.mark.parametrize("case", sorted(ONE_SHOT_CASES))
def test_one_shot_final_state_is_the_einsum_r_copy(case):
    # R is filled slice by slice; the same bits as the diagonal einsum with eye(r_dim)
    state, code = ONE_SHOT_CASES[case](1)
    decs = build_css_decoders(state, code)
    out = one_shot_distill(state, code, decs.key_decoders, decs.conj_decoders)
    tab = code._tables
    k_dim, r_dim, t_dim = code.d ** code.k, code.d ** code.m_z, code.d ** code.m_x
    dd = code.d ** code.n
    amps = purify(state).amplitudes.reshape(dd, dd, 1, -1)
    t2 = _key_decode(_extract(amps, tab), decs.key_decoders, tab)
    enc = _encode(t2, tab).reshape((k_dim, r_dim, t_dim) + t2.shape[1:-1]
                                   + (k_dim + 1, dd // k_dim))
    want = np.einsum("azgqseTbh,zr->azgqserTbh", enc, np.eye(r_dim))
    assert out.final_state.space.labels == ("A", "Az", "Ag", "Bq", "Sq", "E", "R", "T",
                                            "B", "Bg")
    assert out.final_state.space.dims == want.shape
    assert np.array_equal(out.final_state.amplitudes, want.reshape(-1))


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


@pytest.mark.parametrize("stab, rows", [
    ("XX", ([1, 1], [1, 1], [1, 0])), ("XI", ([1, 0], [0, 1], [0, 1])),
    ("IX", ([0, 1], [1, 0], [1, 0]))])
def test_two_copy_codes_are_derived_once(stab, rows):
    # rows: the mx, logical_z and logical_x rows each code must come out with
    code = distillation._two_copy_code(stab)
    assert code.mz.entries.shape == (0, 2)
    assert [m.entries.tolist() for m in (code.mx, code.logical_z, code.logical_x)] == \
        [[row] for row in rows]
    assert distillation._two_copy_code(stab) is code


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


# The two-copy conjugate decoders as first written: one helstrom_pair and one
# np.kron placement per (class, sector), kept as the reference for
# distillation._two_copy_conj_decoders.
_HADAMARD = distillation._HADAMARD


def _op_on_copy(op: np.ndarray, copy: int, sh: int) -> np.ndarray:
    """Embed an operator on one (B_j, S_j) pair into (B1 B2 S1 S2)."""
    pair = np.einsum("bsBS,ctCT->bcstBCST", op.reshape(2, sh, 2, sh),
                     np.eye(2 * sh).reshape(2, sh, 2, sh))
    if copy == 1:
        pair = pair.transpose(1, 0, 3, 2, 5, 4, 7, 6)
    return pair.reshape(4 * sh * sh, 4 * sh * sh)


def _adaptive_conj_decoders(phis: list[np.ndarray]):
    """Optimal conjugate decoders for the XX stabilizer on two copies.

    Conditioned on Bob's conjugate-basis pair b, the two candidate shield
    products of a beta class are distinguished by their own pair test, so
    the class measurement splits over Bob's sectors.
    """
    dim = 4 * phis[0].size ** 2
    decoders = {}
    for beta in (0, 1):
        cands = [(0, beta), (1, 1 - beta)]
        els = [np.zeros((dim, dim), dtype=np.complex128) for _ in cands]
        for b0, b1 in np.ndindex(2, 2):
            pb = np.kron(np.outer(_HADAMARD[:, b0], _HADAMARD[:, b0]),
                         np.outer(_HADAMARD[:, b1], _HADAMARD[:, b1]))
            hs = [np.kron(phis[x0 ^ b0], phis[x1 ^ b1]) for x0, x1 in cands]
            pair, _ = privlab.helstrom_pair(np.outer(hs[0], hs[0].conj()),
                                            np.outer(hs[1], hs[1].conj()))
            for el, q in zip(els, pair.elements):
                el += np.kron(pb, q)
        decoders[(beta,)] = Povm(tuple(els), tuple(2 * x0 + x1 for x0, x1 in cands))
    return decoders


def _single_copy_conj_decoders(phis: list[np.ndarray], code: CssCode):
    """Pair-test decoders reading only the copy that carries the logical X."""
    sh = phis[0].size
    copy = int(np.nonzero(code.logical_x.entries[0])[0][0])
    # given Bob's conjugate-basis value b of the logical copy, the shield is phi_{x ^ b}
    space = HilbertSpace((2 * sh,), ("W",))
    rhos = [DensityOperator(space, sum(0.5 * np.kron(np.outer(_HADAMARD[:, b], _HADAMARD[:, b]),
                                                     np.outer(phis[x ^ b], phis[x ^ b].conj()))
                                       for b in (0, 1))) for x in (0, 1)]
    pair, _ = privlab.helstrom_pair(*rhos)
    els = tuple(_op_on_copy(el, copy, sh) for el in pair.elements)
    # guess 0 or 1 on the logical copy, 0 on the other: strings 0 and 2^(1 - copy)
    povm = Povm(els, (0, 2 ** (1 - copy)))
    return {(0,): povm, (1,): povm}


def reference_conj_decoders(phis, stab, adaptive):
    if stab == "XX" and adaptive:
        return _adaptive_conj_decoders(phis)
    return _single_copy_conj_decoders(phis, distillation._two_copy_code(stab))


@pytest.mark.parametrize("stab", ["XX", "XI", "IX"])
@pytest.mark.parametrize("adaptive", [True, False])
@pytest.mark.parametrize("s", [0.0, 0.3, 0.6, 1.0])
def test_two_copy_conj_decoders_match_the_reference_on_qubit_shields(stab, adaptive, s):
    got = two_copy_scenario(*shield_pair(s), stab, adaptive).conj_decoders
    want = reference_conj_decoders([np.asarray(p, dtype=np.complex128) for p in shield_pair(s)],
                                   stab, adaptive)
    assert list(got) == list(want)
    for key in want:
        assert got[key].outcome_labels == want[key].outcome_labels
        assert np.max(np.abs(np.array(got[key].elements)
                             - np.array(want[key].elements))) <= 1e-12


@pytest.mark.parametrize("stab", ["XX", "XI", "IX"])
@pytest.mark.parametrize("adaptive", [True, False])
@pytest.mark.parametrize("s", [0.0, 0.3, 0.6, 1.0])
def test_two_copy_conj_decoders_match_the_reference_on_every_candidate(stab, adaptive, s):
    # at shield_dim 3 a single-copy pair test has a kernel that neither shield
    # state occupies; which outcome owns it is up to rounding, so the elements
    # are compared on every candidate ket P_b (x) |phi_{x0^b0} phi_{x1^b1}>
    phis = list(_shield_pair(s, 3))
    got = two_copy_scenario(*phis, stab, adaptive).conj_decoders
    want = reference_conj_decoders(phis, stab, adaptive)
    hh = np.kron(_HADAMARD, _HADAMARD)
    kets = np.array([np.kron(hh[:, 2 * b0 + b1], np.kron(phis[x0 ^ b0], phis[x1 ^ b1]))
                     for b0, b1, x0, x1 in np.ndindex(2, 2, 2, 2)]).T
    assert list(got) == list(want)
    for key in want:
        assert got[key].outcome_labels == want[key].outcome_labels
        for el_got, el_want in zip(got[key].elements, want[key].elements):
            assert np.max(np.abs(el_got @ kets - el_want @ kets)) <= 1e-12


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


def test_hashing_sim_refuses_five_copies_before_it_builds_them():
    # the chain is budgeted before the 2^20-amplitude five-copy power is built
    code5 = CssCode.from_stabilizers(2, [[1, 1, 1, 1, 1]], [], n=5)
    state = werner(0.95)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="hashing chain per environment column"):
            coherent_hashing_sim(state, 5, code5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


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
    tab = code._tables
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


def test_logical_weight_reads_a_transposed_view():
    # the chain reads its decoded (D, B, A, E) slices as (A, B, E, D) views
    code = sample_universal_css(2, 3, 1, 1, substream(61))
    tab, dd = code._tables, 8
    rng = substream(71)
    shape = (dd + 1, dd, dd, 3)
    arr = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    view = (arr / np.linalg.norm(arr)).transpose(2, 1, 3, 0)
    assert not view.flags.c_contiguous
    assert _logical_weight(view, tab, 2) == pytest.approx(
        _logical_weight(np.ascontiguousarray(view), tab, 2), abs=1e-12)


def test_chain_distance_matches_pure_state_distance_and_rejects_bad_norms():
    rng = substream(80)
    a = rng.normal(size=(4, 3, 5)) + 1j * rng.normal(size=(4, 3, 5))
    b = a + 0.3 * (rng.normal(size=a.shape) + 1j * rng.normal(size=a.shape))
    a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
    # the overlap formula 2 sqrt(1 - |<a|b>|^2) as the oracle
    ov = abs(complex(np.vdot(a, b)))
    assert _chain_distance(_gram(a, b)) == pytest.approx(
        2.0 * math.sqrt(max(0.0, 1.0 - min(1.0, ov) ** 2)), abs=1e-12)
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


def dense_conj_decode(tin, decoders, tab, phase):
    """The conjugate string decoded from (C, B) of tin (A, B, E, T, C) into D one
    outcome at a time, as (A, B, E, T, C, D): the root of outcome x on (C, B),
    then the ket conj(v[:, x]) in D times phase[c', x] given C = c'; the fail
    outcome and the C-fail block go to the D fail slot."""
    dd = tin.shape[0]
    kets = np.pad(tab.v.conj(), (0, 1))
    kets[dd, dd] = 1.0
    phase = np.pad(phase, ((0, 0), (0, 1)), constant_values=1.0)
    tout = np.zeros(tin.shape + (dd + 1,), dtype=np.complex128)
    for beta, key in enumerate(tab.beta_classes):
        dec = decoders[key]
        sl = tin[..., beta, :]
        rows = sl[..., :dd].transpose(3, 1, 0, 2).reshape(dd * dd, -1)
        # (outcome, C', B' A E), then one product with the (C', outcome, D) kets per C'
        applied = np.stack([root @ rows for root in dec.sqrt_elements()]).reshape(
            dec.n_outcomes, dd, -1)
        ket_c = (kets[None] * phase[:, None, :])[:, :, _guess_slots(dec, dd)]
        decoded = np.matmul(applied.transpose(1, 2, 0), ket_c.transpose(0, 2, 1))
        tout[..., beta, :dd, :] = decoded.reshape((dd, dd) + sl.shape[:1] + sl.shape[2:-1]
                                                  + (dd + 1,)).transpose(2, 1, 3, 0, 4)
        tout[..., beta, dd, dd] = sl[..., dd]
    return tout


def chain_amplitudes(state, n):
    """The n-copy amplitudes t[a, b, e] that the hashing chain runs on."""
    return distillation._grouped_power(privacy._key_amplitudes(state)[0][:, :, 0], n)


def copied_conj_rows(amps, tab):
    """The copied rows conj(v[c, x]) t[c, b, e] of every conjugate string x, as (x, C B, E)."""
    dd = amps.shape[0]
    return (tab.v.conj().T[:, :, None, None] * amps).reshape(dd, dd * dd, -1)


def dense_hashing_chain(state, n, code):
    """The hashing chain in one environment chunk, every array as (A, B, E, T, C, ...),
    the conjugate string decoded by ``dense_conj_decode`` with the ``_class_pgms``
    decoders of the copied rows."""
    amps = chain_amplitudes(state, n)
    d, dd, e_dim = code.d, amps.shape[0], amps.shape[2]
    tab = code._tables
    v, vc = tab.v, tab.v.conj()
    k_dim, t_dim = d ** code.k, d ** code.m_x
    z_result = _class_pgms(amps, tab.alpha_classes)
    x_result = _class_pgms(copied_conj_rows(amps, tab), tab.beta_classes)
    strings = all_strings(d, n)
    phases = [np.ones((dd, dd)), np.exp(2j * np.pi * ((strings @ strings.T) % d) / d)]
    mask = tab.beta_of == np.arange(t_dim)[:, None]
    # the ideal copy, then Alice's conjugate string in D before and after the decoupler
    t2p = np.zeros((dd, dd, e_dim, t_dim, dd + 1), dtype=np.complex128)
    t2p[..., :dd] = np.einsum("tx,ax,cx,cbe->abetc", mask, v, vc, amps)
    ideal = []
    for ph in phases:
        out = np.zeros(t2p.shape + (dd + 1,), dtype=np.complex128)
        out[..., :dd, :dd] = np.einsum("tx,ax,cx,dx,cx,cbe->abetcd", mask, v, vc, vc, ph, amps)
        ideal.append(out)
    t2 = _key_decode(_extract(amps, tab), z_result.decoders, tab)
    g2 = _gram(t2, t2p)
    g3 = _gram(dense_conj_decode(t2p, x_result.decoders, tab, phases[0]), ideal[0])
    t4 = dense_conj_decode(t2, x_result.decoders, tab, phases[1])
    fid = [math.sqrt(min(max(_logical_weight(x, tab, k_dim) / k_dim, 0.0), 1.0))
           for x in (t4, ideal[1])]
    eps_z, eps_x = z_result.average_error, x_result.average_error
    return (z_result, x_result), HashingSimResult(
        n=n, key_dim=k_dim, eps_z=eps_z, eps_x=eps_x, overlap_psi2=float(g2[2].real),
        td_psi2=_chain_distance(g2), bound_psi2=2.0 * math.sqrt(2.0 * eps_z),
        td_psi3=_chain_distance(g3), bound_psi3=2.0 * math.sqrt(2.0 * eps_x),
        td_psi4=_chain_distance(_gram(t4, ideal[1])),
        bound_psi4=2.0 * (math.sqrt(2.0 * eps_z) + math.sqrt(2.0 * eps_x)),
        encoded_fidelity=fid[0], ideal_encoded_fidelity=fid[1])


def near_parallel_keys(theta):
    """sum_a |a>_A |t_a>_B / sqrt(2), t_0 = |0>, t_1 = cos(theta)|0> + sin(theta)|1>."""
    amps = np.array([1.0, 0.0, math.cos(theta), math.sin(theta)]) / math.sqrt(2)
    return StateVector(HilbertSpace((2, 2, 1), ("A", "B", "E")), amps)


CHAIN_CASES = {
    "werner_n3_mx0": lambda: (werner(0.9), 3, sample_universal_css(2, 3, 1, 0, substream(60))),
    "werner_n3_mx1": lambda: (werner(0.9), 3, sample_universal_css(2, 3, 1, 1, substream(61))),
    # four conjugate classes, each spread over two cosets of four strings
    "werner_n3_mx2": lambda: (werner(0.9), 3, sample_universal_css(2, 3, 0, 2, substream(62))),
    "qutrit_n2": lambda: (random_pure_state(HilbertSpace((3, 3, 3), ("A", "B", "E")),
                                            substream(45)),
                          2, CssCode.from_stabilizers(3, [[1, 2]], [], n=2)),
    "pure_e3": lambda: (random_pure_state(HilbertSpace((2, 2, 3), ("A", "B", "E")),
                                          substream(53)),
                        2, sample_universal_css(2, 2, 1, 0, substream(7))),
    # rank-1 members: two per key class in B (dim 4), four per conjugate class
    # in (C, B) (dim 16), so every key and conjugate decoder has a fail element
    "pure_e1_fail": lambda: (random_pure_state(HilbertSpace((2, 2, 1), ("A", "B", "E")),
                                               substream(51)),
                             2, sample_universal_css(2, 2, 1, 0, substream(7))),
    # sum_a |a>|t_a> / sqrt(2) with t_1 = cos(theta) t_0 + sin(theta) t_perp: the
    # PGM support cut drops one key direction, so the chain's C fail slot carries
    # 2.45e-11 of mass, and dropping its copy moves td_psi4 by 1.7e-11
    "near_parallel_c_fail": lambda: (near_parallel_keys(7e-6), 2,
                                     CssCode.from_stabilizers(2, [[1, 1]], [], n=2)),
    # m_x = 1 and rank-1 members: two conjugate classes of two strings in (C, B)
    # (dim 16), each with a fail element
    "pure_e1_mx1_fail": lambda: (random_pure_state(HilbertSpace((2, 2, 1), ("A", "B", "E")),
                                                   substream(3)),
                                 2, sample_universal_css(2, 2, 0, 1, substream(103))),
    # m_x = 1 over E = 9: two conjugate classes, each with its own fail block, which
    # the chunked chain test runs as three environment chunks
    "pure_e3_mx1_fail": lambda: (random_pure_state(HilbertSpace((2, 2, 3), ("A", "B", "E")),
                                                   substream(53)),
                                 2, CssCode.from_stabilizers(2, [], [[1, 1]], n=2)),
}


@pytest.mark.parametrize("case", sorted(CHAIN_CASES))
def test_hashing_chain_matches_the_dense_decode_with_one_root(case, monkeypatch):
    results, want = dense_hashing_chain(*CHAIN_CASES[case]())
    fails = [["fail" in dec.outcome_labels for dec in res.decoders.values()] for res in results]
    if case == "pure_e1_fail":
        assert all(fails[0]) and all(fails[1])
    if case == "pure_e1_mx1_fail":
        assert fails[1] == [True, True]
    # every factorisation of a (dd^2, dd^2) matrix on (C, B), by numpy routine
    state, n, code = CHAIN_CASES[case]()
    size, factorised = (code.d ** n) ** 2, []
    for name in ("eigh", "eigvalsh", "svd", "qr", "cholesky", "eig", "eigvals"):
        def counted(m, *args, _name=name, _run=getattr(np.linalg, name), **kwargs):
            if np.shape(m)[-2:] == (size, size):
                factorised.append(_name)
            return _run(m, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    got = coherent_hashing_sim(state, n, code)
    for key, value in dataclasses.asdict(want).items():
        assert getattr(got, key) == pytest.approx(value, abs=1e-12), key
    # one eigh of the shared representative gives its check and the one root of
    # every class; the fail projector is its own root
    assert factorised == ["eigh"]


def expand_copied_classes(pair, tab):
    """Labels and stacked elements on (C, B) of every conjugate class of a
    ``_copied_conj_classes`` pair: element x is delta_x rep delta_x^dag, with the
    phase delta_x = sqrt(dd) conj(v[:, x]) on C, and the fail element of the class
    of x0 is delta_x0 fail delta_x0^dag."""
    out = {}
    for key, members in tab.beta_classes.items():
        deltas = tab.v[:, members].conj().T * math.sqrt(len(tab.v))
        phases = [np.outer(delta, delta.conj()) for delta in deltas]
        els, labels = [distillation._blockwise(pair.rep, ph) for ph in phases], members.tolist()
        if pair.fail is not None:
            els.append(distillation._blockwise(pair.fail, phases[0]))
            labels.append("fail")
        out[key] = (tuple(labels), np.stack(els))
    return out


@pytest.mark.parametrize("case", sorted(CHAIN_CASES))
def test_copied_conj_classes_match_the_pgm_of_the_copied_rows(case):
    state, n, code = CHAIN_CASES[case]()
    amps = chain_amplitudes(state, n)
    tab = code._tables
    want = _class_pgms(copied_conj_rows(amps, tab), tab.beta_classes)
    # every class expands from the one checked (representative, fail) pair
    pair, error = distillation._copied_conj_classes(amps, tab)
    got = expand_copied_classes(pair, tab)
    assert error == pytest.approx(want.average_error, abs=1e-12)
    for key, dec in want.decoders.items():
        labels, els = got[key]
        assert labels == dec.outcome_labels
        assert np.max(np.abs(els - np.stack(dec.elements))) <= 1e-12, key
        assert error == pytest.approx(want.per_class_error[key], abs=1e-12)
    if case == "pure_e1_fail":
        assert all(dec.outcome_labels[-1] == "fail" for dec in want.decoders.values())


def tampered_pair(pair, how):
    """The shared class pair with one check broken: completeness, or the
    positivity of rep or of fail with the sum kept at the identity."""
    eye, size = np.eye(len(pair.rep)), len(pair.cosets)
    fail = np.zeros_like(eye) if pair.fail is None else pair.fail
    rep, fail = {"scaled": (pair.rep * 1.001, pair.fail),
                 "rep_negative": (pair.rep - 2.0 * eye, fail + 2.0 * size * eye),
                 "fail_negative": (pair.rep + 1e-3 * eye, fail - 1e-3 * size * eye),
                 "nan": (np.where(eye > 0, np.nan, pair.rep), pair.fail)}[how]
    return dataclasses.replace(pair, rep=rep, fail=fail)


@pytest.mark.parametrize("how,match", [("scaled", "do not sum to the identity"),
                                       ("rep_negative", "representative element is not positive"),
                                       ("fail_negative", "fail element is not positive"),
                                       ("nan", "representative element is not hermitian")])
@pytest.mark.parametrize("case", sorted(CHAIN_CASES))
def test_hashing_chain_rejects_a_tampered_class_pair(case, how, match, monkeypatch):
    build = distillation._copied_conj_classes

    def tampered(*args):
        pair, average = build(*args)
        return tampered_pair(pair, how), average

    monkeypatch.setattr(distillation, "_copied_conj_classes", tampered)
    with pytest.raises(InvariantViolation, match=match):
        coherent_hashing_sim(*CHAIN_CASES[case]())


@pytest.mark.parametrize("case", sorted(CHAIN_CASES))
def test_hashing_chain_factorises_only_the_key_classes(case, monkeypatch):
    # the conjugate classes come from one thin SVD per coset: no (dd, dd^2, dd^2)
    # element stack and no PGM of the copied rows
    calls = []
    pgm = discrimination._pgm_of_rows
    monkeypatch.setattr(discrimination, "_pgm_of_rows", lambda *a: calls.append(1) or pgm(*a))
    state, n, code = CHAIN_CASES[case]()
    coherent_hashing_sim(state, n, code)
    assert len(calls) == len(code._tables.alpha_classes)


def test_hashing_chain_never_builds_a_whole_chain_state():
    # the (T, C, D, B, A, E) chain states are summed one (D, B, A, E) slice at a time
    state, n, code = CHAIN_CASES["werner_n3_mx1"]()
    coherent_hashing_sim(state, n, code)  # first call: lazy imports and code tables
    dd, e_dim = code.d ** n, chain_amplitudes(state, n).shape[2]
    chain = code.d ** code.m_x * (dd + 1) ** 2 * dd * dd * e_dim  # E fits in one chunk
    tracemalloc.start()
    try:
        coherent_hashing_sim(state, n, code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chain == 663552
    assert peak < 16 * chain


@pytest.mark.parametrize("case", ["werner_n3_mx1", "pure_e3", "pure_e3_mx1_fail"])
def test_hashing_chain_sums_over_many_environment_chunks(case, monkeypatch):
    # a cap of three environment columns per chunk: the sums run across chunks and slices
    state, n, code = CHAIN_CASES[case]()
    want = dense_hashing_chain(state, n, code)[1]
    dd, e_dim = code.d ** n, chain_amplitudes(state, n).shape[2]
    if case == "pure_e3_mx1_fail":  # per-class fail blocks, over several chunks
        pair = distillation._copied_conj_classes(chain_amplitudes(state, n), code._tables)[0]
        assert pair.fail is not None and len(code._tables.beta_classes) == 2
    monkeypatch.setattr(distillation, "AMPLITUDE_CAP",
                        3 * dd * dd * code.d ** code.m_x * (dd + 1) ** 2)
    chunks = []
    extract = distillation._extract
    monkeypatch.setattr(distillation, "_extract",
                        lambda amps, tab: chunks.append(amps.shape[2]) or extract(amps, tab))
    got = coherent_hashing_sim(state, n, code)
    assert chunks == [3] * (e_dim // 3) + [e_dim % 3] * (e_dim % 3 > 0)
    for key, value in dataclasses.asdict(want).items():
        assert getattr(got, key) == pytest.approx(value, abs=1e-12), key


def plain_p_prime_e(state, code, key_decoders):
    """p'_e from the plain guess layout of ``_key_decode``: one minus the weight of
    the guesses whose logical value is that of A; the fail slot carries none."""
    amps = privacy._key_amplitudes(state)[0]
    tab, dd = code._tables, amps.shape[0]
    t2 = _key_decode(_extract(amps, tab), key_decoders, tab)
    w2 = (np.abs(t2) ** 2).reshape(dd, -1, dd + 1).sum(axis=1)
    lam_c = np.append(tab.lam_of, -1)
    succ = sum(float(w2[tab.lam_of == lam][:, lam_c == lam].sum())
               for lam in range(code.d ** code.k))
    return min(max(1.0 - succ, 0.0), 1.0)


def one_shot_inputs(case):
    """(state, code, key decoders, conjugate decoders) of a one-shot case: the n-copy
    ``CHAIN_CASES`` states, the distill mix's Werner codes, and two shielded inputs."""
    if case in CHAIN_CASES:
        state, n, code = CHAIN_CASES[case]()
        state = tensor_power_grouped(purify(state) if isinstance(state, DensityOperator)
                                     else state, n)
    elif case == "two_copy_xx":
        res = two_copy_scenario(*shield_pair(0.6), "XX", adaptive=True)
        return res.state, res.code, res.key_decoders, res.conj_decoders
    elif case == "shielded_z":
        state = tensor_power_grouped(shielded_bit_state(*shield_pair(0.6)), 2)
        code = CssCode.from_stabilizers(2, [[1, 1]], [], n=2)
    else:
        state, code = ONE_SHOT_CASES[case](1)
    decs = build_css_decoders(state, code)
    return state, code, decs.key_decoders, decs.conj_decoders


@pytest.mark.parametrize("case", sorted(CHAIN_CASES) + sorted(ONE_SHOT_CASES)
                         + ["two_copy_xx", "shielded_z"])
def test_one_shot_p_prime_e_is_the_plain_layout_key_error(case):
    # the one-shot reads p'_e off its encoded layout, logical value first
    state, code, key_decoders, conj_decoders = one_shot_inputs(case)
    out = one_shot_distill(state, code, key_decoders, conj_decoders)
    want = plain_p_prime_e(state, code, key_decoders)
    if case.startswith("werner"):
        assert want > 1e-3
    assert out.transcript["p_prime_e"] == pytest.approx(want, abs=1e-12)


def class_pgm_inputs(case):
    """The (rows, classes) pairs a case decodes with ``_class_pgms``: the hashing chain's
    key rows and copied conjugate rows of a ``CHAIN_CASES`` entry, or the key and
    conjugate rows of ``build_css_decoders`` on a one-shot input."""
    if case in CHAIN_CASES:
        state, n, code = CHAIN_CASES[case]()
        amps, tab = chain_amplitudes(state, n), code._tables
        return [(amps, tab.alpha_classes), (copied_conj_rows(amps, tab), tab.beta_classes)]
    state, code = one_shot_inputs(case)[:2]
    t, tab = privacy._key_amplitudes(state)[0], code._tables
    dd = t.shape[0]
    return [(t.reshape(dd, dd, -1), tab.alpha_classes),
            (np.tensordot(tab.v.conj().T, t, axes=(1, 0)).reshape(dd, -1, t.shape[3]),
             tab.beta_classes)]


@pytest.mark.parametrize("case", sorted(CHAIN_CASES) + sorted(ONE_SHOT_CASES)
                         + ["two_copy_xx", "shielded_z"])
def test_class_pgm_errors_equal_the_member_loop_bit_for_bit(case):
    for rows, classes in class_pgm_inputs(case):
        res = _class_pgms(rows, classes)
        per_class, average = loop_class_errors(rows, classes, res.decoders)
        assert res.per_class_error == per_class
        assert res.average_error == average


def test_class_weights_are_within_two_ulps_of_their_exact_sums():
    # the conjugate rows of `distill --state werner --d 9 --p 0.9 --code-kind sampled
    # --code-d 3 --code-n 2 --m-z 1`, where one einsum over every row put a weight
    # 68 ulps (9.4e-16) off and their total at 1 + 8.7e-15
    state, _ = build_state({"kind": "werner", "d": 9, "p": 0.9}, 7)
    code = build_code({"kind": "sampled", "d": 3, "n": 2, "m_z": 1}, 7)
    t, tab = privacy._key_amplitudes(state)[0], code._tables
    rows = np.tensordot(tab.v.conj().T, t, axes=(1, 0)).reshape(9, -1, t.shape[3])
    exact = (rows.real.astype(np.longdouble) ** 2
             + rows.imag.astype(np.longdouble) ** 2).sum(axis=(1, 2))
    weights = _row_weights(rows)
    assert np.all(np.abs(weights - exact) <= 2 * np.spacing(exact.astype(float)))
    assert abs(float(weights.sum()) - 1.0) <= 4e-16


@pytest.mark.parametrize("d", [2, 3])
def test_hashing_sim_bell_input_scores_its_key_decoders_exactly_zero(d):
    argv = ["hashing-sim", "--state", "bell", "--d", str(d), "--n", "2", "--code-kind",
            "explicit", "--code-d", str(d), "--code-n", "2", "--mz-rows", "1,1"]
    res = json.loads(run(argv))["results"]
    assert res["eps_z"] == res["bound_psi2"] == 0.0


@pytest.mark.parametrize("label", ["C", "D", "R", "T"])
def test_one_shot_takes_a_shield_named_like_a_protocol_register(label):
    # the shield is folded into one axis, and the final state names its own registers
    psi = shielded_bit_state(*shield_pair(0.6))
    renamed = StateVector(HilbertSpace(psi.space.dims, ("A", "B", label, "E")), psi.amplitudes)
    code = CssCode.trivial(2, 1)
    outs = []
    for state in (psi, renamed):
        decs = build_css_decoders(state, code)
        outs.append(one_shot_distill(state, code, decs.key_decoders, decs.conj_decoders))
    assert outs[1].transcript == outs[0].transcript
    assert outs[1].final_state.space == outs[0].final_state.space
    assert np.array_equal(outs[1].final_state.amplitudes, outs[0].final_state.amplitudes)


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
    tab = code._tables
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
    tab = code._tables
    strings = np.arange(4)
    for p in (0.97, 0.9):
        psi = tensor_power_grouped(purify(werner(p), "E"), 2)
        decs = build_css_decoders(psi, code)
        ens_z = loop_ensemble(psi, None, ("B",))
        ens_x = loop_ensemble(psi, tab.v, ("B",))
        rows_z = psi.amplitudes.reshape(4, 4, -1)
        rows_x = np.tensordot(tab.v.conj().T, rows_z, axes=(1, 0))
        for rows, ens, decoders, classes, class_of in (
                (rows_z, ens_z, decs.key_decoders, tab.alpha_classes, tab.alpha_of),
                (rows_x, ens_x, decs.conj_decoders, tab.beta_classes, tab.beta_of)):
            assert _guess_error(rows, decoders, classes, strings)[0] == pytest.approx(
                loop_guess_error(ens, decoders, list(classes), class_of, strings), abs=1e-12)
        out = one_shot_distill(psi, code, decs.key_decoders, decs.conj_decoders)
        eps_z, eps_x = loop_string_errors(psi, code, decs.key_decoders, decs.conj_decoders)
        assert out.transcript["eps_z"] == pytest.approx(eps_z, abs=1e-12)
        assert out.transcript["eps_x"] == pytest.approx(eps_x, abs=1e-12)
    for stab, adaptive in (("XX", True), ("XX", False), ("XI", True)):
        res = two_copy_scenario(*shield_pair(0.6), stab, adaptive=adaptive)
        tab2 = res.code._tables
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
    tab = code._tables
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
    if isinstance(psi, DensityOperator):
        psi = purify(psi)
    tab = code._tables
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


@pytest.mark.parametrize("stab", ["XX", "XI", "IX"])
@pytest.mark.parametrize("adaptive", [True, False])
def test_two_copy_scenario_builds_only_the_key_conditionals(factorised, monkeypatch, stab,
                                                            adaptive):
    # the key and conjugate decoders come straight from the amplitudes, and
    # every pair test of the conjugate decoders shares one batched eigh
    built = count_density_builds(monkeypatch)
    two_copy_scenario(*shield_pair(0.6), stab, adaptive=adaptive)
    assert not built
    assert len(factorised["eigh"]) == 1


def test_four_copy_conjugate_decoders_complete_to_machine_precision():
    # the n=4 hashing decoders: the copied conjugate class average has support
    # eigenvalues down to 2.4e-8, where an inverse square root of the average
    # completes only to about 5e-10
    code = CssCode.from_stabilizers(2, [[1, 1, 1, 1]], [], n=4)
    psi = tensor_power_grouped(purify(werner(0.95)), 4)
    decs = build_css_decoders(psi, code)
    tab = code._tables
    pair, x_error = distillation._copied_conj_classes(
        privacy._key_amplitudes(psi)[0].reshape(16, 16, -1), tab)
    conj = [els for _, els in expand_copied_classes(pair, tab).values()]
    for els in (*(np.stack(dec.elements) for dec in decs.key_decoders.values()), *conj):
        total = els.sum(axis=0)
        assert np.max(np.abs(total - np.eye(len(total)))) <= 1e-12
    assert conj[0].shape[-1] == 256
    # the errors of the inverse-square-root construction
    assert decs.z_result.average_error == pytest.approx(0.07670472888270297, abs=1e-9)
    assert x_error == pytest.approx(0.14062772726589967, abs=1e-9)


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


WERNER_D9 = ["distill", "--state", "werner", "--d", "9", "--p", "0.9", "--code-kind", "sampled",
             "--code-d", "3", "--code-n", "2", "--m-z", "1", "--seed", "3"]


@pytest.mark.parametrize("foreign", ["next_class", "nan"])
def test_one_shot_frame_rejects_a_source_of_another_marginal(monkeypatch, foreign):
    # the frame of slice R = r must come from the rows of alpha class r: the rows
    # of class r + 1 (same weight, another support) or NaN rows break the check
    state = purify(build_state({"kind": "werner", "d": 9, "p": 0.9}, 3)[0])
    code = build_code({"kind": "sampled", "d": 3, "n": 2, "m_z": 1}, 3)
    amps, classes = privacy._key_amplitudes(state)[0], list(code._tables.alpha_classes.values())
    real, calls = distillation._block_frame, []

    def swapped(w, source):
        calls.append(source)
        if foreign == "nan":
            return real(w, source=np.full_like(source, np.nan))
        other = amps[classes[len(calls) % len(classes)]].reshape(source.shape)
        assert not np.allclose(other, source)
        return real(w, source=other)

    monkeypatch.setattr(distillation, "_block_frame", swapped)
    match = {"next_class": "leave the frame of rho_E", "nan": "not finite"}[foreign]
    with pytest.raises(InvariantViolation, match=match):
        run(WERNER_D9)
    assert len(calls) == 1


def count_table_builds(monkeypatch):
    """Record one entry for every ``_CodeTables`` built."""
    built = []
    monkeypatch.setattr(css_codes, "_CodeTables",
                        lambda _cls=css_codes._CodeTables, **kw: built.append(1) or _cls(**kw))
    return built


def test_sampled_distill_builds_its_code_tables_once(monkeypatch):
    # build_css_decoders and one_shot_distill share the tables of one code object
    built = count_table_builds(monkeypatch)
    run(WERNER_D9)
    assert len(built) == 1


def test_appd_builds_each_two_copy_code_table_once_and_no_key_decoders(monkeypatch):
    distillation._two_copy_code.cache_clear()
    built = count_table_builds(monkeypatch)
    pgms = []
    monkeypatch.setattr(distillation, "_class_pgms",
                        lambda *a, _f=_class_pgms, **k: pgms.append(1) or _f(*a, **k))
    for _ in range(2):
        for stab in ("XX", "XI", "IX"):
            run(["appd", "--s", "0.3", "--s", "0.6", "--stabilizer", stab])
    assert len(built) == 3
    assert not pgms


def test_two_copy_key_decoders_built_when_read_equal_the_eager_ones():
    sc = two_copy_scenario(*_shield_pair(0.6, 2), "XX", True)
    assert "key_decoders" not in vars(sc)
    eager = build_css_decoders(sc.state, sc.code).key_decoders
    assert sc.key_decoders is sc.key_decoders
    assert set(sc.key_decoders) == set(eager)
    for key, dec in eager.items():
        assert sc.key_decoders[key].outcome_labels == dec.outcome_labels
        for got, want in zip(sc.key_decoders[key].elements, dec.elements, strict=True):
            assert np.array_equal(got, want)


def test_code_tables_are_shared_and_read_only():
    code = sample_universal_css(3, 2, 1, 0, substream(90))
    tab = code._tables
    assert code._tables is tab
    arrays = [v for v in vars(tab).values() if isinstance(v, np.ndarray)]
    arrays += [*tab.alpha_classes.values(), *tab.beta_classes.values()]
    assert len(arrays) == 9 + 3 + 1
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    with pytest.raises(TypeError):
        tab.alpha_classes[(0,)] = np.arange(3)
