"""Command-line workbench: subcommands, determinism, exit codes."""

import argparse
import csv
import dataclasses
import io
import json
import os
import re
import shlex
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from privlab import (ConjugateBasis, HilbertSpace, StateVector, TwistingOperator,
                     build_css_decoders, certify_private, haar_unitary, haar_vector,
                     maximally_entangled, one_shot_distill, random_pure_state,
                     twisting_conjugate_measurement, uhlmann_conjugate_measurement)
import privlab
from privlab import cli, privacy, tensor_core
from privlab.cli import MAX_TRIALS, build_code, build_parser, build_state, main, run
from privlab.qudit_ops import _private_vector
from privlab.tensor_core import AMPLITUDE_CAP
from privlab.sampling import substream
from conftest import largest_side


def payload(argv):
    return json.loads(run(argv))


def results_of(argv):
    return payload(argv)["results"]


def test_rates_bell_payload():
    rep = payload(["rates", "--state", "bell", "--d", "2", "--seed", "3"])
    assert rep["command"] == "rates"
    assert rep["seed"] == 3
    res = rep["results"]
    assert res["rate"] == pytest.approx(1.0, abs=1e-9)
    assert res["ck_rate"] == pytest.approx(1.0, abs=1e-9)
    assert res["identity_residual"] <= 1e-10


def test_verify_projective_werner():
    res = results_of(["verify", "--state", "werner", "--d", "2", "--p", "0.9",
                      "--measurement", "projective", "--seed", "3"])
    assert res["p_e"] == pytest.approx(0.05, abs=1e-9)
    assert res["eps_direct"] <= res["eps_certified"] + 1e-6


def test_verify_twisting_exact_state():
    res = results_of(["verify", "--state", "twisted", "--d", "2",
                      "--shield-dim", "3", "--measurement", "twisting",
                      "--seed", "9"])
    assert res["p_e"] <= 1e-10
    assert res["p_tilde_e"] <= 1e-10
    assert res["eps_direct"] <= 1e-9
    assert res["measurement_used"] == "twisting_conjugate"


@pytest.mark.parametrize("d, sh, seed", [(2, 3, 7), (4, 8, 11)])
def test_twisted_state_draws_only_the_diagonal_blocks(monkeypatch, d, sh, seed):
    drawn = []
    monkeypatch.setattr(cli, "_keyed_normals", lambda s, keys, shape, _f=cli._keyed_normals:
                        drawn.append((list(keys), shape)) or _f(s, keys, shape))
    state, extras = build_state({"kind": "twisted", "d": d, "shield_dim": sh}, seed)
    # d Ginibre draws of sh x sh at the diagonal keys, then xi at key 0
    assert drawn == [([1 + k * (d + 1) for k in range(d)], (2, sh, sh)), ([0], (2, sh))]
    # the full d x d draw it replaces: block (j, k) from substream(seed, 1 + j d + k)
    blocks = {(j, k): haar_unitary(sh, substream(seed, 1 + j * d + k))
              for j in range(d) for k in range(d)}
    full = TwistingOperator(HilbertSpace((d, d, sh), ("A", "B", "S")), blocks)
    xi = StateVector(HilbertSpace((sh,), ("S",)), haar_vector(sh, substream(seed, 0)))
    want = _private_vector(d, full, xi)
    assert np.array_equal(state.amplitudes, want.amplitudes)
    for k in range(d):
        assert np.array_equal(extras["twisting"].blocks[(k, k)], blocks[(k, k)])
    # the twisting payload of the README command is the full draw's
    res = results_of(["verify", "--state", "twisted", "--d", str(d), "--shield-dim", str(sh),
                      "--measurement", "twisting", "--seed", str(seed)])
    rep = certify_private(want, conj_povm=twisting_conjugate_measurement(
        full, ConjugateBasis.fourier(d)), povm_labels=("B", "S"),
        measurement_name="twisting_conjugate")
    assert res == dataclasses.asdict(rep)


@pytest.mark.parametrize("spec", [{"kind": "werner", "d": 6, "p": 0.9},
                                  {"kind": "twisted", "d": 4, "shield_dim": 8}])
def test_verify_uhlmann_scores_the_key_tests_once(monkeypatch, spec):
    scored = []
    monkeypatch.setattr(privacy, "key_error_rates",
                        lambda *a, _f=privacy.key_error_rates, **k: scored.append(1) or _f(*a, **k))
    argv = ["verify", "--measurement", "uhlmann", "--seed", "3"]
    for key, value in spec.items():
        argv += [f"--{key.replace('_', '-')}" if key != "kind" else "--state", str(value)]
    res = results_of(argv)
    assert len(scored) == 1  # both key tests, scored once
    # the same payload as certifying again with the partner's POVM
    state, _ = build_state(spec, 3)
    rec = uhlmann_conjugate_measurement(state)
    want = certify_private(state, conj_povm=rec.povm, povm_labels=rec.povm_labels,
                           measurement_name="uhlmann_partner")
    assert res == {**dataclasses.asdict(want), "fidelity": rec.fidelity,
                   "bound": rec.bound, "pad_dim": rec.pad_dim}


def test_verify_purifies_a_density_once(monkeypatch):
    # the key tests and the direct distance read one purification of the Werner
    # density; each on its own reads the same figures
    state, _ = build_state({"kind": "werner", "d": 12, "p": 0.9}, 1)
    cb = ConjugateBasis.fourier(12)
    p_e, p_tilde_e = privacy.key_error_rates(state, cb, privacy.star_projective_povm(cb),
                                             povm_labels=("B",))
    want = {"p_e": p_e, "p_tilde_e": p_tilde_e, "eps_certified": p_e + p_tilde_e ** 0.5,
            "eps_direct": privacy.epsilon_secret_direct(state)}
    purified = []
    for mod in (privlab, privlab.tensor_core):
        monkeypatch.setattr(mod, "purify",
                            lambda *a, _f=mod.purify, **k: purified.append(1) or _f(*a, **k))
    res = results_of(["verify", "--state", "werner", "--d", "12", "--p", "0.9",
                      "--measurement", "projective", "--seed", "1"])
    assert len(purified) == 1
    for key, value in want.items():
        assert res[key] == pytest.approx(value, abs=1e-12), key


@pytest.mark.parametrize("line", [
    "verify --state twisted --d 12 --shield-dim 144 --measurement projective",
    "verify --state bell_power --d 4 --copies 3 --measurement projective",
])
def test_verify_scores_pure_states_past_the_measurement_ket_stack(capsys, line):
    # a reduction through both POVMs would stack n_A n_B D kets: 2985984
    # amplitudes for the 20736-amplitude twisted state, 16777216 for the 4096 of
    # the Bell power; the key tests read the state's own amplitude rows
    assert main(line.split()) == 0
    rep = json.loads(capsys.readouterr().out)
    res = rep["results"]
    assert res["p_e"] == 0.0
    if "bell_power" in line:
        assert res["p_tilde_e"] == res["eps_direct"] == 0.0
        return
    assert res["eps_direct"] <= 1e-12
    # Alice's Fourier outcome x leaves Bob the rows sum_j conj(v_jx) |j> (x) s_j / sqrt(d),
    # s_j = V_jj xi, so the star-basis guess hits with ||sum_j s_j / d||^2
    state, _ = build_state({"kind": "twisted", "d": 12, "shield_dim": 144}, rep["seed"])
    diag = state.amplitudes.reshape(12, 12, 144)[np.arange(12), np.arange(12)]
    assert abs(res["p_tilde_e"] - (1.0 - np.linalg.norm(diag.sum(axis=0)) ** 2 / 12)) <= 1e-12


def test_verify_uhlmann_purifies_once(factorised, monkeypatch):
    # the partner and the report read one purification of the 36 x 36 state,
    # taken from its Bell eigenbasis with no eigensolve
    purified = []
    for mod in (privlab.tensor_core,):
        monkeypatch.setattr(mod, "purify",
                            lambda *a, _f=mod.purify, **k: purified.append(1) or _f(*a, **k))
    results_of(["verify", "--state", "werner", "--d", "6", "--p", "0.9",
                "--measurement", "uhlmann", "--seed", "3"])
    assert len(purified) == 1
    assert (36, 36) not in factorised["eigh"]


def test_werner_build_validates_one_matrix(factorised):
    # the maximally entangled projector is read from amplitudes, not validated,
    # and the Werner matrix's positivity is read off its Bell spectrum
    state, _ = build_state({"kind": "werner", "d": 12, "p": 0.9}, 0)
    assert not factorised["eigvalsh"]
    assert not factorised["eigh"]
    # the same matrix as from the validated projector
    phi = maximally_entangled(12).density().matrix
    assert np.array_equal(state.matrix, 0.9 * phi + (1.0 - 0.9) * np.eye(144) / 144)


def test_distill_purifies_a_mixed_state_once(monkeypatch):
    purified = []
    for mod in (privlab.tensor_core,):
        monkeypatch.setattr(mod, "purify",
                            lambda *a, _f=mod.purify, **k: purified.append(1) or _f(*a, **k))
    argv = ["distill", "--state", "werner", "--d", "9", "--p", "0.9", "--code-kind",
            "sampled", "--code-d", "3", "--code-n", "2", "--m-z", "1", "--seed", "5"]
    res = results_of(argv)
    assert len(purified) == 1
    # the same payload as purifying for the decoders and the protocol apart
    state, _ = build_state({"kind": "werner", "d": 9, "p": 0.9}, 5)
    code = build_code({"kind": "sampled", "d": 3, "n": 2, "m_z": 1}, 5)
    decs = build_css_decoders(state, code)
    out = one_shot_distill(state, code, decs.key_decoders, decs.conj_decoders)
    assert res == {**out.transcript, "key_dim": out.key_dims[0]}


# Werner command lines, each run at p = 0, 0.9 and 1
WERNER_LINES = [
    "verify --state werner --d 6 --measurement projective --seed 3",
    "verify --state werner --d 12 --measurement projective --seed 3",
    "verify --state werner --d 3 --measurement uhlmann --seed 3",
    "verify --state werner --d 6 --measurement uhlmann --seed 3",
    "rates --state werner --d 5 --seed 3",
    "distill --state werner --d 9 --code-kind sampled --code-d 3 --code-n 2 --m-z 1 --seed 5",
    "distill --state werner --d 8 --code-kind sampled --code-d 2 --code-n 3 --m-z 1 --m-x 1"
    " --seed 5",
    "hashing-sim --state werner --d 2 --n 3 --code-kind sampled --code-d 2 --code-n 3 --m-z 1"
    " --seed 5",
]
# payload entries that are square roots of others; at p = 1 they are roots of
# rounding dust, so their squares are compared
ROOT_KEYS = {"eps_certified", "bound_psi2", "bound_psi3", "bound_psi4"}


def generic_werner(monkeypatch):
    """Build Werner states as a plain DensityOperator of the same matrix, so
    that its validation and purification factorise it."""
    monkeypatch.setattr(cli.DensityOperator, "_from_eigensystem",
                        lambda space, matrix, vals, vecs: cli.DensityOperator(space, matrix))


@pytest.mark.parametrize("p", ["0", "0.9", "1"])
@pytest.mark.parametrize("line", WERNER_LINES)
def test_werner_payloads_match_the_generic_path(monkeypatch, line, p):
    argv = line.split() + ["--p", p]
    got = results_of(argv)
    generic_werner(monkeypatch)
    want = results_of(argv)
    assert set(got) == set(want)
    for key, value in want.items():
        if isinstance(value, float):
            a, b = (got[key] ** 2, value ** 2) if key in ROOT_KEYS else (got[key], value)
            assert abs(a - b) <= 1e-12, key
        else:
            assert got[key] == value, key


@pytest.mark.parametrize("p", ["nan", "-0.1", "1.1", "inf"])
def test_werner_rejects_bad_weights(tmp_path, capsys, p):
    assert main(["verify", "--state", "werner", "--d", "3", "--p", p]) == 2
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"state": {"kind": "werner", "d": 3, "p": float(p)}}))
    assert main(["rates", "--config", str(path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("line, d", [
    ("verify --state werner --d 12 --p 0.9 --measurement projective", 12),
    ("verify --state werner --d 6 --p 0.9 --measurement uhlmann", 6),
    ("hashing-sim --state werner --d 2 --p 0.9 --n 3 --code-kind sampled --code-d 2 "
     "--code-n 3 --m-z 1", 2),
    ("rates --state werner --d 6 --p 0.9", 6),
    ("distill --state werner --d 9 --p 0.9 --code-kind sampled --code-d 3 --code-n 2 --m-z 1", 9),
    ("distill --state werner --d 8 --p 0.9 --code-kind sampled --code-d 2 --code-n 3 --m-z 1 "
     "--m-x 1", 8),
])
def test_werner_paths_factorise_no_werner_matrix(factorised, monkeypatch, line, d):
    """Of the D x D factorisations the generic path runs, exactly the
    validation eigvalsh and the purification eigh are gone; verify and
    hashing-sim run none at all.  Those left in rates and distill are the
    rate formulas' conditional spectra and the one-shot distance's rho_E
    slices, not the Werner matrix."""
    def counts():
        return [factorised[name].count((d * d, d * d)) for name in ("eigh", "eigvalsh")]

    results_of(line.split())
    got = counts()
    for shapes in factorised.values():
        shapes.clear()
    generic_werner(monkeypatch)
    results_of(line.split())
    assert counts() == [got[0] + 1, got[1] + 1]
    if line.startswith(("verify", "hashing-sim")):
        assert got == [0, 0]


def test_verify_uhlmann_reports_bound():
    res = results_of(["verify", "--state", "werner", "--d", "2", "--p", "0.9",
                      "--measurement", "uhlmann", "--seed", "3"])
    assert res["p_tilde_e"] <= res["bound"] + 1e-6
    assert res["measurement_used"] == "uhlmann_partner"
    assert 0.0 <= res["fidelity"] <= 1.0


def test_distill_bell_pairs():
    res = results_of(["distill", "--state", "bell_power", "--d", "2",
                      "--copies", "2", "--code-kind", "explicit", "--code-d",
                      "2", "--code-n", "2", "--seed", "4"])
    assert res["k"] == 2 and res["key_dim"] == 4
    assert res["eps_direct"] <= 1e-9


def test_distill_two_copy_scenario():
    res = results_of(["distill", "--state", "shielded_bit", "--s", "0.6",
                      "--code-kind", "two_copy", "--stabilizer", "XX",
                      "--seed", "4"])
    assert res["scenario_error"] == pytest.approx(0.0335239, abs=1e-6)
    assert res["eps_certified"] == pytest.approx(0.18310, abs=1e-4)
    assert res["eps_direct"] <= res["eps_certified"]


def test_hashing_sim_command():
    res = results_of(["hashing-sim", "--state", "werner", "--d", "2", "--p",
                      "0.95", "--n", "2", "--code-kind", "explicit",
                      "--code-d", "2", "--code-n", "2", "--mz-rows", "1 1",
                      "--seed", "4"])
    assert res["td_psi4"] <= res["bound_psi4"]
    assert res["overlap_psi2"] >= 1.0 - res["eps_z"]


@pytest.mark.parametrize("line", [
    "hashing-sim --state werner --d 2 --p 0.9 --n 3 --code-kind sampled --code-d 2 --m-z 1",
    "hashing-sim --state werner --d 2 --p 0.95 --n 2 --code-kind explicit --code-d 2 "
    "--mz-rows 1,1",
])
def test_hashing_sim_code_without_a_length_takes_the_number_of_copies(line):
    n = line.split()[line.split().index("--n") + 1]
    assert results_of(line.split()) == results_of(line.split() + ["--code-n", n])


def test_hashing_sim_code_length_mismatch_names_both_flags(capsys):
    line = ("hashing-sim --state werner --d 2 --p 0.9 --n 3 --code-kind explicit "
            "--code-d 2 --code-n 2 --mz-rows 1,1")
    assert main(line.split()) == 2
    err = capsys.readouterr().err
    assert "--n 3" in err and "--code-n 2" in err


@pytest.mark.parametrize("line, length, n", [
    ("hashing-sim --state werner --d 2 --p 0.9 --n 3 --code-kind explicit --code-d 2 "
     "--code-n 3 --mz-rows 1,1", 2, 3),
    ("distill --state werner --d 4 --p 0.9 --code-kind explicit --code-d 2 --code-n 2 "
     "--mx-rows '1 1 1'", 3, 2),
    ("hashing-sim --state werner --d 2 --p 0.9 --n 2 --code-kind explicit --code-d 2 "
     "--code-n 2 --mz-rows '1 1; 1 1 0'", 3, 2),
])
def test_explicit_rows_of_the_wrong_length_name_both_lengths(capsys, line, length, n):
    assert main(shlex.split(line)) == 2
    err = capsys.readouterr().err
    assert f"{length} entries" in err and f"n = {n}" in err, err


def test_css_sample_and_universality():
    rep = payload(["css", "--mode", "sample", "--d", "2", "--n", "3", "--m-z",
                   "1", "--m-x", "1", "--count", "3", "--seed", "12"])
    rows = rep["results"]["codes"]
    assert len(rows) == 3
    for row in rows:
        mz = json.loads(row["mz_rows"])
        mx = json.loads(row["mx_rows"])
        assert not np.any(np.dot(mz, np.transpose(mx)) % 2)
    res = results_of(["css", "--mode", "universality", "--d", "2", "--n", "3",
                      "--m", "1", "--trials", "2000", "--seed", "12"])
    assert res["reference"] == pytest.approx(0.5)
    assert abs(res["collision_rate"] - 0.5) <= 5 * res["std_error"] + 1e-3


def test_css_universality_x_slice_collides_at_d_to_the_minus_m():
    # x rows uniform over the dual of no z rows: a uniform m-symbol syndrome hash
    res = results_of(["css", "--mode", "universality", "--d", "3", "--n", "4", "--m", "2",
                      "--row-slice", "x", "--trials", "4000", "--seed", "5"])
    assert res["reference"] == pytest.approx(3.0 ** -2)
    assert abs(res["collision_rate"] - 3.0 ** -2) <= 4 * res["std_error"]


def test_css_sample_csv_quotes_its_json_cells():
    argv = ["css", "--mode", "sample", "--d", "3", "--n", "3", "--m-z", "1", "--m-x", "1",
            "--count", "2", "--seed", "4"]
    text = run(argv + ["--format", "csv"])
    assert '"[[' in text
    rows = list(csv.DictReader(io.StringIO(text)))
    codes = results_of(argv)["codes"]
    assert len(rows) == len(codes) == 2
    for row, code in zip(rows, codes):
        for key in ("mz_rows", "mx_rows", "logical_z", "logical_x"):
            assert json.loads(row[key]) == json.loads(code[key])


def test_twisted_build_factors_one_block_at_a_time():
    # 3.0x the (d, s, s) blocks' bytes; one batched QR of all d blocks reads 5.0x
    d, sh = 4, 200
    build_state({"kind": "twisted", "d": d, "shield_dim": sh}, 7)
    tracemalloc.start()
    try:
        build_state({"kind": "twisted", "d": d, "shield_dim": sh}, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * d * sh * sh * 16


def test_audit_trials_and_twisted_builds_build_no_generator_each(monkeypatch):
    # the batched draws re-key one Philox per call; only the worst-trial
    # re-audit, the oracle of the stacked terms, draws through substream
    calls = []
    monkeypatch.setattr(cli, "substream", lambda *a, _f=cli.substream: calls.append(a) or _f(*a))
    results_of(["uncertainty", "--mode", "maassen_uffink", "--d", "5", "--trials", "50"])
    assert len(calls) <= 1
    calls.clear()
    build_state({"kind": "twisted", "d": 3, "shield_dim": 4}, 7)
    assert calls == []


def test_uncertainty_command_all_modes():
    for mode in ("maassen_uffink", "cit", "quantum_cit"):
        res = results_of(["uncertainty", "--mode", mode, "--d", "3",
                          "--trials", "25", "--seed", "2"])
        assert res["mode"] == mode
        assert res["min_slack"] >= -1e-9
        assert res["trials"] == 25


K0_CHAIN = ("hashing-sim --state werner --d 2 --p 0.9 --n 2 --code-kind explicit "
            "--code-d 2 --code-n 2 --mx-rows").split() + ["1 0; 0 1"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_chain_bounds_hold_up_to_rounding_on_a_k0_code(seed):
    # m_x = n leaves no key: bound_psi3 is 0.0, and td_psi3 reads a few 1e-15
    res = results_of(K0_CHAIN + ["--seed", str(seed)])
    assert res["key_dim"] == 1 and res["bound_psi3"] == 0.0
    assert res["td_psi3"] <= res["bound_psi3"] + 1e-9


def test_a_chain_distance_over_its_bound_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(privlab.distillation, "_chain_distance", lambda g: 3.0)
    assert main(K0_CHAIN) == 3
    assert "td_psi2 = 3.0 exceeds its bound" in capsys.readouterr().err


def test_an_audit_slack_below_the_relation_exits_3(monkeypatch, capsys):
    # the stacked terms and the worst trial's own audit are shifted alike, so
    # the cross-check passes and the relation itself fails: slack <= -1
    trials, audit = cli._audit_trials, cli.uncertainty_audit
    monkeypatch.setattr(cli, "_audit_trials", lambda *a: trials(*a) - 1.0)
    monkeypatch.setattr(cli, "uncertainty_audit", lambda *a, **k: dataclasses.replace(
        rec := audit(*a, **k), lhs_terms=tuple(t - 1.0 for t in rec.lhs_terms)))
    assert main(["uncertainty", "--mode", "maassen_uffink", "--d", "2", "--trials", "5"]) == 3
    err = capsys.readouterr().err
    assert "maassen_uffink relation fails on trial" in err and "off its single audit" not in err


@pytest.mark.parametrize("command,cfg,named", [
    ("verify", {"state": {"kind": ["bell"]}}, "unknown state kind ['bell']"),
    ("css", {"mode": ["sample"]}, "unknown css mode ['sample']"),
    ("distill", {"code": {"kind": {"a": 1}}}, "unknown code kind {'a': 1}"),
    ("distill", {"code": {"kind": "two_copy", "stabilizer": ["XX"]}},
     "unknown stabilizer \"['XX']\""),
])
def test_config_entries_of_the_wrong_json_type_name_themselves(command, cfg, named,
                                                               tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path)]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("workload", ["audit", "certify", "distill"])
def test_first_round_replays_the_benchmark_reference(monkeypatch, workload):
    # the benchmark's recorded payloads, checked in tier-1 and not only in bench runs
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import oracle
    from workloads import DEFAULT_SEED, MIXES, op_argv

    refs = oracle.load_reference(workload)
    for i in range(len(MIXES[workload])):
        argv = op_argv(workload, DEFAULT_SEED, i)
        assert refs[i]["argv"] == argv
        assert oracle.compare(results_of(argv), refs[i]["results"]) == [], argv


def test_appd_sweep():
    res = results_of(["appd", "--s", "0.6", "--s", "0.3", "--seed", "2"])
    rows = res["sweep"]
    assert len(rows) == 2
    for row in rows:
        assert row["adaptive_error"] < row["nonadaptive_error"]
        assert row["adaptive_error"] == pytest.approx(
            row["adaptive_analytic"], abs=1e-6)


def test_json_determinism():
    argv = ["verify", "--state", "twisted", "--d", "2", "--shield-dim", "2",
            "--measurement", "twisting", "--seed", "11"]
    a = payload(argv)
    b = payload(argv)
    assert json.dumps(a["results"], sort_keys=True) == \
        json.dumps(b["results"], sort_keys=True)


def test_csv_determinism_and_shape(tmp_path):
    argv = ["appd", "--s", "0.5", "--seed", "6", "--format", "csv"]
    a = run(argv)
    b = run(argv)
    assert a == b
    lines = a.strip().splitlines()
    assert lines[0].split(",")[0] == "s"
    assert len(lines) == 2


def test_out_file_atomic_write(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["rates", "--state", "bell", "--d", "2", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["results"]["rate"] == pytest.approx(1.0, abs=1e-9)
    assert not [p for p in os.listdir(tmp_path) if p != "report.json"]


def test_a_failed_replace_exits_4_and_leaves_no_temp_file(tmp_path, monkeypatch, capsys):
    def refuse(src, dst):
        raise OSError("replace refused")
    monkeypatch.setattr(cli.os, "replace", refuse)
    assert main(["rates", "--state", "bell", "--d", "2", "--out", str(tmp_path / "r.json")]) == 4
    assert "replace refused" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_config_must_hold_a_json_object(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps([{"state": {"kind": "bell", "d": 2}}]))
    assert main(["rates", "--config", str(path)]) == 2
    assert "--config must hold a JSON object" in capsys.readouterr().err


def test_integral_floats_in_a_config_are_read_as_integers(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"state": {"kind": "bell", "d": 2.0}}))
    assert results_of(["rates", "--config", str(path)]) == \
        results_of(["rates", "--state", "bell", "--d", "2"])


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"state": {"kind": "werner", "d": 2, "p": 0.5},
                               "measurement": "projective"}))
    res = results_of(["verify", "--config", str(cfg), "--seed", "3"])
    assert res["p_e"] == pytest.approx(0.25, abs=1e-9)
    # flags override the file
    res2 = results_of(["verify", "--config", str(cfg), "--seed", "3",
                       "--state", "werner", "--d", "2", "--p", "0.9"])
    assert res2["p_e"] == pytest.approx(0.05, abs=1e-9)
    # the flags of a spec form a new spec: one without a kind is rejected
    assert main(["verify", "--config", str(cfg), "--p", "0.9"]) == 2


@pytest.mark.parametrize("s", [0.0, 0.3, 0.6, 0.9, 1.0])
def test_verify_uhlmann_leaves_e_to_eve(s, tmp_path, capsys):
    # the shielded bit carries Eve's E register; the partner is built from
    # the marginal on (A, B, S) and scored with Eve holding E, as projective is
    argv = ["verify", "--state", "shielded_bit", "--s", str(s), "--measurement"]
    out = tmp_path / "uhlmann.json"
    assert main(argv + ["uhlmann", "--out", str(out)]) == 0, capsys.readouterr().err
    res = json.loads(out.read_text())["results"]
    assert res["p_tilde_e"] <= res["bound"] + 1e-6
    assert abs(res["eps_direct"] - results_of(argv + ["projective"])["eps_direct"]) <= 1e-12


def test_file_state_gives_the_inline_results(tmp_path, capsys):
    spec = {"dims": [2, 2, 2], "labels": ["A", "B", "E"],
            "amps": [[0.6, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0],
                     [0.0, 0.0], [0.0, 0.0], [0.0, 0.48], [0.64, 0.0]]}
    state_file, cfg = tmp_path / "state.json", tmp_path / "cfg.json"
    state_file.write_text(json.dumps(spec))
    cfg.write_text(json.dumps({"state": {"kind": "inline", **spec}}))
    for command in (["rates"], ["verify", "--measurement", "projective"]):
        assert results_of(command + ["--state", "file", "--state-file", str(state_file)]) \
            == results_of(command + ["--config", str(cfg)])
    state_file.write_text(json.dumps([spec]))
    assert main(["rates", "--state", "file", "--state-file", str(state_file)]) == 2
    assert "a state file must hold a JSON object" in capsys.readouterr().err


def test_inline_state_round_trip():
    spec = {"state": {"kind": "inline", "dims": [2, 2], "labels": ["A", "B"],
                      "amps": [[0.7071067811865476, 0.0], [0.0, 0.0],
                               [0.0, 0.0], [0.7071067811865476, 0.0]]}}
    state, _ = build_state(spec["state"], 0)
    assert state.space.labels == ("A", "B")
    # the same amplitudes given as flat (re, im) pairs
    flat = {**spec["state"], "amps": [v for pair in spec["state"]["amps"] for v in pair]}
    assert np.array_equal(build_state(flat, 0)[0].amplitudes, state.amplitudes)


def test_exit_code_invalid_config(capsys):
    assert main(["rates", "--state", "bell", "--d", "2",
                 "--p", "0.5"]) == 2  # weight flag does not apply to bell
    capsys.readouterr()
    assert main(["verify", "--state", "bell", "--d", "2", "--measurement",
                 "twisting"]) == 2  # twisting needs a twisted state
    capsys.readouterr()
    assert main(["distill", "--state", "bell", "--d", "2", "--copies",
                 "2"]) == 2  # copies flag does not apply to bell
    capsys.readouterr()


@pytest.mark.parametrize("line", [
    "verify --d 6",
    "rates --shield-dim 8",
    "distill --stabilizer XI",
    "hashing-sim --state bell --d 2 --n 2 --m-z 1",
    "distill --state bell --d 4 --code-kind sampled --code-d 2 --code-n 2 --m-z 1 "
    "--stabilizer XI",
    "hashing-sim --state bell --d 2 --n 2 --code-kind explicit --code-n 2 --m-z 1",
])
def test_a_flag_outside_its_spec_kind_exits_2(line, capsys):
    # each flag sets the config entry it names, so none is dropped unread
    assert main(line.split()) == 2
    assert "invalid input" in capsys.readouterr().err


@pytest.mark.parametrize("command,cfg", [
    ("distill", {"state": {"kind": "bell", "d": 2},
                 "code": {"kind": "explicit", "d": 2, "n": 1}, "adaptive": False}),
    ("css", {"mode": "universality", "d": 2, "n": 4, "m": 2, "trials": 50, "count": 2}),
    ("css", {"mode": "universality", "d": 2, "n": 4, "m": 2, "trials": 50, "m_z": 1}),
    ("css", {"mode": "sample", "d": 2, "n": 3, "m": 1}),
    ("css", {"mode": "sample", "d": 2, "n": 3, "row_slice": "x"}),
    ("css", {"mode": "sample", "d": 2, "n": 3, "trials": 50}),
])
def test_a_config_entry_its_command_never_reads_exits_2(command, cfg, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path)]) == 2
    assert "invalid input" in capsys.readouterr().err


def test_malformed_rows_fail_in_the_parser():
    with pytest.raises(SystemExit) as exc:
        main(["hashing-sim", "--state", "werner", "--d", "2", "--p", "0.9", "--n", "2",
              "--code-kind", "explicit", "--code-d", "2", "--code-n", "2",
              "--mz-rows", "1 a"])
    assert exc.value.code == 2


def readme_lines():
    """The ``privlab`` command lines of README.md's sh blocks, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", text, re.S)
    lines = [line.strip() for block in blocks
             for line in block.replace("\\\n", " ").splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("privlab ")]


def test_readme_examples_exit_0(tmp_path, capsys):
    lines = readme_lines()
    assert len(lines) >= 12  # the parse found the examples
    for argv in lines:
        assert main(argv + ["--out", str(tmp_path / "report")]) == 0, argv
    capsys.readouterr()


# The config that each perfbench mix and warm-up line compiles to.
WERNER = {"kind": "werner", "p": 0.9}
BENCH_CONFIGS = {
    **{f"uncertainty --mode {m} --d {d} --trials {t}": {"mode": m, "d": d, "trials": t}
       for m, d, t in (("cit", 5, 2), ("cit", 3, 10), ("quantum_cit", 5, 20),
                       ("maassen_uffink", 5, 50), ("cit", 2, 1), ("quantum_cit", 2, 1),
                       ("maassen_uffink", 2, 1))},
    **{f"verify --state werner --d {d} --p 0.9 --measurement {m}":
       {"state": {**WERNER, "d": d}, "measurement": m}
       for d, m in ((6, "uhlmann"), (12, "projective"), (2, "uhlmann"), (2, "projective"))},
    **{f"verify --state twisted --d {d} --shield-dim {s} --measurement {m}":
       {"state": {"kind": "twisted", "d": d, "shield_dim": s}, "measurement": m}
       for d, s, m in ((4, 8, "twisting"), (4, 8, "uhlmann"), (3, 16, "uhlmann"),
                       (2, 2, "twisting"))},
    "rates --state twisted --d 4 --shield-dim 16":
        {"state": {"kind": "twisted", "d": 4, "shield_dim": 16}},
    "rates --state bell --d 2": {"state": {"kind": "bell", "d": 2}},
    "hashing-sim --state werner --d 2 --p 0.9 --n 3 --code-kind sampled --code-d 2 "
    "--code-n 3 --m-z 1": {"state": {**WERNER, "d": 2}, "n": 3,
                           "code": {"kind": "sampled", "d": 2, "n": 3, "m_z": 1}},
    "hashing-sim --state werner --d 2 --p 0.9 --n 2 --code-kind explicit --code-d 2 "
    "--code-n 2 --mz-rows 1,1": {"state": {**WERNER, "d": 2}, "n": 2,
                                 "code": {"kind": "explicit", "d": 2, "n": 2,
                                          "mz_rows": [[1, 1]]}},
    **{f"distill --state werner --d {d} --p 0.9 --code-kind sampled --code-d {cd} "
       f"--code-n {n} --m-z 1" + (" --m-x 1" if mx else ""):
       {"state": {**WERNER, "d": d},
        "code": {"kind": "sampled", "d": cd, "n": n, "m_z": 1, **({"m_x": 1} if mx else {})}}
       for d, cd, n, mx in ((9, 3, 2, 0), (8, 2, 3, 1), (4, 2, 2, 0))},
    "distill --state shielded_bit --s 0.6 --code-kind two_copy --stabilizer XX":
        {"state": {"kind": "shielded_bit", "s": 0.6},
         "code": {"kind": "two_copy", "stabilizer": "XX"}},
    "appd --s 0.3 --s 0.6 --s 0.9": {"s": [0.3, 0.6, 0.9]},
    "appd --s 0.6": {"s": [0.6]},
}


def test_benchmark_lines_compile_to_their_pinned_configs(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import MIXES, WARMUP

    lines = {" ".join(op.argv) for mix in MIXES.values() for op in mix}
    lines |= {" ".join(argv) for group in WARMUP.values() for argv in group}
    assert lines == set(BENCH_CONFIGS)
    for line in sorted(lines):
        assert payload(line.split())["config"] == BENCH_CONFIGS[line], line


def test_exit_code_invariant_violation(capsys):
    rc = main(["verify", "--state", "werner", "--d", "2", "--p", "0.5",
               "--measurement", "projective", "--soundness-margin", "-1"])
    assert rc == 3
    assert "invariant" in capsys.readouterr().err


@pytest.mark.parametrize("margin,code", [("nan", 2), ("inf", 2), ("-inf", 2), ("-1", 3)])
def test_verify_soundness_margin_exit_codes(margin, code, capsys):
    rc = main(["verify", "--state", "werner", "--d", "2", "--p", "0.5",
               "--measurement", "projective", f"--soundness-margin={margin}"])
    assert rc == code
    capsys.readouterr()


def test_soundness_margin_can_only_tighten():
    # the report checks the bound again at SOUNDNESS_ATOL, so a wider margin
    # admits no larger direct distance and leaves the payload as it is
    with pytest.raises(privlab.InvariantViolation, match="exceeds certified bound"):
        privacy._certified_report(0.0, 0.0, 1e-4, 1e-3, "x")
    argv = ["verify", "--state", "werner", "--d", "3", "--p", "0.5", "--measurement", "projective"]
    assert results_of(argv + ["--soundness-margin", "1e-3"]) == results_of(argv)


def test_distill_non_object_state_spec(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"state": "bell"}))
    assert main(["distill", "--config", str(cfg)]) == 2
    assert "state spec must be an object" in capsys.readouterr().err


def test_exit_code_io_failure(capsys):
    rc = main(["rates", "--state", "bell", "--d", "2", "--out",
               "/nonexistent-dir/report.json"])
    assert rc == 4
    capsys.readouterr()


def test_uhlmann_partner_on_werner_d8_stays_small(tmp_path):
    # Werner d=8 is full rank (r = 64); only d blocks of 1 x 64 are factorised
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        rc = main(["verify", "--state", "werner", "--d", "8", "--p", "0.9",
                   "--measurement", "uhlmann", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 16 * 2 ** 20
    res = json.loads(out.read_text())["results"]
    assert res["p_tilde_e"] <= res["bound"]
    assert res["p_e"] <= res["eps_direct"]
    assert res["pad_dim"] == 8


def test_verify_uhlmann_factorises_the_shielded_bit_on_bobs_side(factorised):
    # E is Eve's, so nothing of the (A, B, S, E) vector's 32 x 32 density is
    # factorised: the largest matrix is a decoder element on (B, S)
    res = results_of(["verify", "--state", "shielded_bit", "--s", "0.6", "--shield-dim", "8",
                      "--measurement", "uhlmann"])
    assert res["p_tilde_e"] <= res["bound"] + 1e-6
    assert largest_side(*factorised.values()) <= 16


def test_verify_uhlmann_runs_the_shielded_bit_up_to_its_state_budget(capsys):
    # no (A, B, S) marginal is built, and the decoder is held as (2, 2s, 2) factors:
    # s = 363, whose (2, 726, 726) elements were refused, and s = 4096 run, and the
    # state itself is refused past the cap before it is allocated
    argv = ["verify", "--state", "shielded_bit", "--measurement", "uhlmann", "--shield-dim"]
    for shield in ("363", "4096"):
        assert main(argv + [shield, "--out", os.devnull]) == 0, capsys.readouterr().err
    tracemalloc.start()
    try:
        rc = main(argv + ["131073"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert "shielded_bit state" in capsys.readouterr().err
    assert peak < 2 ** 20


@pytest.mark.parametrize("shield, factor", [(256, 2.5), (362, 3.0)])
def test_verify_uhlmann_peak_stays_within_a_multiple_of_the_cap(shield, factor, capsys):
    # the partner's decoder is held as (2, 2s, 2) factors and scored from them, and
    # its (2, 2s, 2s) elements are never built: 0.02x the cap's bytes at s = 362
    argv = ["verify", "--state", "shielded_bit", "--measurement", "uhlmann", "--out", os.devnull,
            "--shield-dim"]
    assert main(argv + ["2"]) == 0, capsys.readouterr().err
    tracemalloc.start()
    try:
        rc = main(argv + [str(shield)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0, capsys.readouterr().err
    assert peak <= factor * 16 * AMPLITUDE_CAP, f"{peak / (16 * AMPLITUDE_CAP):.2f}x the cap"


def test_uhlmann_partner_decoder_enforces_amplitude_cap(monkeypatch):
    # a pure d=2 state with a 512-dim shield has (2, 1024, 1024) decoder elements,
    # over the cap, but its decoder is held as (2, 1024, 1) factors and runs
    space = HilbertSpace((2, 2, 512), ("A", "B", "S"))
    psi = random_pure_state(space, substream(208))
    tracemalloc.start()
    try:
        rec = uhlmann_conjugate_measurement(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert rec.povm._form.stack.shape == (2, 1024, 1) and "elements" not in vars(rec.povm)
    # with the cap between its (2, 512, 1) key blocks and its 2048 factor amplitudes,
    # the partner is refused at its decoder
    monkeypatch.setattr(tensor_core, "AMPLITUDE_CAP", 2047)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="Uhlmann partner decoder"):
            uhlmann_conjugate_measurement(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_css_rejects_field_orders_beyond_int64_arithmetic(capsys):
    start = time.perf_counter()
    rc = main(["css", "--mode", "sample", "--d", "99999999999973", "--n", "2",
               "--m-z", "1", "--m-x", "0"])
    assert rc == 2
    assert time.perf_counter() - start < 1.0
    assert "field order 99999999999973 is above" in capsys.readouterr().err


def test_parser_rejects_unknown_state_kind():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["rates", "--state", "nosuch"])


def test_run_reuses_parser_without_leaking_repeated_flags():
    first = results_of(["appd", "--s", "0.3"])
    second = results_of(["appd", "--s", "0.6", "--s", "0.9"])
    assert [row["s"] for row in first["sweep"]] == [0.3]
    assert [row["s"] for row in second["sweep"]] == [0.6, 0.9]
    # the public builder still hands out a fresh parser each time
    assert build_parser() is not build_parser()


@pytest.mark.parametrize("command,d", [("verify", 2.5), ("verify", True),
                                       ("rates", 2.5), ("rates", True),
                                       ("verify", 100000), ("rates", 100000),
                                       ("rates", 33)])
def test_state_spec_rejects_mistyped_and_oversized_d(command, d, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"state": {"kind": "werner", "d": d, "p": 0.9}}))
    assert main([command, "--config", str(cfg)]) == 2
    assert "invalid input" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["verify", "--measurement", "projective"],
                                  ["verify", "--measurement", "twisting"],
                                  ["verify", "--measurement", "uhlmann"], ["rates"]])
def test_twisted_state_is_budgeted_by_what_it_builds(argv, capsys):
    # a vector of 4 * 4 * 65 = 1,040 amplitudes: its D x D density would be
    # over the cap, but no command builds it; nor does any build the d^2 - d
    # off-diagonal twisting blocks, one shared identity, so at s = 257 the
    # (5, 257, 257) blocks fit and projective, uhlmann (its decoder held as
    # (4, 1028, 1) factors) and rates run
    decoder = {"twisting": "twisting decoder"}
    for shield in (65,) if argv[-1] in decoder else (65, 257):
        res = results_of(argv + ["--state", "twisted", "--d", "4", "--shield-dim", str(shield),
                                 "--seed", "3"])
        if argv[0] == "rates":
            assert res["rate"] == pytest.approx(2.0, abs=1e-9)
        else:
            assert res["p_e"] <= 1e-10 and res["eps_direct"] <= 1e-9
    # (5, 458, 458) twisting blocks, and the (4, 1028, 257) factors of a twisting
    # decoder, are refused before they are allocated: the peak stays below the array
    cases = [(458, "twisting blocks", 5 * 458 * 458)]
    if argv[-1] in decoder:
        cases.append((257, decoder[argv[-1]], 4 * 1028 * 257))
    for shield, what, size in cases:
        tracemalloc.start()
        try:
            rc = main(argv + ["--state", "twisted", "--d", "4", "--shield-dim", str(shield)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert what in capsys.readouterr().err
        assert peak < 16 * size


def test_werner_at_the_amplitude_cap_still_builds():
    # D = 1024, so the D x D matrix holds exactly AMPLITUDE_CAP entries
    state, _ = build_state({"kind": "werner", "d": 32, "p": 0.9}, 0)
    assert state.matrix.size == AMPLITUDE_CAP
    with pytest.raises(ValueError, match="amplitudes"):
        build_state({"kind": "bell_power", "d": 2, "n": 11}, 0)


def test_file_state_path_must_be_a_string(tmp_path, capsys):
    # an integer path would be taken as an open file descriptor
    src = tmp_path / "state.json"
    src.write_text(json.dumps({"dims": [2, 2], "labels": ["A", "B"],
                               "amps": [[1.0, 0.0], [0, 0], [0, 0], [0, 0]]}))
    fd = os.open(src, os.O_RDONLY)
    try:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"state": {"kind": "file", "path": fd}}))
        assert main(["rates", "--config", str(cfg)]) == 2
    finally:
        try:
            os.close(fd)
        except OSError:
            pass
    capsys.readouterr()


# Small valid configs for every subcommand; the fuzz test breaks one entry.
FUZZ_BASES = [
    ("rates", {"state": {"kind": "werner", "d": 2, "p": 0.9}}),
    ("rates", {"state": {"kind": "inline", "dims": [2, 2], "labels": ["A", "B"],
                         "amps": [[0.6, 0.0], [0.0, 0.0], [0.0, 0.0], [0.8, 0.0]]}}),
    ("verify", {"state": {"kind": "twisted", "d": 2, "shield_dim": 2},
                "measurement": "twisting", "soundness_margin": 1e-6}),
    ("verify", {"state": {"kind": "bell_power", "d": 2, "n": 1},
                "measurement": "uhlmann"}),
    ("distill", {"state": {"kind": "bell_power", "d": 2, "n": 2},
                 "code": {"kind": "explicit", "d": 2, "n": 2, "mz_rows": [[1, 1]],
                          "mx_rows": []}}),
    ("distill", {"state": {"kind": "werner", "d": 4, "p": 0.9},
                 "code": {"kind": "sampled", "d": 2, "n": 2, "m_z": 1, "m_x": 0}}),
    ("distill", {"state": {"kind": "shielded_bit", "s": 0.6, "shield_dim": 2},
                 "code": {"kind": "two_copy", "stabilizer": "XX"}, "adaptive": True}),
    ("hashing-sim", {"state": {"kind": "werner", "d": 2, "p": 0.95}, "n": 2,
                     "code": {"kind": "explicit", "d": 2, "n": 2, "mz_rows": [[1, 1]]}}),
    ("css", {"mode": "sample", "d": 3, "n": 3, "m_z": 1, "m_x": 1, "count": 2}),
    ("css", {"mode": "universality", "d": 2, "n": 4, "m": 2, "m_x": 0,
             "row_slice": "z", "trials": 50}),
    ("uncertainty", {"mode": "cit", "d": 2, "trials": 2}),
    ("appd", {"s": [0.3, 0.6], "stabilizer": "XX"}),
]

NAN, INF = float("nan"), float("inf")
# values of the wrong type, or not finite, for an entry of each JSON type
POISON = {
    int: [NAN, INF, -INF, True, False, "2", 2.5, None, [2], {"v": 2}],
    float: [NAN, INF, -INF, True, "0.5", None, [0.5], {"v": 0.5}],
    str: [5, 2.5, True, None, ["x"], {"v": "x"}, NAN, "nosuch"],
    bool: ["yes", 1, 0, None, NAN, [True]],
    list: [NAN, True, "x", None, 3, {"v": 1}],
    dict: ["bell", 5, None, [], True, NAN],
}
# well-typed values that may be out of range
IN_TYPE = {int: [0, -1, -7, 1, 3], float: [-0.5, 0.0, 1.0, 1.5, 1e300],
           str: [""], bool: [False], list: [[]], dict: [{}]}
# sizes past the amplitude cap, for the size entries of state and code specs
OVERSIZED = [1025, 100000, 10 ** 9, 10 ** 30]
SIZE_KEYS = {"d", "n", "shield_dim"}


def _leaves(node, path=()):
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))


def _replaced(cfg, path, value):
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


def _fuzz_case(i):
    """(command, config, expectation) for fuzz case i; expectation is
    'error' (exit 2, 3 or 4), 'invalid' (exit 2) or 'any'."""
    rng = substream(2718, i)
    command, base = FUZZ_BASES[int(rng.integers(len(FUZZ_BASES)))]
    leaves = [(p, v) for p, v in _leaves(base) if p]
    path, value = leaves[int(rng.integers(len(leaves)))]
    kind = bool if isinstance(value, bool) else type(value)
    in_spec = path[0] in ("state", "code") or (command == "hashing-sim" and path == ("n",))
    roll = rng.random()
    if kind is int and in_spec and (path[-1] in SIZE_KEYS or "dims" in path) and roll < 0.25:
        pick = OVERSIZED[int(rng.integers(len(OVERSIZED)))]
        return command, _replaced(base, path, pick), "invalid"
    if roll < 0.1 and isinstance(value, dict):
        return command, _replaced(base, path + ("bogus",), 1), "invalid"
    if roll < 0.7:
        pool = POISON[kind]
        return command, _replaced(base, path, pool[int(rng.integers(len(pool)))]), "error"
    pool = IN_TYPE[kind]
    return command, _replaced(base, path, pool[int(rng.integers(len(pool)))]), "any"


def test_cli_fuzz_bases_exit_0(tmp_path, capsys):
    for i, (command, cfg) in enumerate(FUZZ_BASES):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path)]) == 0, (command, cfg)
    capsys.readouterr()


def test_cli_fuzz_exit_codes(tmp_path, capsys):
    cases = [("verify", {"state": {"kind": "werner", "d": 2.5, "p": 0.9}}, "invalid"),
             ("rates", {"state": {"kind": "werner", "d": True, "p": 0.9}}, "invalid"),
             ("verify", {"state": {"kind": "werner", "d": 100000, "p": 0.9}}, "invalid")]
    cases += [_fuzz_case(i) for i in range(300)]
    # uncertainty states and their measurements stay under the cap
    cases += [("uncertainty", {"mode": "quantum_cit", "d": 102, "trials": 1}, "invalid"),
              ("uncertainty", {"mode": "maassen_uffink", "d": 1025, "trials": 1}, "invalid"),
              ("uncertainty", {"mode": "cit", "d": 30, "trials": 1}, "invalid"),
              ("uncertainty", {"mode": "cit", "d": 17, "trials": 1}, "invalid")]
    # code and trial counts and the appd grid are bounded
    cases += [("uncertainty", {"mode": "cit", "d": 2, "trials": MAX_TRIALS + 1}, "invalid"),
              ("css", {"mode": "sample", "d": 2, "n": 3, "count": 10 ** 9}, "invalid"),
              ("css", {"mode": "universality", "d": 2, "n": 4, "m": 2,
                       "trials": 10 ** 12}, "invalid"),
              ("appd", {"s": [0.5] * (MAX_TRIALS + 1)}, "invalid")]
    bad = []
    for i, (command, cfg, want) in enumerate(cases):
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(cfg))
        rc = main([command, "--config", str(path), "--seed", str(i)])
        capsys.readouterr()
        ok = {"any": rc in (0, 2, 3, 4), "error": rc in (2, 3, 4),
              "invalid": rc == 2}[want]
        if not ok:
            bad.append((command, json.dumps(cfg), want, rc))
    assert not bad, bad


# The public contract: the names privlab exports and the CLI subcommands.
PUBLIC_NAMES = [
    "AuditRecord", "CodeSamplingError", "ConjugateBasis", "CqEnsemble", "CssCode",
    "CssDecoders", "DensityOperator", "DistillationOutcome", "GfMatrix",
    "HashingSimResult", "HilbertSpace", "HswConfig", "HswDecoderResult",
    "InvariantViolation", "LinearOperator", "MeasurementResult", "Povm", "PrivacyReport",
    "RateBreakdown", "StateVector", "TwistingOperator", "TwoCopyResult", "UhlmannRecord",
    "all_strings", "apply_to_vector", "build_css_decoders", "build_private_state",
    "ccq_blocks", "ccq_fidelity_to_key", "certify_private", "class_members",
    "class_projector", "coherent_hashing_sim", "coherent_information", "coherent_measure",
    "conditional_entropy", "css_codes", "discrimination", "distillable_rate",
    "distillation", "embed_operator", "epsilon_secret_direct", "extend_with_copy",
    "fidelity", "generalized_paulis", "haar_unitary", "haar_vector", "helstrom_pair",
    "holevo_information", "hsw_class_decoder", "info_measures", "key_error_rates",
    "logical_operators", "maximally_entangled", "measure", "mutual_information",
    "one_shot_distill", "partial_trace", "permute_vector", "pgm", "pgm_error", "privacy",
    "pure_state_trace_distance", "purify", "qudit_ops", "random_density_operator",
    "random_pure_state", "sample_universal_css", "sampling", "shannon_entropy",
    "shielded_bit_state", "sqrt_psd", "star_projective_povm", "string_index", "substream",
    "syndrome", "tensor_core", "tensor_power_grouped", "tensor_product", "trace_distance",
    "trace_norm", "twisting_conjugate_measurement", "twisting_unitary",
    "two_copy_scenario", "uhlmann_conjugate_measurement", "uncertainty_audit",
    "universality_estimate", "vector_marginal", "von_neumann_entropy",
]
SUBCOMMANDS = ["appd", "css", "distill", "hashing-sim", "rates", "uncertainty", "verify"]


def test_public_names_and_subcommands_are_pinned():
    assert sorted(privlab.__all__) == PUBLIC_NAMES
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == SUBCOMMANDS
    assert sorted(cli.COMMANDS) == SUBCOMMANDS
