"""Command-line workbench: subcommands, determinism, exit codes."""

import json
import os

import numpy as np
import pytest

from privlab.cli import _threads, build_parser, build_state, main, run


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


def test_uncertainty_command_all_modes():
    for mode in ("maassen_uffink", "cit", "quantum_cit"):
        res = results_of(["uncertainty", "--mode", mode, "--d", "3",
                          "--trials", "25", "--seed", "2"])
        assert res["mode"] == mode
        assert res["min_slack"] >= -1e-9
        assert res["trials"] == 25


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


def test_inline_state_round_trip():
    spec = {"state": {"kind": "inline", "dims": [2, 2], "labels": ["A", "B"],
                      "amps": [[0.7071067811865476, 0.0], [0.0, 0.0],
                               [0.0, 0.0], [0.7071067811865476, 0.0]]}}
    state, _ = build_state(spec["state"], 0)
    assert state.space.labels == ("A", "B")


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


@pytest.mark.parametrize("raw,want", [("100000", os.cpu_count() or 1), ("0", 1)])
def test_threads_bounded_by_cpu_count(raw, want, monkeypatch):
    monkeypatch.setenv("PRIVLAB_THREADS", raw)
    assert _threads() == want


def test_parser_rejects_unknown_state_kind():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["rates", "--state", "nosuch"])
