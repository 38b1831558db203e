"""tools/bench_record.py: the BENCH record and its comparison, on canned result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

SPEC = {"workloads": [{"name": "certify"}, {"name": "audit"}],
        "end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher"},
                       {"name": "latency_p90_s", "unit": "s", "better": "lower"}]}


def result_line(ops, p90, correct=True, failed=0):
    return json.dumps({"correct": correct, "attempted": 100, "failed": failed,
                       "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                                   "latency_p90_s": {"value": p90, "unit": "s"}}})


def traced_line(purify_s):
    return json.dumps({"correct": True, "attempted": 50, "failed": 0,
                       "metrics": {"tensor_core.purify_s": {"value": purify_s, "unit": "s/op"},
                                   "failed_op_ratio": {"value": 0.0, "unit": "ratio"}}})


def canned(untraced, traced):
    """A runner that replays canned stdout, and the (workload, trace) calls it got."""
    calls = []
    queues = {w: list(lines) for w, lines in untraced.items()}

    def runner(root, workload, seed, seconds, trace):
        calls.append((workload, seed, seconds, trace))
        line = traced[workload] if trace else queues[workload].pop(0)
        return "progress on stdout\n" + line + "\n\n"
    return runner, calls


def make_record(tmp_path, untraced, traced, pr=2):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    runner, calls = canned(untraced, traced)
    rec = bench_record.record(tmp_path, pr, runner=runner,
                              facts=lambda root, seed, w: {"hostspeed_kernel_s": 0.012,
                                                           "cpu_count": 2, "commit": "abc"})
    return rec, calls


def test_last_result_reads_the_last_line():
    out = "text\n" + result_line(1.0, 2.0) + "\n  \n"
    assert bench_record.last_result(out)["metrics"]["ops_per_s"]["value"] == 1.0
    with pytest.raises(ValueError, match="no result line"):
        bench_record.last_result("\n \n")
    with pytest.raises(ValueError, match="metrics"):
        bench_record.last_result(json.dumps({"correct": True, "attempted": 1, "failed": 0}))


def test_spread_gives_median_and_interquartile_range():
    s = bench_record.spread([330.0, 310.0, 320.0])
    assert (s["median"], s["q1"], s["q3"], s["iqr"]) == (320.0, 315.0, 325.0, 10.0)
    assert s["runs"] == [310.0, 320.0, 330.0]


def test_record_runs_three_untraced_and_one_traced_per_workload(tmp_path):
    rec, calls = make_record(
        tmp_path,
        {"certify": [result_line(250, 8e-3), result_line(260, 9e-3), result_line(255, 8.5e-3)],
         "audit": [result_line(340, 3e-3)] * 3},
        {"certify": traced_line(1e-3), "audit": traced_line(0.0)})
    assert calls == [("certify", 1, 35, 0)] * 3 + [("certify", 1, 35, 1)] \
        + [("audit", 1, 35, 0)] * 3 + [("audit", 1, 35, 1)]
    cert = rec["workloads"]["certify"]
    assert cert["end_to_end"]["ops_per_s"]["median"] == 255
    assert cert["end_to_end"]["ops_per_s"]["iqr"] == 5
    assert cert["end_to_end"]["latency_p90_s"]["better"] == "lower"
    assert cert["per_layer"]["tensor_core.purify_s"] == {"value": 1e-3, "unit": "s/op"}
    assert cert["correct"] and cert["failed"] == [0, 0, 0, 0]
    assert rec["host"]["commit"] == "abc" and rec["pr"] == 2
    assert rec["settings"] == {"seed": 1, "seconds": 35, "untraced_runs": 3, "traced_runs": 1}


def test_record_keeps_a_failed_run_visible(tmp_path):
    rec, _ = make_record(
        tmp_path,
        {"certify": [result_line(250, 8e-3), result_line(260, 9e-3, False, 2),
                     result_line(255, 8.5e-3)],
         "audit": [result_line(340, 3e-3)] * 3},
        {"certify": traced_line(1e-3), "audit": traced_line(0.0)})
    assert not rec["workloads"]["certify"]["correct"]
    assert rec["workloads"]["certify"]["failed"] == [0, 2, 0, 0]


def test_compare_flags_changes_outside_the_previous_iqr(tmp_path):
    prev, _ = make_record(
        tmp_path,
        {"certify": [result_line(250, 8e-3), result_line(260, 9e-3), result_line(255, 8.5e-3)],
         "audit": [result_line(340, 3e-3), result_line(350, 3.2e-3), result_line(345, 3.1e-3)]},
        {"certify": traced_line(1e-3), "audit": traced_line(0.0)}, pr=1)
    cur, _ = make_record(
        tmp_path,
        {"certify": [result_line(330, 4e-3)] * 3,
         "audit": [result_line(346, 3.4e-3)] * 3},
        {"certify": traced_line(0.5e-3), "audit": traced_line(0.0)})
    lines = bench_record.compare(prev, cur)
    row = {tuple(line.split()[:2]): line for line in lines[1:]}
    assert "x1.294" in row["certify", "ops_per_s"] and "better" in row["certify", "ops_per_s"]
    assert "better" in row["certify", "latency_p90_s"]
    assert "inside IQR" in row["audit", "ops_per_s"]
    assert "worse" in row["audit", "latency_p90_s"]
    assert "x0.500" in row["certify", "tensor_core.purify_s"]
    assert "x1.000" in row["audit", "tensor_core.purify_s"]  # 0 -> 0
    # the command line compares two stored records without running anything
    (tmp_path / "prev.json").write_text(json.dumps(prev))
    (tmp_path / "cur.json").write_text(json.dumps(cur))
    assert bench_record.main(["--load", str(tmp_path / "cur.json"),
                              "--compare", str(tmp_path / "prev.json")]) == 0
    with pytest.raises(SystemExit):
        bench_record.main(["--compare", str(tmp_path / "prev.json")])


def test_pairs_alternate_the_order_and_count_wins_and_ties(tmp_path):
    base, change = tmp_path / "base", tmp_path / "change"
    # ops_per_s (higher is better): the change wins pairs 0 and 2 and ties pair 1;
    # latency_p90_s (lower is better): it loses pair 0, wins pair 1 and ties pair 2
    lines = {base: [result_line(100, 10e-3), result_line(100, 10e-3), result_line(100, 9e-3)],
             change: [result_line(110, 11e-3), result_line(100, 8e-3),
                      result_line(120, 9e-3, failed=1)]}
    calls = []

    def runner(root, workload, seed, seconds, trace):
        calls.append((root, workload, seed, seconds, trace))
        return "progress\n" + lines[root].pop(0) + "\n"

    old, new = bench_record.run_pairs(base, change, "distill", 3, seed=21, runner=runner)
    # the base runs first in even pairs and second in odd ones, every run untraced
    assert [c[0] for c in calls] == [base, change, change, base, base, change]
    assert {c[1:] for c in calls} == {("distill", 21, 35, 0)}
    out = bench_record.pair_lines(SPEC, old, new)
    assert out[0] == "correct base True change True; failed ops base [0, 0, 0] change [0, 0, 1]"
    row = {line.split()[0]: line for line in out[1:]}
    assert "base 100 [100, 100]  change 110 [105, 115]  x1.100" in row["ops_per_s"]
    assert row["ops_per_s"].endswith("change won 2/3 (1 tied)")
    assert row["latency_p90_s"].endswith("change won 1/3 (1 tied)")
    # no tie, no tie note
    assert bench_record.pair_lines(SPEC, old[:2], new[:1] + new[2:])[1].endswith(
        "change won 2/2")


def test_pairs_command_line_needs_its_settings(tmp_path):
    for argv in (["--pairs", "1", "--against", str(tmp_path), "--workload", "distill"],
                 ["--pairs", "3", "--workload", "distill"],
                 ["--pairs", "3", "--against", str(tmp_path)],
                 ["--pairs", "3", "--pr", "2", "--against", str(tmp_path), "--workload", "a"]):
        with pytest.raises(SystemExit):
            bench_record.main(argv)


WORKLOADS = '''from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    argv: tuple


MIXES = {"w": (Op(("verify", "--d", "2")),)}
WARMUP = {"w": (("rates", "--state", "bell", "--d", "2", "--seed", "7"),)}


def op_argv(workload, seed, i):
    return [*MIXES[workload][i].argv, "--seed", f"{seed}{i}"]
'''


def payload_checkout(root):
    """A checkout with one README example, one mix line (op 0 at workload seed 1 gets
    seed 10) and a warm-up line equal to the example."""
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "workloads.py").write_text(WORKLOADS)
    (root / "README.md").write_text("```sh\n# a comment\nprivlab rates --state bell \\\n"
                                    "  --d 2 --seed 7\n```\n\n```\nprivlab css\n```\n")
    return root


def test_payload_lines_join_readme_examples_the_mix_and_extras_once(tmp_path):
    root = payload_checkout(tmp_path)
    assert bench_record.payload_lines(root, ["css --mode 'sample'"]) == [
        ["rates", "--state", "bell", "--d", "2", "--seed", "7"], ["verify", "--d", "2"],
        ["verify", "--d", "2", "--seed", "10"], ["css", "--mode", "sample"]]
    assert not (root / "perfbench" / "__pycache__").exists()


def test_payloads_count_identical_lines_and_list_moved_numbers(tmp_path, capsys):
    base, change = tmp_path / "base", payload_checkout(tmp_path / "change")
    calls = []

    def runner(root, lines):
        calls.append((root, [list(a) for a in lines]))
        out = [{"results": {"p": 0.25, "name": "x", "rows": [1, 2.0]}} for _ in lines]
        if root == change:
            out[1]["results"]["p"] = 0.25 + 2 ** -54      # verify at seed 1
            out[2]["results"]["rows"] = [1, 2.5]           # verify at seed 2
        return out

    assert bench_record.payload_main(base, change, [], runner=runner) == 0
    # one process per checkout, both given the same lines: a line with its own seed
    # once as written, every other one at seeds 1-3
    assert [c[0] for c in calls] == [base, change] and calls[0][1] == calls[1][1]
    verify = ["verify", "--d", "2", "--seed"]
    assert calls[0][1] == [["rates", "--state", "bell", "--d", "2", "--seed", "7"],
                           verify + ["1"], verify + ["2"], verify + ["3"], verify + ["10"]]
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "3 of 5 lines byte-identical; 2 fields moved, largest |delta| 0.5"
    assert out[1] == ("  verify --d 2 --seed 1: results.p 0.25 -> 0.25000000000000006 "
                      "(delta 5.55e-17)")
    assert out[2] == "  verify --d 2 --seed 2: results.rows[1] 2.0 -> 2.5 (delta 0.5)"


@pytest.mark.parametrize("changed", [{"exit": 2, "error": "invalid input: d"},
                                     {"results": {"p": 1}},
                                     {"results": {"p": 0.5, "q": 0.0}}])
def test_payloads_fail_on_a_key_or_type_mismatch(changed, tmp_path, capsys):
    base, change = tmp_path / "base", payload_checkout(tmp_path / "change")

    def runner(root, lines):
        return [changed if root == change and i == 0 else {"results": {"p": 0.5}}
                for i in range(len(lines))]

    assert bench_record.payload_main(base, change, [], runner=runner) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("4 of 5 lines byte-identical")
    assert any(line.startswith("MISMATCH rates --state bell") for line in out)


def test_payloads_exclude_the_other_modes(tmp_path):
    for argv in (["--payloads", str(tmp_path), "--pairs", "3", "--against", str(tmp_path),
                  "--workload", "distill"],
                 ["--payloads", str(tmp_path), "--pr", "2"]):
        with pytest.raises(SystemExit):
            bench_record.main(argv)


def test_scale_runs_each_line_on_both_checkouts_and_reports_exit_time_and_peak(
        tmp_path, capsys):
    base, change = tmp_path / "base", tmp_path / "change"
    calls = []

    def runner(root, argv):
        calls.append((root, list(argv)))
        refused = "--d 17" in " ".join(argv)
        return {"exit": 2 if refused else 0,
                "error": "invalid input: rate amplitude rows needs 1419857" if refused else "",
                "wall_s": 0.25, "peak_bytes": 3 * 2 ** 22 if root == change else 2 ** 24,
                "cap": 2 ** 20}

    assert bench_record.scale_main(base, change, runner=runner) == 0
    lines = bench_record.SCALE_LINES
    # one call per line and checkout, the base first, each line split as a shell would
    assert calls[:2] == [(base, ["rates", "--state", "werner", "--d", "16", "--p", "0.9"]),
                         (change, ["rates", "--state", "werner", "--d", "16", "--p", "0.9"])]
    assert len(calls) == 2 * len(lines)
    assert calls[18][1][-4:] == ["--mz-rows", "1 1 1 1", "--mx-rows", "1 1 0 0"]
    out = capsys.readouterr().out.splitlines()
    assert out[:3] == [lines[0], "  base   exit 0  0.250 s  16.8 MB (1.00x)",
                       "  change exit 0  0.250 s  12.6 MB (0.75x)"]
    assert out[4] == ('  base   exit 2  0.250 s  16.8 MB (1.00x)'
                      '  "invalid input: rate amplitude rows needs 1419857"')


def test_scale_excludes_the_other_modes(tmp_path):
    for argv in (["--scale", str(tmp_path), "--payloads", str(tmp_path)],
                 ["--scale", str(tmp_path), "--pr", "2"]):
        with pytest.raises(SystemExit):
            bench_record.main(argv)
