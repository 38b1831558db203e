"""Self-tests of the benchmark: op list, oracle, tracer arithmetic.

    python -m pytest perfbench/tests
"""

import json
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import harness  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
from spans import Span, Tracer, outermost_time, self_times  # noqa: E402
from workloads import DEFAULT_SEED, MIXES, op_argv, op_seed  # noqa: E402

# the cheapest op type of each mix, by its position in the round
CHEAP = {"audit": 3, "certify": 2, "distill": 3}


@pytest.fixture(scope="module")
def cli():
    return harness.load_privlab()


def test_op_list_is_deterministic_per_seed():
    for workload, mix in MIXES.items():
        first = [op_argv(workload, 11, i) for i in range(3 * len(mix))]
        assert first == [op_argv(workload, 11, i) for i in range(3 * len(mix))]
        assert first != [op_argv(workload, 12, i) for i in range(3 * len(mix))]
        assert [a[:-2] for a in first[:len(mix)]] == [list(t.argv) for t in mix]
        refs = oracle.load_reference(workload)
        assert [r["argv"] for r in refs[:len(first)]] == \
            [op_argv(workload, DEFAULT_SEED, i) for i in range(len(first))]
    assert len({op_seed(DEFAULT_SEED, i) for i in range(1000)}) == 1000


@pytest.mark.parametrize("workload", sorted(MIXES))
def test_one_op_of_each_workload_is_green(cli, workload):
    i = CHEAP[workload]
    argv = op_argv(workload, DEFAULT_SEED, i)
    _, text, error = harness.call_op(cli, argv)
    assert error is None
    assert oracle.check(argv, text, None, oracle.load_reference(workload)[i]) == []


def test_oracle_flags_perturbed_payloads_and_errors():
    ref = oracle.load_reference("certify")[0]
    argv, good = ref["argv"], ref["results"]
    text = json.dumps({"results": good})
    assert oracle.check(argv, text, None, ref) == []

    def with_(**changes):
        return json.dumps({"results": {**good, **changes}})

    # probabilities match to 1e-9, square-root-like fields to 1e-6
    assert oracle.check(argv, with_(p_e=good["p_e"] + 1e-7), None, ref)
    assert not oracle.check(argv, with_(eps_certified=good["eps_certified"] + 1e-7),
                            None, ref)
    assert oracle.check(argv, with_(eps_certified=good["eps_certified"] + 1e-5),
                        None, ref)
    assert oracle.check(argv, with_(p_e=math.nan), None, ref)
    assert oracle.check(argv, with_(measurement_used="other"), None, ref)
    # a raised exception or an exit code fails, as does a changed op list
    assert oracle.check(argv, None, "InvariantViolation: broken", ref)
    assert oracle.check(argv[:-1] + ["0"], text, None, ref)
    # the certified inequalities hold at every seed, reference or not
    assert oracle.check(argv, with_(eps_direct=good["eps_certified"] + 1e-5),
                        None, None)
    assert oracle.inequalities({"td_psi2": 0.5, "bound_psi2": 0.4})
    assert oracle.inequalities({"min_slack": -1e-6})
    assert not oracle.inequalities({"min_slack": -1e-12, "td_psi3": 1.0,
                                    "bound_psi3": 1.0})


def test_each_op_is_scaled_by_the_kernel_runs_around_it(monkeypatch):
    kernel_times = iter([0.01, 0.02, 0.03, 0.04, 0.05])
    monkeypatch.setattr(hostspeed, "kernel_s", lambda: next(kernel_times))

    class Client:
        workload = "audit"

        @staticmethod
        def issue(i):
            return harness.OpRecord(i, [], 0.1, [])

    records = harness.run_loop(Client, seconds=0, min_ops=1)
    ref = hostspeed.REFERENCE_S
    assert [r.speed for r in records] == pytest.approx(
        [ref / 0.015, ref / 0.025, ref / 0.035, ref / 0.045])
    assert hostspeed.speed(ref, ref) == 1.0


def test_call_op_turns_exceptions_and_exits_into_errors(cli):
    class Raising:
        @staticmethod
        def run(argv):
            raise RuntimeError("boom")

    assert harness.call_op(Raising, ["x"])[1:] == (None, "RuntimeError: boom")
    assert harness.call_op(cli, ["verify", "--no-such-flag"])[2] == "exit 2"


def test_self_time_on_nested_two_thread_trace():
    # root on thread 1; a nested pair on thread 1; two workers whose spans
    # overlap each other and one of which runs past the end of the root
    spans = [Span(0, -1, "cli.run", "cli", 0.0, 10.0, 1),
             Span(1, 0, "a", "tensor_core", 1.0, 4.0, 1),
             Span(2, 1, "linalg.eigh", "linalg", 2.0, 3.0, 1),
             Span(3, 0, "b", "privacy", 5.0, 9.0, 2),
             Span(4, 0, "b", "privacy", 8.0, 10.5, 3)]
    assert self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 4.0, 2.5])
    assert outermost_time(spans, {"b"}) == pytest.approx(6.5)
    assert outermost_time(spans, {"a", "linalg.eigh"}) == pytest.approx(3.0)


def test_worker_spans_attach_to_the_calling_span():
    tracer = Tracer()
    work = tracer.wrap(lambda x: x + 1, "info_measures.work", "info_measures")

    def fan_out():
        with ThreadPoolExecutor(max_workers=1) as pool:
            return list(pool.map(work, range(3)))

    run = tracer.wrap(fan_out, "cli.run", "cli")
    tracer.begin_op(0)
    assert run() == [1, 2, 3]
    root, *workers = sorted(tracer.spans, key=lambda s: s.start)
    assert root.parent == -1 and len(workers) == 3
    assert all(w.parent == root.sid and w.thread != threading.get_ident()
               for w in workers)


def test_install_patches_every_namespace_and_restores_it(cli):
    from privlab import info_measures, privacy, qudit_ops

    original = qudit_ops.measure
    tracer = Tracer()
    installation = layers.install(tracer)
    try:
        assert privacy.measure is info_measures.measure is qudit_ops.measure
        assert qudit_ops.measure is not original
        harness.call_op(cli, op_argv("audit", DEFAULT_SEED, 3))
    finally:
        installation.remove()
    assert privacy.measure is info_measures.measure is qudit_ops.measure is original
    names = {s.name for s in tracer.spans}
    assert {"cli.run", "info_measures.uncertainty_audit",
            "tensor_core.DensityOperator.__post_init__", "linalg.eigvalsh"} <= names
    assert sum(self_times(tracer.spans)) == pytest.approx(
        max(s.end for s in tracer.spans) - min(s.start for s in tracer.spans))
