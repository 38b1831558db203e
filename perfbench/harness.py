"""Closed-loop benchmark of privlab, one client, driven through ``cli.run``.

The untraced run (``--trace 0``) reports the end-to-end metrics; the traced
run (``--trace 1``) replays the same ops with every privlab layer wrapped
and reports the per-layer metrics. See README.md for the metrics and the
reasons behind the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hostspeed
import oracle
from layers import install, layer_metrics
from spans import Tracer
from workloads import DEFAULT_SEED, MIXES, WARMUP, op_argv, op_type, shapes

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"

MIN_OPS = 100          # so that p90 has at least ten samples beyond it
SETUP_PROBES = 9       # fresh processes timed for setup_s
TRACE_UNTRACED_SHARE = 0.3   # part of --seconds spent on the untraced pass


@dataclass
class OpRecord:
    i: int
    argv: list[str]
    latency: float
    problems: list[str]    # why the op failed; empty when it was correct
    speed: float = 1.0     # takes ``latency`` to the reference host speed


def load_privlab():
    """Import ``privlab.cli`` from this checkout's ``src``, nowhere else."""
    src = ROOT / "src"
    if not (src / "privlab" / "__init__.py").is_file():
        raise RuntimeError(f"privlab sources not found under {src}")
    sys.path.insert(0, str(src))
    cli = importlib.import_module("privlab.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"imported privlab from {cli.__file__}, not from {src}")
    return cli


def call_op(cli, argv: list[str]) -> tuple[float, str | None, str | None]:
    """Run one command in process, output captured; (wall s, text, error)."""
    buf = io.StringIO()
    text = error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            text = cli.run(list(argv))
    except SystemExit as exc:          # argparse rejects its input this way
        error = f"exit {exc.code}"
    except Exception as exc:           # any failure of the op is a result
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, text, error


def warm_up(cli, workload: str) -> None:
    for argv in WARMUP[workload]:
        _, _, error = call_op(cli, list(argv))
        if error is not None:
            raise RuntimeError(f"warm-up op {' '.join(argv)} failed: {error}")


def setup(workload: str):
    """Everything before the first timed op: import and warm-up."""
    cli = load_privlab()
    warm_up(cli, workload)
    return cli


class Client:
    """The one closed-loop client: issues op ``i``, times it, checks it."""

    def __init__(self, cli, workload: str, seed: int) -> None:
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.refs = oracle.load_reference(workload) if seed == DEFAULT_SEED else []

    def issue(self, i: int) -> OpRecord:
        argv = op_argv(self.workload, self.seed, i)
        latency, text, error = call_op(self.cli, argv)
        ref = self.refs[i] if i < len(self.refs) else None
        record = OpRecord(i, argv, latency, oracle.check(argv, text, error, ref))
        # Free the op's garbage outside the timed region: each op starts from
        # a clean heap, as a fresh CLI process would, and peak RSS does not
        # hinge on when the collector happened to run during earlier ops.
        # Freezing what survives keeps the benchmark's own growing state
        # (records, references, spans) out of every later collection.
        gc.collect()
        gc.freeze()
        return record

    def library_defects(self) -> list[dict]:
        """Ops that already failed when the reference was recorded."""
        return [{"i": r["i"], "argv": r["argv"], "error": r["error"]}
                for r in self.refs if "error" in r]


def run_loop(client: Client, seconds: float, min_ops: int) -> list[OpRecord]:
    """Closed loop over whole rounds of the mix, until ``seconds`` have
    passed and ``min_ops`` ops are done (or twice ``seconds`` have passed).

    The calibration kernel runs between ops, outside their timed regions;
    each op's ``speed`` comes from the kernel runs just before and after it.
    """
    records: list[OpRecord] = []
    mix = len(MIXES[client.workload])
    start = time.perf_counter()
    before = hostspeed.kernel_s()
    while True:
        for _ in range(mix):
            record = client.issue(len(records))
            after = hostspeed.kernel_s()
            record.speed = hostspeed.speed(before, after)
            records.append(record)
            before = after
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(records) >= min_ops or elapsed >= 2 * seconds):
            return records


def replay(client: Client, records: list[OpRecord], tracer, *,
           trace_memory: bool = False) -> list[OpRecord]:
    """Run the same ops again with every privlab layer traced.

    With ``trace_memory`` the run also follows allocations with
    ``tracemalloc``, which slows Python-heavy code several times over, so
    the timing and the memory spans come from separate replays.
    """
    installation = install(tracer)
    if trace_memory:
        tracemalloc.start()
    try:
        out = []
        for rec in records:
            tracer.begin_op(rec.i)
            out.append(client.issue(rec.i))
        return out
    finally:
        if trace_memory:
            tracemalloc.stop()
        installation.remove()


def probe_setup(workload: str) -> tuple[float, float]:
    """Wall time of one fresh process from start until its first op could
    be issued, as seen by the parent, and its factor to reference speed."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--setup-probe"]
    before = statistics.median(hostspeed.kernel_s() for _ in range(3))
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=120)
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe failed (exit {proc.returncode}): {line!r}")
    after = statistics.median(hostspeed.kernel_s() for _ in range(3))
    return ready, hostspeed.speed(before, after)


# ---------------------------------------------------------------------------
# environment record


def _openblas():
    """(version string, thread count) of numpy's bundled OpenBLAS, if found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return get_config().decode(), get_threads()
    return None, None


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment(workload: str, seed: int, n_ops: int) -> dict:
    blas_config, blas_threads = _openblas()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas_config,
        "blas_threads": blas_threads,
        "privlab_threads": os.environ.get("PRIVLAB_THREADS", "unset (default 1)"),
        "workload": workload,
        "workload_seed": seed,
        "op_count": n_ops,
        "git_commit": _git_commit(),
        "op_shapes": shapes(workload),
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def _per_type_latency(workload: str, records: list[OpRecord]) -> dict:
    by_type: dict[str, list[OpRecord]] = {}
    for rec in records:
        by_type.setdefault(op_type(workload, rec.i).name, []).append(rec)
    return {name: {"count": len(v),
                   "median_s": statistics.median(r.latency * r.speed for r in v),
                   "wall_median_s": statistics.median(r.latency for r in v)}
            for name, v in by_type.items()}


def _timings(latencies: list[float]) -> dict:
    return {"ops_per_s": len(latencies) / sum(latencies),
            "latency_p50_s": statistics.median(latencies),
            "latency_p90_s": statistics.quantiles(latencies, n=10)[-1]}


def end_to_end(client: Client, args) -> tuple[dict, list[OpRecord], dict]:
    records = run_loop(client, args.seconds, MIN_OPS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = [r.latency for r in records]
    scaled = [r.latency * r.speed for r in records]
    probes = [probe_setup(args.workload) for _ in range(SETUP_PROBES)]
    timings = _timings(scaled)
    metrics = {
        "setup_s": (statistics.median(t * f for t, f in probes), "s"),
        "ops_per_s": (timings["ops_per_s"], "1/s"),
        "latency_p50_s": (timings["latency_p50_s"], "s"),
        "latency_p90_s": (timings["latency_p90_s"], "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    # The same figures as raw wall time, for a reader who wants to see how
    # loaded the host was, or to check that a change did not flatter the
    # scaled figures by slowing the calibration kernel.
    detail = {"latency_samples": len(records), "busy_s": sum(wall),
              "wall": {**_timings(wall),
                       "setup_s": statistics.median(t for t, _ in probes)},
              "speed_median": statistics.median(r.speed for r in records),
              "setup_samples_s": [t for t, _ in probes],
              "setup_speeds": [f for _, f in probes],
              "per_op_type": _per_type_latency(args.workload, records),
              "latencies_s": wall,
              "speeds": [r.speed for r in records]}
    return metrics, records, detail


def traced(client: Client, args) -> tuple[dict, list[OpRecord], dict]:
    untraced = run_loop(client, args.seconds * TRACE_UNTRACED_SHARE, 1)
    timing, memory = Tracer(), Tracer()
    records = replay(client, untraced, timing)
    # one round holds every op type once, which is enough for the peaks
    first_round = untraced[:len(MIXES[args.workload])]
    mem_records = replay(client, first_round, memory, trace_memory=True)
    op_wall = sum(r.latency for r in records)
    metrics = layer_metrics(timing.spans, memory.spans, len(records), op_wall,
                            sum(r.latency for r in untraced))
    RESULTS_DIR.mkdir(exist_ok=True)
    files = {}
    for kind, tracer in (("timing", timing), ("memory", memory)):
        path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-{kind}-spans.jsonl.gz"
        tracer.write(str(path))
        files[kind] = str(path.relative_to(ROOT))
    detail = {"untraced_ops": len(untraced), "traced_ops": len(records),
              "memory_traced_ops": len(mem_records),
              "spans": len(timing.spans), "spans_files": files}
    return metrics, untraced + records + mem_records, detail


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(MIXES))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    try:
        cli = setup(args.workload)
    except (RuntimeError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    client = Client(cli, args.workload, args.seed)
    metrics, records, detail = (traced if args.trace else end_to_end)(client, args)
    failures = [{"i": r.i, "op": op_type(args.workload, r.i).name, "argv": r.argv,
                 "problems": r.problems[:5]} for r in records if r.problems]
    if args.trace:
        metrics["failed_op_ratio"] = (len(failures) / len(records), "ratio")
    record = {"environment": environment(args.workload, args.seed, len(records)),
              "trace": args.trace, "seconds": args.seconds,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "attempted": len(records), "failed": len(failures),
              "failures": failures[:50], "library_defects": client.library_defects(),
              **detail}
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}", file=sys.stderr)
    print(f"attempted {len(records)}, failed {len(failures)}; record in "
          f"{out.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": len(records),
                      "failed": len(failures), "metrics": record["metrics"]}))
    return 0
