"""Record the benchmark of a checkout as ``BENCH_<pr>.json``, and compare two records.

    python3 tools/bench_record.py --pr N [--root DIR]
    python3 tools/bench_record.py --pr N --compare BENCH_M.json
    python3 tools/bench_record.py --load BENCH_N.json --compare BENCH_M.json
    python3 tools/bench_record.py --pairs N --against DIR --workload W [--seed S]
    python3 tools/bench_record.py --payloads DIR [--line "..." ...]
    python3 tools/bench_record.py --scale DIR

Each workload of ``BENCHMARK.json`` is run as a subprocess,
``python3 perfbench/run.py --workload W --seed 1 --seconds 35 --trace 0|1``,
three times untraced and once traced. The record keeps, per workload, the
median and interquartile range of every end-to-end metric over the untraced
runs, the per-layer metrics of the traced run, and the host facts: the
``perfbench/hostspeed`` kernel time, the CPU count, the numpy version, the
BLAS threads and the measured tree (``HEAD``, with ``+diff.`` and a hash of
``git diff HEAD`` when the tree differs from it). ``--root`` names the checkout that is run (by
default the one holding this script); the benchmark writes its own result
files under that checkout's ``perfbench/results/``, and the record goes to
``BENCH_<pr>.json`` beside this script's checkout.

``--compare PREV`` prints each metric's ratio to PREV. An end-to-end metric
whose median lies outside PREV's interquartile range is flagged ``better`` or
``worse``; the per-layer metrics come from one run each and get no flag. When
the two host kernel times differ by more than a flagged metric's interquartile
range relative to its median, the flag is marked ``(host drift?)`` and a warning
points to ``--pairs``: the host, not the change, may have moved the metric.

``--pairs N`` compares two checkouts directly: N pairs of untraced runs of
workload W, one run of the checkout DIR (the base) and one of ``--root`` (the
change) per pair, with the same seed and length, the base first in even pairs
and second in odd ones. Per end-to-end metric it prints each side's median
and quartiles and how many pairs the change won in the metric's ``better``
direction; a tie counts for neither side.

``--payloads DIR`` compares the ``results`` of the checkout DIR (the base)
and ``--root`` (the change) on every ``privlab`` line of README.md's sh blocks,
every perfbench mix and warm-up line, and every ``--line``, in one process
per checkout with one BLAS thread. A line that sets its own ``--seed`` runs
once as written; every other line runs at seeds 1, 2 and 3. Each mix op also
runs once at the seed the benchmark gives its first occurrence (op i of the
workload seed, i < the mix length); the later ops of a benchmark run, at
other hashed seeds, are not covered. It prints the number of byte-identical
lines, then every moved number with its delta, and exits 1 when a field is
missing on one side or changes type (an exit code counts as a field).

``--scale DIR`` runs each line of ``SCALE_LINES`` (the scale limits of ROADMAP.md)
in the checkout DIR (the base) and in ``--root`` (the change), one fresh process per
line and checkout with one BLAS thread. A process calls the line three times: the
first gives the exit code and, on a refusal, the first line of its stderr; the
second, warm, gives the wall time; the third gives the tracemalloc peak, printed in
MB and as a multiple of 16 bytes x the checkout's ``AMPLITUDE_CAP``.

Every run is a fresh process with ``PYTHONDONTWRITEBYTECODE=1``, so it writes
no bytecode cache that a later run would read.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import re
import shlex
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable, Sequence

ROOT = Path(__file__).resolve().parent.parent
SEED, SECONDS, RUNS = 1, 35, 3  # each workload: RUNS untraced runs and one traced
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HOSTSPEED = ("import statistics, hostspeed; "
             "print(statistics.median(hostspeed.kernel_s() for _ in range(5)))")

# runs one benchmark: (root, workload, seed, seconds, trace) -> its stdout
Runner = Callable[[Path, str, int, float, int], str]


def run_benchmark(root: Path, workload: str, seed: int, seconds: float, trace: int) -> str:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(argv, cwd=root, env=env, check=True, capture_output=True,
                          text=True).stdout


def last_result(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a benchmark's stdout."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the benchmark printed no result line")
    result = json.loads(lines[-1])
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            raise ValueError(f"result line has no {key!r}")
    return result


def spread(values: Sequence[float]) -> dict:
    """Median, quartiles and interquartile range of the runs of one metric."""
    values = sorted(float(v) for v in values)
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def summarise(spec: dict, untraced: Sequence[dict], traced: dict | None) -> dict:
    """One workload's entry: the end-to-end spreads over ``untraced`` and
    the per-layer values of ``traced``."""
    end_to_end = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        end_to_end[name] = {"unit": metric["unit"], "better": metric["better"],
                            **spread([r["metrics"][name]["value"] for r in untraced])}
    runs = list(untraced) + ([traced] if traced else [])
    return {"correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": end_to_end,
            "per_layer": {} if traced is None else {
                name: {"value": m["value"], "unit": m["unit"]}
                for name, m in traced["metrics"].items()}}


def tree_id(root: Path) -> str | None:
    """The tree of the checkout ``root``: its ``HEAD``, and when the tree differs
    from it ``+diff.`` and the first 12 hex digits of the SHA-256 of ``git diff
    HEAD``; None outside a git checkout."""
    def git(*args: str) -> bytes:
        return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True).stdout
    try:
        head = git("rev-parse", "HEAD").decode().strip()
        diff = git("diff", "HEAD", "--binary")
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + (f"+diff.{hashlib.sha256(diff).hexdigest()[:12]}" if diff else "")


def host_facts(root: Path, seed: int, workload: str) -> dict:
    """The host facts of a record, read after the runs of ``workload``."""
    env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
    kernel = subprocess.run([sys.executable, "-c", HOSTSPEED], cwd=root / "perfbench",
                            env=env, check=True, capture_output=True, text=True).stdout
    facts = {"hostspeed_kernel_s": float(kernel.split()[-1]), "cpu_count": os.cpu_count()}
    # the benchmark's own result file gives numpy and BLAS; its commit is HEAD alone
    path = root / "perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    env_rec = json.loads(path.read_text(encoding="utf-8"))["environment"]
    facts.update(numpy=env_rec.get("numpy"), blas_threads=env_rec.get("blas_threads"),
                 python=env_rec.get("python"), commit=tree_id(root))
    return facts


def record(root: Path, pr: int, runner: Runner = run_benchmark,
           facts: Callable[[Path, int, str], dict] = host_facts) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    out = {"pr": pr, "settings": {"seed": SEED, "seconds": SECONDS, "untraced_runs": RUNS,
                                  "traced_runs": 1},
           "workloads": {}}
    for name in names:
        untraced = [last_result(runner(root, name, SEED, SECONDS, 0)) for _ in range(RUNS)]
        traced = last_result(runner(root, name, SEED, SECONDS, 1))
        out["workloads"][name] = summarise(spec, untraced, traced)
        print(f"{name}: " + ", ".join(f"{k} {v['median']:.6g}"
                                      for k, v in out["workloads"][name]["end_to_end"].items()),
              file=sys.stderr)
    out["host"] = facts(root, SEED, names[-1])
    return out


def compare(prev: dict, cur: dict) -> list[str]:
    """One line per metric present in both records: the ratio to ``prev``, and
    for end-to-end metrics a flag when the median leaves prev's IQR, marked as
    possible host drift when the host kernel moved by more than that IQR's width
    relative to prev's median; a warning line then points to ``--pairs``."""
    k0 = prev["host"].get("hostspeed_kernel_s", float("nan"))
    k1 = cur["host"].get("hostspeed_kernel_s", float("nan"))
    drift = abs(_ratio(k1, k0) - 1.0)
    lines, drifted = [f"host kernel {k0:.4g} s -> {k1:.4g} s"], 0
    for name, now in cur["workloads"].items():
        then = prev["workloads"].get(name)
        if then is None:
            continue
        for metric, m in now["end_to_end"].items():
            p = then["end_to_end"].get(metric)
            if p is None:
                continue
            flag = "inside IQR"
            if not p["q1"] <= m["median"] <= p["q3"]:
                up = m["median"] > p["q3"]
                flag = "better" if up == (m["better"] == "higher") else "worse"
                if drift > (p["iqr"] / abs(p["median"]) if p["median"] else 0.0):
                    flag += " (host drift?)"
                    drifted += 1
            lines.append(f"{name:8s} {metric:22s} {p['median']:12.6g} -> {m['median']:12.6g}"
                         f"  x{_ratio(m['median'], p['median']):.3f}  {flag}"
                         f" (prev IQR {p['q1']:.6g}..{p['q3']:.6g})")
        for metric, m in now["per_layer"].items():
            p = then["per_layer"].get(metric)
            if p is not None:
                lines.append(f"{name:8s} {metric:38s} {p['value']:12.6g} -> {m['value']:12.6g}"
                             f"  x{_ratio(m['value'], p['value']):.3f}")
    if drifted:
        lines.insert(1, f"warning: the host kernel moved by {drift:.1%}, more than the previous "
                        f"IQR of {drifted} flagged metrics; their flags may be host drift, so "
                        "compare the two trees with --pairs")
    return lines


def run_pairs(base: Path, change: Path, workload: str, pairs: int, seed: int = SEED,
              runner: Runner = run_benchmark) -> tuple[list[dict], list[dict]]:
    """The result lines of ``pairs`` alternating pairs of untraced runs, as (base
    runs, change runs): the base runs first in even pairs and second in odd ones."""
    sides: tuple[list[dict], list[dict]] = ([], [])
    for i in range(pairs):
        for k in ((0, 1) if i % 2 == 0 else (1, 0)):
            root = (base, change)[k]
            sides[k].append(last_result(runner(root, workload, seed, SECONDS, 0)))
    return sides


def pair_lines(spec: dict, base: Sequence[dict], change: Sequence[dict]) -> list[str]:
    """Per end-to-end metric, each side's median [q1, q3] and the pairs the change
    won in the metric's ``better`` direction; ties count for neither side."""
    lines = [f"correct base {all(r['correct'] for r in base)} change "
             f"{all(r['correct'] for r in change)}; failed ops base "
             f"{[r['failed'] for r in base]} change {[r['failed'] for r in change]}"]
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        old = [r["metrics"][name]["value"] for r in base]
        new = [r["metrics"][name]["value"] for r in change]
        won = sum(y > x if higher else y < x for x, y in zip(old, new))
        tied = sum(x == y for x, y in zip(old, new))
        a, b = spread(old), spread(new)
        lines.append(f"{name:16s} base {a['median']:.6g} [{a['q1']:.6g}, {a['q3']:.6g}]"
                     f"  change {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}]"
                     f"  x{_ratio(b['median'], a['median']):.3f}"
                     f"  change won {won}/{len(old)}" + (f" ({tied} tied)" if tied else ""))
    return lines


# runs every line in one process of a checkout: (root, argv lines) -> their outcomes,
# {"results": ...} for exit code 0 and {"exit": code, "error": message} otherwise
PayloadRunner = Callable[[Path, Sequence[Sequence[str]]], list]
PAYLOAD_SEEDS = (1, 2, 3)
PAYLOAD_SCRIPT = """
import contextlib, io, json, sys
from privlab import cli
outcomes = []
for argv in json.load(sys.stdin):
    text, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--format", "json"])
    outcomes.append({"results": json.loads(text.getvalue())["results"]} if code == 0
                    else {"exit": code, "error": err.getvalue().strip()})
print(json.dumps(outcomes))
"""


def _run_privlab(root: Path, script: str, stdin) -> object:
    """The JSON that ``script`` prints, run in a fresh process on ``root``'s privlab
    with one BLAS thread and no bytecode, given ``stdin`` as JSON."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **{v: "1" for v in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                      env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], cwd=root, env=env,
                         input=json.dumps(stdin), check=True, capture_output=True,
                         text=True).stdout
    return json.loads(out)


def run_payloads(root: Path, lines: Sequence[Sequence[str]]) -> list:
    return _run_privlab(root, PAYLOAD_SCRIPT, [list(a) for a in lines])


# the lines of ROADMAP.md's scale table, each near a limit of AMPLITUDE_CAP
SCALE_LINES = (
    "rates --state werner --d 16 --p 0.9",
    "rates --state werner --d 17 --p 0.9",
    "verify --state werner --d 32 --p 0.9 --measurement projective",
    "verify --state twisted --d 4 --shield-dim 457 --measurement projective",
    "verify --state twisted --d 12 --shield-dim 144 --measurement projective",
    "verify --state shielded_bit --shield-dim 256 --measurement uhlmann",
    "verify --state shielded_bit --shield-dim 362 --measurement uhlmann",
    "verify --state shielded_bit --shield-dim 131072 --measurement uhlmann",
    "hashing-sim --state werner --d 2 --p 0.95 --n 4 --code-kind explicit --code-d 2 "
    "--code-n 4 --mz-rows '1 1 1 1'",
    "hashing-sim --state werner --d 2 --p 0.95 --n 4 --code-kind explicit --code-d 2 "
    "--code-n 4 --mz-rows '1 1 1 1' --mx-rows '1 1 0 0'",
    "hashing-sim --state werner --d 2 --p 0.95 --n 5 --code-kind explicit --code-d 2 "
    "--code-n 5 --mz-rows '1 1 1 1 1'",
    "distill --state werner --d 16 --p 0.9 --code-kind sampled --code-d 2 --code-n 4 "
    "--m-z 1 --m-x 1",
    "distill --state werner --d 32 --p 0.9 --code-kind sampled --code-d 2 --code-n 5 "
    "--m-z 1 --m-x 1",
    "verify --state shielded_bit --shield-dim 131073 --measurement uhlmann",
)
# runs one line in a fresh process of a checkout: (root, argv) -> {"exit", "error",
# "wall_s", "peak_bytes", "cap"}
ScaleRunner = Callable[[Path, Sequence[str]], dict]
SCALE_SCRIPT = """
import contextlib, io, json, sys, time, tracemalloc
from privlab import cli
from privlab.tensor_core import AMPLITUDE_CAP
argv = json.load(sys.stdin)

def call():
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return cli.main(argv), err.getvalue()

code, err = call()
start = time.perf_counter()
call()
wall = time.perf_counter() - start
tracemalloc.start()
call()
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
lines = [line for line in err.splitlines() if line.strip()] if code else []
print(json.dumps({"exit": code, "error": lines[0] if lines else "", "wall_s": wall,
                  "peak_bytes": peak, "cap": AMPLITUDE_CAP}))
"""


def run_scale(root: Path, argv: Sequence[str]) -> dict:
    return _run_privlab(root, SCALE_SCRIPT, list(argv))


def scale_report(side: str, out: dict) -> str:
    """One side's line of a scale run: exit code, warm wall time and peak."""
    peak = out["peak_bytes"]
    refusal = f'  "{out["error"]}"' if out["exit"] else ""
    return (f"  {side:6s} exit {out['exit']}  {out['wall_s']:.3f} s  {peak / 1e6:.1f} MB"
            f" ({peak / (16 * out['cap']):.2f}x)" + refusal)


def payload_lines(root: Path, extra: Sequence[str] = ()) -> list[list[str]]:
    """The README examples, the perfbench mix lines (bare and at their first benchmark
    seeds), the warm-up lines and ``extra``, once each."""
    readme = (root / "README.md").read_text(encoding="utf-8")
    lines = [line.strip() for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
             for line in block.replace("\\\n", " ").splitlines()]
    argvs = [shlex.split(line)[1:] for line in lines if line.startswith("privlab ")]
    spec = importlib.util.spec_from_file_location("_workloads", root / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no cache in perfbench/
    try:
        spec.loader.exec_module(workloads)
    finally:
        sys.dont_write_bytecode = writes
    argvs += [list(op.argv) for mix in workloads.MIXES.values() for op in mix]
    argvs += [list(workloads.op_argv(name, SEED, i))
              for name, mix in workloads.MIXES.items() for i in range(len(mix))]
    argvs += [list(argv) for warm in workloads.WARMUP.values() for argv in warm]
    argvs += [shlex.split(line) for line in extra]
    return [list(a) for a in dict.fromkeys(map(tuple, argvs))]


def _leaves(value, path: str = "") -> dict:
    """Every scalar of a JSON value by its path; every container is marked by its kind."""
    if isinstance(value, dict):
        out = {f"{path}{{}}": None}
        for k, v in value.items():
            out.update(_leaves(v, f"{path}.{k}" if path else k))
        return out
    if isinstance(value, list):
        out = {f"{path}[]": None}
        for i, v in enumerate(value):
            out.update(_leaves(v, f"{path}[{i}]"))
        return out
    return {path: value}


def diff_payloads(lines: Sequence[Sequence[str]], base: Sequence[dict],
                  change: Sequence[dict]) -> tuple[list[str], bool]:
    """The report on two runs of ``lines``, and whether every field kept its key and type."""
    same, moved, bad, worst = 0, [], [], 0.0
    for argv, old, new in zip(lines, base, change, strict=True):
        if json.dumps(old, sort_keys=True) == json.dumps(new, sort_keys=True):
            same += 1
            continue
        a, b, name = _leaves(old), _leaves(new), " ".join(argv)
        for path in sorted(set(a) | set(b)):
            x, y = a.get(path), b.get(path)
            if path not in a or path not in b or type(x) is not type(y):
                bad.append(f"MISMATCH {name}: {path} {x!r} -> {y!r}")
            elif isinstance(x, (int, float)) and not isinstance(x, bool) and x != y:
                worst = max(worst, abs(y - x))
                moved.append(f"  {name}: {path} {x!r} -> {y!r} (delta {y - x:.3g})")
            elif x != y:
                moved.append(f"  {name}: {path} {x!r} -> {y!r}")
    head = [f"{same} of {len(lines)} lines byte-identical; {len(moved)} fields moved, "
            f"largest |delta| {worst:.3g}"]
    return head + moved + bad, not bad


def _ratio(new: float, old: float) -> float:
    return new / old if old else (1.0 if new == old else float("inf"))


def main(argv: Sequence[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="tools/bench_record.py", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--pr", type=int, help="record the benchmark as BENCH_<pr>.json")
    p.add_argument("--load", type=Path, help="compare an existing record instead")
    p.add_argument("--compare", type=Path, help="previous record to compare with")
    p.add_argument("--root", type=Path, default=ROOT, help="checkout to benchmark")
    p.add_argument("--pairs", type=int, help="alternating pairs of runs against --against")
    p.add_argument("--against", type=Path, help="the base checkout of --pairs")
    p.add_argument("--workload", help="the workload of --pairs")
    p.add_argument("--payloads", type=Path, help="the base checkout of a payload diff")
    p.add_argument("--line", action="append", default=[],
                   help="an extra privlab command line for --payloads (repeatable)")
    p.add_argument("--seed", type=int, default=SEED, help="the seed of --pairs")
    p.add_argument("--scale", type=Path, help="the base checkout of a scale run")
    args = p.parse_args(argv)
    modes = (args.pr, args.load, args.pairs, args.payloads, args.scale)
    if sum(x is not None for x in modes) != 1:
        p.error("give exactly one of --pr, --load, --pairs, --payloads and --scale")
    if args.scale is not None:
        return scale_main(args.scale.resolve(), args.root.resolve())
    if args.payloads is not None:
        return payload_main(args.payloads.resolve(), args.root.resolve(), args.line)
    if args.pairs is not None:
        if args.pairs < 2 or args.against is None or args.workload is None:
            p.error("--pairs needs N >= 2, --against and --workload")
        root = args.root.resolve()
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        base, change = run_pairs(args.against.resolve(), root, args.workload, args.pairs,
                                 args.seed)
        print(f"{args.workload}: {args.pairs} pairs at seed {args.seed}, {SECONDS} s runs")
        print("\n".join(pair_lines(spec, base, change)))
        return 0
    if args.load is not None:
        cur = json.loads(args.load.read_text(encoding="utf-8"))
    else:
        cur = record(args.root.resolve(), args.pr)
        out = ROOT / f"BENCH_{args.pr}.json"
        out.write_text(json.dumps(cur, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {out}", file=sys.stderr)
    if args.compare is not None:
        prev = json.loads(args.compare.read_text(encoding="utf-8"))
        print("\n".join(compare(prev, cur)))
    return 0


def scale_main(base: Path, change: Path, runner: ScaleRunner = run_scale) -> int:
    for line in SCALE_LINES:
        print(line)
        for side, root in (("base", base), ("change", change)):
            print(scale_report(side, runner(root, shlex.split(line))))
    return 0


def _seeded(argv: list[str]) -> list[list[str]]:
    """``argv`` once as written if it sets its own ``--seed``, else at each payload seed."""
    if any(a.split("=")[0] == "--seed" for a in argv):
        return [argv]
    return [argv + ["--seed", str(seed)] for seed in PAYLOAD_SEEDS]


def payload_main(base: Path, change: Path, extra: Sequence[str],
                 runner: PayloadRunner = run_payloads) -> int:
    lines = [a for argv in payload_lines(change, extra) for a in _seeded(argv)]
    report, ok = diff_payloads(lines, runner(base, lines), runner(change, lines))
    print("\n".join(report))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
