"""Record the reference ``results`` payloads at the default workload seed.

    python3 perfbench/record_reference.py [workload ...]

Run this only on a commit whose outputs are trusted: the oracle compares
every later run at the default seed against these files. An op that fails
here is recorded with its error and reported as a library defect.
"""

import argparse
import json
import sys

from run import pin_threads

# Rounds of the mix recorded: each covers a full 35-second run at the
# default seed on the commit that recorded them, with room to spare. Later
# ops get only the certified-inequality checks.
ROUNDS = {"audit": 200, "certify": 64, "distill": 64}


def record(workload: str, rounds: int) -> list[dict]:
    import harness
    from workloads import DEFAULT_SEED, MIXES, op_argv

    cli = harness.setup(workload)
    entries = []
    for i in range(rounds * len(MIXES[workload])):
        argv = op_argv(workload, DEFAULT_SEED, i)
        _, text, error = harness.call_op(cli, argv)
        entry = {"i": i, "argv": argv}
        if error is None:
            entry["results"] = json.loads(text)["results"]
        else:
            entry["error"] = error
        entries.append(entry)
    return entries


def main(argv: list[str]) -> int:
    from workloads import DEFAULT_SEED, MIXES
    import harness
    import oracle

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workloads", nargs="*", default=sorted(MIXES))
    args = p.parse_args(argv)
    for workload in args.workloads:
        entries = record(workload, ROUNDS[workload])
        header = {"workload": workload, "seed": DEFAULT_SEED,
                  "commit": harness.environment(workload, DEFAULT_SEED, 0)["git_commit"]}
        lines = ",\n".join(json.dumps(e, separators=(",", ":")) for e in entries)
        text = json.dumps(header)[:-1] + ', "ops": [\n' + lines + "\n]}\n"
        oracle.reference_path(workload).write_text(text, encoding="utf-8")
        failed = sum("error" in e for e in entries)
        print(f"{workload}: {len(entries)} ops recorded, {failed} failed")
    return 0


if __name__ == "__main__":
    pin_threads()
    sys.exit(main(sys.argv[1:]))
