"""Workload definitions: the op mixes, their sizes, and the seeded op list.

Every op is one ``privlab`` command line. Op ``i`` of a workload is the mix
entry ``i mod len(mix)`` (round-robin) with ``--seed`` derived from the
workload seed and ``i``, so two commits given the same workload seed run
byte-identical inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

DEFAULT_SEED = 1


@dataclass(frozen=True)
class OpType:
    """One entry of a workload mix and the problem size it works at."""

    name: str
    argv: tuple[str, ...]
    D: int   # dimension of the state the op works on
    d: int   # local (key) dimension
    n: int   # number of copies


def _op(name: str, line: str, D: int, d: int, n: int) -> OpType:
    return OpType(name, tuple(line.split()), D, d, n)


# Why each mix was chosen, and which layers it exercises or bypasses, is
# recorded in README.md and BENCHMARK.json.
MIXES: dict[str, tuple[OpType, ...]] = {
    "audit": (
        _op("cit_d5", "uncertainty --mode cit --d 5 --trials 2", 125, 5, 1),
        _op("cit_d3", "uncertainty --mode cit --d 3 --trials 10", 27, 3, 1),
        _op("quantum_cit_d5", "uncertainty --mode quantum_cit --d 5 --trials 20",
            125, 5, 1),
        _op("maassen_uffink_d5",
            "uncertainty --mode maassen_uffink --d 5 --trials 50", 25, 5, 1),
    ),
    "certify": (
        _op("werner_d6_uhlmann",
            "verify --state werner --d 6 --p 0.9 --measurement uhlmann", 36, 6, 1),
        _op("werner_d12_projective",
            "verify --state werner --d 12 --p 0.9 --measurement projective",
            144, 12, 1),
        _op("twisted_d4_s8_twisting",
            "verify --state twisted --d 4 --shield-dim 8 --measurement twisting",
            128, 4, 1),
        _op("twisted_d4_s8_uhlmann",
            "verify --state twisted --d 4 --shield-dim 8 --measurement uhlmann",
            128, 4, 1),
        _op("twisted_d3_s16_uhlmann",
            "verify --state twisted --d 3 --shield-dim 16 --measurement uhlmann",
            144, 3, 1),
        _op("rates_twisted_d4_s16", "rates --state twisted --d 4 --shield-dim 16",
            256, 4, 1),
    ),
    "distill": (
        _op("hashing_werner_d2_n3",
            "hashing-sim --state werner --d 2 --p 0.9 --n 3 --code-kind sampled "
            "--code-d 2 --code-n 3 --m-z 1", 64, 2, 3),
        _op("distill_werner_d9",
            "distill --state werner --d 9 --p 0.9 --code-kind sampled --code-d 3 "
            "--code-n 2 --m-z 1", 81, 3, 2),
        _op("distill_werner_d8",
            "distill --state werner --d 8 --p 0.9 --code-kind sampled --code-d 2 "
            "--code-n 3 --m-z 1 --m-x 1", 64, 2, 3),
        _op("distill_shielded_bit",
            "distill --state shielded_bit --s 0.6 --code-kind two_copy "
            "--stabilizer XX", 256, 2, 2),
        _op("appd_sweep", "appd --s 0.3 --s 0.6 --s 0.9", 256, 2, 2),
    ),
}

# One tiny op per code path of the mix, run once before timing: the
# first-call cost (lazy imports, LAPACK set-up) that every user pays.
WARMUP: dict[str, tuple[tuple[str, ...], ...]] = {
    name: tuple(tuple(line.split()) for line in lines)
    for name, lines in {
        "audit": (
            "uncertainty --mode cit --d 2 --trials 1",
            "uncertainty --mode quantum_cit --d 2 --trials 1",
            "uncertainty --mode maassen_uffink --d 2 --trials 1",
        ),
        "certify": (
            "verify --state werner --d 2 --p 0.9 --measurement uhlmann",
            "verify --state werner --d 2 --p 0.9 --measurement projective",
            "verify --state twisted --d 2 --shield-dim 2 --measurement twisting",
            "rates --state bell --d 2",
        ),
        "distill": (
            "hashing-sim --state werner --d 2 --p 0.9 --n 2 --code-kind explicit "
            "--code-d 2 --code-n 2 --mz-rows 1,1",
            "distill --state werner --d 4 --p 0.9 --code-kind sampled --code-d 2 "
            "--code-n 2 --m-z 1",
            "distill --state shielded_bit --s 0.6 --code-kind two_copy "
            "--stabilizer XX",
            "appd --s 0.6",
        ),
    }.items()
}


def op_seed(workload_seed: int, i: int) -> int:
    """The ``--seed`` of op ``i``: a 31-bit hash of (workload seed, i)."""
    digest = hashlib.blake2b(f"{workload_seed}:{i}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big") & 0x7FFF_FFFF


def op_type(workload: str, i: int) -> OpType:
    mix = MIXES[workload]
    return mix[i % len(mix)]


def op_argv(workload: str, workload_seed: int, i: int) -> list[str]:
    return [*op_type(workload, i).argv, "--seed", str(op_seed(workload_seed, i))]


def shapes(workload: str) -> dict[str, dict[str, int]]:
    """(D, d, n) of every op type of the workload, for the result record."""
    return {t.name: {"D": t.D, "d": t.d, "n": t.n} for t in MIXES[workload]}
