"""Correctness oracle for benchmark ops.

Two checks, both made outside the timed region:

* at every seed, the certified inequalities that a ``results`` payload
  carries must hold;
* at the default workload seed, the payload must match the reference
  recorded on the commit that introduced the benchmark.

The tolerances are pinned here rather than imported from privlab, so a
change to the library cannot loosen its own check.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

PROB_ATOL = 1e-9        # probabilities, entropies, rates
SOUNDNESS_ATOL = 1e-6   # square roots of near-zero quantities
SLACK_ATOL = 1e-9       # uncertainty relations: min_slack >= -SLACK_ATOL

# Fields that are square roots of quantities that can sit at eigenvalue
# dust, so they carry ~1e-8 of noise where the quantity itself is ~1e-16.
_SQRT_LIKE = re.compile(r"^(eps_certified|td_\w+|bound\w*|\w*fidelity|overlap_\w+)$")


def _atol(key: str) -> float:
    return SOUNDNESS_ATOL if _SQRT_LIKE.match(key) else PROB_ATOL


def compare(got, want, path: str = "results", key: str = "") -> list[str]:
    """Differences between a payload and its reference, one line each."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(want)}"]
        out = []
        for k in sorted(want):
            out += compare(got[k], want[k], f"{path}.{k}", k)
        return out
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        out = []
        for j, (g, w) in enumerate(zip(got, want)):
            out += compare(g, w, f"{path}[{j}]", key)
        return out
    if isinstance(want, float) and not isinstance(got, bool) \
            and isinstance(got, (int, float)):
        tol = _atol(key)
        if not abs(got - want) <= tol:   # written so that NaN fails
            return [f"{path}: {got!r} != {want!r} (atol {tol:g})"]
        return []
    if got != want or type(got) is not type(want):
        return [f"{path}: {got!r} != {want!r}"]
    return []


def _le(a, b, what: str) -> list[str]:
    if not (isinstance(a, (int, float)) and isinstance(b, (int, float)) and a <= b):
        return [f"certified inequality broken: {what} ({a!r} vs {b!r})"]
    return []


def inequalities(results) -> list[str]:
    """Certified inequalities carried by one ``results`` payload."""
    if not isinstance(results, dict):
        return [f"results is not an object: {results!r}"]
    out = []
    if "eps_direct" in results or "eps_certified" in results:
        cert = results.get("eps_certified")
        out += _le(results.get("eps_direct"),
                   cert + SOUNDNESS_ATOL if isinstance(cert, (int, float)) else cert,
                   "eps_direct <= eps_certified + margin")
    for key, td in results.items():
        if key.startswith("td_"):
            out += _le(td, results.get("bound_" + key[3:]), f"{key} <= bound_{key[3:]}")
    if "min_slack" in results:
        out += _le(-SLACK_ATOL, results["min_slack"], "min_slack >= -1e-9")
    return out


def check(argv: list[str], text: str | None, error: str | None,
          reference: dict | None) -> list[str]:
    """Failure reasons for one op; empty when the op is correct.

    ``text`` is the report the op printed, ``error`` the exception it raised
    (one of the two is None). ``reference`` is this op's recorded entry, or
    None where no reference exists.
    """
    if reference is not None and reference["argv"] != argv:
        return [f"op list differs from reference: {argv} vs {reference['argv']}"]
    if error is not None:
        return [error]
    try:
        results = json.loads(text)["results"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc}"]
    problems = inequalities(results)
    if reference is not None:
        if "error" in reference:
            problems.append(f"reference run failed: {reference['error']}")
        else:
            problems += compare(results, reference["results"])
    return problems


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> list[dict]:
    """Recorded entries of a workload at the default seed, in op order."""
    with open(reference_path(workload), encoding="utf-8") as fh:
        return json.load(fh)["ops"]
