"""Command line front end.

Every subcommand compiles its flags into one JSON-serialisable config,
runs deterministically from --seed, and emits a run report as JSON or CSV.
The parser is the only table from flags to config entries: a flag's dest is
the entry it sets (``--d`` sets ``state.d``, entry d of the state spec), and
only the flags given take part. Flags override --config file entries, and
the flags of one spec form a new spec that replaces the file's. A config
entry that its command, spec kind or mode does not read is rejected.
Exit codes: 2 for invalid configs or values, 3 for violated invariants,
4 for I/O failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile
import time
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .css_codes import CssCode, sample_universal_css, universality_estimate
from .distillation import (build_css_decoders, coherent_hashing_sim,
                           distillable_rate, one_shot_distill,
                           shielded_bit_state, tensor_power_grouped,
                           two_copy_scenario)
from .info_measures import AUDIT_MODES, AuditRecord, _audit_trials, uncertainty_audit
from .privacy import (SOUNDNESS_ATOL, _certified_report, certify_private,
                      twisting_conjugate_measurement, uhlmann_conjugate_measurement)
from .qudit_ops import (ConjugateBasis, Povm, TwistingOperator, _bell_basis,
                        _private_vector, maximally_entangled)
from .sampling import (_haar_unitaries, _haar_vectors, _keyed_normals, random_pure_state,
                       substream)
from .tensor_core import (BOUND_ATOL, DensityOperator, HilbertSpace, InvariantViolation,
                          StateVector, _budget)

STATE_KINDS = {
    "bell": {"d"},
    "bell_power": {"d", "n"},
    "werner": {"d", "p"},
    "twisted": {"d", "shield_dim"},
    "shielded_bit": {"s", "shield_dim"},
    "inline": {"dims", "labels", "amps"},
    "file": {"path"},
}

CODE_KINDS = {
    "explicit": {"d", "n", "mz_rows", "mx_rows"},
    "sampled": {"d", "n", "m_z", "m_x"},
    "two_copy": {"stabilizer"},
}


# the css entries each mode reads, beside mode, d and n
CSS_MODES = {
    "sample": {"count", "m_z", "m_x"},
    "universality": {"m", "m_x", "row_slice", "trials"},
}

MAX_TRIALS = 100_000  # largest code count or trial count a run may ask for


def _check_keys(spec: Mapping, allowed: set, what: str) -> None:
    unknown = sorted(set(spec) - allowed)
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}; allowed: {sorted(allowed)}")


def _spec_kind(spec, kinds: Mapping, what: str):
    """The kind of a spec, checked to be one of ``kinds``, whose other keys it reads."""
    if not isinstance(spec, Mapping) or "kind" not in spec:
        raise ValueError(f"{what} spec must be an object with a 'kind' entry")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in kinds:
        raise ValueError(f"unknown {what} kind {kind!r}; choose from {sorted(kinds)}")
    _check_keys({k: v for k, v in spec.items() if k != "kind"}, kinds[kind],
                f"{what}[{kind}]")
    return kind


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_int(value, what: str, lo: int = 1) -> int:
    """A config integer; bools, strings and non-integral numbers are rejected."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if value < lo:
        raise ValueError(f"{what} must be at least {lo}, got {value}")
    return value


def _as_count(value, what: str, lo: int = 1) -> int:
    """A config integer no larger than ``MAX_TRIALS``."""
    value = _as_int(value, what, lo)
    if value > MAX_TRIALS:
        raise ValueError(f"{what} must be at most {MAX_TRIALS}, got {value}")
    return value


def _as_real(value, what: str) -> float:
    """A finite config number; bools, strings, NaN and infinities are rejected."""
    if not _is_real(value) or not math.isfinite(value):
        raise ValueError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _shield_pair(s: float, shield_dim: int) -> tuple[np.ndarray, np.ndarray]:
    if not 0.0 <= s <= 1.0:
        raise ValueError("shield overlap must lie in [0, 1]")
    if shield_dim < 2:
        raise ValueError("shield needs dimension at least 2")
    phi0 = np.zeros(shield_dim, dtype=np.complex128)
    phi0[0] = 1.0
    phi1 = np.zeros(shield_dim, dtype=np.complex128)
    phi1[0] = s
    phi1[1] = math.sqrt(max(1.0 - s * s, 0.0))
    return phi0, phi1


def build_state(spec: Mapping, seed: int):
    """Build the state named by a spec dict; returns (state, extras)."""
    kind = _spec_kind(spec, STATE_KINDS, "state")
    extras: dict = {}
    if kind == "inline":
        return _inline_state(spec), extras
    if kind == "file":
        path = spec.get("path")
        if not isinstance(path, str) or not path:
            raise ValueError("file state spec needs a 'path' string")
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, Mapping):
            raise ValueError("a state file must hold a JSON object")
        _check_keys(payload, STATE_KINDS["inline"], "state[file]")
        return _inline_state(payload), extras
    # each kind checks the arrays it builds against the cap before building
    # anything: a werner state its D x D matrix, a twisted state its d diagonal
    # twisting blocks of s x s and the identity they share off the diagonal,
    # which outsize its d^2 s amplitudes
    d = _as_int(spec.get("d", 2), "d")
    if kind == "bell":
        _budget((d, d), "bell state")
        return maximally_entangled(d), extras
    if kind == "bell_power":
        n = _as_int(spec.get("n", 1), "n")
        # past 21 copies any d >= 2 is over the cap, and d = 1 stays 1
        _budget((d ** min(n, 21),) * 2, "bell_power state")
        return tensor_power_grouped(maximally_entangled(d), n), extras
    if kind == "werner":
        _budget((d, d) * 2, "werner state")
        p = _as_real(spec.get("p", 1.0), "p")
        if not 0.0 <= p <= 1.0:
            raise ValueError("werner weight must lie in [0, 1]")
        # Bell-diagonal: weight p + (1 - p) / D on Phi = Bell vector (0, 0),
        # (1 - p) / D on the other D - 1, so no D x D eigensolve is needed
        phi = maximally_entangled(d)
        mat = (p * np.outer(phi.amplitudes, phi.amplitudes.conj())
               + (1.0 - p) * np.eye(d * d) / (d * d))
        vals = np.full(d * d, (1.0 - p) / (d * d))
        vals[-1] += p
        # ascending: the D - 1 equal weights first, Phi last (a reversed view)
        return DensityOperator._from_eigensystem(
            phi.space, mat, vals, _bell_basis(d)[:, ::-1]), extras
    sh = _as_int(spec.get("shield_dim", 2), "shield_dim")
    if kind == "twisted":
        _budget((d + 1, sh, sh), "twisting blocks")
        # block (k, k) keeps the stream 1 + k d + k of a full d x d draw; each block
        # is factored alone, as a batched QR would hold every block's factors at once
        keys = [1 + k * (d + 1) for k in range(d)]
        t = TwistingOperator.from_diagonal(
            d, [_haar_unitaries(g[None])[0] for g in _keyed_normals(seed, keys, (2, sh, sh))])
        xi_space = HilbertSpace((sh,), ("S",))
        xi = StateVector(xi_space, _haar_vectors(_keyed_normals(seed, [0], (2, sh)))[0])
        extras["twisting"] = t
        return _private_vector(d, t, xi), extras
    _budget((2, 2, sh, 2), "shielded_bit state")
    phi0, phi1 = _shield_pair(_as_real(spec.get("s", 0.6), "s"), sh)
    extras["shields"] = (phi0, phi1)
    return shielded_bit_state(phi0, phi1), extras


def _inline_state(spec: Mapping) -> StateVector:
    dims, labels = spec.get("dims", ()), spec.get("labels", ())
    raw = spec.get("amps")
    if not isinstance(dims, (list, tuple)) or not isinstance(labels, (list, tuple)) \
            or not dims or not labels or raw is None:
        raise ValueError("inline state needs dims, labels and amps")
    if not all(isinstance(x, str) for x in labels):
        raise ValueError("inline state labels must be strings")
    dims = tuple(_as_int(v, "dims entry") for v in dims)
    _budget(dims, "inline state")
    pairs = np.asarray(raw, dtype=object)
    if not all(_is_real(v) for v in pairs.flat):
        raise ValueError("amps must be real numbers")
    pairs = pairs.astype(np.float64)
    if pairs.ndim == 1 and pairs.size % 2 == 0:
        pairs = pairs.reshape(-1, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("amps must be (re, im) pairs in row-major register order")
    amps = pairs[:, 0] + 1j * pairs[:, 1]
    return StateVector(HilbertSpace(dims, labels), amps)


def build_code(spec: Mapping, seed: int) -> CssCode:
    if _spec_kind(spec, CODE_KINDS, "code") == "two_copy":
        raise ValueError("two_copy codes are driven through the distill command")
    d = _as_int(spec.get("d", 2), "code d")
    n = _as_int(spec.get("n"), "code n")
    # every use of a code indexes its d^n strings
    _budget((d ** min(n, 21),), "code strings")
    if spec["kind"] == "explicit":
        return CssCode.from_stabilizers(d, _rows(spec.get("mz_rows", []), "mz_rows"),
                                        _rows(spec.get("mx_rows", []), "mx_rows"), n=n)
    return sample_universal_css(d, n, _as_int(spec.get("m_z", 0), "m_z", lo=0),
                                _as_int(spec.get("m_x", 0), "m_x", lo=0),
                                substream(seed, 90))


def _rows(rows, what: str) -> list[list[int]]:
    if not isinstance(rows, (list, tuple)) or \
            not all(isinstance(r, (list, tuple)) for r in rows):
        raise ValueError(f"{what} must be a list of integer rows")
    return [[_as_int(v, f"{what} entry", lo=0) for v in row] for row in rows]


# ---------------------------------------------------------------------------
# subcommands


def cmd_rates(cfg: Mapping, seed: int):
    _check_keys(cfg, {"state"}, "rates")
    state, _ = build_state(cfg.get("state", {"kind": "bell"}), seed)
    rb = distillable_rate(state)
    results = dataclasses.asdict(rb)
    return results, [results]


def cmd_verify(cfg: Mapping, seed: int):
    _check_keys(cfg, {"state", "measurement", "soundness_margin"}, "verify")
    state, extras = build_state(cfg.get("state", {"kind": "bell"}), seed)
    meas = cfg.get("measurement", "projective")
    margin = _as_real(cfg.get("soundness_margin", SOUNDNESS_ATOL), "soundness_margin")
    if meas == "projective":
        report = certify_private(state, soundness_margin=margin)
        extra_out = {}
    elif meas == "twisting":
        t = extras.get("twisting")
        if t is None:
            raise ValueError("twisting verification needs a twisted state")
        d = state.space.dim_of("A")
        povm = twisting_conjugate_measurement(t, ConjugateBasis.fourier(d))
        report = certify_private(state, conj_povm=povm, povm_labels=("B", "S"),
                                 soundness_margin=margin,
                                 measurement_name="twisting_conjugate")
        extra_out = {}
    elif meas == "uhlmann":
        rec = uhlmann_conjugate_measurement(state)
        report = _certified_report(rec.p_e, rec.p_tilde_e, rec.eps_direct, margin,
                                   "uhlmann_partner")
        extra_out = {"fidelity": rec.fidelity, "bound": rec.bound,
                     "pad_dim": rec.pad_dim}
    else:
        raise ValueError(f"unknown measurement {meas!r} "
                         "(use projective, twisting or uhlmann)")
    results = dataclasses.asdict(report)
    results.update(extra_out)
    return results, [results]


def cmd_distill(cfg: Mapping, seed: int):
    _check_keys(cfg, {"state", "code", "adaptive"}, "distill")
    code_spec = cfg.get("code", {"kind": "two_copy"})
    adaptive = cfg.get("adaptive", True)
    if not isinstance(adaptive, bool):
        raise ValueError(f"adaptive must be true or false, got {adaptive!r}")
    if isinstance(code_spec, Mapping) and code_spec.get("kind") == "two_copy":
        _spec_kind(code_spec, CODE_KINDS, "code")
        state_spec = cfg.get("state", {"kind": "shielded_bit"})
        if _spec_kind(state_spec, STATE_KINDS, "state") != "shielded_bit":
            raise ValueError("two_copy distillation needs a shielded_bit state")
        _, extras = build_state(state_spec, seed)
        phi0, phi1 = extras["shields"]
        sc = two_copy_scenario(phi0, phi1, str(code_spec.get("stabilizer", "XX")), adaptive)
        outcome = one_shot_distill(sc.state, sc.code, sc.key_decoders,
                                   sc.conj_decoders)
        results = dict(outcome.transcript)
        results.update({"key_dim": outcome.key_dims[0],
                        "scenario_error": sc.error_prob,
                        "scenario_analytic_error": sc.analytic_error,
                        "stabilizer": sc.stabilizer, "adaptive": sc.adaptive})
        return results, [results]
    if "adaptive" in cfg:
        raise ValueError("adaptive applies to two_copy codes only")
    state, _ = build_state(cfg.get("state", {"kind": "bell"}), seed)
    code = build_code(code_spec, seed)
    if isinstance(state, DensityOperator):
        state = state._purified  # once, for the decoders and the protocol alike
    decs = build_css_decoders(state, code)
    outcome = one_shot_distill(state, code, decs.key_decoders, decs.conj_decoders)
    results = dict(outcome.transcript)
    results["key_dim"] = outcome.key_dims[0]
    return results, [results]


def cmd_hashing_sim(cfg: Mapping, seed: int):
    _check_keys(cfg, {"state", "n", "code"}, "hashing-sim")
    state, _ = build_state(cfg.get("state", {"kind": "bell"}), seed)
    n = _as_int(cfg.get("n", 1), "n")
    spec = cfg.get("code", {"kind": "explicit"})
    # a code spec without a length takes the number of copies
    code = build_code({"n": n, **spec} if isinstance(spec, Mapping) else spec, seed)
    if code.n != n:
        raise ValueError(f"the code length (--code-n {code.n}) must match the number "
                         f"of copies (--n {n})")
    res = coherent_hashing_sim(state, n, code)
    results = dataclasses.asdict(res)
    return results, [results]


def cmd_css(cfg: Mapping, seed: int):
    mode = cfg.get("mode", "sample")
    if not isinstance(mode, str) or mode not in CSS_MODES:
        raise ValueError(f"unknown css mode {mode!r} (use sample or universality)")
    _check_keys(cfg, {"mode", "d", "n"} | CSS_MODES[mode], f"css[{mode}]")
    d = _as_int(cfg.get("d", 2), "d")
    n = _as_int(cfg.get("n", 3), "n")
    if mode == "sample":
        count = _as_count(cfg.get("count", 1), "count", lo=0)
        m_z = _as_int(cfg.get("m_z", 1), "m_z", lo=0)
        m_x = _as_int(cfg.get("m_x", 1), "m_x", lo=0)
        rows = []
        for i in range(count):
            code = sample_universal_css(d, n, m_z, m_x, substream(seed, i))
            rows.append({"index": i, "d": d, "n": n, "m_z": m_z, "m_x": m_x,
                         "mz_rows": json.dumps(code.mz.entries.tolist()),
                         "mx_rows": json.dumps(code.mx.entries.tolist()),
                         "logical_z": json.dumps(code.logical_z.entries.tolist()),
                         "logical_x": json.dumps(code.logical_x.entries.tolist())})
        return {"codes": rows}, rows
    est = universality_estimate(d, n, _as_int(cfg.get("m", 1), "m", lo=0),
                                str(cfg.get("row_slice", "z")),
                                trials=_as_count(cfg.get("trials", 10_000), "trials"),
                                rng=substream(seed, 0),
                                m_other=_as_int(cfg.get("m_x", 0), "m_x", lo=0))
    results = {"collision_rate": est.collision_rate,
               "std_error": est.std_error, "trials": est.trials,
               "reference": est.reference,
               "strings": json.dumps([list(s) for s in est.strings])}
    return results, [results]


def cmd_uncertainty(cfg: Mapping, seed: int):
    _check_keys(cfg, {"mode", "d", "trials"}, "uncertainty")
    mode = str(cfg.get("mode", "maassen_uffink"))
    d = _as_int(cfg.get("d", 2), "d")
    trials = _as_count(cfg.get("trials", 100), "trials")
    if mode not in AUDIT_MODES:
        raise ValueError(f"unknown audit mode {mode!r}")
    # the reduction kernel budgets each audit's measurements on top
    _budget((d, d) if mode == "maassen_uffink" else (d, d, d), f"{mode} state")
    space = (HilbertSpace((d, d), ("A", "K")) if mode == "maassen_uffink"
             else HilbertSpace((d, d, d), ("A", "B", "E")))

    def witnesses(batch: range) -> np.ndarray:
        """The z and x witness unitaries of each trial in ``batch``, stacked (2, T, d, d)."""
        keys = [base + i for base in (10_000, 20_000) for i in batch]
        return _haar_unitaries(_keyed_normals(seed, keys, (2, d, d))).reshape(2, len(batch), d, d)

    def draw(lo: int, hi: int):
        amps = _haar_vectors(_keyed_normals(seed, range(lo, hi), (2, space.dim)))
        return amps, (witnesses(range(lo, hi)) if mode == "cit" else None)

    def audit(i: int) -> AuditRecord:
        """Trial i through the public audit, on its state objects."""
        state = random_pure_state(space, substream(seed, i))
        if mode == "maassen_uffink":
            return uncertainty_audit(mode, state.marginal(("A",)))
        if mode == "quantum_cit":
            return uncertainty_audit(mode, state)
        zw, xw = map(Povm.projective_from_columns, witnesses(range(i, i + 1))[:, 0])
        return uncertainty_audit(mode, state, z_witness=(("E",), zw), x_witness=(("B",), xw))

    terms = _audit_trials(mode, space, trials, draw)
    slacks = terms.sum(axis=1) - float(np.log2(d))
    worst = int(np.argmin(slacks))
    record = audit(worst)
    dev = float(np.max(np.abs(np.array(record.lhs_terms) - terms[worst])))
    if not dev <= 1e-12:
        raise InvariantViolation(
            f"stacked audit of trial {worst} is off its single audit by {dev:g}")
    if not slacks[worst] >= -BOUND_ATOL:
        raise InvariantViolation(f"{mode} relation fails on trial {worst} "
                                 f"(slack {slacks[worst]!r})")
    results = {"mode": mode, "d": d, "trials": trials,
               "min_slack": float(slacks.min()), "mean_slack": float(slacks.mean()),
               "rhs": record.rhs,
               "worst_lhs_terms": list(record.lhs_terms)}
    return results, [results]


def cmd_appd(cfg: Mapping, seed: int):
    _check_keys(cfg, {"s", "stabilizer"}, "appd")
    raw = cfg.get("s", 0.6)
    grid = [_as_real(v, "s") for v in (raw if isinstance(raw, (list, tuple)) else [raw])]
    _as_count(len(grid), "s grid length", lo=0)
    stab = str(cfg.get("stabilizer", "XX"))

    def one(s: float):
        phi0, phi1 = _shield_pair(s, 2)
        ad = two_copy_scenario(phi0, phi1, stab, adaptive=True)
        na = two_copy_scenario(phi0, phi1, stab, adaptive=False)
        return {"s": s, "adaptive_error": ad.error_prob,
                "adaptive_analytic": ad.analytic_error,
                "nonadaptive_error": na.error_prob,
                "nonadaptive_analytic": na.analytic_error}

    rows = [one(s) for s in grid]
    return {"stabilizer": stab, "sweep": rows}, rows


COMMANDS = {
    "rates": cmd_rates,
    "verify": cmd_verify,
    "distill": cmd_distill,
    "hashing-sim": cmd_hashing_sim,
    "css": cmd_css,
    "uncertainty": cmd_uncertainty,
    "appd": cmd_appd,
}


# ---------------------------------------------------------------------------
# config plumbing and output


def _pyify(value):
    if isinstance(value, Mapping):
        return {str(k): _pyify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_pyify(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_pyify(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    return value


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return "%.17g" % value
    text = str(value)
    if any(c in text for c in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _render(report: dict, fmt: str, rows: list[dict]) -> str:
    if fmt == "json":
        return json.dumps(_pyify(report), sort_keys=True, indent=2) + "\n"
    if not rows:
        raise ValueError("this command produced no rows for CSV output")
    rows = [_pyify(r) for r in rows]
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(c, "")) for c in cols))
    return "\n".join(lines) + "\n"


def _write_atomic(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(prefix=".privlab-", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# the parser's own entries; every other dest is the config entry its flag sets
RUN_FLAGS = ("command", "config", "seed", "out", "format")


def _rows_arg(text: str) -> list[list[int]]:
    """Integer rows from a flag, e.g. '1 1 0; 0 1 1' (commas separate entries too)."""
    try:
        return [[int(v) for v in part.replace(",", " ").split()]
                for part in text.split(";") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not integer rows: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    """The one table from flags to config entries: a flag's dest is the entry
    it sets, ``state.d`` being entry d of the state spec. Only the flags given
    reach the namespace (``argparse.SUPPRESS``), so a flag either takes effect
    or is rejected with its config entry."""
    parser = argparse.ArgumentParser(
        prog="privlab",
        description="Private-state toolbox: rates, certification, "
                    "distillation and code sampling.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, state=False, code=False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=7, help="master RNG seed")
        p.add_argument("--out", default=None, help="output path (atomic write)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if state:
            p.add_argument("--state", dest="state.kind", choices=sorted(STATE_KINDS))
            p.add_argument("--d", dest="state.d", type=int)
            p.add_argument("--copies", dest="state.n", type=int,
                           help="n for bell_power states")
            p.add_argument("--p", dest="state.p", type=float, help="werner weight")
            p.add_argument("--s", dest="state.s", type=float, help="shield overlap")
            p.add_argument("--shield-dim", dest="state.shield_dim", type=int)
            p.add_argument("--state-file", dest="state.path", help="path for file states")
        if code:
            p.add_argument("--code-kind", dest="code.kind", choices=sorted(CODE_KINDS))
            p.add_argument("--code-d", dest="code.d", type=int)
            p.add_argument("--code-n", dest="code.n", type=int)
            p.add_argument("--m-z", dest="code.m_z", type=int)
            p.add_argument("--m-x", dest="code.m_x", type=int)
            p.add_argument("--mz-rows", dest="code.mz_rows", type=_rows_arg,
                           help="semicolon-separated rows, e.g. '1 1 0; 0 1 1'")
            p.add_argument("--mx-rows", dest="code.mx_rows", type=_rows_arg)
            p.add_argument("--stabilizer", dest="code.stabilizer", choices=("XX", "XI", "IX"))
        return p

    command("rates", "one-way key rate breakdown", state=True)

    p = command("verify", "certify a state as an approximate private state", state=True)
    p.add_argument("--measurement", choices=("projective", "twisting", "uhlmann"))
    p.add_argument("--soundness-margin", type=float,
                   help=f"allowed excess of eps_direct over eps_certified; the report "
                        f"checks again at {SOUNDNESS_ATOL:g} (the default), so it only tightens")

    p = command("distill", "run the certified one-shot protocol", state=True, code=True)
    p.add_argument("--adaptive", action="store_true")
    p.add_argument("--no-adaptive", dest="adaptive", action="store_false")

    p = command("hashing-sim", "coherent hashing chain on n copies", state=True, code=True)
    p.add_argument("--n", type=int, help="number of copies")

    p = command("css", "sample codes or estimate two-universality")
    p.add_argument("--mode", choices=sorted(CSS_MODES))
    p.add_argument("--d", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--m-z", type=int)
    p.add_argument("--m-x", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--row-slice", choices=("z", "x"))
    p.add_argument("--trials", type=int)

    p = command("uncertainty", "audit entropic uncertainty relations")
    p.add_argument("--mode", choices=AUDIT_MODES)
    p.add_argument("--d", type=int)
    p.add_argument("--trials", type=int)

    p = command("appd", "two-copy scenario error sweep")
    p.add_argument("--s", type=float, action="append",
                   help="shield overlap (repeatable for a sweep)")
    p.add_argument("--stabilizer", choices=("XX", "XI", "IX"))
    return parser


def _config(args: argparse.Namespace) -> dict:
    """The --config file's entries, each overridden by its flag. The flags of
    one spec form a new spec, which replaces the file's."""
    cfg: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("--config must hold a JSON object")
        cfg.update(loaded)
    flags: dict = {}
    for dest, value in vars(args).items():
        head, dot, key = dest.partition(".")
        if dot:
            flags.setdefault(head, {})[key] = value
        elif dest not in RUN_FLAGS:
            flags[dest] = value
    cfg.update(flags)
    return cfg


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def run(argv: Sequence[str] | None = None) -> str:
    args = _parser().parse_args(argv)
    cfg = _config(args)
    start = time.perf_counter()
    results, rows = COMMANDS[args.command](cfg, int(args.seed))
    report = {"command": args.command, "config": cfg,
              "seed": int(args.seed), "version": __version__,
              "results": results,
              "wall_time_s": time.perf_counter() - start}
    text = _render(report, args.format, rows)
    _write_atomic(text, args.out)
    return text


def main(argv: Sequence[str] | None = None) -> int:
    try:
        run(argv)
    except InvariantViolation as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, KeyError, OverflowError,
            json.JSONDecodeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
