"""privlab's layers for the traced run, and the per-layer metrics.

Each privlab module is one layer; ``numpy.linalg`` is the kernel layer
below them. Tracing wraps the module's public functions, the public
methods and ``__post_init__`` validators of its classes, and
``numpy.linalg.eigvalsh``, ``eigh`` and ``svd``. A function is patched in
every privlab namespace that bound it, because ``from .qudit_ops import
measure`` binds ``measure`` in ``privacy`` and ``info_measures`` too.
"""

from __future__ import annotations

import importlib
import inspect
from collections import defaultdict

import numpy as np

from spans import Span, Tracer, outermost_time, self_times

LAYERS = ("cli", "tensor_core", "qudit_ops", "info_measures", "css_codes",
          "discrimination", "privacy", "distillation", "sampling")
LINALG = ("eigvalsh", "eigh", "svd")

MB = 1024.0 * 1024.0


def _measure_probe(args, result) -> dict:
    return {"outcomes": int(result.probs.size),
            "conditionals": len(result.conditionals)}


def _density_probe(args, result) -> dict:
    return {"dim": int(args[0].matrix.shape[0])}


def _pgm_probe(args, result) -> dict:
    return {"dim": int(args[0].dim)}


def _linalg_probe(args, result) -> dict:
    return {"dim": int(np.shape(args[0])[-1])}


PROBES = {
    "qudit_ops.measure": _measure_probe,
    "tensor_core.DensityOperator.__post_init__": _density_probe,
    "discrimination.pgm": _pgm_probe,
}


class Installation:
    """The patches made for one traced run, so they can be undone."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()


def _wrap_member(tracer: Tracer, member, name: str, layer: str):
    """A traced replacement for a class attribute, or None to leave it."""
    if isinstance(member, (classmethod, staticmethod)):
        inner = tracer.wrap(member.__func__, name, layer, PROBES.get(name))
        return type(member)(inner)
    if inspect.isfunction(member):
        return tracer.wrap(member, name, layer, PROBES.get(name))
    return None


def install(tracer: Tracer) -> Installation:
    """Route every call into a privlab layer through ``tracer``."""
    inst = Installation()
    modules = {layer: importlib.import_module(f"privlab.{layer}") for layer in LAYERS}
    replaced: dict[int, object] = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                name = f"{layer}.{attr}"
                replaced[id(obj)] = tracer.wrap(obj, name, layer, PROBES.get(name))
            elif inspect.isclass(obj):
                for mname, member in list(vars(obj).items()):
                    if mname.startswith("_") and mname != "__post_init__":
                        continue
                    new = _wrap_member(tracer, member, f"{layer}.{attr}.{mname}", layer)
                    if new is not None:
                        inst.set(obj, mname, new)
    package = importlib.import_module("privlab")
    for mod in (package, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                inst.set(mod, attr, replaced[id(obj)])
    for fname in LINALG:
        inst.set(np.linalg, fname, tracer.wrap(getattr(np.linalg, fname),
                                               f"linalg.{fname}", "linalg",
                                               _linalg_probe))
    return inst


# ---------------------------------------------------------------------------
# per-layer metrics


def _named(spans: list[Span], name: str) -> list[Span]:
    return [s for s in spans if s.name == name]


def _info_sum(spans: list[Span], key: str) -> int:
    return sum(s.info[key] for s in spans if s.info)


def _info_max(spans: list[Span], key: str) -> int:
    return max((s.info[key] for s in spans if s.info), default=0)


def _peak_mb(spans: list[Span], pred) -> float:
    return max((s.alloc_peak for s in spans if pred(s)), default=0) / MB


def layer_metrics(spans: list[Span], memory_spans: list[Span], n_ops: int,
                  op_wall_s: float, untraced_wall_s: float
                  ) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, as name -> (value, unit).

    ``spans`` come from the timed replay of ``n_ops`` ops, which took
    ``op_wall_s`` against ``untraced_wall_s`` untraced; ``memory_spans`` from
    the replay under ``tracemalloc``. Times and call counts are per op, so
    that runs of different length compare; ``*_max_dim`` and
    ``*_peak_alloc_mb`` are maxima.
    """
    own = self_times(spans)
    layer_self: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, own):
        layer_self[s.layer] += t
    linalg = [s for s in spans if s.layer == "linalg"]
    per_op = 1.0 / n_ops

    def self_s(layer: str) -> tuple[float, str]:
        return layer_self[layer] * per_op, "s/op"

    def incl_s(*names: str) -> tuple[float, str]:
        return outermost_time(spans, set(names)) * per_op, "s/op"

    def calls(name: str) -> tuple[float, str]:
        return len(_named(spans, name)) * per_op, "1/op"

    measures = _named(spans, "qudit_ops.measure")

    return {
        "qudit_ops.measure_calls": calls("qudit_ops.measure"),
        "qudit_ops.measure_s": incl_s("qudit_ops.measure"),
        "qudit_ops.measure_outcomes":
            (_info_sum(measures, "outcomes") * per_op, "1/op"),
        "qudit_ops.measure_conditionals":
            (_info_sum(measures, "conditionals") * per_op, "1/op"),
        "qudit_ops.measure_peak_alloc_mb":
            (_peak_mb(memory_spans, lambda s: s.name == "qudit_ops.measure"), "MB"),
        "qudit_ops.povm_builds": calls("qudit_ops.Povm.__post_init__"),
        "qudit_ops.self_s": self_s("qudit_ops"),
        "tensor_core.self_s": self_s("tensor_core"),
        "tensor_core.density_builds": calls("tensor_core.DensityOperator.__post_init__"),
        "tensor_core.density_max_dim":
            (_info_max(_named(spans, "tensor_core.DensityOperator.__post_init__"),
                       "dim"), "count"),
        "tensor_core.purify_s": incl_s("tensor_core.purify"),
        "tensor_core.partial_trace_s":
            incl_s("tensor_core.partial_trace", "tensor_core.vector_marginal",
                   "tensor_core.StateVector.marginal",
                   "tensor_core.DensityOperator.marginal"),
        "linalg.calls": (len(linalg) * per_op, "1/op"),
        "linalg.self_s": self_s("linalg"),
        "linalg.max_dim": (_info_max(linalg, "dim"), "count"),
        "privacy.self_s": self_s("privacy"),
        "privacy.uhlmann_s": incl_s("privacy.uhlmann_conjugate_measurement"),
        "privacy.eps_direct_s": incl_s("privacy.epsilon_secret_direct"),
        "privacy.key_error_rates_s": incl_s("privacy.key_error_rates"),
        "privacy.peak_alloc_mb":
            (_peak_mb(memory_spans, lambda s: s.layer == "privacy"), "MB"),
        "distillation.self_s": self_s("distillation"),
        "distillation.hashing_s": incl_s("distillation.coherent_hashing_sim"),
        "distillation.one_shot_s": incl_s("distillation.one_shot_distill"),
        "distillation.decoders_s": incl_s("distillation.build_css_decoders"),
        "distillation.peak_alloc_mb":
            (_peak_mb(memory_spans, lambda s: s.layer == "distillation"), "MB"),
        "discrimination.self_s": self_s("discrimination"),
        "discrimination.pgm_calls": calls("discrimination.pgm"),
        "discrimination.pgm_max_dim":
            (_info_max(_named(spans, "discrimination.pgm"), "dim"), "count"),
        "css_codes.self_s": self_s("css_codes"),
        "css_codes.codes_sampled": calls("css_codes.sample_universal_css"),
        "info_measures.self_s": self_s("info_measures"),
        "info_measures.audit_calls": calls("info_measures.uncertainty_audit"),
        "sampling.self_s": self_s("sampling"),
        "cli.calls": (sum(1 for s in spans if s.layer == "cli") * per_op, "1/op"),
        "cli.self_s": self_s("cli"),
        "trace.coverage": (sum(own) / op_wall_s, "ratio"),
        "trace.overhead": (op_wall_s / untraced_wall_s, "ratio"),
    }
