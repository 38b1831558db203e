"""Entropies, Holevo quantities, and entropic uncertainty audits.

All entropies are in bits.  Eigenvalues are clamped at 1e-12 before
logarithms, which keeps zero modes out of the sum without disturbing
anything above the clamp.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# measure stays bound here: perfbench's tracer test checks that it is patched here
from .qudit_ops import (CONDITIONAL_CUTOFF, ConjugateBasis, Povm,  # noqa: F401
                        _joint_probs, measure)
from .tensor_core import (
    LOG_CLAMP,
    DensityOperator,
    StateVector,
    _as_complex,
    _check_finite,
    _unused_label,
    permute_vector,
    purify,
)


def _probabilities(p, what: str) -> np.ndarray:
    """``p`` as floats, finite, nonnegative and summing to 1 (NaN fails every check)."""
    arr = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} entries must be finite")
    if arr.size and not float(arr.min()) >= -1e-12:
        raise ValueError(f"negative {what} entry {arr.min():g}")
    if not abs(float(arr.sum()) - 1.0) <= 1e-9:
        raise ValueError(f"{what} sums to {arr.sum()!r}")
    return arr


def shannon_entropy(p) -> float:
    """Shannon entropy in bits of a probability vector."""
    arr = np.clip(_probabilities(p, "probability vector").reshape(-1), LOG_CLAMP, None)
    return float(-np.sum(arr * np.log2(arr)) if arr.size else 0.0)


def _entropy_of_weights(w: np.ndarray) -> float:
    """-sum w log2 w over raw nonnegative weights (no normalisation check)."""
    w = np.clip(np.asarray(w, dtype=float), 0.0, None)
    w = w[w > LOG_CLAMP]
    return float(-np.sum(w * np.log2(w))) if w.size else 0.0


def _entropy_of_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights p_x = ||w_x||^2 and entropies S(w_x w_x^dag / p_x) of stacked blocks.

    ``rows`` stacks n amplitude blocks w_x of shape (m, k).  The spectra
    come from one batched eigvalsh of whichever Gram matrix
    (w w^dag or w^dag w, equal nonzero spectra) is smaller; blocks at or
    below ``CONDITIONAL_CUTOFF`` weight carry entropy 0.
    """
    adj = rows.conj().swapaxes(1, 2)
    gram = rows @ adj if rows.shape[1] <= rows.shape[2] else adj @ rows
    p = np.einsum("xii->x", gram).real
    vals = np.linalg.eigvalsh(gram)
    ent = [_entropy_of_weights(v / q) if q > CONDITIONAL_CUTOFF else 0.0
           for v, q in zip(vals, p)]
    return p, np.array(ent)


def _holevo_of_rows(rows: np.ndarray) -> tuple[float, np.ndarray]:
    """Holevo quantity of {p_x, w_x w_x^dag / p_x} and the normalised p_x.

    ``rows`` is shaped (x, kept, rest); the average state sums the w_x
    w_x^dag, i.e. it is read from the blocks laid side by side along rest.
    """
    n, m, k = rows.shape
    p, ent = _entropy_of_rows(rows)
    avg = _entropy_of_rows(rows.transpose(1, 0, 2).reshape(1, m, n * k))[1][0]
    q = p / p.sum()
    return float(avg - q @ ent), q


def von_neumann_entropy(rho) -> float:
    """Von Neumann entropy in bits."""
    if isinstance(rho, DensityOperator):
        return _entropy_of_weights(rho.eigenvalues())
    m = _as_complex(rho)
    _check_finite(m)
    return _entropy_of_weights(np.linalg.eigvalsh(m))


@dataclass(frozen=True)
class CqEnsemble:
    """Classical-quantum ensemble: outcome k with probability p_k, state phi_k."""

    probs: np.ndarray
    states: tuple[DensityOperator, ...]
    labels: tuple = ()

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float).reshape(-1)
        if p.size != len(self.states):
            raise ValueError("probability and state counts differ")
        if p.size == 0:
            raise ValueError("empty ensemble")
        p = _probabilities(p, "probability vector")
        dim = self.states[0].matrix.shape[0]
        if any(s.matrix.shape[0] != dim for s in self.states):
            raise ValueError("ensemble states live on different dimensions")
        labels = tuple(self.labels) if self.labels else tuple(range(p.size))
        if len(labels) != p.size:
            raise ValueError("label count must match ensemble size")
        p = np.clip(p, 0.0, None)
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.states[0].matrix.shape[0]

    def average_matrix(self) -> np.ndarray:
        return np.sum([p * s.matrix for p, s in zip(self.probs, self.states)], axis=0)


def holevo_information(ensemble: CqEnsemble) -> float:
    """Holevo quantity S(sum p_k phi_k) - sum p_k S(phi_k) in bits."""
    avg = _entropy_of_weights(np.linalg.eigvalsh(ensemble.average_matrix()))
    cond = sum(p * von_neumann_entropy(s) for p, s in zip(ensemble.probs, ensemble.states))
    return float(avg - cond)


def coherent_information(rho: DensityOperator, target="B") -> float:
    """I_c(A > target) = S(target) - S(whole) on a bipartition of rho."""
    targets = (target,) if isinstance(target, str) else tuple(target)
    reduced = rho.marginal(targets)
    return von_neumann_entropy(reduced) - von_neumann_entropy(rho)


def conditional_entropy(joint) -> float:
    """H(X|Y) in bits from a joint table with X on axis 0 and Y on axis 1."""
    j = _probabilities(joint, "joint table")
    if j.ndim != 2:
        raise ValueError("joint table must be two-dimensional")
    return _entropy_of_weights(j.reshape(-1)) - _entropy_of_weights(j.sum(axis=0))


def mutual_information(joint) -> float:
    """I(X:Y) in bits from a joint probability table."""
    h_cond = conditional_entropy(joint)
    return _entropy_of_weights(np.asarray(joint, dtype=float).sum(axis=1)) - h_cond


# ---------------------------------------------------------------------------
# entropic uncertainty audits

AUDIT_MODES = ("maassen_uffink", "cit", "quantum_cit")


@dataclass(frozen=True)
class AuditRecord:
    """One uncertainty-relation check: sum(lhs_terms) >= rhs, slack = lhs - rhs."""

    mode: str
    lhs_terms: tuple[float, ...]
    rhs: float
    slack: float

    def to_dict(self) -> dict:
        return {"mode": self.mode, "lhs_terms": list(self.lhs_terms),
                "rhs": self.rhs, "slack": self.slack}


def _key_probs(rho: DensityOperator, columns: np.ndarray) -> np.ndarray:
    p = np.einsum("kx,kl,lx->x", columns.conj(), rho.matrix, columns).real
    return np.clip(p, 0.0, None)


def _key_given_side(psi: StateVector, key_label: str, columns: np.ndarray,
                    side: str) -> float:
    """S(K|side) = H(K) - chi in bits after measuring key_label of a pure state.

    The cq blocks on ``side`` are the Gram matrices of the rows
    (conj(columns[:, x]) on key_label) psi, shaped (side, every other register).
    """
    space = psi.space
    rest = tuple(x for x in space.labels if x not in (key_label, side))
    amps = permute_vector(space, psi.amplitudes, (key_label, side) + rest)
    rows = columns.conj().T @ amps.reshape(space.dim_of(key_label), -1)
    chi, q = _holevo_of_rows(rows.reshape(columns.shape[1], space.dim_of(side), -1))
    return _entropy_of_weights(q) - chi


def uncertainty_audit(mode: str, state, conj_basis: ConjugateBasis | None = None, *,
                      key_label: str = "A",
                      x_witness: tuple[Sequence[str], Povm] | None = None,
                      z_witness: tuple[Sequence[str], Povm] | None = None) -> AuditRecord:
    """Audit one instance of an entropic uncertainty relation.

    Modes:
      * ``maassen_uffink``: H(Z) + H(X~) >= log2 d on the key marginal.
      * ``cit``: H(Z|z_witness POVM) + H(X~|x_witness POVM) >= log2 d, with
        the witnesses measured on disjoint label sets of the same state.
      * ``quantum_cit``: S(Z|E) + S(X~|B) >= log2 d on a state with labels
        A, B, E.
    """
    if mode not in AUDIT_MODES:
        raise ValueError(f"unknown audit mode {mode!r}")
    space = state.space
    d = space.dim_of(key_label)
    basis = conj_basis if conj_basis is not None else ConjugateBasis.fourier(d)
    if basis.d != d:
        raise ValueError("conjugate basis dimension does not match the key register")
    rhs = float(np.log2(d))

    if mode == "maassen_uffink":
        rho = state.marginal((key_label,)) if len(space.labels) > 1 else (
            state.density() if isinstance(state, StateVector) else state)
        hz = shannon_entropy(np.clip(np.diag(rho.matrix).real, 0.0, None))
        hx = shannon_entropy(_key_probs(rho, basis.vectors))
        terms = (hz, hx)

    elif mode == "cit":
        if x_witness is None or z_witness is None:
            raise ValueError("cit mode needs x_witness and z_witness POVMs")
        terms = tuple(conditional_entropy(_joint_probs(
            state, [((key_label,), key), (tuple(labels), witness)]))
            for key, (labels, witness) in ((Povm.standard_basis(d), z_witness),
                                           (basis.povm(), x_witness)))

    else:  # quantum_cit
        for lbl in ("B", "E"):
            if lbl not in space.labels:
                raise ValueError("quantum_cit expects labels A, B, E")
        psi = state if isinstance(state, StateVector) else purify(state, _unused_label(space))
        terms = (_key_given_side(psi, key_label, np.eye(d), "E"),
                 _key_given_side(psi, key_label, basis.vectors, "B"))

    lhs = float(sum(terms))
    return AuditRecord(mode=mode, lhs_terms=tuple(float(t) for t in terms),
                       rhs=rhs, slack=lhs - rhs)
