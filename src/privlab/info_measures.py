"""Entropies, Holevo quantities, and entropic uncertainty audits.

All entropies are in bits and come from one kernel, ``_entropy_of_weights``:
probabilities and eigenvalues at or below ``LOG_CLAMP`` add nothing to the
sum, and nothing is clamped up, so zero modes contribute exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# measure stays bound here: perfbench's tracer test checks that it is patched here
from .qudit_ops import (CONDITIONAL_CUTOFF, ConjugateBasis, Povm,  # noqa: F401
                        _check_groups, _outcome_probs, _projective_elements, measure)
from .tensor_core import (
    AMPLITUDE_CAP,
    KIND_ATOL,
    LOG_CLAMP,
    DensityOperator,
    HilbertSpace,
    StateVector,
    _as_complex,
    _checked_amplitudes,
    _checked_densities,
    _reduce_amplitudes,
    _reduction_stacks,
    reduce_blocks,
)


def _probability_rows(p, what: str) -> np.ndarray:
    """``p`` (T, ...) as floats, finite, nonnegative, each row summing to 1 (NaN fails every check)."""
    arr = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} entries must be finite")
    if arr.size and not float(arr.min()) >= -1e-12:
        raise ValueError(f"negative {what} entry {arr.min():g}")
    sums = arr.reshape(len(arr), -1).sum(axis=1)
    bad = ~(np.abs(sums - 1.0) <= 1e-9)
    if np.any(bad):
        raise ValueError(f"{what} sums to {sums[np.argmax(bad)]!r}")
    return arr


def _probabilities(p, what: str) -> np.ndarray:
    """``p`` as floats, finite, nonnegative and summing to 1 (NaN fails every check)."""
    return _probability_rows(np.asarray(p, dtype=float)[None], what)[0]


def shannon_entropy(p) -> float:
    """Shannon entropy in bits of a probability vector."""
    return _entropy_of_weights(_probabilities(p, "probability vector").reshape(-1))


def _entropy_of_weights(w):
    """-sum w log2 w along the last axis of raw nonnegative weights (no
    normalisation check); weights at or below ``LOG_CLAMP`` add nothing.

    A float for one weight vector, an array for a stack of them.
    """
    w = np.clip(np.asarray(w, dtype=float), 0.0, None)
    ent = -np.sum(w * np.log2(np.where(w > LOG_CLAMP, w, 1.0)), axis=-1)
    return ent if np.ndim(ent) else float(ent)


def _entropy_of_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weights p_x = ||w_x||^2 and entropies S(w_x w_x^dag / p_x) of stacked blocks.

    ``rows`` stacks amplitude blocks w_x of shape (m, k) as (..., x, m, k),
    with any leading axes.  The spectra come from one batched eigvalsh of
    whichever Gram matrix (w w^dag or w^dag w, equal nonzero spectra) is
    smaller; blocks at or below ``CONDITIONAL_CUTOFF`` weight carry entropy 0.
    """
    adj = rows.conj().swapaxes(-1, -2)
    gram = rows @ adj if rows.shape[-2] <= rows.shape[-1] else adj @ rows
    p = np.einsum("...ii->...", gram).real
    vals = np.linalg.eigvalsh(gram)
    live = p > CONDITIONAL_CUTOFF
    ent = _entropy_of_weights(vals / np.where(live, p, 1.0)[..., None])
    return p, np.where(live, ent, 0.0)


def _holevo_of_rows(rows: np.ndarray):
    """Holevo quantity of {p_x, w_x w_x^dag / p_x} and the normalised p_x.

    ``rows`` is shaped (..., x, kept, rest), with any leading axes; the
    average state sums the w_x w_x^dag, i.e. it is read from the blocks laid
    side by side along rest.  The quantity is a float for one ensemble and
    an array over the leading axes otherwise.
    """
    *lead, n, m, k = rows.shape
    p, ent = _entropy_of_rows(rows)
    avg = _entropy_of_rows(rows.swapaxes(-3, -2).reshape(*lead, 1, m, n * k))[1][..., 0]
    q = p / p.sum(axis=-1, keepdims=True)
    chi = avg - np.sum(q * ent, axis=-1)
    return (chi if lead else float(chi)), q


def von_neumann_entropy(rho) -> float:
    """Von Neumann entropy in bits; a raw matrix is checked as a density first."""
    if isinstance(rho, DensityOperator):
        return _entropy_of_weights(rho.eigenvalues())
    return _entropy_of_weights(_checked_densities(_as_complex(rho)[None])[1][0])


@dataclass(frozen=True, eq=False)
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
    def dim(self) -> int:  # perfbench's pgm probe reads it
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


def _conditional_entropies(tables: np.ndarray) -> np.ndarray:
    """H(X|Y) in bits of joint tables stacked as (T, X, Y)."""
    return (_entropy_of_weights(tables.reshape(len(tables), -1))
            - _entropy_of_weights(tables.sum(axis=1)))


def conditional_entropy(joint) -> float:
    """H(X|Y) in bits from a joint table with X on axis 0 and Y on axis 1."""
    j = _probabilities(joint, "joint table")
    if j.ndim != 2:
        raise ValueError("joint table must be two-dimensional")
    return float(_conditional_entropies(j[None])[0])


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


def _audit_rows(mode: str, space: HilbertSpace, data: np.ndarray, basis: ConjugateBasis,
                key_label: str = "A",
                witnesses: Sequence[tuple[Sequence[str], np.ndarray]] = ()) -> np.ndarray:
    """lhs terms (T, 2) of T instances of one audit, stacked along axis 0.

    ``data`` holds validated key marginals (T, d, d) for ``maassen_uffink``,
    validated amplitudes (T, D) on ``space`` for ``quantum_cit``, and either
    of amplitudes (T, D) or density matrices (T, D, D) for ``cit``.
    ``witnesses`` pairs the z and then the x witness label groups of ``cit``
    with their element stacks: (n, m, m) shared, or (T, n, m, m) one POVM per
    instance of amplitudes.
    """
    d = basis.d
    if mode == "maassen_uffink":
        probs = (np.einsum("tii->ti", data).real,
                 np.einsum("tkx,kx->tx", data @ basis.vectors, basis.vectors.conj()).real)
        terms = [_entropy_of_weights(_probability_rows(np.clip(p, 0.0, None),
                                                       "probability vector")) for p in probs]
    elif mode == "cit":
        terms = []
        for columns, (labels, els) in zip((np.eye(d), basis.vectors), witnesses):
            groups = [((key_label,), _projective_elements(columns)), (labels, els)]
            blocks = (_reduce_amplitudes(space, data, (), groups) if data.ndim == 2
                      else np.stack([reduce_blocks(space, m, (), groups) for m in data]))
            tables = _probability_rows(_outcome_probs(blocks), "joint table")
            terms.append(_conditional_entropies(tables))
    else:  # quantum_cit: S(K|side) = H(K) - chi after measuring the key
        terms = []
        for columns, side in ((np.eye(d), "E"), (basis.vectors, "B")):
            # the cq blocks on side are the Gram matrices of the rows
            # (conj(columns[:, x]) on the key) psi_t, shaped (side, every other register)
            rest = tuple(x for x in space.labels if x not in (key_label, side))
            perm = [0] + [1 + space.axis(x) for x in (key_label, side) + rest]
            t = data.reshape((len(data),) + space.dims).transpose(perm)
            rows = columns.conj().T @ t.reshape(len(data), d, -1)
            chi, q = _holevo_of_rows(rows.reshape(len(data), d, space.dim_of(side), -1))
            terms.append(_entropy_of_weights(q) - chi)
    return np.stack(terms, axis=1)


def _audit_trials(mode: str, space: HilbertSpace, trials: int, draw) -> np.ndarray:
    """lhs terms (trials, 2) of random audit instances, audited in stacked chunks.

    ``space`` is (A, K) for ``maassen_uffink`` and (A, B, E) otherwise, with
    the key on A and the Fourier conjugate basis.  ``draw(lo, hi)`` returns
    the amplitudes (hi - lo, D) of trials lo..hi-1 and, for ``cit``, their z
    and x witness unitaries (2, hi - lo, d, d), whose columns are projective
    measurements on E and B (``None`` otherwise).  Each chunk's amplitudes are
    checked as a state checks itself, and its witnesses by the orthonormality
    of their columns, which makes each a complete projective measurement.  A
    chunk holds as many trials as keep its largest stacked array (amplitudes,
    marginals, Gram blocks, or the kets ``_reduce_amplitudes`` budgets) within
    ``AMPLITUDE_CAP``.
    """
    d = space.dim_of("A")
    basis = ConjugateBasis.fourier(d)
    size = space.dim
    if mode == "cit":
        size = max([size] + [math.prod(s) for s in _reduction_stacks(space, (), [d, d]).values()])

    def chunk(lo: int, hi: int) -> np.ndarray:
        amps, units = draw(lo, hi)
        amps = _checked_amplitudes(amps)
        if mode == "maassen_uffink":
            return _audit_rows(mode, space, _checked_densities(
                _reduce_amplitudes(space, amps, ("A",)))[0], basis)
        witnesses = ()
        if mode == "cit":
            dev = float(np.max(np.abs(units.conj().swapaxes(-1, -2) @ units - np.eye(d))))
            if not dev <= KIND_ATOL:  # a NaN or inf entry fails too
                raise ValueError(f"witness columns are not orthonormal (deviation {dev:g})")
            witnesses = tuple(zip((("E",), ("B",)), _projective_elements(units)))
        return _audit_rows(mode, space, amps, basis, witnesses=witnesses)

    step = max(1, AMPLITUDE_CAP // size)
    return np.concatenate([chunk(lo, min(lo + step, trials)) for lo in range(0, trials, step)])


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

    The terms come from ``_audit_rows`` on a stack of one; ``quantum_cit``
    reads a density's cached purification, ``cit`` reduces its matrix.
    """
    if mode not in AUDIT_MODES:
        raise ValueError(f"unknown audit mode {mode!r}")
    space = state.space
    d = space.dim_of(key_label)
    basis = conj_basis if conj_basis is not None else ConjugateBasis.fourier(d)
    if basis.d != d:
        raise ValueError("conjugate basis dimension does not match the key register")
    witnesses = ()

    if mode == "maassen_uffink":
        rho = state.marginal((key_label,)) if len(space.labels) > 1 else (
            state.density() if isinstance(state, StateVector) else state)
        data = rho.matrix[None]
    elif mode == "cit":
        if x_witness is None or z_witness is None:
            raise ValueError("cit mode needs x_witness and z_witness POVMs")
        for labels, w in (z_witness, x_witness):
            _check_groups(space, [((key_label,), d), (labels, w.dim)])
            witnesses += ((tuple(labels), w.elements),)
        data = (state.amplitudes if isinstance(state, StateVector) else state.matrix)[None]
    else:
        if not {"B", "E"} <= set(space.labels):
            raise ValueError("quantum_cit expects labels A, B, E")
        psi = state if isinstance(state, StateVector) else state._purified
        space, data = psi.space, psi.amplitudes[None]

    terms = _audit_rows(mode, space, data, basis, key_label, witnesses)[0]
    lhs = float(sum(terms))
    rhs = float(np.log2(d))
    return AuditRecord(mode=mode, lhs_terms=tuple(float(t) for t in terms),
                       rhs=rhs, slack=lhs - rhs)
