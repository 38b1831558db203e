"""State discrimination: the Helstrom pair test, the pretty good measurement,
and class decoders for ensembles partitioned into syndrome fibers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .info_measures import CqEnsemble, shannon_entropy, von_neumann_entropy
from .qudit_ops import Povm
from .tensor_core import (SUPPORT_ATOL, DensityOperator, _as_complex, _budget,
                          operator_function, sqrt_psd)


@dataclass(frozen=True)
class HswConfig:
    """Decoder configuration.

    With use_typicality the decoder elements are literally
    T^{-1/2} Q Q_k Q T^{-1/2} with spectral-band typical projectors; the
    default skips the projectors (Q = Q_k = 1), which at small block length
    is strictly better.
    """

    delta: float = 0.1
    use_typicality: bool = False

    def __post_init__(self):
        if not self.delta >= 0:
            raise ValueError("delta must be nonnegative")


def _matrix_of(state) -> np.ndarray:
    if isinstance(state, DensityOperator):
        return state.matrix
    return _as_complex(state)


def helstrom_pair(rho0, rho1, p0: float = 0.5, p1: float | None = None
                  ) -> tuple[Povm, float]:
    """Optimal two-state discrimination.

    Returns the projective POVM onto the positive/negative parts of
    p0 rho0 - p1 rho1 (zero eigenvalues routed to outcome 0) and the error
    probability (1 - Tr|p0 rho0 - p1 rho1|) / 2.
    """
    if p1 is None:
        p1 = 1.0 - p0
    if not (p0 >= -1e-12 and p1 >= -1e-12 and abs(p0 + p1 - 1.0) <= 1e-9):
        raise ValueError(f"invalid priors ({p0}, {p1})")
    m0, m1 = _matrix_of(rho0), _matrix_of(rho1)
    if m0.shape != m1.shape:
        raise ValueError("states must act on the same space")
    delta = p0 * m0 - p1 * m1
    vals, vecs, _ = operator_function(delta, "identity")
    pos = vecs[:, vals >= 0.0]
    proj0 = pos @ pos.conj().T
    proj0 = 0.5 * (proj0 + proj0.conj().T)
    proj1 = np.eye(m0.shape[0]) - proj0
    error = 0.5 * (1.0 - float(np.sum(np.abs(vals))))
    povm = Povm((proj0, proj1), (0, 1))
    return povm, float(min(max(error, 0.0), 1.0))


def _pgm_of_rows(rows: np.ndarray, labels: Sequence) -> Povm:
    """Pretty good measurement of the states w_x w_x^dag with priors ||w_x||^2.

    ``rows`` stacks the blocks w_x as (x, m, r).  With the thin
    factorisation W = [w_x]_x = U Sigma V^dag on the support sigma^2 >
    ``SUPPORT_ATOL`` ||W||^2 and Y_x the columns of V^dag that belong to
    w_x, element x is U Y_x Y_x^dag U^dag, plus a "fail" element 1 - U U^dag
    below full rank: the elements sum to the identity because U and V are
    orthonormal, and no inverse root is taken.  Zero rows give {fail: 1}.
    """
    n, m, r = rows.shape
    # W^dag = Q R and R^dag = U Sigma Vr^dag, so U Y_x = (U Vr^dag) Q_x^dag
    # with Q_x the rows of Q that belong to w_x
    q, rr = np.linalg.qr(np.conj(rows.transpose(0, 2, 1), order="C").reshape(n * r, m))
    u, sing, vrh = np.linalg.svd(rr.conj().T, full_matrices=False)
    keep = sing ** 2 > SUPPORT_ATOL * float(np.sum(sing ** 2))
    if not np.any(keep):
        return Povm((np.eye(m),), ("fail",))
    u = u[:, keep]
    # Z_x = conj(U Y_x) = conj(U Vr^dag) Q_x^T and Lambda_x = conj(Z_x Z_x^dag)
    z = np.conj(u @ vrh[keep]) @ q.reshape(n, r, -1).swapaxes(1, 2)
    del q
    elements = z @ z.conj().swapaxes(1, 2)
    del z
    elements, labels = list(np.conj(elements, out=elements)), list(labels)
    if u.shape[1] < m:
        elements.append(np.eye(m) - u @ u.conj().T)
        labels.append("fail")
    return Povm(tuple(elements), tuple(labels))


def _ensemble_rows(ensemble: CqEnsemble) -> np.ndarray:
    """Rows sqrt(p_k) sqrt(phi_k) of an ensemble, stacked as (k, dim, dim)."""
    return np.stack([np.sqrt(p) * sqrt_psd(st.matrix)
                     for p, st in zip(ensemble.probs, ensemble.states)])


def pgm(ensemble: CqEnsemble) -> Povm:
    """Pretty good measurement S^{-1/2} p_k phi_k S^{-1/2}, by ``_pgm_of_rows``.

    The rows are sqrt(p_k) sqrt(phi_k); if the average state S is rank
    deficient, the projector onto its kernel is appended as an explicit
    "fail" outcome so the POVM stays complete.
    """
    return _pgm_of_rows(_ensemble_rows(ensemble), ensemble.labels)


def pgm_error(ensemble: CqEnsemble, measurement: Povm | None = None) -> float:
    """Average error 1 - sum_k p_k Tr[Lambda_k phi_k] (fail mass is error)."""
    if measurement is None:
        measurement = pgm(ensemble)
    if measurement.n_outcomes < len(ensemble.states):
        raise ValueError("measurement has fewer outcomes than the ensemble")
    success = 0.0
    for k, (p, st) in enumerate(zip(ensemble.probs, ensemble.states)):
        success += p * float(np.trace(measurement.elements[k] @ st.matrix).real)
    return float(min(max(1.0 - success, 0.0), 1.0))


# ---------------------------------------------------------------------------
# class decoders


@dataclass(frozen=True)
class HswDecoderResult:
    """One POVM per class plus incoherent error bookkeeping."""

    decoders: Mapping
    per_class_error: Mapping
    average_error: float
    aborted_mass: float = 0.0


def _band_projector(matrix: np.ndarray, lo: float, hi: float) -> np.ndarray:
    vals, vecs, _ = operator_function(matrix, "identity")
    sel = (vals >= lo) & (vals <= hi)
    v = vecs[:, sel]
    return v @ v.conj().T


def _class_pgms(rows: np.ndarray, classes: Mapping) -> HswDecoderResult:
    """One ``_pgm_of_rows`` decoder per class of the rows (x, m, r), with its errors.

    ``classes`` maps a class value to its member indices; the class error
    1 - sum_x Tr[Lambda_x w_x w_x^dag] / sum_x ||w_x||^2 is read off the same
    rows (0 at zero weight) and averaged with the classes' shares of the total.
    """
    _budget(rows.shape[:1] + rows.shape[1:2] * 2, "class decoder elements")
    weights = np.einsum("xmr,xmr->x", rows, rows.conj()).real
    decoders: dict = {}
    per_class: dict = {}
    total_error = 0.0
    for value, members in classes.items():
        members = np.asarray(members, dtype=np.int64)
        weight = float(weights[members].sum())
        # a class of every row, in order, reads the rows without a copy
        sub = rows if np.array_equal(members, np.arange(len(rows))) else rows[members]
        dec = decoders[value] = _pgm_of_rows(sub, members.tolist())
        hits = sum(np.vdot(rows[x], el @ rows[x]).real for x, el in zip(members, dec.elements))
        per_class[value] = float(min(max(1.0 - hits / weight, 0.0), 1.0)) if weight else 0.0
        total_error += weight * per_class[value]
    average = float(min(max(total_error / weights.sum(), 0.0), 1.0))
    return HswDecoderResult(decoders=decoders, per_class_error=per_class, average_error=average)


def hsw_class_decoder(ensemble: CqEnsemble, classes: Mapping, cfg: HswConfig = HswConfig(),
                      *, iid_base: CqEnsemble | None = None,
                      n_copies: int | None = None) -> HswDecoderResult:
    """Build one decoder per class of a partitioned ensemble.

    ``classes`` maps a class value to the member indices of the ensemble;
    together the classes must partition the index set.  Per class the decoder
    is the PGM over the (renormalized) member states, with outcome labels
    equal to the member indices, from one factorisation of the class's rows
    sqrt(p_k) sqrt(phi_k) (``_class_pgms``); a class of zero weight gets
    {fail: 1}.  With ``cfg.use_typicality`` the elements are instead
    T^{-1/2} Q Q_k Q T^{-1/2} using spectral-band typical projectors derived
    from ``iid_base`` rates at block length ``n_copies``; members whose prior
    falls outside the typical band abort, which counts as an error.
    """
    n = len(ensemble.states)
    seen: set[int] = set()
    for value, members in classes.items():
        members = tuple(members)
        if not members:
            raise ValueError(f"class {value!r} has no members")
        if seen & set(members):
            raise ValueError("classes overlap")
        seen |= set(members)
    if seen != set(range(n)):
        raise ValueError("classes do not partition the ensemble indices")

    if not cfg.use_typicality:
        return _class_pgms(_ensemble_rows(ensemble), classes)
    if iid_base is None or n_copies is None:
        raise ValueError("typicality mode needs iid_base and n_copies")
    h_rate = shannon_entropy(iid_base.probs)
    s_bar = float(np.dot(iid_base.probs,
                         [von_neumann_entropy(st) for st in iid_base.states]))
    s_avg = von_neumann_entropy(iid_base.average_matrix())
    nd = n_copies * cfg.delta
    q = _band_projector(ensemble.average_matrix(),
                        2.0 ** (-n_copies * s_avg - nd),
                        2.0 ** (-n_copies * s_avg + nd))
    prior_band = (2.0 ** (-n_copies * h_rate - nd),
                  2.0 ** (-n_copies * h_rate + nd))

    def q_k(matrix: np.ndarray) -> np.ndarray:
        return _band_projector(matrix, 2.0 ** (-n_copies * s_bar - nd),
                               2.0 ** (-n_copies * s_bar + nd))

    decoders: dict = {}
    per_class: dict = {}
    total_error = 0.0
    aborted = 0.0
    dim = ensemble.states[0].space.dim
    for value, members in classes.items():
        members = tuple(members)
        mass = float(np.sum(ensemble.probs[list(members)]))
        typical = [k for k in members
                   if prior_band[0] <= ensemble.probs[k] <= prior_band[1]]
        atyp_mass = float(sum(ensemble.probs[k] for k in members if k not in typical))
        aborted += atyp_mass
        sandwiched = {k: q @ q_k(ensemble.states[k].matrix) @ q for k in typical}
        t = np.sum(list(sandwiched.values()), axis=0) if typical else np.zeros((dim, dim))
        t = 0.5 * (t + t.conj().T)
        tvals, tvecs, t_inv_root = operator_function(t, "inv_sqrt_on_support")
        elements = [0.5 * ((t_inv_root @ sandwiched[k] @ t_inv_root)
                           + (t_inv_root @ sandwiched[k] @ t_inv_root).conj().T)
                    for k in typical]
        rest = np.eye(dim) - np.sum(elements, axis=0) if elements else np.eye(dim)
        elements.append(0.5 * (rest + rest.conj().T))
        dec = Povm(tuple(elements), tuple(typical) + ("fail",))
        err = atyp_mass
        for pos, k in enumerate(typical):
            err += float(ensemble.probs[k]
                         * (1.0 - np.trace(dec.elements[pos]
                                           @ ensemble.states[k].matrix).real))
        err = err / mass if mass > 0 else 0.0
        decoders[value] = dec
        per_class[value] = float(min(max(err, 0.0), 1.0))
        total_error += mass * per_class[value]
    return HswDecoderResult(decoders=decoders, per_class_error=per_class,
                            average_error=float(min(max(total_error, 0.0), 1.0)),
                            aborted_mass=float(aborted))
