"""State discrimination: the Helstrom pair test, the pretty good measurement,
and class decoders for ensembles partitioned into syndrome fibers.

Decoder outcomes are read here alone: ``_guess_slots`` maps outcome labels to
guesses, and ``_guess_error`` sums the hits of class decoders on the amplitude
rows of a pure state, for ``_class_pgms`` and the errors of ``distillation``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .info_measures import CqEnsemble, shannon_entropy, von_neumann_entropy
from .qudit_ops import Povm
from .tensor_core import (SUPPORT_ATOL, DensityOperator, _as_complex, _budget,
                          _check_finite, _eigh_hermitian, sqrt_psd)


@dataclass(frozen=True)
class HswConfig:
    """Decoder configuration.

    With use_typicality the decoder elements are the PGM of the rows Q V_k,
    with Q the typical projector of the average state and V_k the
    spectral-band eigenvectors of rho_k; the default skips the projectors
    (Q = Q_k = 1), which at small block length is strictly better.
    """

    delta: float = 0.1
    use_typicality: bool = False

    def __post_init__(self):
        if not self.delta >= 0:
            raise ValueError("delta must be nonnegative")


def _matrix_of(state) -> np.ndarray:
    if isinstance(state, DensityOperator):
        return state.matrix
    m = _as_complex(state)
    _check_finite(m)
    return m


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
    vals, vecs = _eigh_hermitian(p0 * m0 - p1 * m1)
    error = 0.5 * (1.0 - float(np.sum(np.abs(vals))))
    povm = Povm._factored(_helstrom_factors(vals, vecs), (0, 1))
    return povm, float(min(max(error, 0.0), 1.0))


def _helstrom_factors(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Factors of the pair tests of a stack of eigensystems of p0 rho0 - p1 rho1,
    as (..., 2, m, m).

    Outcome 0 projects onto the eigenvectors of eigenvalue >= 0 (zero
    eigenvalues go to outcome 0) and outcome 1 onto the rest: each factor is
    the eigenvector matrix with the other outcome's columns zeroed.
    """
    pos = (vals >= 0.0)[..., None, :]
    return np.stack([vecs * pos, vecs * ~pos], axis=-3)


def _pgm_of_rows(rows: np.ndarray, labels: Sequence) -> Povm:
    """Pretty good measurement of the states w_x w_x^dag with priors ||w_x||^2.

    ``rows`` stacks the blocks w_x as (x, m, r).  With the thin
    factorisation W = [w_x]_x = U Sigma V^dag on the support sigma^2 >
    ``SUPPORT_ATOL`` ||W||^2 and Y_x the columns of V^dag that belong to
    w_x, element x is U Y_x Y_x^dag U^dag, plus a "fail" element 1 - U U^dag
    below full rank: the elements sum to the identity because U and V are
    orthonormal, and no inverse root is taken.  The POVM is handed over as
    the factors U Y_x and the fail remainder.  Zero rows give {fail: 1}.
    """
    n, m, r = rows.shape
    # W^dag = Q R and R^dag = U Sigma Vr^dag, so U Y_x = (U Vr^dag) Q_x^dag
    # with Q_x the rows of Q that belong to w_x
    q, rr = np.linalg.qr(np.conj(rows.transpose(0, 2, 1), order="C").reshape(n * r, m))
    u, sing, vrh = np.linalg.svd(rr.conj().T, full_matrices=False)
    keep = sing ** 2 > SUPPORT_ATOL * float(np.sum(sing ** 2))
    if not np.any(keep):
        return Povm._factored(np.zeros((0, m, 1)), remainder=True)
    u = u[:, keep]
    # Z_x = conj(U Y_x) = conj(U Vr^dag) Q_x^T, so U Y_x = conj(Z_x)
    z = np.conj(u @ vrh[keep]) @ q.reshape(n, r, -1).swapaxes(1, 2)
    return Povm._factored(np.conj(z, out=z), labels, remainder=u.shape[1] < m)


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


@dataclass(frozen=True, eq=False)
class HswDecoderResult:
    """One POVM per class plus incoherent error bookkeeping."""

    decoders: Mapping
    per_class_error: Mapping
    average_error: float
    aborted_mass: float = 0.0


def _band_vectors(matrix: np.ndarray, rate: float, slack: float) -> np.ndarray:
    """Eigenvectors of the eigenvalues in [2^(-rate - slack), 2^(-rate + slack)]."""
    vals, vecs = _eigh_hermitian(matrix)
    return vecs[:, (vals >= 2.0 ** (-rate - slack)) & (vals <= 2.0 ** (-rate + slack))]


def _guess_slots(dec: Povm, n: int) -> np.ndarray:
    """Guess slot of each outcome of a decoder over n values: an integer label in
    [0, n) is its own slot, and every other label ("fail", any other string, a
    negative or out-of-range integer) goes to the miss slot n."""
    return np.array([lab if isinstance(lab, (int, np.integer)) and 0 <= lab < n else n
                     for lab in dec.outcome_labels], dtype=np.int64)


def _guess_error(rows: np.ndarray, decoders: Mapping, classes: Mapping,
                 value_of: np.ndarray) -> tuple[float, dict]:
    """1 - the hits of class decoders on the rows w_x (x, Bob, rest) of a pure
    state, and the hits of each class.

    Member x of ``classes[key]`` is decoded by ``decoders[key]`` and hits with
    <w_x|M_x|w_x>, M_x the sum of the elements whose guess y has ``value_of[y]
    == value_of[x]``; a miss has no value, so a fail outcome is never owned and
    a member that no element guesses scores 0.  A decoder that keeps its factors
    (``Povm._factored``, F_y of fewer columns than rows) is scored from them,
    each owned pair (x, y) hitting with ||F_y^dag w_x||^2; any other from its
    elements, as one M_x per member.
    """
    bob, rest = rows.shape[1:]
    value_fail = np.append(value_of, -1)
    hits: dict = {}
    for key, members in classes.items():
        dec: Povm = decoders[key]
        if dec.dim != bob:
            raise ValueError(f"decoders must act on (B, shield), dimension {bob}")
        members = np.asarray(members, dtype=np.int64)
        owns = value_of[members][:, None] == value_fail[_guess_slots(dec, len(value_of))]
        if dec._form is not None:
            f = dec._form.stack
            xs, ys = np.nonzero(owns)
            _budget((len(xs), bob, max(f.shape[2], rest)), "decoder scoring blocks")
            # one owned outcome per row, in order, reads the rows and factors without a copy
            at = members[xs]
            w = rows if np.array_equal(at, np.arange(len(rows))) else rows[at]
            f = f if np.array_equal(ys, np.arange(len(f))) else f[ys]
            hits[key] = sum(np.vdot(p, p).real for p in f.conj().swapaxes(1, 2) @ w)
        else:
            _budget((len(members), bob, bob), "decoder scoring blocks")
            m_x = (owns @ dec.elements.reshape(dec.n_outcomes, -1)).reshape(-1, bob, bob)
            w = rows if np.array_equal(members, np.arange(len(rows))) else rows[members]
            hits[key] = sum(np.vdot(wx, applied).real for wx, applied in zip(w, m_x @ w))
    return float(min(max(1.0 - sum(hits.values()), 0.0), 1.0)), hits


def _row_weights(rows: np.ndarray) -> np.ndarray:
    """The squared norms ||w_x||^2 of the rows (x, ...), one vdot each: about an
    ulp from the exact sums, where one einsum over every row drifts by tens."""
    return np.array([np.vdot(row, row).real for row in rows])


def _class_pgms(rows: np.ndarray, classes: Mapping,
                pgm_rows: Callable | None = None) -> HswDecoderResult:
    """One ``_pgm_of_rows`` decoder per class of the rows (x, m, r), with its errors.

    ``classes`` maps a class value to its member indices.  The decoder is
    the PGM of the class's rows, or of the rows and member labels that
    ``pgm_rows(members)`` returns.  The class error 1 - (its ``_guess_error``
    hits) / sum_x ||w_x||^2, 0 at zero weight and exactly 0 for a decoder that
    recovers every member, is averaged with the classes' shares of the total.
    """
    _budget(rows.shape[:1] + rows.shape[1:2] * 2, "class decoder elements")
    decoders: dict = {}
    for value, members in classes.items():
        members = np.asarray(members, dtype=np.int64)
        if pgm_rows is not None:
            decoders[value] = _pgm_of_rows(*pgm_rows(members))
        else:
            # a class of every row, in order, reads the rows without a copy
            whole = np.array_equal(members, np.arange(len(rows)))
            decoders[value] = _pgm_of_rows(rows if whole else rows[members], members.tolist())
    hits = _guess_error(rows, decoders, classes, np.arange(len(rows)))[1]
    weights = _row_weights(rows)
    shares = {value: float(weights[list(members)].sum()) for value, members in classes.items()}
    per_class = {value: float(min(max(1.0 - hits[value] / w, 0.0), 1.0)) if w else 0.0
                 for value, w in shares.items()}
    average = sum(w * per_class[value] for value, w in shares.items()) / weights.sum()
    return HswDecoderResult(decoders=decoders, per_class_error=per_class,
                            average_error=float(min(max(average, 0.0), 1.0)))


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
    T^{-1/2} Q Q_k Q T^{-1/2} = PGM of the rows Q V_k, with the
    spectral-band typical projectors Q and Q_k = V_k V_k^dag derived from
    ``iid_base`` rates at block length ``n_copies``; members whose prior
    falls outside the typical band get no outcome, which counts as an error,
    and "fail" is the kernel of T = sum_k Q Q_k Q.
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

    rows = _ensemble_rows(ensemble)
    if not cfg.use_typicality:
        return _class_pgms(rows, classes)
    if iid_base is None or n_copies is None:
        raise ValueError("typicality mode needs iid_base and n_copies")
    h_rate = shannon_entropy(iid_base.probs)
    s_bar = float(np.dot(iid_base.probs,
                         [von_neumann_entropy(st) for st in iid_base.states]))
    s_avg = von_neumann_entropy(iid_base.average_matrix())
    nd = n_copies * cfg.delta
    vq = _band_vectors(ensemble.average_matrix(), n_copies * s_avg, nd)
    q = vq @ vq.conj().T
    probs = ensemble.probs
    prior_rate = n_copies * h_rate
    typical = (probs >= 2.0 ** (-prior_rate - nd)) & (probs <= 2.0 ** (-prior_rate + nd))

    def band_rows(members: np.ndarray) -> tuple[np.ndarray, list]:
        """Rows Q V_k of the typical members, zero-padded to one width."""
        kept = [k for k in members.tolist() if typical[k]]
        vecs = [q @ _band_vectors(ensemble.states[k].matrix, n_copies * s_bar, nd) for k in kept]
        out = np.zeros((max(len(kept), 1), q.shape[0], max([v.shape[1] for v in vecs] + [1])),
                       dtype=np.complex128)
        for row, v in zip(out, vecs):
            row[:, :v.shape[1]] = v
        return out, kept

    # atypical members get no outcome: their mass counts as error
    return replace(_class_pgms(rows, classes, band_rows),
                   aborted_mass=float(probs[~typical].sum()))
