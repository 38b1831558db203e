"""Key testing for approximate private states.

Three views of the same question, "how private is this key":

* incoherent error rates of the key test and its conjugate-basis key test,
  combined into the certified bound p_e + sqrt(p_tilde_e);
* the direct trace distance between the measured (ccq) state and the
  nearest ideal-key ccq with the same environment marginal;
* an explicitly constructed conjugate measurement for states that are only
  approximately private, built from an Uhlmann partner of the state's
  purification, with the guarantee p_tilde_e <= 2 eps - eps^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .discrimination import _guess_error
# measure stays bound here: perfbench's tracer test checks that it is patched here
from .qudit_ops import (ConjugateBasis, Povm, TwistingOperator, _check_groups,  # noqa: F401
                        measure)
from .tensor_core import (AMPLITUDE_CAP, DensityOperator, HilbertSpace,
                          InvariantViolation, StateVector, _budget, permute_vector)

SOUNDNESS_ATOL = 1e-6


@dataclass(frozen=True)
class PrivacyReport:
    """Certified and direct secrecy figures for one state and measurement."""

    p_e: float
    p_tilde_e: float
    eps_certified: float
    eps_direct: float
    measurement_used: str = "custom"

    def __post_init__(self):
        for name in ("p_e", "p_tilde_e", "eps_direct"):
            v = getattr(self, name)
            if not -1e-12 <= v <= 1.0 + 1e-12:
                raise InvariantViolation(f"{name} = {v!r} is not a probability")
        if not 0.0 <= self.eps_certified < math.inf:
            raise InvariantViolation(
                f"eps_certified = {self.eps_certified!r} is not a finite bound >= 0")
        if not self.eps_direct <= self.eps_certified + SOUNDNESS_ATOL:
            raise InvariantViolation(
                f"direct distance {self.eps_direct:.3e} exceeds certified bound "
                f"{self.eps_certified:.3e}")


def _space_of(state) -> HilbertSpace:
    if isinstance(state, (StateVector, DensityOperator)):
        return state.space
    raise TypeError("expected a StateVector or DensityOperator")


def key_error_rates(state, conj_basis: ConjugateBasis, conj_povm: Povm,
                    *, povm_labels: Sequence[str] | None = None
                    ) -> tuple[float, float]:
    """(p_e, p_tilde_e) for the standard and conjugate-basis key tests.

    p_e is the probability that measuring A and B in the standard basis
    gives different values.  p_tilde_e is the probability that the given
    POVM (on povm_labels, everything but A by default) fails to reproduce
    Alice's outcome when she measures in the conjugate basis.  Both tests
    read the amplitude rows of the state (a density's cached purification): p_e
    is 1 - sum_a ||psi[a, a]||^2 over (A, B, rest), and p_tilde_e is scored
    by ``_guess_error`` on the rows v^dag psi over (x, povm_labels, rest).
    """
    space = _space_of(state)
    d = space.dim_of("A")
    if conj_basis.d != d:
        raise ValueError("conjugate basis dimension does not match register A")
    if povm_labels is None:
        povm_labels = tuple(x for x in space.labels if x != "A")
    key = np.arange(min(d, space.dim_of("B")))
    _check_groups(space, [(("A",), d), (tuple(povm_labels), conj_povm.dim)])
    psi = state if isinstance(state, StateVector) else state._purified
    # views of the amplitudes ordered (A, Bob, every other register), not copies
    amps, axis = psi.amplitudes.reshape(psi.space.dims), psi.space.axis
    diag = np.moveaxis(amps, [axis("A"), axis("B")], [0, 1])[key, key]
    p_e = 1.0 - float(np.vdot(diag, diag).real)
    bob = [axis(x) for x in povm_labels]
    rows = np.moveaxis(amps, [axis("A"), *bob], range(1 + len(bob))).reshape(d, -1)
    rows = (conj_basis.vectors.conj().T @ rows).reshape(d, conj_povm.dim, -1)
    p_tilde_e = _guess_error(rows, {(): conj_povm}, {(): np.arange(d)}, np.arange(d))[0]
    return min(max(p_e, 0.0), 1.0), p_tilde_e


# ---------------------------------------------------------------------------
# direct (ccq) secrecy


def _key_amplitudes(state, env: Sequence[str] = ("E",)) -> tuple[np.ndarray, tuple[str, ...]]:
    """Amplitudes t[a, b, s, e] of the state, and the labels of its shield.

    The axes are A, B, the shield (every other lab register, in the state's
    order) and the environment (the registers named in ``env``, in that
    order).  A mixed state, which must carry none of the ``env`` registers, is
    read through its cached purification (``DensityOperator._purified``), whose
    purifier is the environment.  A missing shield or environment is a trivial axis.
    """
    space = _space_of(state)
    for need in ("A", "B"):
        if need not in space.labels:
            raise ValueError(f"state must carry register {need!r}")
    if isinstance(state, StateVector):
        psi = state
        eves = tuple(x for x in env if x in space.labels)
    else:
        clash = [x for x in env if x in space.labels]
        if clash:
            raise ValueError(f"labels {clash!r} already used by lab registers")
        psi = state._purified
        eves = psi.space.labels[-1:]
    shield = tuple(x for x in space.labels if x not in ("A", "B") + eves)
    t = permute_vector(psi.space, psi.amplitudes, ("A", "B") + shield + eves)
    return t.reshape(space.dim_of("A"), space.dim_of("B"),
                     math.prod(space.dims_of(shield)), -1), shield


class _KeyFrame(NamedTuple):
    """The key-measured state in the eigenframe of rho_E.

    ``rows[j]`` holds the s amplitude rows of block (j, j) in the eigenbasis
    of the support of rho_E, so B_jj = rows[j]^T conj(rows[j]); ``lam``
    holds the r eigenvalues of rho_E on that support, and ``off_mass`` the
    summed traces of the off-diagonal blocks (extra values of B included).
    """

    rows: np.ndarray
    lam: np.ndarray
    off_mass: float


def _block_frame(w: np.ndarray, purified: bool = False,
                 source: np.ndarray | None = None) -> _KeyFrame:
    """The eigenframe of rho_E for key-measured amplitudes w[j, k, lab, env].

    With ``purified`` the environment basis is a purifier's, which already
    diagonalises rho_E: its spectrum is the squared norms of the
    environment columns.  Otherwise one eigh factorises the smaller side of
    ``source``, rows X with rho_E = X^T conj(X) (w's own by default): rho_E,
    or the Gram conj(X) X^T, whose eigenvectors u give the frame vectors
    X^T u / sqrt(mu).  The diagonal rows must keep their mass in the frame.
    """
    d, e = w.shape[0], w.shape[3]
    _budget((d, w.shape[2], e), "diagonal key rows")
    diag = w[np.arange(d), np.arange(d)]
    off_mass = float(np.vdot(w, w).real - np.vdot(diag, diag).real)
    flat = w.reshape(-1, e)
    if purified or e == 1:
        return _KeyFrame(diag, np.sum(flat.real ** 2 + flat.imag ** 2, axis=0), off_mass)
    x = flat if source is None else source
    _budget((e, min(len(x), e)), "environment frame")
    marginal = x.conj() @ x.T if len(x) < e else x.T @ x.conj()
    if not np.isfinite(marginal.trace()):
        raise InvariantViolation("environment rows are not finite")
    lam, vecs = np.linalg.eigh(marginal)
    # eigenvalues below eigh's own rounding level carry no support
    keep = lam > e * np.finfo(float).eps * lam[-1]
    lam, vecs = lam[keep], vecs[:, keep]
    rows = diag @ (x.T @ vecs / np.sqrt(lam) if len(x) < e else vecs).conj()
    dev = abs(float(np.vdot(rows, rows).real - np.vdot(diag, diag).real))
    if not dev <= 1e-10:
        raise InvariantViolation(f"key rows leave the frame of rho_E ({dev!r})")
    return _KeyFrame(rows, lam, off_mass)


def _key_frame(state, eve_labels: Sequence[str]) -> _KeyFrame:
    """The eigenframe of rho_E, read off the purification when there is one.

    A mixed state is read through its cached purification, so its frame needs
    no second factorisation; a StateVector is read as given (``_block_frame``).
    """
    space = _space_of(state)
    if space.dim_of("B") < space.dim_of("A"):
        raise ValueError("register B cannot be smaller than the key register A")
    return _block_frame(_key_amplitudes(state, eve_labels)[0],
                        purified=not isinstance(state, StateVector))


def _direct_distance(frames: Sequence[_KeyFrame]) -> float:
    """(off-diagonal mass + sum_j || B_jj - rho_E / d ||_1) / 2 in the eigenframe.

    ``frames`` are the blocks of an environment on which rho_E and every
    B_jj are block diagonal, so both terms are sums over the blocks.

    In the eigenframe rho_E / d = diag(q).  Let P_k project onto the
    cluster of equal q = c_k.  The span of the ranges P_k V_j (B_jj =
    V_j V_j^dag) is invariant under M_j = B_jj - diag(q), and M_j = -c_k on
    the rest of cluster k.  In an orthonormal basis of that span, cluster
    by cluster the R factor of the rows of V_j (or the rows themselves when
    the cluster has at most s members), M_j is Y_j Y_j^dag - C_j of size
    m <= min(r, g s), so one batched eigvalsh of the (d, m, m) stack gives
    every ||M_j||_1 exactly.  A stack above ``AMPLITUDE_CAP`` is split over
    j; no single block may pass it.  A block with no support adds its
    off-diagonal mass only.
    """
    total = 0.0
    for rows, lam, off_mass in frames:
        total += off_mass
        d, s, r = rows.shape
        if r == 0:
            continue
        # Greedy clusters of sorted eigenvalues, each spanning at most tau:
        # replacing lam_i by its cluster mean moves sum_j ||M_j||_1 by at most
        # sum_i |lam_i - mean| <= r tau = 1e-13, i.e. by rounding only.
        order = np.argsort(lam)
        sorted_lam = lam[order]
        tau = 1e-13 / r
        cuts = [0]
        while cuts[-1] < r:
            cuts.append(int(np.searchsorted(sorted_lam, sorted_lam[cuts[-1]] + tau,
                                            side="right")))
        sizes = np.diff(cuts)
        levels = np.add.reduceat(sorted_lam, cuts[:-1]) / sizes / d
        # clusters of at most s members keep their rows, larger ones an R factor
        small = np.repeat(sizes <= s, sizes)
        parts = [rows[:, :, order[small]]]
        row_levels = [np.repeat(levels, sizes)[small]]
        for k in np.flatnonzero(sizes > s):
            members = rows[:, :, order[cuts[k]:cuts[k + 1]]]
            parts.append(np.linalg.qr(members.swapaxes(-1, -2), mode="r").swapaxes(-1, -2))
            row_levels.append(np.full(s, levels[k]))
        yt = np.concatenate(parts, axis=2)
        c = np.concatenate(row_levels)
        # one batched eigvalsh, split over j only where the stack would pass the cap
        step = max(1, AMPLITUDE_CAP // _budget((c.size, c.size), "compressed key block"))
        total += sum(float(np.sum(np.abs(np.linalg.eigvalsh(
            yt[lo:lo + step].swapaxes(-1, -2) @ yt[lo:lo + step].conj() - np.diag(c)))))
            for lo in range(0, d, step))
        total += d * float(np.sum((sizes - np.minimum(sizes, s)) * levels))
    return float(min(max(0.5 * total, 0.0), 1.0))


def ccq_blocks(state, *, eve_labels: Sequence[str] = ("E",)
               ) -> dict[tuple[int, int], np.ndarray]:
    """Environment blocks B_jk of the key-measured state.

    Registers named in ``eve_labels`` count as the environment; a mixed
    state (which must not carry any of those labels) is purified onto a
    fresh register first.  Block (j, k) is the unnormalised environment
    operator left after projecting A and B onto |j>, |k> and tracing every
    remaining lab register.  A pure state with no environment register has
    trivial 1x1 blocks.
    """
    w = _key_amplitudes(state, eve_labels)[0]
    return {(j, k): w[j, k].T @ w[j, k].conj()
            for j in range(w.shape[0]) for k in range(w.shape[1])}


def epsilon_secret_direct(state, *, eve_labels: Sequence[str] = ("E",)) -> float:
    """Trace distance from the key-measured state to an ideal key ccq.

    The comparison ideal key is uniform, perfectly correlated and carries
    the state's own environment marginal, so the distance is
    (sum of off-diagonal block traces + sum_j || B_jj - rho_E / d ||_1) / 2.
    B may be larger than A (guess registers keep a failure slot); its extra
    values are pure error and enter through the off-diagonal sum, the
    squared norm of their amplitudes.  Each diagonal term is computed in
    the eigenframe of rho_E on a block of at most g s dimensions (g
    distinct eigenvalues, s lab rows).  A StateVector is read as given,
    never purified.
    """
    return _direct_distance([_key_frame(state, eve_labels)])


def ccq_fidelity_to_key(state, *, eve_labels: Sequence[str] = ("E",)) -> float:
    """Fidelity between the key-measured state and its own-marginal ideal key.

    Both states are block diagonal over (j, k), and the ideal key only
    occupies the diagonal blocks, so F = sum_j F(B_jj, rho_E / d) with the
    blocks kept unnormalised.  With B_jj = V_j V_j^dag each term is
    || (rho_E / d)^(1/2) V_j ||_1, the singular values of one batched SVD
    of the (d, s, r) rows in the eigenframe of rho_E.
    """
    rows, lam, _ = _key_frame(state, eve_labels)
    x = rows * np.sqrt(lam / rows.shape[0])
    f = float(np.sum(np.linalg.svd(x, compute_uv=False)))
    return float(min(max(f, 0.0), 1.0))


# ---------------------------------------------------------------------------
# conjugate measurements


def _conjugate_key_elements(conj_basis: ConjugateBasis, g: np.ndarray) -> list[np.ndarray]:
    """Conjugate key decoder elements on (B, S), as views of one stack F_y F_y^dag.

    ``g`` stacks d blocks G_k of s rows each; element y has (k, k') block
    (P*_y)_{k k'} G_k G_k'^dag, block k of F_y being v*_y[k] G_k with
    v*_y = conj(v_y) the conjugated basis vector.
    """
    d, (rows, r) = conj_basis.d, g.shape
    f = (conj_basis.vectors.conj().T[:, :, None, None] * g.reshape(d, -1, r)).reshape(d, rows, r)
    return list(f @ f.conj().swapaxes(1, 2))


def twisting_conjugate_measurement(t: TwistingOperator,
                                   conj_basis: ConjugateBasis) -> Povm:
    """Exact conjugate key decoder for a twisted private state.

    Lambda_y = sum_{k k'} (P*_y)_{k k'} |k><k'| (x) V_kk V_k'k'^dag built
    from the conjugated basis and the diagonal twisting blocks; it acts on
    (B, S) and reproduces Alice's conjugate-basis outcome with certainty.
    """
    if conj_basis.d != t.d:
        raise ValueError("conjugate basis dimension does not match the twisting")
    _budget((t.d, t.d * t.shield_dim, t.d * t.shield_dim), "twisting decoder")
    elements = _conjugate_key_elements(conj_basis, np.vstack(t.diagonal_blocks()))
    return Povm(elements, tuple(range(t.d)))


@dataclass(frozen=True, eq=False)
class UhlmannRecord:
    """Conjugate measurement extracted from an Uhlmann partner.

    ``eps`` is 1 - F(measured state, ideal key ccq); the partner
    construction guarantees p_tilde_e <= 2 eps - eps^2 and the key test
    itself obeys p_e <= trace distance.  ``eps_direct`` is that trace
    distance (``epsilon_secret_direct``) read off the same amplitudes, with
    Eve holding E.
    """

    povm: Povm
    povm_labels: tuple[str, ...]
    p_e: float
    p_tilde_e: float
    eps: float
    bound: float
    fidelity: float
    pad_dim: int
    eps_direct: float


def uhlmann_conjugate_measurement(state, conj_basis: ConjugateBasis | None = None) -> UhlmannRecord:
    """Build a conjugate key decoder for an approximately private state.

    Eve holds the environment E of rank r, as in every key figure: a
    vector's own E (it may carry none) or a mixed state's purifier, and the
    shield is every other register.  The state is matched by an Uhlmann
    partner purification of the ideal key ccq with the state's own
    environment marginal rho_E = d K K^dag.  With A and B copied onto |0>
    lab ancillas, the overlap between the two purifications is block
    diagonal: block k is the s x r matrix X_k = conj(psi[k, k]) K, and the
    fidelity is the sum of the singular values of the X_k.  The partner is
    an exact private state whose twisting acts on lab registers only.
    Undoing the copies puts each of its blocks on the s rows that survive
    compression through the ancillas as S_k = conj(U_k) conj(Vh_k), from the
    thin SVD X_k = U_k diag Vh_k kept on the support of X_k; the decoder on
    (B, shield) is built from the S_k alone.  ``pad_dim`` reports the lab
    padding g = ceil(r / (d s)) the physical construction needs; no padded
    array is allocated.
    """
    space = _space_of(state)
    d = space.dim_of("A")
    if space.dim_of("B") != d:
        raise ValueError("key registers A and B must have equal dimension")
    if conj_basis is None:
        conj_basis = ConjugateBasis.fourier(d)
    if conj_basis.d != d:
        raise ValueError("conjugate basis dimension does not match register A")
    pure = isinstance(state, StateVector)
    if not pure:  # budgeted before the frame and the key tests read its purification
        s = space.dim // (d * d)
        _budget((d, s, d * d * s), "Uhlmann partner blocks")
        _budget((d, d * s, d * s), "Uhlmann partner decoder")
    t, shield_labels = _key_amplitudes(state)
    s = t.shape[2]
    if pure:
        _budget((d, s, t.shape[3]), "Uhlmann partner blocks")
        _budget((d, d * s, d * s), "Uhlmann partner decoder")
    frame = _block_frame(t, purified=not pure)
    lam = frame.lam
    r = lam.size
    # the d overlap blocks X_k = conj(psi[k, k]) K as one (d, s, r) stack,
    # with K = diag(sqrt(lam / d)) in the eigenframe of rho_E
    x = frame.rows.conj() * np.sqrt(lam / d)
    u, sing, vh = np.linalg.svd(x, full_matrices=False)
    fid = float(min(max(np.sum(sing), 0.0), 1.0))
    support = sing > 1e-8 * float(np.max(sing))
    sk = (u * support[:, None, :]).conj() @ vh.conj()

    # Each S_k must be a partial isometry on the support of X_k, and the
    # overlap sum_k tr(X_k S_k^T) must reach the fidelity.
    sv = np.linalg.svd(sk, compute_uv=False)
    bad = ~(np.where(support, np.abs(sv - 1.0), sv) <= 1e-4)
    if np.any(bad):
        k = int(np.argmax(np.any(bad, axis=1)))
        raise InvariantViolation(
            f"partner twisting block {k} is not isometric on the "
            f"support (singular values {sv[k]!r})")
    overlap = complex(np.sum(x * sk))
    if not abs(overlap - float(np.sum(sing))) <= 1e-9:
        raise InvariantViolation(
            f"partner overlap {overlap!r} does not reach the fidelity {fid!r}")

    elements = _conjugate_key_elements(conj_basis, sk.reshape(d * s, r))
    rest = np.eye(d * s) - np.sum(elements, axis=0)
    labels: tuple = tuple(range(d))
    if float(np.max(np.abs(rest))) > 1e-12:
        elements.append(rest)
        labels = labels + ("fail",)
    povm = Povm(elements, labels)
    del elements, rest

    povm_labels = ("B", *shield_labels)
    p_e, p_tilde_e = key_error_rates(state, conj_basis, povm, povm_labels=povm_labels)
    eps = float(min(max(1.0 - fid, 0.0), 1.0))
    bound = 2.0 * eps - eps * eps
    if not p_tilde_e <= bound + 1e-6:
        raise InvariantViolation(
            f"conjugate error {p_tilde_e:.6e} exceeds the partner bound "
            f"{bound:.6e} at eps = {eps:.6e}")
    return UhlmannRecord(povm=povm, povm_labels=povm_labels, p_e=p_e,
                         p_tilde_e=p_tilde_e, eps=eps, bound=bound, fidelity=fid,
                         pad_dim=max(1, math.ceil(r / (d * s))),
                         eps_direct=_direct_distance([frame]))


def certify_private(state, conj_basis: ConjugateBasis | None = None,
                    conj_povm: Povm | None = None,
                    *, povm_labels: Sequence[str] | None = None,
                    soundness_margin: float = SOUNDNESS_ATOL,
                    measurement_name: str | None = None) -> PrivacyReport:
    """Run the key test and conjugate key test, and cross-check soundness.

    Without an explicit POVM the conjugate test projects B onto the
    conjugated basis (exact for a maximally entangled key with no shield).
    The certified bound p_e + sqrt(p_tilde_e) must dominate the direct
    trace distance within ``soundness_margin``; ``PrivacyReport`` checks it
    again at ``SOUNDNESS_ATOL``, so a margin can only tighten that check.
    Both tests read a vector's amplitudes or a density's cached purification.
    """
    space = _space_of(state)
    if conj_basis is None:
        conj_basis = ConjugateBasis.fourier(space.dim_of("A"))
    if conj_povm is None:
        conj_povm = star_projective_povm(conj_basis)
        povm_labels = ("B",)
        if measurement_name is None:
            measurement_name = "conjugate_projective"
    p_e, p_tilde_e = key_error_rates(state, conj_basis, conj_povm, povm_labels=povm_labels)
    return _certified_report(p_e, p_tilde_e, _direct_distance([_key_frame(state, ("E",))]),
                             soundness_margin, measurement_name or "custom")


def _certified_report(p_e: float, p_tilde_e: float, eps_direct: float,
                      soundness_margin: float, measurement_name: str) -> PrivacyReport:
    """Report scored key tests; p_e + sqrt(p_tilde_e) must dominate eps_direct."""
    eps_cert = p_e + math.sqrt(p_tilde_e)
    if not eps_direct <= eps_cert + soundness_margin:
        raise InvariantViolation(
            f"direct distance {eps_direct:.6e} exceeds certified bound "
            f"{eps_cert:.6e} + margin {soundness_margin:g}")
    return PrivacyReport(p_e=p_e, p_tilde_e=p_tilde_e,
                         eps_certified=eps_cert, eps_direct=eps_direct,
                         measurement_used=measurement_name)


def star_projective_povm(conj_basis: ConjugateBasis) -> Povm:
    """Projective measurement in the conjugated (complex-conjugate) basis."""
    return conj_basis.conjugated().povm()
