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

from .qudit_ops import ConjugateBasis, Povm, TwistingOperator, measure
from .tensor_core import (AMPLITUDE_CAP, DensityOperator, HilbertSpace,
                          InvariantViolation, StateVector, _budget,
                          permute_vector, purify)

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
    Alice's outcome when she measures in the conjugate basis.  A
    StateVector is measured on its amplitudes.
    """
    space = _space_of(state)
    d = space.dim_of("A")
    if conj_basis.d != d:
        raise ValueError("conjugate basis dimension does not match register A")
    if povm_labels is None:
        povm_labels = tuple(x for x in space.labels if x != "A")

    std = measure(state, [(("A",), Povm.standard_basis(d)),
                          (("B",), Povm.standard_basis(space.dim_of("B")))])
    p_same = float(np.trace(std.probs).real)

    conj = measure(state, [(("A",), conj_basis.povm()),
                           (tuple(povm_labels), conj_povm)])
    bob_labels = conj.outcome_labels[1]
    p_match = 0.0
    for y_idx, lab in enumerate(bob_labels):
        if isinstance(lab, (int, np.integer)) and 0 <= int(lab) < d:
            p_match += float(conj.probs[int(lab), y_idx])
    p_e = min(max(1.0 - p_same, 0.0), 1.0)
    p_tilde_e = min(max(1.0 - p_match, 0.0), 1.0)
    return p_e, p_tilde_e


# ---------------------------------------------------------------------------
# direct (ccq) secrecy


def _ccq_amplitudes(state, eve_labels: Sequence[str]) -> np.ndarray:
    """Amplitudes of the state as a (A, B, lab rest, environment) array.

    Registers named in ``eve_labels`` count as the environment; a mixed
    state (which must not carry any of those labels) is purified onto a
    fresh register first.  Every remaining lab register is merged into the
    third axis, and a state with no environment register gets a trivial one.
    """
    if isinstance(state, StateVector):
        psi = state
        eves = tuple(x for x in eve_labels if x in psi.space.labels)
    else:
        lab = _space_of(state).labels
        clash = [x for x in eve_labels if x in lab]
        if clash:
            raise ValueError(f"labels {clash!r} already used by lab registers")
        psi = purify(state, eve_labels[0] if eve_labels else "E")
        eves = (eve_labels[0] if eve_labels else "E",)
    space = psi.space
    shield = tuple(x for x in space.labels if x not in ("A", "B") + eves)
    amps = permute_vector(space, psi.amplitudes, ("A", "B") + shield + eves)
    s = int(np.prod(space.dims_of(shield), dtype=np.int64)) if shield else 1
    de = int(np.prod(space.dims_of(eves), dtype=np.int64)) if eves else 1
    return amps.reshape(space.dim_of("A"), space.dim_of("B"), s, de)


def _env_block(x: np.ndarray) -> np.ndarray:
    """sum_s |x_s><x_s| over the rows of an (s, environment) amplitude block."""
    return x.T @ x.conj()


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


def _block_frame(w: np.ndarray, purified: bool = False) -> _KeyFrame:
    """The eigenframe of rho_E for key-measured amplitudes w[j, k, lab, env].

    With ``purified`` the environment basis is a purifier's, which already
    diagonalises rho_E: its spectrum is the squared norms of the
    environment columns.  Otherwise a non-trivial environment pays one eigh
    of rho_E, cut to its support.
    """
    d, e = w.shape[0], w.shape[3]
    _budget((d, w.shape[2], e), "diagonal key rows")
    diag = w[np.arange(d), np.arange(d)]
    off_mass = float(np.vdot(w, w).real - np.vdot(diag, diag).real)
    flat = w.reshape(-1, e)
    if purified or e == 1:
        return _KeyFrame(diag, np.sum(flat.real ** 2 + flat.imag ** 2, axis=0), off_mass)
    _budget((e, e), "environment marginal")
    lam, vecs = np.linalg.eigh(_env_block(flat))
    # eigenvalues below eigh's own rounding level carry no support
    keep = lam > e * np.finfo(float).eps * lam[-1]
    return _KeyFrame(diag @ vecs[:, keep].conj(), lam[keep], off_mass)


def _key_frame(state, eve_labels: Sequence[str]) -> _KeyFrame:
    """The eigenframe of rho_E, read off the purification when there is one.

    A mixed state is purified, so its frame needs no second factorisation;
    a StateVector is read as given (``_block_frame``).
    """
    space = _space_of(state)
    if space.dim_of("B") < space.dim_of("A"):
        raise ValueError("register B cannot be smaller than the key register A")
    return _block_frame(_ccq_amplitudes(state, eve_labels),
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
            parts.append(np.linalg.qr(members.mT, mode="r").mT)
            row_levels.append(np.full(s, levels[k]))
        yt = np.concatenate(parts, axis=2)
        c = np.concatenate(row_levels)
        # one batched eigvalsh, split over j only where the stack would pass the cap
        step = max(1, AMPLITUDE_CAP // _budget((c.size, c.size), "compressed key block"))
        total += sum(float(np.sum(np.abs(np.linalg.eigvalsh(
            yt[lo:lo + step].mT @ yt[lo:lo + step].conj() - np.diag(c)))))
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
    w = _ccq_amplitudes(state, eve_labels)
    return {(j, k): _env_block(w[j, k])
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
    """Conjugate key decoder elements on (B, S) from stacked shield blocks.

    ``g`` stacks d blocks G_k of s rows each; element y has (k, k') block
    (P*_y)_{k k'} G_k G_k'^dag, made exactly hermitian.
    """
    star = conj_basis.conjugated()
    s = g.shape[0] // conj_basis.d
    gram = g @ g.conj().T
    elements = []
    for y in range(conj_basis.d):
        el = np.kron(star.projector(y), np.ones((s, s))) * gram
        elements.append(0.5 * (el + el.conj().T))
    return elements


def twisting_conjugate_measurement(t: TwistingOperator,
                                   conj_basis: ConjugateBasis) -> Povm:
    """Exact conjugate key decoder for a twisted private state.

    Lambda_y = sum_{k k'} (P*_y)_{k k'} |k><k'| (x) V_kk V_k'k'^dag built
    from the conjugated basis and the diagonal twisting blocks; it acts on
    (B, S) and reproduces Alice's conjugate-basis outcome with certainty.
    """
    if conj_basis.d != t.d:
        raise ValueError("conjugate basis dimension does not match the twisting")
    elements = _conjugate_key_elements(conj_basis, np.vstack(t.diagonal_blocks()))
    return Povm(tuple(elements), tuple(range(t.d)))


@dataclass(frozen=True)
class UhlmannRecord:
    """Conjugate measurement extracted from an Uhlmann partner.

    ``eps`` is 1 - F(measured state, ideal key ccq); the partner
    construction guarantees p_tilde_e <= 2 eps - eps^2 and the key test
    itself obeys p_e <= trace distance.  ``eps_direct`` is that trace
    distance (``epsilon_secret_direct``) read off the same purification,
    with every register but A and B on the lab side.
    """

    povm: Povm
    povm_labels: tuple[str, ...]
    p_e: float
    p_tilde_e: float
    eps: float
    bound: float
    fidelity: float
    off_diagonal_mass: float
    pad_dim: int
    eps_direct: float


def uhlmann_conjugate_measurement(state, conj_basis: ConjugateBasis | None = None) -> UhlmannRecord:
    """Build a conjugate key decoder for an approximately private state.

    The state is purified (environment E of rank r; a pure state needs
    none) and matched by an Uhlmann partner purification of the ideal key
    ccq with the state's own environment marginal rho_E = d K K^dag.  With
    A and B copied onto |0> lab ancillas, the overlap between the two
    purifications is block diagonal: block k is the s x r matrix
    X_k = conj(psi[k, k]) K, and the fidelity is the sum of the singular
    values of the X_k.  The partner is an exact private state whose
    twisting acts on lab registers only.  Undoing the copies puts each of
    its blocks on the s rows that survive compression through the ancillas
    as S_k = conj(U_k) conj(Vh_k), from the thin SVD X_k = U_k diag Vh_k
    kept on the support of X_k; the decoder on (B, shield) is built from
    the S_k alone.  ``pad_dim`` reports the lab padding g = ceil(r / (d s))
    the physical construction needs; no padded array is allocated.
    """
    space = _space_of(state)
    d = space.dim_of("A")
    if space.dim_of("B") != d:
        raise ValueError("key registers A and B must have equal dimension")
    if conj_basis is None:
        conj_basis = ConjugateBasis.fourier(d)
    if conj_basis.d != d:
        raise ValueError("conjugate basis dimension does not match register A")
    shield_labels = tuple(x for x in space.labels if x not in ("A", "B"))
    s = int(np.prod(space.dims_of(shield_labels), dtype=np.int64)) if shield_labels else 1
    r_max = 1 if isinstance(state, StateVector) else d * d * s
    _budget((d, s, r_max), "Uhlmann partner blocks")
    _budget((d, d * s, d * s), "Uhlmann partner decoder")

    # A label longer than every register label cannot clash with one.
    frame = _key_frame(state, ("E" * (1 + max(map(len, space.labels))),))
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
        elements.append(0.5 * (rest + rest.conj().T))
        labels = labels + ("fail",)
    povm = Povm(tuple(elements), labels)

    povm_labels = ("B", *shield_labels) if shield_labels else ("B",)
    p_e, p_tilde_e = key_error_rates(state, conj_basis, povm, povm_labels=povm_labels)
    eps = float(min(max(1.0 - fid, 0.0), 1.0))
    bound = 2.0 * eps - eps * eps
    if p_tilde_e > bound + 1e-6:
        raise InvariantViolation(
            f"conjugate error {p_tilde_e:.6e} exceeds the partner bound "
            f"{bound:.6e} at eps = {eps:.6e}")
    return UhlmannRecord(povm=povm, povm_labels=povm_labels, p_e=p_e,
                         p_tilde_e=p_tilde_e, eps=eps, bound=bound, fidelity=fid,
                         off_diagonal_mass=max(0.0, 1.0 - float(np.sum(lam))),
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
    trace distance up to ``soundness_margin``.  A StateVector stays a
    vector throughout.
    """
    d = _space_of(state).dim_of("A")
    if conj_basis is None:
        conj_basis = ConjugateBasis.fourier(d)
    if conj_povm is None:
        conj_povm = star_projective_povm(conj_basis)
        povm_labels = ("B",)
        if measurement_name is None:
            measurement_name = "conjugate_projective"
    p_e, p_tilde_e = key_error_rates(state, conj_basis, conj_povm, povm_labels=povm_labels)
    return _certified_report(p_e, p_tilde_e, epsilon_secret_direct(state), soundness_margin,
                             measurement_name or "custom")


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
