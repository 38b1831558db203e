"""Key testing for approximate private states.

Three views of the same question, "how private is this key":

* incoherent error rates of the key test and its conjugate-basis key test,
  combined into the certified bound p_e + sqrt(p_tilde_e);
* the direct trace distance between the measured (ccq) state and the
  nearest ideal-key ccq with the same environment marginal;
* an explicitly constructed conjugate measurement for states that are only
  approximately private, built from an Uhlmann partner on a padded
  purification, with the guarantee p_tilde_e <= 2 eps - eps^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qudit_ops import ConjugateBasis, Povm, TwistingOperator, measure
from .tensor_core import (DensityOperator, HilbertSpace, InvariantViolation,
                          StateVector, _budget, permute_vector, purify,
                          sqrt_psd, trace_norm)

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
        if self.eps_direct > self.eps_certified + SOUNDNESS_ATOL:
            raise InvariantViolation(
                f"direct distance {self.eps_direct:.3e} exceeds certified bound "
                f"{self.eps_certified:.3e}")


def _to_density(state) -> DensityOperator:
    if isinstance(state, StateVector):
        return state.density()
    if isinstance(state, DensityOperator):
        return state
    raise TypeError("expected a StateVector or DensityOperator")


def key_error_rates(state, conj_basis: ConjugateBasis, conj_povm: Povm,
                    *, povm_labels: Sequence[str] | None = None
                    ) -> tuple[float, float]:
    """(p_e, p_tilde_e) for the standard and conjugate-basis key tests.

    p_e is the probability that measuring A and B in the standard basis
    gives different values.  p_tilde_e is the probability that the given
    POVM (on povm_labels, everything but A by default) fails to reproduce
    Alice's outcome when she measures in the conjugate basis.
    """
    rho = _to_density(state)
    d = rho.space.dim_of("A")
    if conj_basis.d != d:
        raise ValueError("conjugate basis dimension does not match register A")
    if povm_labels is None:
        povm_labels = tuple(x for x in rho.space.labels if x != "A")

    std = measure(rho, [(("A",), Povm.standard_basis(d)),
                        (("B",), Povm.standard_basis(rho.space.dim_of("B")))])
    p_same = float(np.trace(std.probs).real)

    conj = measure(rho, [(("A",), conj_basis.povm()),
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
        rho = _to_density(state)
        clash = [x for x in eve_labels if x in rho.space.labels]
        if clash:
            raise ValueError(f"labels {clash!r} already used by lab registers")
        psi = purify(rho, eve_labels[0] if eve_labels else "E")
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
    values are pure error and enter through the off-diagonal sum.  Only the
    diagonal blocks are built; an off-diagonal trace is the squared norm
    of its amplitudes.
    """
    space = state.space if isinstance(state, StateVector) else _to_density(state).space
    d = space.dim_of("A")
    if space.dim_of("B") < d:
        raise ValueError("register B cannot be smaller than the key register A")
    w = _ccq_amplitudes(state, eve_labels)
    rho_e = _env_block(w.reshape(-1, w.shape[3]))
    total = 0.0
    for j in range(d):
        for k in range(w.shape[1]):
            if j == k:
                total += trace_norm(_env_block(w[j, j]) - rho_e / d)
            else:
                total += float(np.vdot(w[j, k], w[j, k]).real)
    return float(min(max(0.5 * total, 0.0), 1.0))


def ccq_fidelity_to_key(state, *, eve_labels: Sequence[str] = ("E",)) -> float:
    """Fidelity between the key-measured state and its own-marginal ideal key.

    Both states are block diagonal over (j, k), and the ideal key only
    occupies the diagonal blocks, so F = sum_j F(B_jj, rho_E / d) with the
    blocks kept unnormalised.
    """
    w = _ccq_amplitudes(state, eve_labels)
    d = w.shape[0]
    root_key = sqrt_psd(_env_block(w.reshape(-1, w.shape[3])) / d)
    f = 0.0
    for j in range(d):
        cross = sqrt_psd(_env_block(w[j, j])) @ root_key
        f += float(np.sum(np.linalg.svd(cross, compute_uv=False)))
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
    itself obeys p_e <= trace distance.
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


def uhlmann_conjugate_measurement(state, conj_basis: ConjugateBasis | None = None) -> UhlmannRecord:
    """Build a conjugate key decoder for an approximately private state.

    The state is purified, copied onto padded lab registers, and matched by
    an Uhlmann partner purification of the ideal key ccq.  The partner is
    an exact private state whose twisting acts on lab registers only, so
    its exact conjugate decoder compresses (through the |0> ancillas) to a
    POVM on (B, shield) for the original state.
    """
    rho = _to_density(state)
    space = rho.space
    d = space.dim_of("A")
    if space.dim_of("B") != d:
        raise ValueError("key registers A and B must have equal dimension")
    if conj_basis is None:
        conj_basis = ConjugateBasis.fourier(d)
    if conj_basis.d != d:
        raise ValueError("conjugate basis dimension does not match register A")
    shield_labels = tuple(x for x in space.labels if x not in ("A", "B"))
    s = int(np.prod(space.dims_of(shield_labels), dtype=np.int64)) if shield_labels else 1

    # Purify with A, B, shield axis order; environment dimension = rank.
    ordered = HilbertSpace((d, d, s), ("A", "B", "S"))
    perm = [space.axis(x) for x in ("A", "B", *shield_labels)]
    mat = rho.matrix.reshape(space.dims * 2)
    n = len(space.dims)
    mat = mat.transpose(perm + [n + a for a in perm]).reshape(space.dim, space.dim)
    psi = purify(DensityOperator(ordered, mat), "E")
    r = psi.space.dim_of("E")
    psi4 = psi.amplitudes.reshape(d, d, s, r)

    g = max(1, math.ceil(r / (d * s)))
    dr = s * d * d * g
    # psi_t and kap0 below are (d*d*r) x dr; for full rank they grow as d^6
    _budget((d, d, r, s, d, d, g), "Uhlmann partner purification")

    # psi_tilde = copy A and B onto |0> ancillas; R groups (S, A', B', G).
    psi_t = np.zeros((d, d, r, s, d, d, g), dtype=np.complex128)
    for a in range(d):
        for b in range(d):
            psi_t[a, b, :, :, a, b, 0] = psi4[a, b].T
    psi_t = psi_t.reshape(d * d * r, dr)

    # kappa_0 purifies the own-marginal ideal key; R slots k*r+i are disjoint.
    rho_e = np.einsum("absr,abst->rt", psi4, psi4.conj())
    evals, evecs = np.linalg.eigh(rho_e)
    evals = np.clip(evals, 0.0, None)
    kap0 = np.zeros((d, d, r, dr), dtype=np.complex128)
    for k in range(d):
        for i in range(r):
            kap0[k, k, :, k * r + i] = math.sqrt(evals[i] / d) * evecs[:, i]
    kap0 = kap0.reshape(d * d * r, dr)

    x = psi_t.conj().T @ kap0
    u_x, sing, vh_x = np.linalg.svd(x)
    fid = float(min(max(np.sum(sing), 0.0), 1.0))
    kap_p = kap0 @ (vh_x.conj().T @ u_x.conj().T)

    # Undo the copies: kappa' is an exact private state, diagonal in (a, b).
    kp = kap_p.reshape(d, d, r, s, d, d, g)
    kprime = np.empty_like(kp)
    for a in range(d):
        for b in range(d):
            kprime[a, b] = np.roll(np.roll(kp[a, b], -a, axis=2), -b, axis=3)
    diag_mass = float(sum(np.vdot(kprime[k, k], kprime[k, k]).real for k in range(d)))
    off_mass = max(0.0, 1.0 - diag_mass)

    # m_k = sqrt(d) kappa'[k, k] as a matrix R x E; M_k = W_k M_0 with W_k
    # a lab-register isometry, completed to a unitary by full SVD.
    mats = []
    for k in range(d):
        m_k = math.sqrt(d) * kprime[k, k].reshape(r, dr)
        mats.append(m_k.T)
    s0 = np.linalg.svd(mats[0], compute_uv=False)
    r0 = int(np.sum(s0 > 1e-8 * max(float(s0[0]), 1e-300)))
    pinv0 = np.linalg.pinv(mats[0], rcond=1e-8)
    ws = []
    for k in range(d):
        a_k = mats[k] @ pinv0
        u_k, s_k, vh_k = np.linalg.svd(a_k)
        head, tail = s_k[:r0], s_k[r0:]
        if (head.size and float(np.max(np.abs(head - 1.0))) > 1e-4) or \
                (tail.size and float(np.max(tail)) > 1e-4):
            raise InvariantViolation(
                f"partner twisting block {k} is not isometric on the "
                f"support (singular values {s_k[:r0 + 2]!r})")
        ws.append(u_k @ vh_k)

    # Compress through the |0> ancillas: keep R rows with a'=b'=g=0.
    rows = np.arange(s) * (d * d * g)
    elements = _conjugate_key_elements(conj_basis, np.vstack([w[rows] for w in ws]))
    rest = np.eye(d * s) - np.sum(elements, axis=0)
    labels: tuple = tuple(range(d))
    if float(np.max(np.abs(rest))) > 1e-12:
        elements.append(0.5 * (rest + rest.conj().T))
        labels = labels + ("fail",)
    povm = Povm(tuple(elements), labels)

    povm_labels = ("B", *shield_labels) if shield_labels else ("B",)
    p_e, p_tilde_e = key_error_rates(rho, conj_basis, povm, povm_labels=povm_labels)
    eps = float(min(max(1.0 - fid, 0.0), 1.0))
    bound = 2.0 * eps - eps * eps
    if p_tilde_e > bound + 1e-6:
        raise InvariantViolation(
            f"conjugate error {p_tilde_e:.6e} exceeds the partner bound "
            f"{bound:.6e} at eps = {eps:.6e}")
    return UhlmannRecord(povm=povm, povm_labels=povm_labels, p_e=p_e,
                         p_tilde_e=p_tilde_e, eps=eps, bound=bound,
                         fidelity=fid, off_diagonal_mass=off_mass, pad_dim=g)


def certify_private(state, conj_basis: ConjugateBasis | None = None,
                    conj_povm: Povm | None = None,
                    *, povm_labels: Sequence[str] | None = None,
                    soundness_margin: float = SOUNDNESS_ATOL,
                    measurement_name: str | None = None) -> PrivacyReport:
    """Run the key test and conjugate key test, and cross-check soundness.

    Without an explicit POVM the conjugate test projects B onto the
    conjugated basis (exact for a maximally entangled key with no shield).
    The certified bound p_e + sqrt(p_tilde_e) must dominate the direct
    trace distance up to ``soundness_margin``.
    """
    rho = _to_density(state)
    d = rho.space.dim_of("A")
    if conj_basis is None:
        conj_basis = ConjugateBasis.fourier(d)
    if conj_povm is None:
        conj_povm = star_projective_povm(conj_basis)
        povm_labels = ("B",)
        if measurement_name is None:
            measurement_name = "conjugate_projective"
    p_e, p_tilde_e = key_error_rates(rho, conj_basis, conj_povm,
                                     povm_labels=povm_labels)
    eps_cert = p_e + math.sqrt(p_tilde_e)
    eps_direct = epsilon_secret_direct(rho)
    if eps_direct > eps_cert + soundness_margin:
        raise InvariantViolation(
            f"direct distance {eps_direct:.6e} exceeds certified bound "
            f"{eps_cert:.6e} + margin {soundness_margin:g}")
    return PrivacyReport(p_e=p_e, p_tilde_e=p_tilde_e,
                         eps_certified=eps_cert, eps_direct=eps_direct,
                         measurement_used=measurement_name or "custom")


def star_projective_povm(conj_basis: ConjugateBasis) -> Povm:
    """Projective measurement in the conjugated (complex-conjugate) basis."""
    return conj_basis.conjugated().povm()
