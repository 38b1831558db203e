"""Key distillation with CSS codes: rate formulas, the certified one-shot
protocol, and a fully coherent hashing simulation that tracks every
intermediate state of the correctness argument.

Register conventions: A and B are the d^n-dimensional key registers, any
extra labels except E are Bob's shield, E is the purifying environment.
Syndromes live in public registers R (standard basis, values M_z k) and T
(conjugate basis, values M_x x); decoded guesses go to fresh registers with
one extra "fail" slot.  R is one-hot: after extraction it holds
``alpha_of[a]`` for the value a of A, so the circuit never stores it and
reads it from ``alpha_of`` where it is needed.

The one-shot protocol and the hashing chain run the same CSS circuit, built
once here from two helpers, ``_extract`` (coherent extraction of the
syndromes) and ``_key_decode`` (Bob's per-alpha guess of the key string, as
a plain guess register or straight onto logical, syndrome and destabiliser
coordinates), over the class values and encode maps of the code
(``CssCode._tables``).  Every decoder error (eps_z, eps_x, p~'_e and the
two-copy error) is scored by ``discrimination._guess_error``, straight from
pure-state amplitudes; the chain distances come from ``tensor_core._gram``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Mapping

import numpy as np

from .css_codes import CssCode, _CodeTables
from .discrimination import (HswDecoderResult, _class_pgms, _guess_error, _guess_slots,
                             _helstrom_projectors)
from .info_measures import _entropy_of_rows, _holevo_of_rows, shannon_entropy
from .privacy import (SOUNDNESS_ATOL, PrivacyReport, _block_frame, _certified_report,
                      _direct_distance, _key_amplitudes)
from .qudit_ops import POVM_COMPLETENESS_ATOL, ConjugateBasis, Povm
from .tensor_core import (AMPLITUDE_CAP, BOUND_ATOL, KIND_ATOL, PSD_ATOL, SUPPORT_ATOL,
                          HilbertSpace, InvariantViolation, StateVector, _budget,
                          _chain_distance, _gram, _psd_root)


def extend_with_copy(psi: StateVector, label: str = "C") -> StateVector:
    """Copy register A's standard basis coherently into a fresh register.

    The result carries axis order (A, label, rest...) with the remaining
    labels in their original order.
    """
    space = psi.space
    if label in space.labels:
        raise ValueError(f"label {label!r} already used")
    rest = tuple(x for x in space.labels if x != "A")
    d = space.dim_of("A")
    amps = psi.permuted(("A",) + rest).amplitudes.reshape(d, -1)
    _budget((d, d, amps.shape[1]), "coherent copy")
    out = np.zeros((d, d, amps.shape[1]), dtype=np.complex128)
    out[np.arange(d), np.arange(d)] = amps
    new_space = HilbertSpace((d, d) + tuple(space.dims_of(rest)), ("A", label) + rest)
    return StateVector(new_space, out.reshape(-1))


# ---------------------------------------------------------------------------
# the CSS circuit shared by one-shot distillation and the hashing chain


def _extract(amps: np.ndarray, tab: _CodeTables) -> np.ndarray:
    """Coherently read the conjugate syndrome of A (axis 0) into a trailing T axis.

    The result has shape ``amps.shape + (t_dim,)``: slice beta is the
    projection of A onto conjugate class beta.  The standard syndrome needs
    no axis: it commutes with that projection, and its register R holds
    ``alpha_of[a]`` for every value a of A.
    """
    g0 = np.tensordot(tab.v.conj().T, amps, axes=(1, 0))
    return np.stack([np.tensordot(tab.v[:, members], g0[members], axes=(1, 0))
                     for members in tab.beta_classes.values()], axis=-1)


def _key_decode(t1: np.ndarray, key_decoders: Mapping, tab: _CodeTables,
                encoded: bool = False) -> np.ndarray:
    """Decode Bob's guess of the key string from B (axis 1) into a new last axis.

    The rows of A in alpha class ``key`` are decoded by ``key_decoders[key]``
    alone; the guess register has one slot per string plus the fail slot.
    ``encoded`` writes them straight onto logical, syndrome and destabiliser
    coordinates: row a of A to ``zperm[a]`` and guess slot g to ``cperm[g]``
    of a guess axis of (k_dim + 1) * r_dim * t_dim values, which splits into
    a logical part with a fail value and an auxiliary part.
    """
    dd = t1.shape[0]
    rows_to, slots_to = (tab.zperm, tab.cperm) if encoded else (np.arange(dd), np.arange(dd + 1))
    width = dd + len(tab.alpha_classes) * len(tab.beta_classes) if encoded else dd + 1
    t2 = np.zeros(t1.shape + (width,), dtype=np.complex128)
    for key, rows in tab.alpha_classes.items():
        dec: Povm = key_decoders[key]
        if dec.dim != dd:
            raise ValueError("key decoders must act on B alone")
        # roots as (outcome, B', B); the outcome axis lands on the guess slots
        applied = np.tensordot(dec.sqrt_elements(), t1[rows], axes=(2, 1))
        slots = slots_to[_guess_slots(dec, dd)]
        t2[rows_to[rows][:, None], ..., slots] = np.moveaxis(applied, 2, 0)
    return t2


def _logical_weight(arr: np.ndarray, tab: _CodeTables, k_dim: int) -> float:
    """k_dim F^2 for the fidelity F of the encoded logical (A, last axis) pair
    with the Bell state, as a sum over every other axis.

    Reads the amplitudes of the encoded layout (``_key_decode(...,
    encoded=True)``) with equal logical values on A and on the guess register
    through the inverse of ``zperm``, from the plain layout of ``arr``; the
    fail slot carries no logical value.
    """
    of = np.argsort(tab.zperm).reshape(k_dim, -1)
    acc = sum(arr[rows[:, None], ..., rows] for rows in of)
    return float(np.vdot(acc, acc).real)


# ---------------------------------------------------------------------------
# rates


@dataclass(frozen=True)
class RateBreakdown:
    """Additive pieces of the one-way distillable key bound.

    rate = i_zb - h_z + i_x_cbs; ck_rate = i_zb - i_ze is the classical
    key rate; identity_residual is |i_x_cbs - (h_z - i_ze)| and vanishes for
    globally pure inputs.
    """

    i_zb: float
    i_ze: float
    h_z: float
    i_x_cbs: float
    rate: float
    ck_rate: float
    coherent_info: float
    identity_residual: float


def distillable_rate(state, conj_basis: ConjugateBasis | None = None) -> RateBreakdown:
    """Evaluate the one-way rate bound I(Z:B) - H(Z) + I(X:CBS).

    The Z pieces come from measuring A in the standard basis (Bob keeps B
    alone, Eve the purifier); the X piece measures A of the state with a
    coherent copy of A attached, with Bob holding the copy, B and shield.
    Every entropy is read from the amplitudes t[a, b, s, e] of the pure
    state (a mixed input is purified onto E) through the smaller side of
    each cut: the Z ensembles are the rows t[a] as (b, s e) and as (e, b s),
    the copied X ensemble the rows conj(v[:, x]) (.) t as (C B S, e), and
    the coherent information S(BS) - S(ABS) the two cuts of t itself.
    """
    t = _key_amplitudes(state)[0]
    d, b, s, e = t.shape
    if conj_basis is None:
        conj_basis = ConjugateBasis.fourier(d)
    if conj_basis.d != d:
        raise ValueError("conjugate basis dimension does not match register A")
    _budget((d, t.size), "rate amplitude rows")

    i_zb, pz = _holevo_of_rows(t.reshape(d, b, s * e))
    h_z = shannon_entropy(pz)
    # a one-dimensional environment learns nothing
    i_ze = _holevo_of_rows(t.reshape(d, b * s, e).swapaxes(1, 2))[0] if e > 1 else 0.0
    copied = conj_basis.vectors.conj().T[:, :, None] * t.reshape(1, d, -1)
    i_x_cbs = _holevo_of_rows(copied.reshape(d, d * b * s, e))[0]

    s_abs = _entropy_of_rows(t.reshape(1, d * b * s, e))[1][0]
    s_bs = _entropy_of_rows(t.transpose(1, 2, 0, 3).reshape(1, b * s, d * e))[1][0]
    coherent_info = float(s_bs - s_abs)
    rate = i_zb - h_z + i_x_cbs
    return RateBreakdown(i_zb=i_zb, i_ze=i_ze, h_z=h_z, i_x_cbs=i_x_cbs,
                         rate=rate, ck_rate=i_zb - i_ze,
                         coherent_info=coherent_info,
                         identity_residual=abs(i_x_cbs - (h_z - i_ze)))


# ---------------------------------------------------------------------------
# decoder families


@dataclass(frozen=True, eq=False)
class CssDecoders:
    """Per-syndrome decoders plus their incoherent error bookkeeping."""

    key_decoders: Mapping
    conj_decoders: Mapping
    z_result: HswDecoderResult
    x_result: HswDecoderResult


def build_css_decoders(state, code: CssCode) -> CssDecoders:
    """Class decoders for a state and code: one POVM per syndrome value.

    Key decoders act on B and guess Alice's standard-basis string within
    the alpha class; conjugate decoders act on (B, shield) and guess her
    conjugate-basis string within the beta class.  Each decoder is the PGM
    of its class from one factorisation of the members' amplitude rows, read
    off t[a, b, s, e] of the pure state: t[x] as (B, S E) for the key
    strings, (v^dag t)[x] as (B S, E) for the conjugate ones.  A class of
    zero weight gets {fail: 1}.  The hashing chain's conjugate decoders on
    (C, B), C a coherent copy of A, come from ``_copied_conj_classes``.
    """
    t = _key_amplitudes(state)[0]
    dd = code.d ** code.n
    if t.shape[:2] != (dd, dd):
        raise ValueError("key registers must have dimension d^n")
    tab = code._tables
    z_result = _class_pgms(t.reshape(dd, dd, -1), tab.alpha_classes)
    rows = np.tensordot(tab.v.conj().T, t, axes=(1, 0)).reshape(dd, -1, t.shape[3])
    x_result = _class_pgms(rows, tab.beta_classes)
    return CssDecoders(key_decoders=z_result.decoders,
                       conj_decoders=x_result.decoders,
                       z_result=z_result, x_result=x_result)


def _blockwise(m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """m times w[c, c'] on its (C, C') blocks, for an operator m on (C B, C' B')."""
    dd = len(w)
    return (m.reshape(dd, dd, dd, dd) * w[:, None, :, None]).reshape(m.shape)


@dataclass(frozen=True, eq=False)
class _CopiedClasses:
    """Every conjugate class PGM on (C, B) of the copied rows, as one checked pair.

    Element x of every class is delta_x rep delta_x^dag with the phase delta_x =
    sqrt(dd) conj(v[:, x]) on C, and the fail element of the class of x0 is
    delta_x0 fail delta_x0^dag: rep is the element of string 0, fail (None at full
    rank) a projector.  The check holds for every class: rep is hermitian and
    positive (off the eigh that gives ``root``), fail a hermitian projector, and
    |X| rep on the (C, C') blocks within one coset of the row space of mx (a row
    of ``cosets``), plus fail, is the identity, as sum_{y in ker mx}
    omega^{-(c - c') y} is |X| on those blocks and 0 on the others.
    """

    rep: np.ndarray
    fail: np.ndarray | None
    cosets: np.ndarray
    root: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, el in (("representative", self.rep), ("fail", self.fail)):
            herm = 0.0 if el is None else float(np.max(np.abs(el - el.conj().T)))
            if not herm <= KIND_ATOL:
                raise InvariantViolation(
                    f"conjugate class {name} element is not hermitian (deviation {herm!r})")
        vals, vecs = np.linalg.eigh(self.rep)
        low = float(vals[0])
        if not low >= -PSD_ATOL:
            raise InvariantViolation(
                f"conjugate class representative element is not positive (min eig {low!r})")
        object.__setattr__(self, "root", _psd_root(vals, vecs))
        # the cosets partition the strings: string c sits at flat position argsort[c]
        coset_of = np.argsort(self.cosets, axis=None) // self.cosets.shape[1]
        total = len(self.cosets) * _blockwise(self.rep, coset_of[:, None] == coset_of)
        if self.fail is not None:
            dev = float(np.max(np.abs(self.fail @ self.fail - self.fail)))
            if not dev <= KIND_ATOL:
                raise InvariantViolation(
                    f"conjugate class fail element is not positive (projector deviation {dev!r})")
            total += self.fail
        dev = float(np.max(np.abs(total - np.eye(len(total)))))
        if not dev <= POVM_COMPLETENESS_ATOL:
            raise InvariantViolation(
                f"conjugate class elements do not sum to the identity (deviation {dev!r})")


def _copied_conj_classes(t: np.ndarray, tab: _CodeTables) -> tuple[_CopiedClasses, float]:
    """The conjugate class PGMs on (C, B) of the copied rows w_x = conj(v[c, x]) t[c, b, r],
    as one ``_CopiedClasses`` pair, and the error of every class, without building the rows.

    A class X = x0 + ker(mx) averages to sum_x w_x w_x^dag, which is block diagonal
    over the cosets Q of C modulo the row space of mx (``tab.cosets``, |X| of them):
    block Q is (|X| / dd) (delta T_Q)(delta T_Q)^dag, with T_Q the rows t[c] of c in
    Q as (Q B, r) and delta_c = sqrt(dd) conj(v[c, x0]) a phase.  So with T_Q = U_Q
    Sigma_Q V_Q^dag on the support that ``_pgm_of_rows`` keeps, the element of x0 is
    delta rep delta^dag with rep = Z Z^dag / |X|, Z = [U_Q V_Q^dag]_Q, and its fail
    element delta fail delta^dag with fail = 1 - U U^dag, U = diag_Q(U_Q).  Every
    member of every class scores the hit of x0, |X| ||mean_Q A_Q||^2 / ||t||^2 with
    A_Q = V_Q Sigma_Q V_Q^dag; its miss is read as the spread sum_Q ||A_Q - mean||^2
    plus the mass cut from the support, a sum of squares, so a perfect decoder
    scores 0 and not rounding.
    """
    dd, r = t.shape[0], t.shape[2]
    n_q, q_dim = tab.cosets.shape
    _budget((dd * dd, dd * dd), "conjugate class elements")
    _budget((n_q, r, r), "conjugate class hits")
    u, sing, vh = np.linalg.svd(t[tab.cosets].reshape(n_q, q_dim * dd, r), full_matrices=False)
    keep = sing ** 2 > SUPPORT_ATOL * float(np.sum(sing ** 2))
    spread = (vh.conj().swapaxes(1, 2) * (sing * keep)[:, None, :]) @ vh
    spread -= spread.mean(axis=0)
    miss = float(np.vdot(spread, spread).real) + float(np.sum(sing[~keep] ** 2))
    del spread
    u = u * keep[:, None, :]
    z = np.empty((dd, dd, r), dtype=np.complex128)
    z[tab.cosets.reshape(-1)] = (u @ vh).reshape(dd, dd, r)
    z = z.reshape(dd * dd, r)
    fail = None
    if np.count_nonzero(keep) < dd * dd:
        # the (Q, C, C', B, B') blocks of U U^dag, placed on C and C' in Q
        proj = np.zeros((dd, dd, dd, dd), dtype=np.complex128)
        blocks = (u @ u.conj().swapaxes(1, 2)).reshape(n_q, q_dim, dd, q_dim, dd)
        proj[tab.cosets[:, :, None], :, tab.cosets[:, None, :]] = blocks.transpose(0, 1, 3, 2, 4)
        fail = np.eye(dd * dd) - proj.reshape(dd * dd, dd * dd)
    return (_CopiedClasses(rep=(z @ z.conj().T) / n_q, fail=fail, cosets=tab.cosets),
            float(min(max(miss / float(np.sum(sing ** 2)), 0.0), 1.0)))


# ---------------------------------------------------------------------------
# one-shot distillation


@dataclass(frozen=True, eq=False)
class DistillationOutcome:
    """Certified one-shot result: key sizes, privacy report, and the final state,
    built and validated from the encoded protocol state when first read."""

    key_dims: tuple[int, int]
    report: PrivacyReport
    transcript: Mapping
    _encoded: np.ndarray = field(repr=False)

    @cached_property
    def final_state(self) -> StateVector:
        """The encoded state with R, a copy of Az, put in before T: its slice R = r
        is the slice Az = r of the encoded (A, Az, Ag, Bq, Sq, E, T, B, Bg)."""
        enc = self._encoded
        r_dim = enc.shape[1]
        final = np.zeros(enc.shape[:6] + (r_dim,) + enc.shape[6:], dtype=np.complex128)
        for r in range(r_dim):
            final[:, r, :, :, :, :, r] = enc[:, r]
        return StateVector(HilbertSpace(final.shape, ("A", "Az", "Ag", "Bq", "Sq", "E", "R",
                                                      "T", "B", "Bg")), final.reshape(-1))


def one_shot_distill(state, code: CssCode, key_decoders: Mapping,
                     conj_decoders: Mapping) -> DistillationOutcome:
    """Run the coherent one-shot key distillation protocol.

    Alice extracts both syndromes coherently into public registers R and T,
    Bob decodes her string from B conditioned on alpha into a guess
    register; the certified security parameter is p'_e + sqrt(p~'_e) where
    p'_e is the logical key-test error of the protocol state and p~'_e the
    logical conjugate-test error of the stored pre-decode state.  The
    direct ccq distance of the encoded key (Eve holding E and R) is checked
    against the certificate.  Its frame on the slice R = r is read off the
    input rows of alpha class r: P_alpha commutes with Q_beta and every later
    step acts on the lab side, so those rows have the slice's E marginal.
    """
    amps = _key_amplitudes(state)[0]
    d, n = code.d, code.n
    dd = d ** n
    if amps.shape[:2] != (dd, dd):
        raise ValueError(f"key registers must have dimension {dd}")
    s_dim, e_dim = amps.shape[2:]

    tab = code._tables
    k_dim = d ** code.k
    r_dim, t_dim = d ** code.m_z, d ** code.m_x
    for key in tab.alpha_classes:
        if key not in key_decoders:
            raise ValueError(f"missing key decoder for alpha {key}")
    for key in tab.beta_classes:
        if key not in conj_decoders:
            raise ValueError(f"missing conjugate decoder for beta {key}")

    # the final state, the only array holding R, is the largest one
    c_dim = dd + 1
    _budget((dd, dd, s_dim, e_dim, r_dim, t_dim, c_dim), "key decoding")
    t1 = _extract(amps, tab)
    nrm = float(np.linalg.norm(t1))
    if not abs(nrm - 1.0) <= 1e-10:
        raise InvariantViolation(f"syndrome extraction broke normalisation ({nrm!r})")

    # coherent key decoding into the guess register, encoded: A -> (logical,
    # z-syndrome, destabiliser), guesses likewise, as (A, Az, Ag, Bq, Sq, E, T, B,
    # Bg), with trivial Sq and E when the state has no shield or environment
    baux = dd // k_dim
    enc = _key_decode(t1, key_decoders, tab, encoded=True).reshape(
        (k_dim, r_dim, t_dim) + t1.shape[1:] + (k_dim + 1, baux))
    nrm = float(np.linalg.norm(enc))
    if not abs(nrm - 1.0) <= 1e-10:
        raise InvariantViolation(f"key decoding broke normalisation ({nrm!r})")

    # logical key test on the protocol state: the leading coordinate of A and of
    # the guess is the logical value, and the fail slot goes to logical value k_dim
    succ = sum(float((np.abs(enc[lam, ..., lam, :]) ** 2).sum()) for lam in range(k_dim))
    p_prime_e = float(min(max(1.0 - succ, 0.0), 1.0))

    # logical conjugate test on the stored pre-decode state: P_alpha and Q_beta
    # commute for a CSS code, so conjugate value x lives only on T = beta_of[x]
    # and T joins the rest that Bob's (B, shield) decoder never reads; so does
    # R = alpha_of[a], whose rows r are vh[:, class r] t1[class r]
    vh = tab.v.conj().T
    conj_t1 = np.stack([np.tensordot(vh[:, rows], t1[rows], axes=(1, 0))
                        for rows in tab.alpha_classes.values()], axis=-1)
    p_tilde_prime_e = _guess_error(conj_t1.reshape(dd, dd * s_dim, -1), conj_decoders,
                                   tab.beta_classes, tab.mu_of)[0]

    # incoherent hypothesis errors at string level
    eps_z = _guess_error(amps.reshape(dd, dd, -1), key_decoders, tab.alpha_classes,
                         np.arange(dd))[0]
    eps_x = _guess_error(np.tensordot(vh, amps, axes=(1, 0)).reshape(dd, dd * s_dim, e_dim),
                         conj_decoders, tab.beta_classes, np.arange(dd))[0]

    if not p_prime_e <= eps_z + 1e-9:
        raise InvariantViolation(
            f"logical key error {p_prime_e:.6e} exceeds the string-level "
            f"hypothesis error {eps_z:.6e}")

    # with Eve on (E, R), rho_ER and every B_jj are block diagonal over r, so
    # the distance sums the slices Az = R = r, with E as their environment
    eps_direct = _direct_distance([_block_frame(
        enc[:, r].transpose(0, 6, 1, 2, 3, 5, 7, 4).reshape(k_dim, k_dim + 1, -1, e_dim),
        source=amps[rows].reshape(-1, e_dim))
        for r, rows in enumerate(tab.alpha_classes.values())])

    report = _certified_report(p_prime_e, p_tilde_prime_e, eps_direct, SOUNDNESS_ATOL,
                               "css_one_shot")
    transcript = {"n": n, "d": d, "k": code.k, "eps_z": eps_z, "eps_x": eps_x,
                  "p_prime_e": p_prime_e, "p_tilde_prime_e": p_tilde_prime_e,
                  "eps_certified": report.eps_certified, "eps_direct": eps_direct}
    return DistillationOutcome(key_dims=(k_dim, k_dim + 1), report=report,
                               transcript=transcript, _encoded=enc)


# ---------------------------------------------------------------------------
# coherent hashing simulation


@dataclass(frozen=True)
class HashingSimResult:
    """Tracked intermediates of the coherent hashing protocol.

    td_* are trace distances between the actual chain state and its ideal
    counterpart, each with the proved bound_*; encoded_fidelity is the
    fidelity of the final logical (A, D) pair with the maximally entangled
    state, ideal_encoded_fidelity the same for the ideal branch.  Every
    distance must hold its bound up to ``BOUND_ATOL``.
    """

    n: int
    key_dim: int
    eps_z: float
    eps_x: float
    overlap_psi2: float
    td_psi2: float
    bound_psi2: float
    td_psi3: float
    bound_psi3: float
    td_psi4: float
    bound_psi4: float
    encoded_fidelity: float
    ideal_encoded_fidelity: float

    def __post_init__(self):
        for step in ("psi2", "psi3", "psi4"):
            td, bound = getattr(self, f"td_{step}"), getattr(self, f"bound_{step}")
            if not td <= bound + BOUND_ATOL:
                raise InvariantViolation(f"td_{step} = {td!r} exceeds its bound {bound!r}")


def coherent_hashing_sim(state, n: int, code: CssCode) -> HashingSimResult:
    """Coherently run hashing on n copies and audit the correctness chain.

    The input is a single-copy state on (A, B) (purified onto E if mixed).
    Bob first decodes Alice's standard string into C conditioned on the
    standard syndromes, then her conjugate string into D conditioned on the
    conjugate syndromes, then removes the back action with a phase
    decoupler on (C, D).  Each step is compared against the ideal branch
    where C is a perfect copy of A.  psi3 decodes that copy, whose rows are
    products of coefficients and the input's, so its decoder acts on the
    input once per value of C, not once per syndrome and value of A.
    """
    t, shield = _key_amplitudes(state)
    if shield:
        raise ValueError(f"hashing takes plain (A, B) states, got extra {sorted(shield)}")
    d = code.d
    if t.shape[:2] != (d, d):
        raise ValueError("single-copy registers must have dimension d")
    if code.n != n:
        raise ValueError("code length must match the number of copies")

    dd = d ** n
    k_dim, t_dim, c_dim = d ** code.k, d ** code.m_x, dd + 1
    # every step acts trivially on E and every figure is a sum over E, so the chain
    # runs on chunks of E columns, budgeted (before the n copies are built) as whole
    # (T, C, D, B, A, E) chain states although only one (D, B, A, E) slice is built
    step = AMPLITUDE_CAP // _budget((dd, dd, t_dim, c_dim, c_dim),
                                    "hashing chain per environment column")
    amps = _grouped_power(t[:, :, 0], n)
    e_dim = amps.shape[2]

    tab = code._tables
    v, vc = tab.v, tab.v.conj()

    key_decoders = _class_pgms(amps, tab.alpha_classes)
    pair, eps_x = _copied_conj_classes(amps, tab)
    eps_z = key_decoders.average_error

    # Bob's conjugate outcome x lands in D as the ket conj(v[:, x]); the fail
    # outcome and the untouched C-fail block go to the D fail slot.  The phase
    # decoupler on (C, D) multiplies ket x by phases[1][c, x] given C = c < dd
    phases = np.ones((2, dd, dd), dtype=np.complex128)
    phases[1] = np.exp(2j * np.pi * ((tab.strings @ tab.strings.T) % d) / d)

    # Element x of every class decoder is delta_x rep delta_x^dag (``_CopiedClasses``),
    # and so is its root, so one root decodes every member of every class: Y[c', c] =
    # root[c', c] rows[c] on the (C' B', C B) blocks of the root, and D gets sum_c
    # F[c', d, c] Y[c', c] with F[c', d, c] = sum_x ket_x[d] phase[c', x] delta_x[c']
    # conj(delta_x[c]).  The fail element of a class, delta_x0 fail delta_x0^dag, is a
    # projector and so its own root.  (C', C, B', B): the blocks of the root
    root = np.ascontiguousarray(pair.root.reshape(dd, dd, dd, dd).transpose(0, 2, 1, 3))
    plans = []
    for xs in tab.beta_classes.values():
        delta = math.sqrt(dd) * vc[:, xs]
        # (phase, C', D, C), zero on the D fail slot; the fail rows as (C', B', C B)
        fs = np.einsum("dx,pax,ax,cx->padc", vc[:, xs], phases[:, :, xs], delta, delta.conj())
        plans.append((np.pad(fs, ((0, 0), (0, 0), (0, 1), (0, 0))), None if pair.fail is None
                      else _blockwise(pair.fail, np.outer(delta[:, 0], delta[:, 0].conj()))
                      .reshape(dd, dd, dd * dd)))

    # the ideal branches, C a perfect copy of A taken before the syndromes are
    # read from A alone, are coef[..., a, ...] chunk[c, b, e]: the copy, then
    # Alice's conjugate string in D as a conjugated ket (before and after the
    # decoupler) while (C, B, E) keep the exact conditional states
    mask = tab.beta_of == np.arange(t_dim)[:, None]
    coefs = [np.einsum("tx,ax,cx->atc", mask, v, vc)] + [
        np.einsum("tx,ax,cx,dx,cx->tcda", mask, v, vc, vc, ph) for ph in phases]

    def decoded_sums(tin: np.ndarray, chunk: np.ndarray, got: np.ndarray,
                     want: np.ndarray) -> np.ndarray:
        """The _gram sums of psi4, then the logical weights of both branches: the
        conjugate string decoded from (C, B) of tin (A, B, E, T, C) into D and
        decoupled, one (D, B, A, E) slice T = beta, C = c' at a time in got, from
        tin[..., beta, :] alone, against coefs[2][beta, c', d, a] chunk[c', b, e] in
        want, whose D fail slot is zero.
        """
        y = np.empty((dd, dd, dd * chunk.shape[2]), dtype=np.complex128)
        sums = np.zeros(6, dtype=np.complex128)
        for beta, (fs, fail) in enumerate(plans):
            rows = tin[..., beta, :dd].transpose(3, 1, 0, 2).reshape(dd, dd, -1)  # (C, B, A E)
            for c in range(dd):
                np.matmul(root[c], rows, out=y)
                np.matmul(fs[1, c], y.reshape(dd, -1), out=got.reshape(c_dim, -1))
                if fail is not None:
                    np.matmul(fail[c], rows.reshape(dd * dd, -1), out=got[dd].reshape(dd, -1))
                np.multiply(coefs[2][beta, c][:, None, :, None], chunk[c][None, :, None],
                            out=want[:dd])
                sums[:4] += _gram(got, want)
                sums[4:] += [_logical_weight(x.transpose(2, 1, 3, 0), tab, k_dim)
                             for x in (got, want)]
        # the C fail slot holds tin[..., dd] on the D fail slot alone, and the ideal
        # branch none: it adds to <a|a> and ||a - b||^2 only
        sums[[0, 3]] += np.vdot(tin[..., dd], tin[..., dd])
        return sums

    def chunk_sums(chunk: np.ndarray) -> np.ndarray:
        """The _gram sums of psi2, psi3, psi4 and the two logical weights of psi4."""
        # the standard string decoded into C, against the ideal copy coef[a, t, c]
        # chunk[c, b, e] as (A, B, E, T, C), zero on the C fail slot
        t2 = _key_decode(_extract(chunk, tab), key_decoders.decoders, tab)
        t2p = np.zeros(chunk.shape + (t_dim, c_dim), dtype=np.complex128)
        np.multiply(coefs[0][:, None, None], chunk.transpose(1, 2, 0)[None, :, :, None],
                    out=t2p[..., :dd])
        sums = np.concatenate([_gram(t2, t2p), np.zeros(4, dtype=np.complex128)])
        del t2p
        # psi3 decodes the ideal copy, whose rows are coef[a, beta, c] chunk[c, b, e]: the
        # root of C = c' and each class's fail block act on the chunk as (C, B', E), and
        # slice T = beta, C = c' is one product with fs[0, c'][d, c] coef[a, beta, c] as
        # (D, A, B', E), against coefs[1][beta, c'] times chunk[c']; no C fail slot
        got = np.empty((c_dim, dd, dd, chunk.shape[2]), dtype=np.complex128)
        want = np.zeros_like(got)  # zero on the D fail slot
        for c in range(dd):
            y = root[c] @ chunk
            for beta, (fs, fail) in enumerate(plans):
                h = (fs[0, c][:, None] * coefs[0][:, beta]).reshape(-1, dd)
                np.matmul(h, y.reshape(dd, -1), out=got.reshape(c_dim * dd, -1))
                if fail is not None:
                    failed = fail[c].reshape(dd, dd, dd).swapaxes(0, 1) @ chunk
                    np.matmul(coefs[0][:, beta], failed.reshape(dd, -1),
                              out=got[dd].reshape(dd, -1))
                np.multiply(coefs[1][beta, c][:, :, None, None], chunk[c], out=want[:dd])
                sums[4:] += _gram(got, want)
        return np.concatenate([sums, decoded_sums(t2, chunk, got, want)])

    sums = sum(chunk_sums(amps[:, :, lo:lo + step]) for lo in range(0, e_dim, step))
    g2, g3, g4 = sums[0:4], sums[4:8], sums[8:12]
    for nrm, name in zip(np.sqrt(g2[:2].real), ("key decode", "ideal copy")):
        if not abs(nrm - 1.0) <= 1e-10:
            raise InvariantViolation(f"{name} broke normalisation ({float(nrm)!r})")
    # encoded logical fidelities with the maximally entangled state on (A, D)
    fid = np.sqrt(np.clip(sums[12:].real / k_dim, 0.0, 1.0))
    b_z, b_x = 2.0 * math.sqrt(2.0 * eps_z), 2.0 * math.sqrt(2.0 * eps_x)
    return HashingSimResult(n=n, key_dim=k_dim, eps_z=eps_z, eps_x=eps_x,
                            overlap_psi2=float(g2[2].real), td_psi2=_chain_distance(g2),
                            bound_psi2=b_z, td_psi3=_chain_distance(g3), bound_psi3=b_x,
                            td_psi4=_chain_distance(g4), bound_psi4=b_z + b_x,
                            encoded_fidelity=float(fid[0]), ideal_encoded_fidelity=float(fid[1]))


def tensor_power_grouped(psi: StateVector, n: int) -> StateVector:
    """n-fold tensor power with same-label copies merged into one register.

    Each merged register is indexed big-endian in the copy number, so the
    flat value of n key registers of dimension d is the index of the string
    (value of copy 1, ..., value of copy n) in lexicographic order.
    """
    if n < 1:
        raise ValueError("need at least one copy")
    out = _grouped_power(psi.amplitudes.reshape(psi.space.dims), n)
    return StateVector(HilbertSpace(out.shape, psi.space.labels), out.reshape(-1))


def _grouped_power(arr: np.ndarray, n: int) -> np.ndarray:
    """The n-fold tensor power of an array with the copies of each axis merged."""
    _budget([dim ** n for dim in arr.shape], "tensor power")
    out = arr
    for _ in range(n - 1):
        out = np.multiply.outer(out, arr)
    perm = [c * arr.ndim + l for l in range(arr.ndim) for c in range(n)]
    return out.transpose(perm).reshape(tuple(dim ** n for dim in arr.shape))


# ---------------------------------------------------------------------------
# two-qubit shielded scenario


@dataclass(frozen=True, eq=False)
class TwoCopyResult:
    """Two-copy scenario outcome: decoders (the key ones built when read) and errors."""

    stabilizer: str
    adaptive: bool
    overlap: float
    error_prob: float
    analytic_error: float
    state: StateVector
    code: CssCode
    conj_decoders: Mapping

    @cached_property
    def key_decoders(self) -> Mapping:
        rows = self.state.amplitudes.reshape(4, 4, -1)
        return _class_pgms(rows, self.code._tables.alpha_classes).decoders


def shielded_bit_state(phi0: np.ndarray, phi1: np.ndarray) -> StateVector:
    """Key bit with a phase-error flag held by Eve and a shield seen by Bob.

    The state is (|00> + |11>)|phi0>|0> / 2 + (|00> - |11>)|phi1>|1> / 2 on
    registers (A, B, S, E); the shield overlap <phi0|phi1> controls how much
    of Eve's flag leaks into the key phase.
    """
    phi0, phi1 = (np.asarray(phi, dtype=np.complex128).reshape(-1) for phi in (phi0, phi1))
    if phi0.shape != phi1.shape:
        raise ValueError("shield states must share a dimension")
    for vec in (phi0, phi1):
        if not abs(np.linalg.norm(vec) - 1.0) <= 1e-9:
            raise ValueError("shield states must be normalised")
    sh = phi0.shape[0]
    amps = np.zeros((2, 2, sh, 2), dtype=np.complex128)
    for a in range(2):
        amps[a, a, :, 0] = 0.5 * phi0
        amps[a, a, :, 1] = 0.5 * (-1.0) ** a * phi1
    space = HilbertSpace((2, 2, sh, 2), ("A", "B", "S", "E"))
    return StateVector(space, amps.reshape(-1))


# the one X stabilizer of each two-copy code; none has a z stabilizer
_TWO_COPY_MX = {"XX": [1, 1], "XI": [1, 0], "IX": [0, 1]}
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


@cache  # a CssCode is immutable, and there are three of them
def _two_copy_code(stabilizer: str) -> CssCode:
    if stabilizer not in _TWO_COPY_MX:
        raise ValueError(f"unknown stabilizer {stabilizer!r} (use XX, XI or IX)")
    return CssCode.from_stabilizers(2, [], [_TWO_COPY_MX[stabilizer]], n=2)


def _two_copy_conj_decoders(phis: list[np.ndarray], code: CssCode, adaptive: bool) -> Mapping:
    """Pair-test conjugate decoders on (B1 B2, S1 S2), from one batched eigh.

    Every decoder is block diagonal over Bob's conjugate-basis pair (b0, b1),
    given which the shields of the string (x0, x1) are phi_{x0 ^ b0}
    phi_{x1 ^ b1}.  The adaptive (XX) decoder of class beta tells its two
    candidate strings (0, beta) and (1, 1 - beta) apart by the pair test of
    their shield products.  Otherwise one decoder serves both classes: the
    pair test of phi_b against phi_{1 ^ b} on the shield of the copy that
    carries the logical X, with b that copy's conjugate value, widened by the
    identity on the other shield.
    """
    sh, phi = phis[0].size, np.stack(phis)
    if adaptive:
        beta, b0, b1, c = np.indices((2, 2, 2, 2))
        kets = (phi[c ^ b0][..., :, None] * phi[beta ^ c ^ b1][..., None, :]).reshape(*c.shape, -1)
        labels = [(0, 3), (1, 2)]
    else:
        copy = int(np.nonzero(code.logical_x.entries[0])[0][0])
        b, x = np.indices((2, 2))
        kets = phi[x ^ b]
        # guess 0 or 1 on the logical copy, 0 on the other: strings 0 and 2^(1 - copy)
        labels = [(0, 2 ** (1 - copy))]
    outer = kets[..., :, None] * kets.conj()[..., None, :]
    proj = _helstrom_projectors(*np.linalg.eigh(0.5 * outer[..., 0, :, :]
                                                - 0.5 * outer[..., 1, :, :]))
    if not adaptive:
        # sector (b0, b1) runs the test of sector b_copy, widened by 1 on the other shield
        eye = np.eye(sh)[None, None]
        proj = (np.kron(proj, eye) if copy == 0 else np.kron(eye, proj))[np.indices((2, 2))[copy]]
    # place each sector's projectors on Bob's Hadamard pair |h_b0 h_b1>
    hh, m = np.kron(_HADAMARD, _HADAMARD), sh * sh
    elements = np.einsum("Xb,Yb,kbost->koXsYt", hh, hh,
                         proj.reshape(-1, 4, 2, m, m)).reshape(-1, 2, 4 * m, 4 * m)
    povms = [Povm(els, labs) for els, labs in zip(elements, labels)]
    return {(0,): povms[0], (1,): povms[-1]}


def two_copy_scenario(phi0: np.ndarray, phi1: np.ndarray,
                      stabilizer: str = "XX", adaptive: bool = True) -> TwoCopyResult:
    """Distil one key bit from two copies of the shielded-bit state.

    With the XX stabilizer the adaptive conjugate decoder reaches the
    two-copy pair-test error (1 - sqrt(1 - s^4)) / 2 in the shield overlap
    s, while any decoder reading a single copy is stuck at
    (1 - sqrt(1 - s^2)) / 2; XI and IX can only use one copy.
    """
    sh = np.asarray(phi0).size
    _budget((4 * sh * sh,) * 2, "two-copy decoders on (B1, B2, S1, S2)")
    code = _two_copy_code(stabilizer)
    state = tensor_power_grouped(shielded_bit_state(phi0, phi1), 2)
    phis = [np.asarray(phi, dtype=np.complex128).reshape(-1) for phi in (phi0, phi1)]
    s_ov = abs(complex(np.vdot(*phis)))
    both_copies = stabilizer == "XX" and adaptive
    conj_decoders = _two_copy_conj_decoders(phis, code, both_copies)
    analytic = 0.5 * (1.0 - math.sqrt(max(1.0 - s_ov ** (4 if both_copies else 2), 0.0)))
    tab = code._tables

    # class-level conjugate guess error, end to end, on (B, S) of the (A, B, S, E) state
    rows = np.tensordot(tab.v.conj().T, state.amplitudes.reshape(4, 4 * sh * sh, -1),
                        axes=(1, 0))
    error = _guess_error(rows, conj_decoders, tab.beta_classes, tab.mu_of)[0]
    return TwoCopyResult(stabilizer=stabilizer, adaptive=bool(adaptive),
                      overlap=s_ov, error_prob=error, analytic_error=analytic,
                      state=state, code=code, conj_decoders=conj_decoders)
