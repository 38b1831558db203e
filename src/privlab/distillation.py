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
once here from four helpers: ``_code_tables`` (class values and encode maps
of a code), ``_extract`` (coherent extraction of the syndromes),
``_key_decode`` (Bob's per-alpha guess of the key string) and ``_encode``
(strings and guesses onto logical, syndrome and destabiliser coordinates).
Every decoder error (eps_z, eps_x, p~'_e and the two-copy error) is scored
by one more, ``_guess_error``, straight from pure-state amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Mapping

import numpy as np

from .css_codes import CssCode, GfMatrix, all_strings
from .discrimination import HswDecoderResult, _class_pgms, helstrom_pair
from .info_measures import _entropy_of_rows, shannon_entropy
from .privacy import PrivacyReport, _block_frame, _direct_distance
from .qudit_ops import ConjugateBasis, Povm
from .tensor_core import (AMPLITUDE_CAP, DensityOperator, HilbertSpace,
                          InvariantViolation, StateVector, _budget, purify)

_RESERVED = {"A", "B", "C", "E", "R", "T", "Az", "Ag", "Bq", "Bg", "Sq", "D"}
_GRAM_BLOCK = 2 ** 14  # amplitudes per block of a chain distance: the difference stays in cache


def _canonical_pure(state) -> StateVector:
    """Pure state with axis order (A, B, shield..., E?); mixed inputs are purified."""
    if isinstance(state, DensityOperator):
        if "E" in state.space.labels:
            raise ValueError("mixed states must not carry an E register; "
                             "the purifier owns that name")
        psi = purify(state, "E")
    elif isinstance(state, StateVector):
        psi = state
    else:
        raise TypeError("expected a StateVector or DensityOperator")
    labels = psi.space.labels
    for need in ("A", "B"):
        if need not in labels:
            raise ValueError(f"state must carry register {need!r}")
    shield = tuple(x for x in labels if x not in ("A", "B", "E"))
    order = ("A", "B") + shield + (("E",) if "E" in labels else ())
    return psi.permuted(order)


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


def _flat_classes(strings: np.ndarray, rows: GfMatrix) -> np.ndarray:
    """Flat class value of each string under the GF(d) map ``rows``."""
    d = rows.d
    if rows.rows == 0:
        return np.zeros(len(strings), dtype=np.int64)
    vals = (strings @ rows.entries.T) % d
    powers = d ** np.arange(rows.rows - 1, -1, -1)
    return vals @ powers


# ---------------------------------------------------------------------------
# the CSS circuit shared by one-shot distillation and the hashing chain


@dataclass(frozen=True)
class _CodeTables:
    """Flat class values of every string under one code, and its encode maps.

    ``alpha_classes``/``beta_classes`` map each syndrome value to its member
    strings; ``zperm`` sends a string to its flat (logical, z-syndrome,
    destabiliser) coordinate, ``cperm`` does the same for a guess register
    and sends its fail slot to the first value past the strings.
    """

    alpha_of: np.ndarray
    beta_of: np.ndarray
    lam_of: np.ndarray
    mu_of: np.ndarray
    alpha_classes: dict
    beta_classes: dict
    v: np.ndarray
    zperm: np.ndarray
    cperm: np.ndarray


def _code_tables(code: CssCode) -> _CodeTables:
    d, n = code.d, code.n
    strings = all_strings(d, n)
    alpha_of, beta_of = _flat_classes(strings, code.mz), _flat_classes(strings, code.mx)
    lam_of = _flat_classes(strings, code.logical_z)
    g_of = _flat_classes(strings, code.destabilizer_z())
    # k + m_z + m_x = n, so the coordinates (lam, alpha, g) index all d^n values
    zperm = (lam_of * d ** code.m_z + alpha_of) * d ** code.m_x + g_of
    return _CodeTables(
        alpha_of=alpha_of, beta_of=beta_of,
        lam_of=lam_of, mu_of=_flat_classes(strings, code.logical_x),
        alpha_classes={tuple(int(x) for x in a): np.flatnonzero(alpha_of == c)
                       for c, a in enumerate(all_strings(d, code.m_z))},
        beta_classes={tuple(int(x) for x in b): np.flatnonzero(beta_of == c)
                      for c, b in enumerate(all_strings(d, code.m_x))},
        # column x of v is the n-qudit Fourier conjugate-basis vector |x~>
        v=reduce(np.kron, [ConjugateBasis.fourier(d).vectors] * n),
        zperm=zperm, cperm=np.append(zperm, d ** n))


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


def _guess_slots(dec: Povm, fail: int) -> np.ndarray:
    """Guessed string of each outcome of a class decoder; "fail" goes to ``fail``."""
    labels = np.array(dec.outcome_labels, dtype=object)
    return np.where(labels == "fail", fail, labels).astype(np.int64)


def _key_decode(t1: np.ndarray, key_decoders: Mapping, tab: _CodeTables) -> np.ndarray:
    """Decode Bob's guess of the key string from B (axis 1) into a new last axis.

    The rows of A in alpha class ``key`` are decoded by ``key_decoders[key]``
    alone; the guess register has one slot per string plus the fail slot.
    """
    dd = t1.shape[0]
    t2 = np.zeros(t1.shape + (dd + 1,), dtype=np.complex128)
    for key, rows in tab.alpha_classes.items():
        dec: Povm = key_decoders[key]
        if dec.dim != dd:
            raise ValueError("key decoders must act on B alone")
        # roots as (outcome, B', B); the outcome axis lands on the guess slots
        applied = np.tensordot(np.stack(dec.sqrt_elements()), t1[rows], axes=(2, 1))
        t2[rows[:, None], ..., _guess_slots(dec, dd)] = np.moveaxis(applied, 2, 0)
    return t2


def _encode(arr: np.ndarray, tab: _CodeTables) -> np.ndarray:
    """Map A (axis 0) by ``zperm`` and the guess register (last axis) by ``cperm``.

    The guess axis grows to (k_dim + 1) * r_dim * t_dim values, so it splits
    into a logical part with a fail value and an auxiliary part.
    """
    dd = arr.shape[0]
    out = np.zeros_like(arr)
    out[tab.zperm] = arr
    enc = np.zeros(arr.shape[:-1] + (dd + len(tab.alpha_classes) * len(tab.beta_classes),),
                   dtype=np.complex128)
    enc[..., tab.cperm] = out
    return enc


def _logical_weight(arr: np.ndarray, tab: _CodeTables, k_dim: int) -> float:
    """k_dim F^2 for the fidelity F of the encoded logical (A, last axis) pair
    with the Bell state, as a sum over every other axis.

    Reads the amplitudes of ``_encode(arr, tab)`` with equal logical values
    on A and on the guess register through the inverse of ``zperm``, so the
    encoded array is never built; the fail slot carries no logical value.
    """
    of = np.argsort(tab.zperm).reshape(k_dim, -1)
    acc = sum(arr[rows[:, None], ..., rows] for rows in of)
    return float(np.vdot(acc, acc).real)


def _gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(<a|a>, <b|b>, <a|b>, ||a - b||^2): the sums a chain distance reads, over any chunk.

    Read in blocks of ``_GRAM_BLOCK`` amplitudes, so a - b never takes a
    full-size array (at n=3 a chain state is 5 MB).
    """
    a, b = a.reshape(-1), b.reshape(-1)
    sums = np.zeros(4, dtype=np.complex128)
    diff = np.empty(min(a.size, _GRAM_BLOCK), dtype=np.complex128)
    for lo in range(0, a.size, _GRAM_BLOCK):
        x, y = a[lo:lo + _GRAM_BLOCK], b[lo:lo + _GRAM_BLOCK]
        d = np.subtract(x, y, out=diff[:x.size])
        sums += (np.vdot(x, x), np.vdot(y, y), np.vdot(x, y), np.vdot(d, d))
    return sums


def _chain_distance(gram: np.ndarray) -> float:
    """Unnormalised Tr|a - b| of two unit chain states from their ``_gram`` sums.

    1 - |<a|b>|^2 / (na nb)^2 = D (1 - D/4) - y^2, with D = 2 - 2 Re<a|b> /
    (na nb) read from ||a - b||^2 and y = Im<a|b> / (na nb), so equal states
    give 0 instead of the square root of rounding.
    """
    na, nb = math.sqrt(gram[0].real), math.sqrt(gram[1].real)
    for nrm in (na, nb):
        if not abs(nrm - 1.0) <= 1e-9:
            raise InvariantViolation(f"chain state norm {nrm!r} is not 1")
    dist = (gram[3].real - (na - nb) ** 2) / (na * nb)
    y = complex(gram[2]).imag / (na * nb)
    return 2.0 * math.sqrt(max(0.0, dist * (1.0 - dist / 4.0) - y * y))


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


def _guess_error(rows: np.ndarray, decoders: Mapping, classes: Mapping,
                 value_of: np.ndarray) -> float:
    """1 - sum_x sum_y Tr[Lambda_y w_x w_x^dag] over the rows w_x of a pure state.

    ``rows`` is shaped (x, Bob, rest) with A already in the measured basis,
    so Tr_rest w_x w_x^dag is p_x phi_x on Bob.  Each member x of
    ``classes[key]`` is decoded by ``decoders[key]`` and y runs over its
    guesses with ``value_of[y] == value_of[x]`` (never "fail").
    """
    bob = rows.shape[1]
    _budget((rows.shape[0], bob, bob), "decoder scoring blocks")
    value_fail = np.append(value_of, -1)
    succ = 0.0
    for key, members in classes.items():
        dec: Povm = decoders[key]
        if dec.dim != bob:
            raise ValueError(f"decoders must act on (B, shield), dimension {bob}")
        w = rows[members]
        blocks = w @ w.conj().swapaxes(1, 2)
        hits = np.einsum("yij,xji->xy", np.stack(dec.elements), blocks).real
        guessed = value_fail[_guess_slots(dec, len(value_of))]
        succ += float(hits[value_of[members][:, None] == guessed[None, :]].sum())
    return float(min(max(1.0 - succ, 0.0), 1.0))


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
    psi = _canonical_pure(state)
    space = psi.space
    d, b = space.dim_of("A"), space.dim_of("B")
    if conj_basis is None:
        conj_basis = ConjugateBasis.fourier(d)
    if conj_basis.d != d:
        raise ValueError("conjugate basis dimension does not match register A")
    _budget((d, space.dim), "rate amplitude rows")
    e = space.dim_of("E") if "E" in space.labels else 1
    t = psi.amplitudes.reshape(d, b, -1, e)
    s = t.shape[2]

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


@dataclass(frozen=True)
class CssDecoders:
    """Per-syndrome decoders plus their incoherent error bookkeeping."""

    key_decoders: Mapping
    conj_decoders: Mapping
    z_result: HswDecoderResult
    x_result: HswDecoderResult
    z_labels: tuple[str, ...]
    x_labels: tuple[str, ...]


def build_css_decoders(state, code: CssCode, *, x_on_copy: bool = False) -> CssDecoders:
    """Class decoders for a state and code: one POVM per syndrome value.

    Key decoders act on B and guess Alice's standard-basis string within
    the alpha class; conjugate decoders act on (B, shield), or on (C, B)
    with ``x_on_copy`` (C being a coherent copy of A), and guess her
    conjugate-basis string within the beta class.  Each decoder is the PGM
    of its class from one factorisation of the members' amplitude rows, read
    off t[a, b, s, e] of the pure state: t[x] as (B, S E) for the key
    strings, (v^dag t)[x] as (B S, E) or conj(v[:, x]) (.) t as (C B, S E)
    for the conjugate ones.  A class of zero weight gets {fail: 1}.
    """
    psi = _canonical_pure(state)
    space = psi.space
    d, n = code.d, code.n
    dd = d ** n
    if space.dim_of("A") != dd or space.dim_of("B") != dd:
        raise ValueError("key registers must have dimension d^n")
    tab = _code_tables(code)
    t = psi.amplitudes.reshape(dd, dd, -1)
    z_result = _class_pgms(t, tab.alpha_classes)
    if x_on_copy:
        _budget((dd, space.dim), "copied conjugate rows")
        x_labels = ("C", "B")
        rows = (tab.v.conj().T[:, :, None, None] * t).reshape(dd, dd * dd, -1)
    else:
        shield = tuple(x for x in space.labels if x not in ("A", "B", "E"))
        x_labels = ("B",) + shield
        e_dim = space.dim_of("E") if "E" in space.labels else 1
        rows = np.tensordot(tab.v.conj().T, t, axes=(1, 0)).reshape(dd, -1, e_dim)
    x_result = _class_pgms(rows, tab.beta_classes)
    return CssDecoders(key_decoders=z_result.decoders,
                       conj_decoders=x_result.decoders,
                       z_result=z_result, x_result=x_result,
                       z_labels=("B",), x_labels=x_labels)


# ---------------------------------------------------------------------------
# one-shot distillation


@dataclass(frozen=True)
class DistillationOutcome:
    """Certified one-shot result: final state, key sizes, privacy report."""

    final_state: StateVector
    key_dims: tuple[int, int]
    report: PrivacyReport
    transcript: Mapping


def one_shot_distill(state, code: CssCode, key_decoders: Mapping,
                     conj_decoders: Mapping) -> DistillationOutcome:
    """Run the coherent one-shot key distillation protocol.

    Alice extracts both syndromes coherently into public registers R and T,
    Bob decodes her string from B conditioned on alpha into a guess
    register; the certified security parameter is p'_e + sqrt(p~'_e) where
    p'_e is the logical key-test error of the protocol state and p~'_e the
    logical conjugate-test error of the stored pre-decode state.  The
    direct ccq distance of the encoded key (Eve holding E and R) is checked
    against the certificate.
    """
    psi = _canonical_pure(state)
    space = psi.space
    d, n = code.d, code.n
    dd = d ** n
    if space.dim_of("A") != dd or space.dim_of("B") != dd:
        raise ValueError(f"key registers must have dimension {dd}")
    shield = tuple(x for x in space.labels if x not in ("A", "B", "E"))
    bad = [x for x in shield if x in _RESERVED]
    if bad:
        raise ValueError(f"shield labels {bad} collide with protocol registers")
    has_e = "E" in space.labels
    s_dim = int(np.prod(space.dims_of(shield), dtype=np.int64)) if shield else 1
    e_dim = space.dim_of("E") if has_e else 1
    amps = psi.amplitudes.reshape(dd, dd, s_dim, e_dim)

    tab = _code_tables(code)
    k_dim = d ** code.k
    r_dim, t_dim = d ** code.m_z, d ** code.m_x
    for key in tab.alpha_classes:
        if key not in key_decoders:
            raise ValueError(f"missing key decoder for alpha {key}")
    for key in tab.beta_classes:
        if key not in conj_decoders:
            raise ValueError(f"missing conjugate decoder for beta {key}")

    # the encoded final state, the only array holding R, is the largest one
    c_dim = dd + 1
    _budget((dd, dd, s_dim, e_dim, r_dim, t_dim, c_dim), "key decoding")
    t1 = _extract(amps, tab)
    nrm = float(np.linalg.norm(t1))
    if not abs(nrm - 1.0) <= 1e-10:
        raise InvariantViolation(f"syndrome extraction broke normalisation ({nrm!r})")

    # coherent key decoding into the guess register
    t2 = _key_decode(t1, key_decoders, tab)
    nrm = float(np.linalg.norm(t2))
    if not abs(nrm - 1.0) <= 1e-10:
        raise InvariantViolation(f"key decoding broke normalisation ({nrm!r})")

    # logical key test on the protocol state
    w2 = (np.abs(t2) ** 2).reshape(dd, -1, c_dim).sum(axis=1)
    lam_c = np.concatenate([tab.lam_of, [-1]])
    succ = sum(float(w2[tab.lam_of == lam][:, lam_c == lam].sum()) for lam in range(k_dim))
    p_prime_e = float(min(max(1.0 - succ, 0.0), 1.0))

    # logical conjugate test on the stored pre-decode state: P_alpha and Q_beta
    # commute for a CSS code, so conjugate value x lives only on T = beta_of[x]
    # and T joins the rest that Bob's (B, shield) decoder never reads; so does
    # R = alpha_of[a], whose rows r are vh[:, class r] t1[class r]
    vh = tab.v.conj().T
    conj_t1 = np.stack([np.tensordot(vh[:, rows], t1[rows], axes=(1, 0))
                        for rows in tab.alpha_classes.values()], axis=-1)
    p_tilde_prime_e = _guess_error(conj_t1.reshape(dd, dd * s_dim, -1), conj_decoders,
                                   tab.beta_classes, tab.mu_of)
    eps_certified = p_prime_e + math.sqrt(p_tilde_prime_e)

    # incoherent hypothesis errors at string level
    eps_z = _guess_error(amps.reshape(dd, dd, -1), key_decoders, tab.alpha_classes,
                         np.arange(dd))
    eps_x = _guess_error(np.tensordot(vh, amps, axes=(1, 0)).reshape(dd, dd * s_dim, e_dim),
                         conj_decoders, tab.beta_classes, np.arange(dd))

    if not p_prime_e <= eps_z + 1e-9:
        raise InvariantViolation(
            f"logical key error {p_prime_e:.6e} exceeds the string-level "
            f"hypothesis error {eps_z:.6e}")

    # encode: A -> (logical, z-syndrome, destabiliser), guesses likewise, as
    # (A, Az, Ag, Bq, Sq, E, T, B, Bg); R, a copy of Az, goes in before T
    baux = dd // k_dim
    enc = _encode(t2, tab).reshape((k_dim, r_dim, t_dim) + t2.shape[1:-1]
                                   + (k_dim + 1, baux))
    # with Eve on (E, R), rho_ER and every B_jj are block diagonal over r, so
    # the distance sums the slices Az = R = r, with E as their environment
    eps_direct = _direct_distance([_block_frame(
        enc[:, r].transpose(0, 6, 1, 2, 3, 5, 7, 4).reshape(k_dim, k_dim + 1, -1, e_dim))
        for r in range(r_dim)])
    dims = ((k_dim, r_dim, t_dim, dd) + ((s_dim,) if shield else ())
            + ((e_dim,) if has_e else ()) + (r_dim, t_dim, k_dim + 1, baux))
    labels = (("A", "Az", "Ag", "Bq") + (("Sq",) if shield else ())
              + (("E",) if has_e else ()) + ("R", "T", "B", "Bg"))
    final = StateVector(HilbertSpace(dims, labels), np.einsum(
        "azgqseTbh,zr->azgqserTbh", enc, np.eye(r_dim)).reshape(-1))

    report = PrivacyReport(p_e=p_prime_e, p_tilde_e=p_tilde_prime_e,
                           eps_certified=eps_certified, eps_direct=eps_direct,
                           measurement_used="css_one_shot")
    transcript = {"n": n, "d": d, "k": code.k, "eps_z": eps_z, "eps_x": eps_x,
                  "p_prime_e": p_prime_e, "p_tilde_prime_e": p_tilde_prime_e,
                  "eps_certified": eps_certified, "eps_direct": eps_direct}
    return DistillationOutcome(final_state=final, key_dims=(k_dim, k_dim + 1),
                               report=report, transcript=transcript)


# ---------------------------------------------------------------------------
# coherent hashing simulation


@dataclass(frozen=True)
class HashingSimResult:
    """Tracked intermediates of the coherent hashing protocol.

    td_* are trace distances between the actual chain state and its ideal
    counterpart, each with the proved bound_*; encoded_fidelity is the
    fidelity of the final logical (A, D) pair with the maximally entangled
    state, ideal_encoded_fidelity the same for the ideal branch.
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


def coherent_hashing_sim(state, n: int, code: CssCode) -> HashingSimResult:
    """Coherently run hashing on n copies and audit the correctness chain.

    The input is a single-copy state on (A, B) (purified onto E if mixed).
    Bob first decodes Alice's standard string into C conditioned on the
    standard syndromes, then her conjugate string into D conditioned on the
    conjugate syndromes, then removes the back action with a phase
    decoupler on (C, D).  Each step is compared against the ideal branch
    where C is a perfect copy of A.
    """
    psi1 = _canonical_pure(state)
    extra = set(psi1.space.labels) - {"A", "B", "E"}
    if extra:
        raise ValueError(f"hashing takes plain (A, B) states, got extra {sorted(extra)}")
    d = code.d
    if psi1.space.dim_of("A") != d or psi1.space.dim_of("B") != d:
        raise ValueError("single-copy registers must have dimension d")
    if code.n != n:
        raise ValueError("code length must match the number of copies")

    psi = tensor_power_grouped(psi1, n)
    dd = d ** n
    e_dim = psi.space.dim_of("E") if "E" in psi.space.labels else 1
    amps = psi.amplitudes.reshape(dd, dd, e_dim)

    tab = _code_tables(code)
    v, vc = tab.v, tab.v.conj()
    k_dim, t_dim, c_dim = d ** code.k, d ** code.m_x, dd + 1
    # every step acts trivially on E and every figure is a sum over E, so the
    # chain runs on chunks of E columns; its largest arrays are (A, B, E, T, C, D)
    step = AMPLITUDE_CAP // _budget((dd, dd, t_dim, c_dim, c_dim),
                                    "hashing chain per environment column")

    decs = build_css_decoders(psi, code, x_on_copy=True)
    eps_z, eps_x = decs.z_result.average_error, decs.x_result.average_error

    # Bob's conjugate outcome x lands in D as the ket conj(v[:, x]) (column x
    # of ``kets``); the fail outcome and the untouched C-fail block go to the
    # D fail slot.  The phase decoupler on (C, D) multiplies ket x by
    # phases[1][c, x] given C = c < dd, so it folds into the kets
    kets = np.pad(vc, (0, 1))
    kets[dd, dd] = 1.0
    strings = all_strings(d, n)
    phases = np.ones((2, dd, c_dim), dtype=np.complex128)
    phases[1, :, :dd] = np.exp(2j * np.pi * ((strings @ strings.T) % d) / d)

    def conj_decode(tin: np.ndarray, phase: np.ndarray) -> np.ndarray:
        """Decode the conjugate string from (C, B) of tin (A, B, E, T, C) into D."""
        tout = np.zeros(tin.shape + (c_dim,), dtype=np.complex128)
        for beta, key in enumerate(tab.beta_classes):
            dec: Povm = decs.conj_decoders[key]
            sl = tin[..., beta, :]
            rows = sl[..., :dd].transpose(3, 1, 0, 2).reshape(dd * dd, -1)
            # one root on (C, B) at a time, as (C' B', C B): (outcome, C', B' A E),
            # never more amplitudes than one (A, B, E, T, C, D) chunk
            applied = np.empty((dec.n_outcomes, dd, dd * rows.shape[1]), dtype=np.complex128)
            for o, root in enumerate(dec.sqrt_elements()):
                np.matmul(root, rows, out=applied[o].reshape(dd * dd, -1))
            # (C', outcome, D) kets, then one product per value of C'
            ket_c = (kets[None] * phase[:, None, :])[:, :, _guess_slots(dec, dd)]
            decoded = np.matmul(applied.transpose(1, 2, 0), ket_c.transpose(0, 2, 1))
            tout[..., beta, :dd, :] = decoded.reshape((dd, dd) + sl.shape[:1] + sl.shape[2:-1]
                                                      + (c_dim,)).transpose(2, 1, 3, 0, 4)
            tout[..., beta, dd, dd] = sl[..., dd]
        return tout

    # the ideal branches, C a perfect copy of A taken before the syndromes are
    # read from A alone, are coef[a, t, c, ...] chunk[c, b, e]: the copy, then
    # Alice's conjugate string in D as a conjugated ket (before and after the
    # decoupler) while (C, B, E) keep the exact conditional states
    mask = tab.beta_of == np.arange(t_dim)[:, None]
    coefs = [np.einsum("tx,ax,cx->atc", mask, v, vc)] + [
        np.einsum("tx,ax,cx,dx,cx->atcd", mask, v, vc, vc, ph[:, :dd]) for ph in phases]

    def copied(chunk: np.ndarray, coef: np.ndarray) -> np.ndarray:
        """coef[a, t, c, ...] chunk[c, b, e] as (A, B, E, T, C, ...), zero on the fail slots."""
        extra = coef.ndim - 2
        out = np.zeros(chunk.shape + (t_dim,) + (c_dim,) * extra, dtype=np.complex128)
        rest = chunk.transpose(1, 2, 0).reshape((1,) + chunk.shape[1:] + (1, dd)
                                                + (1,) * (extra - 1))
        np.multiply(coef[:, None, None], rest, out=out[(...,) + (slice(dd),) * extra])
        return out

    def chunk_sums(chunk: np.ndarray) -> np.ndarray:
        """The _gram sums of psi2, psi3, psi4 and the two logical weights of psi4."""
        # the standard string decoded into C, against the ideal copy
        t2 = _key_decode(_extract(chunk, tab), decs.key_decoders, tab)
        t2p = copied(chunk, coefs[0])
        g2 = _gram(t2, t2p)
        # the conjugate string decoded into D, then both branches decoupled
        g3 = _gram(conj_decode(t2p, phases[0]), copied(chunk, coefs[1]))
        del t2p
        t4, t4pp = conj_decode(t2, phases[1]), copied(chunk, coefs[2])
        return np.concatenate([g2, g3, _gram(t4, t4pp), [_logical_weight(t4, tab, k_dim),
                                                         _logical_weight(t4pp, tab, k_dim)]])

    sums = sum(chunk_sums(amps[:, :, lo:lo + step]) for lo in range(0, e_dim, step))
    g2, g3, g4 = sums[0:4], sums[4:8], sums[8:12]
    for nrm, name in zip(np.sqrt(g2[:2].real), ("key decode", "ideal copy")):
        if not abs(nrm - 1.0) <= 1e-10:
            raise InvariantViolation(f"{name} broke normalisation ({float(nrm)!r})")
    # encoded logical fidelities with the maximally entangled state on (A, D)
    fid = np.sqrt(np.clip(sums[12:].real / k_dim, 0.0, 1.0))
    return HashingSimResult(n=n, key_dim=k_dim, eps_z=eps_z, eps_x=eps_x,
                            overlap_psi2=float(g2[2].real), td_psi2=_chain_distance(g2),
                            bound_psi2=2.0 * math.sqrt(2.0 * eps_z),
                            td_psi3=_chain_distance(g3),
                            bound_psi3=2.0 * math.sqrt(2.0 * eps_x),
                            td_psi4=_chain_distance(g4),
                            bound_psi4=2.0 * (math.sqrt(2.0 * eps_z) + math.sqrt(2.0 * eps_x)),
                            encoded_fidelity=float(fid[0]), ideal_encoded_fidelity=float(fid[1]))


def tensor_power_grouped(psi: StateVector, n: int) -> StateVector:
    """n-fold tensor power with same-label copies merged into one register.

    Each merged register is indexed big-endian in the copy number, so the
    flat value of n key registers of dimension d is the index of the string
    (value of copy 1, ..., value of copy n) in lexicographic order.
    """
    if n < 1:
        raise ValueError("need at least one copy")
    space = psi.space
    ll = len(space.labels)
    _budget([dim ** n for dim in space.dims], "tensor power")
    arr = psi.amplitudes.reshape(space.dims)
    out = arr
    for _ in range(n - 1):
        out = np.multiply.outer(out, arr)
    perm = [c * ll + l for l in range(ll) for c in range(n)]
    out = out.transpose(perm)
    dims = tuple(int(dim) ** n for dim in space.dims)
    return StateVector(HilbertSpace(dims, space.labels), out.reshape(-1))


# ---------------------------------------------------------------------------
# two-qubit shielded scenario


@dataclass(frozen=True)
class TwoCopyResult:
    """Two-copy scenario outcome: decoders, numeric and analytic errors."""

    stabilizer: str
    adaptive: bool
    overlap: float
    error_prob: float
    analytic_error: float
    state: StateVector
    code: CssCode
    key_decoders: Mapping
    conj_decoders: Mapping


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


# mx, logical_z and logical_x of each two-copy code; none has a z stabilizer
_TWO_COPY_ROWS = {"XX": ([1, 1], [1, 1], [1, 0]), "XI": ([1, 0], [0, 1], [0, 1]),
                  "IX": ([0, 1], [1, 0], [1, 0])}
_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def _two_copy_code(stabilizer: str) -> CssCode:
    if stabilizer not in _TWO_COPY_ROWS:
        raise ValueError(f"unknown stabilizer {stabilizer!r} (use XX, XI or IX)")
    mx, lz, lx = (GfMatrix(2, np.array([row], dtype=np.int64))
                  for row in _TWO_COPY_ROWS[stabilizer])
    return CssCode(mz=GfMatrix(2, np.zeros((0, 2), dtype=np.int64)), mx=mx,
                   logical_z=lz, logical_x=lx)


def _op_on_copy(op: np.ndarray, copy: int, sh: int) -> np.ndarray:
    """Embed an operator on one (B_j, S_j) pair into (B1 B2 S1 S2)."""
    pair = np.einsum("bsBS,ctCT->bcstBCST", op.reshape(2, sh, 2, sh),
                     np.eye(2 * sh).reshape(2, sh, 2, sh))
    if copy == 1:
        pair = pair.transpose(1, 0, 3, 2, 5, 4, 7, 6)
    return pair.reshape(4 * sh * sh, 4 * sh * sh)


def _adaptive_conj_decoders(phis: list[np.ndarray]) -> Mapping:
    """Optimal conjugate decoders for the XX stabilizer on two copies.

    Conditioned on Bob's conjugate-basis pair b, the two candidate shield
    products of a beta class are distinguished by their own pair test, so
    the class measurement splits over Bob's sectors.
    """
    dim = 4 * phis[0].size ** 2
    decoders = {}
    for beta in (0, 1):
        cands = [(0, beta), (1, 1 - beta)]
        els = [np.zeros((dim, dim), dtype=np.complex128) for _ in cands]
        for b0, b1 in np.ndindex(2, 2):
            pb = np.kron(np.outer(_HADAMARD[:, b0], _HADAMARD[:, b0]),
                         np.outer(_HADAMARD[:, b1], _HADAMARD[:, b1]))
            hs = [np.kron(phis[x0 ^ b0], phis[x1 ^ b1]) for x0, x1 in cands]
            pair, _ = helstrom_pair(np.outer(hs[0], hs[0].conj()),
                                    np.outer(hs[1], hs[1].conj()))
            for el, q in zip(els, pair.elements):
                el += np.kron(pb, q)
        decoders[(beta,)] = Povm(tuple(els), tuple(2 * x0 + x1 for x0, x1 in cands))
    return decoders


def _single_copy_conj_decoders(phis: list[np.ndarray], code: CssCode) -> Mapping:
    """Pair-test decoders reading only the copy that carries the logical X."""
    sh = phis[0].size
    copy = int(np.nonzero(code.logical_x.entries[0])[0][0])
    # given Bob's conjugate-basis value b of the logical copy, the shield is phi_{x ^ b}
    space = HilbertSpace((2 * sh,), ("W",))
    rhos = [DensityOperator(space, sum(0.5 * np.kron(np.outer(_HADAMARD[:, b], _HADAMARD[:, b]),
                                                     np.outer(phis[x ^ b], phis[x ^ b].conj()))
                                       for b in (0, 1))) for x in (0, 1)]
    pair, _ = helstrom_pair(*rhos)
    els = tuple(_op_on_copy(el, copy, sh) for el in pair.elements)
    # guess 0 or 1 on the logical copy, 0 on the other: strings 0 and 2^(1 - copy)
    povm = Povm(els, (0, 2 ** (1 - copy)))
    return {(0,): povm, (1,): povm}


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
    if stabilizer == "XX" and adaptive:
        conj_decoders = _adaptive_conj_decoders(phis)
        analytic = 0.5 * (1.0 - math.sqrt(max(1.0 - s_ov ** 4, 0.0)))
    else:
        conj_decoders = _single_copy_conj_decoders(phis, code)
        analytic = 0.5 * (1.0 - math.sqrt(max(1.0 - s_ov ** 2, 0.0)))
    tab = _code_tables(code)
    key_decoders = _class_pgms(state.amplitudes.reshape(4, 4, -1), tab.alpha_classes).decoders

    # class-level conjugate guess error, end to end, on (B, S) of the (A, B, S, E) state
    rows = np.tensordot(tab.v.conj().T, state.amplitudes.reshape(4, 4 * sh * sh, -1),
                        axes=(1, 0))
    error = _guess_error(rows, conj_decoders, tab.beta_classes, tab.mu_of)
    return TwoCopyResult(stabilizer=stabilizer, adaptive=bool(adaptive),
                      overlap=s_ov, error_prob=error, analytic_error=analytic,
                      state=state, code=code,
                      key_decoders=key_decoders, conj_decoders=conj_decoders)
