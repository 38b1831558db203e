"""Generalized Pauli algebra, conjugate bases, twisting, and measurements.

A qudit of prime dimension d carries the shift/phase pair

    Z = sum_k w^k |k><k|,   X = sum_k |k+1 mod d><k|,   w = exp(2 pi i / d),

so ZX = w XZ.  A conjugate basis collects d phase patterns theta[x, k] with
|x~> = d^{-1/2} sum_k exp(i theta[x, k]) |k>, orthonormal and unbiased with
respect to the standard basis.  The Fourier choice theta = 2 pi x k / d
diagonalises X with eigenvalue w^{-x}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .sampling import haar_unitary
from .tensor_core import (
    KIND_ATOL,
    PSD_ATOL,
    DensityOperator,
    HilbertSpace,
    InvariantViolation,
    LinearOperator,
    StateVector,
    _as_complex,
    _check_finite,
    _lock,
    _psd_root,
    apply_to_vector,
    reduce_blocks,
)

POVM_COMPLETENESS_ATOL = 1e-9
CONDITIONAL_CUTOFF = 1e-14  # outcomes at or below this probability carry no conditional state
_CHECK_BLOCK = 2 ** 16  # amplitudes per block of POVM elements checked at once


def generalized_paulis(d: int) -> tuple[LinearOperator, LinearOperator, complex]:
    """Return (Z, X, omega) on a single qudit of dimension d."""
    if d < 2:
        raise ValueError("qudit dimension must be at least 2")
    omega = np.exp(2j * np.pi / d)
    space = HilbertSpace((d,), ("Q",))
    z = np.diag(omega ** np.arange(d))
    x = np.zeros((d, d), dtype=np.complex128)
    for k in range(d):
        x[(k + 1) % d, k] = 1.0
    return (LinearOperator(space, z, "unitary"),
            LinearOperator(space, x, "unitary"),
            complex(omega))


@dataclass(frozen=True, eq=False)
class ConjugateBasis:
    """Phase table defining a basis conjugate to the standard one."""

    d: int
    theta: np.ndarray  # shape (d, d); theta[x, k]

    def __post_init__(self):
        th = np.array(self.theta, dtype=float)
        if th.shape != (self.d, self.d):
            raise ValueError(f"theta must be {self.d}x{self.d}")
        object.__setattr__(self, "theta", th)
        v = self.vectors
        gram = v.conj().T @ v
        dev = float(np.max(np.abs(gram - np.eye(self.d))))
        if not dev <= 1e-10:
            raise ValueError(f"phase table is not orthonormal (deviation {dev:g})")
        th.flags.writeable = False

    @classmethod
    @lru_cache(maxsize=8)  # each entry holds 2 d^3 amplitudes: its POVM and its conjugate's
    def fourier(cls, d: int) -> "ConjugateBasis":
        x, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
        return cls(d, 2.0 * np.pi * x * k / d)

    @property
    def vectors(self) -> np.ndarray:
        """Matrix whose column x is |x~> in the standard basis."""
        return np.exp(1j * self.theta.T) / np.sqrt(self.d)

    def conjugated(self) -> "ConjugateBasis":
        """Entrywise complex conjugate basis (negated phases), built once per basis."""
        return self._conjugated

    @cached_property
    def _conjugated(self) -> "ConjugateBasis":
        return ConjugateBasis(self.d, -self.theta)

    def projector(self, x: int) -> np.ndarray:
        v = self.vectors[:, x]
        return np.outer(v, v.conj())

    def povm(self) -> "Povm":
        return self._povm

    @cached_property
    def _povm(self) -> "Povm":
        return Povm.projective_from_columns(self.vectors)


def _projective_elements(columns: np.ndarray) -> np.ndarray:
    """Elements |c_x><c_x| of the columns c_x of ``columns`` (..., m, n), stacked (..., n, m, m)."""
    cols = np.swapaxes(columns, -1, -2)
    return cols[..., :, None] * cols.conj()[..., None, :]


def _check_povms(stack: np.ndarray) -> None:
    """Raise unless each POVM of ``stack`` (..., n, m, m), its n elements along
    axis -3, is finite, hermitian, positive and complete."""
    if not np.all(np.isfinite(stack)):
        raise ValueError("POVM elements must be finite")
    dim = stack.shape[-1]
    flat = stack.reshape(-1, dim, dim)
    # hermiticity and positivity in blocks of elements, so the adjoint and
    # symmetrised temporaries stay small next to the stack
    herm, lo = 0.0, np.inf
    step = max(1, _CHECK_BLOCK // (dim * dim))
    for i in range(0, len(flat), step):
        part = flat[i:i + step]
        adj = part.conj().swapaxes(1, 2)
        herm = max(herm, float(np.max(np.abs(part - adj))))
        lo = min(lo, float(np.min(np.linalg.eigvalsh(0.5 * (part + adj))[:, 0])))
    if not herm <= KIND_ATOL:
        raise ValueError(f"POVM element not hermitian (deviation {herm:g})")
    if not lo >= -PSD_ATOL:
        raise ValueError(f"POVM element not positive (min eig {lo:g})")
    dev = float(np.max(np.abs(stack.sum(axis=-3) - np.eye(dim))))
    if not dev <= POVM_COMPLETENESS_ATOL:
        raise ValueError(f"POVM does not sum to identity (deviation {dev:g})")


class _Factors(NamedTuple):
    """Elements F_x F_x^dag of ``stack`` (n, m, r), and a remainder 1 - their sum."""

    stack: np.ndarray
    remainder: bool


def _products(form: _Factors) -> np.ndarray:
    """The element stack of a factored POVM, its remainder last."""
    stack = form.stack @ form.stack.conj().swapaxes(1, 2)
    if form.remainder:
        stack = np.concatenate([stack, [np.eye(stack.shape[1]) - stack.sum(axis=0)]])
    return _lock(stack)


def _check_factors(gram: np.ndarray, dim: int, remainder: bool) -> None:
    """Raise unless a factored POVM on ``dim`` dimensions is complete, or with a
    remainder, has a positive one; its elements are positive by their form.

    ``gram`` is G G^dag = sum_x F_x F_x^dag for G = [F_0 | ... | F_{n-1}], or
    G^dag G when that is smaller: its eigenvalues, the squared singular values
    of G, must all be 1 without a remainder (at least as strict as the entrywise
    completeness check), and at most 1 with one."""
    # G has rank at most len(gram): its other squared singular values are 0
    sq = np.append(np.linalg.eigvalsh(gram), np.zeros(dim - len(gram)))
    if remainder:
        low = 1.0 - float(np.max(sq))
        if not low >= -PSD_ATOL:
            raise ValueError(f"POVM element not positive (min eig {low:g})")
    else:
        dev = float(np.max(np.abs(sq - 1.0)))
        if not dev <= POVM_COMPLETENESS_ATOL:
            raise ValueError(f"POVM does not sum to identity (deviation {dev:g})")


@dataclass(frozen=True, eq=False)
class Povm:
    """A positive operator-valued measure with explicit outcome labels; the
    elements, given as any sequence, are held as one read-only (n, m, m) stack.

    Library decoders are built factored (``Povm._factored``), as F_x F_x^dag of
    an (n, m, r) stack and optionally a "fail" remainder 1 - sum_x F_x F_x^dag,
    positive by construction and checked for completeness alone.  Factors
    narrower than tall (r < m) are kept and their element stack built when
    first read; wider ones are multiplied out at once, into elements no larger."""

    elements: np.ndarray
    outcome_labels: tuple = ()
    dim: int = field(init=False, repr=False)
    _form: _Factors | None = field(init=False, repr=False)  # kept narrow factors

    def __post_init__(self):
        form, remainder = self.elements, False
        if isinstance(form, _Factors):
            f, remainder = form.stack, form.remainder
            if not np.all(np.isfinite(f)):
                raise ValueError("POVM elements must be finite")
            n, m, r = f.shape
            if r < m:
                if n * r < m:  # G^dag G, as the blocks F_x^dag F_y
                    gram = np.einsum("xmi,ymj->xiyj", f.conj(), f).reshape(n * r, n * r)
                else:
                    g = f.transpose(1, 0, 2).reshape(m, n * r)
                    gram = g @ g.conj().T
                _check_factors(gram, m, remainder)
                object.__delattr__(self, "elements")  # built when first read
            else:
                stack = _products(form)
                _check_factors(stack[:n].sum(axis=0), m, remainder)
                object.__setattr__(self, "elements", stack)
                form = None
        else:
            form = None
            if not len(self.elements):
                raise ValueError("a POVM needs at least one element")
            try:
                stack = np.array(self.elements, dtype=np.complex128)
            except ValueError:
                stack = None
            if stack is None or stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
                raise ValueError("POVM elements must be square and equal-sized")
            _check_povms(stack)
            n, m = stack.shape[:2]
            object.__setattr__(self, "elements", _lock(stack))
        labels = tuple(self.outcome_labels) if self.outcome_labels else tuple(range(n))
        if len(labels) != n:
            raise ValueError("outcome label count must match element count")
        if remainder:
            labels += ("fail",)
        object.__setattr__(self, "outcome_labels", labels)
        object.__setattr__(self, "dim", m)
        object.__setattr__(self, "_form", form)

    def __getattr__(self, name: str):
        # only kept factors lack their element stack, until it is first read
        form = self.__dict__.get("_form")
        if name != "elements" or form is None:
            raise AttributeError(name)
        object.__setattr__(self, "elements", _products(form))
        return self.elements

    @property
    def n_outcomes(self) -> int:
        return len(self.outcome_labels)

    @classmethod
    def _factored(cls, factors: np.ndarray, labels: tuple = (),
                  remainder: bool = False) -> "Povm":
        """The POVM of elements F_x F_x^dag, one per label, from the factor stack
        (n, m, r); with ``remainder`` a last "fail" element 1 - sum_x F_x F_x^dag."""
        return cls(_Factors(_lock(np.asarray(factors, dtype=np.complex128)), remainder),
                   tuple(labels))

    @classmethod
    @lru_cache(maxsize=8)
    def standard_basis(cls, d: int) -> "Povm":
        return cls.projective_from_columns(np.eye(d))

    @classmethod
    def projective_from_columns(cls, columns: np.ndarray, labels: tuple = ()) -> "Povm":
        return cls._factored(_as_complex(columns).T[:, :, None], labels)

    def sqrt_elements(self) -> np.ndarray:
        """Square roots of the elements as one read-only (n, m, m) stack, computed once."""
        return self._roots

    @cached_property
    def _roots(self) -> np.ndarray:
        if self._form is None:
            # one batched eigh of the element stack
            return _lock(_psd_root(*np.linalg.eigh(self.elements)))
        # F (F^dag F)^(-1/2) F^dag from the r x r Grams F^dag F, whose eigenvalues
        # at or below the element's rounding level carry no root, as in _psd_root
        f = self._form.stack
        lam, w = np.linalg.eigh(f.conj().swapaxes(1, 2) @ f)
        inv = np.divide(1.0, lam, out=np.zeros_like(lam),
                        where=lam > self.dim * np.finfo(float).eps * lam[:, -1:])
        roots = f @ _psd_root(inv, w) @ f.conj().swapaxes(1, 2)
        if self._form.remainder:
            roots = np.concatenate([roots, _psd_root(*np.linalg.eigh(self.elements[-1:]))])
        return _lock(roots)


@dataclass(frozen=True, eq=False)
class MeasurementResult:
    """Joint outcome distribution plus post-measurement marginals."""

    probs: np.ndarray                      # shape = outcome counts per POVM
    outcome_labels: tuple[tuple, ...]      # per-POVM outcome labels
    kept_labels: tuple[str, ...]
    conditionals: Mapping[tuple, DensityOperator]


def _check_groups(space: HilbertSpace, groups: Sequence[tuple[Sequence[str], int]]) -> set[str]:
    """The labels of measured groups, each given with its POVM dimension;
    the groups must be disjoint and each dimension must match its labels."""
    seen: set[str] = set()
    for labels, dim in groups:
        labels = tuple(labels)
        if seen & set(labels):
            raise ValueError("measured label sets must be disjoint")
        seen |= set(labels)
        want = math.prod(space.dims_of(labels))
        if dim != want:
            raise ValueError(f"POVM dim {dim} does not match labels {labels}")
    return seen


def _outcome_probs(blocks: np.ndarray) -> np.ndarray:
    """Traces (T, n_1, ..., n_k) of stacked blocks (T, n_1, ..., n_k, K, K),
    each row's outcomes summing to 1 within 1e-10."""
    probs = np.einsum("...ii->...", blocks.real)
    totals = probs.reshape(len(probs), -1).sum(axis=1)
    bad = ~(np.abs(totals - 1.0) <= 1e-10)
    if np.any(bad):
        raise InvariantViolation(
            f"outcome probabilities sum to {float(totals[np.argmax(bad)])!r}")
    return probs


def measure(state, povms: Sequence[tuple[Sequence[str], Povm]]) -> MeasurementResult:
    """Measure disjoint label sets jointly.

    For each joint outcome (j, k, ...) the probability is
    Tr[(E_j (x) F_k (x) ... (x) 1) rho] and the conditional state on the
    unmeasured factors is the normalised partial trace of the same product,
    symmetrised and built once as a ``DensityOperator`` (which runs its own
    checks).  Outcomes at or below ``CONDITIONAL_CUTOFF`` carry no conditional
    state, and the conditionals come as a read-only mapping.  A StateVector
    is reduced from its amplitudes and never becomes a D x D matrix.
    """
    if not isinstance(state, (StateVector, DensityOperator)):
        raise TypeError("measure expects a DensityOperator or StateVector")
    space = state.space
    seen = _check_groups(space, [(labels, povm.dim) for labels, povm in povms])
    kept = tuple(x for x in space.labels if x not in seen)
    data = state.amplitudes if isinstance(state, StateVector) else state.matrix
    blocks = reduce_blocks(space, data, kept,
                           [(labels, povm.elements) for labels, povm in povms])
    probs = _outcome_probs(blocks[None])[0]
    conditionals = {}
    if kept:
        space = space.restrict(kept)
        for outcome in np.ndindex(*probs.shape):
            prob = float(probs[outcome])
            if prob > CONDITIONAL_CUTOFF:
                cond = blocks[outcome] / prob
                conditionals[outcome] = DensityOperator(space, 0.5 * (cond + cond.conj().T))
    return MeasurementResult(probs=probs,
                             outcome_labels=tuple(p.outcome_labels for _, p in povms),
                             kept_labels=kept,
                             conditionals=MappingProxyType(conditionals))


def coherent_measure(state: StateVector, labels: Sequence[str], povm: Povm,
                     out_label: str) -> StateVector:
    """Steer a POVM into a fresh register: sum_k (sqrt(E_k) |psi>) (x) |k>."""
    space = state.space
    if out_label in space.labels:
        raise ValueError(f"label {out_label!r} already used")
    roots = povm.sqrt_elements()
    branches = [apply_to_vector(space, state.amplitudes, r, labels) for r in roots]
    amps = np.stack(branches, axis=-1).reshape(-1)
    nrm = float(np.linalg.norm(amps))
    if not abs(nrm - 1.0) <= 1e-10:
        raise InvariantViolation(f"coherent measurement broke normalisation ({nrm!r})")
    new_space = space.add_factor(out_label, povm.n_outcomes)
    return StateVector(new_space, amps / nrm)


# ---------------------------------------------------------------------------
# twisting


@dataclass(frozen=True, eq=False)
class TwistingOperator:
    """Controlled shield unitary U = sum_{jk} P_j (x) P_k (x) V_jk.

    ``space`` must expose key labels A, B of equal dimension d and a
    shield label S; ``blocks`` maps every pair (j, k) to a unitary on
    the shield.
    """

    space: HilbertSpace
    blocks: Mapping[tuple[int, int], np.ndarray]

    def __post_init__(self):
        for lbl in ("A", "B", "S"):
            if lbl not in self.space.labels:
                raise ValueError("twisting space must carry labels A, B, S")
        d = self.space.dim_of("A")
        if self.space.dim_of("B") != d:
            raise ValueError("key registers A and B must have equal dimension")
        s = self.space.dim_of("S")
        # a block given for several pairs is converted and checked once, and shared
        blocks, checked = {}, {}
        for j in range(d):
            for k in range(d):
                if (j, k) not in self.blocks:
                    raise ValueError(f"missing twisting block ({j}, {k})")
                raw = self.blocks[(j, k)]
                if id(raw) not in checked:
                    v = _as_complex(raw)
                    if v.shape != (s, s):
                        raise ValueError(f"block ({j}, {k}) must be {s}x{s}")
                    _check_finite(v)
                    dev = float(np.max(np.abs(v @ v.conj().T - np.eye(s))))
                    if not dev <= KIND_ATOL:
                        raise ValueError(f"block ({j}, {k}) is not unitary (deviation {dev:g})")
                    v.flags.writeable = False
                    checked[id(raw)] = v
                blocks[(j, k)] = checked[id(raw)]
        object.__setattr__(self, "blocks", blocks)

    @property
    def d(self) -> int:
        return self.space.dim_of("A")

    @property
    def shield_dim(self) -> int:
        return self.space.dim_of("S")

    @classmethod
    def _space(cls, d: int, shield_dim: int) -> HilbertSpace:
        return HilbertSpace((d, d, shield_dim), ("A", "B", "S"))

    @classmethod
    def from_diagonal(cls, d: int, diagonal: Sequence[np.ndarray]) -> "TwistingOperator":
        """All off-diagonal blocks set to one shared identity (only V_kk matter)."""
        if len(diagonal) != d:
            raise ValueError("need one diagonal block per key value")
        s = np.shape(diagonal[0])[0]
        eye = np.eye(s, dtype=np.complex128)
        blocks = {(j, k): diagonal[k] if j == k else eye for j in range(d) for k in range(d)}
        return cls(cls._space(d, s), blocks)

    @classmethod
    def identity(cls, d: int, shield_dim: int) -> "TwistingOperator":
        return cls.from_diagonal(d, [np.eye(shield_dim)] * d)

    @classmethod
    def random(cls, d: int, shield_dim: int, rng: np.random.Generator) -> "TwistingOperator":
        blocks = {(j, k): haar_unitary(shield_dim, rng) for j in range(d) for k in range(d)}
        return cls(cls._space(d, shield_dim), blocks)

    def diagonal_blocks(self) -> list[np.ndarray]:
        return [self.blocks[(k, k)] for k in range(self.d)]


def twisting_unitary(t: TwistingOperator) -> LinearOperator:
    """Assemble the block-diagonal matrix of a twisting operator on (A, B, S)."""
    d, s = t.d, t.shield_dim
    dim = d * d * s
    u = np.zeros((dim, dim), dtype=np.complex128)
    for j in range(d):
        for k in range(d):
            base = (j * d + k) * s
            u[base:base + s, base:base + s] = t.blocks[(j, k)]
    return LinearOperator(t.space, u, "unitary")


def maximally_entangled(d: int, labels: tuple[str, str] = ("A", "B")) -> StateVector:
    space = HilbertSpace((d, d), labels)
    amps = np.zeros(d * d, dtype=np.complex128)
    amps[::d + 1] = 1.0 / np.sqrt(d)
    return StateVector(space, amps)


def _bell_basis(d: int) -> np.ndarray:
    """The d^2 Bell vectors (Z^j X^k (x) 1)|Phi_d> as the columns j d + k of a
    (d^2, d^2) matrix on (A, B): column (j, k) is w^{jx} / sqrt(d) at (x, x - k)."""
    x, j, k = np.ix_(np.arange(d), np.arange(d), np.arange(d))
    basis = np.zeros((d, d, d, d), dtype=np.complex128)
    basis[x, (x - k) % d, j, k] = np.exp(2j * np.pi * (j * x % d) / d) / np.sqrt(d)
    return basis.reshape(d * d, d * d)


def _private_vector(d: int, t: TwistingOperator, xi: StateVector) -> StateVector:
    """U (|Phi_d> (x) |xi>) = d^{-1/2} sum_j |j j> (x) V_jj |xi> on (A, B, S).

    Only the diagonal twisting blocks touch the key-correlated amplitudes,
    so the (d d s)^2 twisting unitary is never assembled.
    """
    if t.d != d:
        raise ValueError("twisting dimension does not match d")
    if xi.space.dim != t.shield_dim:
        raise ValueError("shield state dimension does not match the twisting blocks")
    amps = np.zeros((d, d, t.shield_dim), dtype=np.complex128)
    amps[np.arange(d), np.arange(d)] = np.stack(t.diagonal_blocks()) @ xi.amplitudes
    return StateVector(t.space, amps.reshape(-1) / np.sqrt(d))


def build_private_state(d: int, t: TwistingOperator, xi) -> DensityOperator:
    """Twist a maximally entangled key against a shield state.

    ``xi`` is the shield state (StateVector or DensityOperator on the
    shield); the result is U (Phi_d (x) xi) U^dagger on labels (A, B, S).
    Only the diagonal twisting blocks touch the key-correlated entries: block
    (jj, kk) is V_jj xi V_kk^dagger / d and every other block is 0, so the
    (d d s)^2 twisting unitary is never assembled.
    """
    if isinstance(xi, StateVector):
        xi = xi.density()
    if t.d != d:
        raise ValueError("twisting dimension does not match d")
    if xi.matrix.shape[0] != t.shield_dim:
        raise ValueError("shield state dimension does not match the twisting blocks")
    v, j = np.stack(t.diagonal_blocks()), np.arange(d)[:, None]
    m = np.zeros((d, d, t.shield_dim) * 2, dtype=np.complex128)
    # the advanced axes come first: m[j, j, :, k, k, :] = V_jj xi V_kk^dagger / d
    m[j, j, :, j.T, j.T, :] = (v @ xi.matrix)[:, None] @ v.conj().swapaxes(1, 2) / d
    return DensityOperator(t.space, m.reshape(t.space.dim, -1))
