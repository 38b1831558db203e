"""Generalized Pauli algebra, conjugate bases, twisting, and measurements.

A qudit of prime dimension d carries the shift/phase pair

    Z = sum_k w^k |k><k|,   X = sum_k |k+1 mod d><k|,   w = exp(2 pi i / d),

so ZX = w XZ.  A conjugate basis collects d phase patterns theta[x, k] with
|x~> = d^{-1/2} sum_k exp(i theta[x, k]) |k>, orthonormal and unbiased with
respect to the standard basis.  The Fourier choice theta = 2 pi x k / d
diagonalises X with eigenvalue w^{-x}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Mapping, Sequence

import numpy as np

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
    _check_psd,
    _lock,
    reduce_blocks,
    sqrt_psd,
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


@dataclass(frozen=True)
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
    @lru_cache(maxsize=8)  # each entry holds d^3 amplitudes with its POVM
    def fourier(cls, d: int) -> "ConjugateBasis":
        x, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
        return cls(d, 2.0 * np.pi * x * k / d)

    @property
    def vectors(self) -> np.ndarray:
        """Matrix whose column x is |x~> in the standard basis."""
        return np.exp(1j * self.theta.T) / np.sqrt(self.d)

    def conjugated(self) -> "ConjugateBasis":
        """Entrywise complex conjugate basis (negated phases)."""
        return ConjugateBasis(self.d, -self.theta)

    def projector(self, x: int) -> np.ndarray:
        v = self.vectors[:, x]
        return np.outer(v, v.conj())

    def povm(self) -> "Povm":
        return self._povm

    @cached_property
    def _povm(self) -> "Povm":
        return Povm.projective_from_columns(self.vectors)


@dataclass(frozen=True)
class Povm:
    """A positive operator-valued measure with explicit outcome labels."""

    elements: tuple[np.ndarray, ...]
    outcome_labels: tuple = ()

    def __post_init__(self):
        if not len(self.elements):
            raise ValueError("a POVM needs at least one element")
        try:
            stack = np.array(self.elements, dtype=np.complex128)
        except ValueError:
            stack = None
        if stack is None or stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise ValueError("POVM elements must be square and equal-sized")
        if not np.all(np.isfinite(stack)):
            raise ValueError("POVM elements must be finite")
        dim = stack.shape[1]
        # hermiticity and positivity in blocks of elements, so the adjoint and
        # symmetrised temporaries stay small next to the stack
        herm, lo = 0.0, np.inf
        step = max(1, _CHECK_BLOCK // (dim * dim))
        for i in range(0, len(stack), step):
            part = stack[i:i + step]
            adj = part.conj().swapaxes(1, 2)
            herm = max(herm, float(np.max(np.abs(part - adj))))
            lo = min(lo, float(np.min(np.linalg.eigvalsh(0.5 * (part + adj))[:, 0])))
        if not herm <= KIND_ATOL:
            raise ValueError(f"POVM element not hermitian (deviation {herm:g})")
        if not lo >= -PSD_ATOL:
            raise ValueError(f"POVM element not positive (min eig {lo:g})")
        dev = float(np.max(np.abs(stack.sum(axis=0) - np.eye(dim))))
        if not dev <= POVM_COMPLETENESS_ATOL:
            raise ValueError(f"POVM does not sum to identity (deviation {dev:g})")
        labels = tuple(self.outcome_labels) if self.outcome_labels else tuple(range(len(stack)))
        if len(labels) != len(stack):
            raise ValueError("outcome label count must match element count")
        # the elements are read-only views of the one validated stack
        object.__setattr__(self, "elements", tuple(_lock(stack)))
        object.__setattr__(self, "outcome_labels", labels)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)

    @classmethod
    @lru_cache(maxsize=8)
    def standard_basis(cls, d: int) -> "Povm":
        return cls.projective_from_columns(np.eye(d))

    @classmethod
    def projective_from_columns(cls, columns: np.ndarray, labels: tuple = ()) -> "Povm":
        cols = _as_complex(columns)
        els = tuple(np.outer(cols[:, i], cols[:, i].conj()) for i in range(cols.shape[1]))
        return cls(els, labels)

    def sqrt_elements(self) -> tuple[np.ndarray, ...]:
        """Square roots of the elements, computed once per POVM (read-only)."""
        return self._roots

    @cached_property
    def _roots(self) -> tuple[np.ndarray, ...]:
        return tuple(_lock(sqrt_psd(e)) for e in self.elements)


@dataclass(frozen=True)
class MeasurementResult:
    """Joint outcome distribution plus post-measurement marginals."""

    probs: np.ndarray                      # shape = outcome counts per POVM
    outcome_labels: tuple[tuple, ...]      # per-POVM outcome labels
    kept_labels: tuple[str, ...]
    conditionals: Mapping[tuple, DensityOperator]


class _Conditionals(Mapping):
    """Conditional states by joint outcome, each built as a DensityOperator on first read."""

    def __init__(self, space: HilbertSpace, keys: list[tuple], matrices: np.ndarray):
        self._space = space
        self._rows = {key: i for i, key in enumerate(keys)}
        self._matrices = matrices
        self._built: dict[tuple, DensityOperator] = {}

    def __getitem__(self, key: tuple) -> DensityOperator:
        rho = self._built.get(key)
        if rho is None:
            rho = DensityOperator(self._space, self._matrices[self._rows[key]])
            self._built[key] = rho
        return rho

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


def measure(state, povms: Sequence[tuple[Sequence[str], Povm]]) -> MeasurementResult:
    """Measure disjoint label sets jointly.

    For each joint outcome (j, k, ...) the probability is
    Tr[(E_j (x) F_k (x) ... (x) 1) rho] and the conditional state on the
    unmeasured factors is the normalised partial trace of the same product.
    Zero-probability outcomes carry no conditional state.  A StateVector is
    reduced from its amplitudes and never becomes a D x D matrix.
    """
    if not isinstance(state, (StateVector, DensityOperator)):
        raise TypeError("measure expects a DensityOperator or StateVector")
    space = state.space
    seen: set[str] = set()
    for labels, povm in povms:
        labels = tuple(labels)
        if seen & set(labels):
            raise ValueError("measured label sets must be disjoint")
        seen |= set(labels)
        want = int(np.prod(space.dims_of(labels), dtype=np.int64))
        if povm.dim != want:
            raise ValueError(f"POVM dim {povm.dim} does not match labels {labels}")
    kept = tuple(x for x in space.labels if x not in seen)

    data = state.amplitudes if isinstance(state, StateVector) else state.matrix
    blocks = reduce_blocks(space, data, kept,
                           [(labels, np.stack(povm.elements)) for labels, povm in povms])
    probs = np.einsum("...ii->...", blocks.real)
    conditionals: Mapping[tuple, DensityOperator] = {}
    if kept:
        k = blocks.shape[-1]
        flat = probs.reshape(-1)
        live = np.flatnonzero(flat > CONDITIONAL_CUTOFF)
        cond = blocks.reshape(-1, k, k)[live] / flat[live, None, None]
        cond = 0.5 * (cond + cond.conj().swapaxes(1, 2))
        # one stacked check now; each DensityOperator runs its own when read
        _check_finite(cond)
        _check_psd(np.linalg.eigvalsh(cond))
        outcomes = list(np.ndindex(*probs.shape))
        conditionals = _Conditionals(space.restrict(kept), [outcomes[i] for i in live], cond)
    total = float(probs.sum())
    if not abs(total - 1.0) <= 1e-10:
        raise InvariantViolation(f"outcome probabilities sum to {total!r}")
    return MeasurementResult(probs=probs,
                             outcome_labels=tuple(p.outcome_labels for _, p in povms),
                             kept_labels=kept,
                             conditionals=conditionals)


def coherent_measure(state: StateVector, labels: Sequence[str], povm: Povm,
                     out_label: str) -> StateVector:
    """Steer a POVM into a fresh register: sum_k (sqrt(E_k) |psi>) (x) |k>."""
    from .tensor_core import apply_to_vector  # local import keeps module load light

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


@dataclass(frozen=True)
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
        blocks = {}
        for j in range(d):
            for k in range(d):
                if (j, k) not in self.blocks:
                    raise ValueError(f"missing twisting block ({j}, {k})")
                v = _as_complex(self.blocks[(j, k)])
                if v.shape != (s, s):
                    raise ValueError(f"block ({j}, {k}) must be {s}x{s}")
                dev = float(np.max(np.abs(v @ v.conj().T - np.eye(s))))
                if dev > KIND_ATOL:
                    raise ValueError(f"block ({j}, {k}) is not unitary (deviation {dev:g})")
                v.flags.writeable = False
                blocks[(j, k)] = v
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
        """All off-diagonal blocks set to the identity (only V_kk matter)."""
        if len(diagonal) != d:
            raise ValueError("need one diagonal block per key value")
        s = _as_complex(diagonal[0]).shape[0]
        blocks = {(j, k): np.eye(s, dtype=np.complex128) for j in range(d) for k in range(d)}
        for k in range(d):
            blocks[(k, k)] = _as_complex(diagonal[k])
        return cls(cls._space(d, s), blocks)

    @classmethod
    def identity(cls, d: int, shield_dim: int) -> "TwistingOperator":
        return cls.from_diagonal(d, [np.eye(shield_dim)] * d)

    @classmethod
    def random(cls, d: int, shield_dim: int, rng: np.random.Generator,
               diagonal_only: bool = False) -> "TwistingOperator":
        from .sampling import haar_unitary

        if diagonal_only:
            return cls.from_diagonal(d, [haar_unitary(shield_dim, rng) for _ in range(d)])
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
    A pure shield is twisted on its amplitudes (``_private_vector``) and
    only the result becomes a matrix; a mixed one goes through the
    assembled twisting unitary.
    """
    if isinstance(xi, StateVector):
        return _private_vector(d, t, xi).density()
    if t.d != d:
        raise ValueError("twisting dimension does not match d")
    if xi.matrix.shape[0] != t.shield_dim:
        raise ValueError("shield state dimension does not match the twisting blocks")
    phi = maximally_entangled(d).density()
    base = np.kron(phi.matrix, xi.matrix)
    u = twisting_unitary(t).matrix
    return DensityOperator(t.space, u @ base @ u.conj().T)
