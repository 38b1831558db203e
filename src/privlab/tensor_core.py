"""Dense linear algebra over labelled multipartite Hilbert spaces.

Everything downstream works at desk scale, so all operators are explicit
complex matrices and all structural bookkeeping (which tensor factor is
which) goes through :class:`HilbertSpace` labels rather than positional
conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Shared numerical tolerances.
NORM_ATOL = 1e-12      # state norm, trace, hermiticity
KIND_ATOL = 1e-10      # unitarity / idempotence checks on tagged operators
PSD_ATOL = 1e-10       # most negative eigenvalue tolerated on a positive object
SUPPORT_ATOL = 1e-10   # rank decisions (support of an operator)
LOG_CLAMP = 1e-12      # eigenvalue clamp before logarithms

AMPLITUDE_CAP = 2 ** 20  # largest dense array (complex entries) a workload may ask for

OPERATOR_KINDS = ("general", "hermitian", "unitary", "projector", "povm-element")


class InvariantViolation(RuntimeError):
    """A numerical invariant failed beyond its stated tolerance."""


def _as_complex(a) -> np.ndarray:
    arr = np.array(a, dtype=np.complex128)
    return arr


def _budget(dims: Sequence[int], what: str) -> int:
    total = math.prod(int(v) for v in dims)
    if total > AMPLITUDE_CAP:
        raise ValueError(
            f"{what} needs {total} amplitudes (dims {tuple(int(v) for v in dims)}), "
            f"above the {AMPLITUDE_CAP} cap")
    return total


def _check_finite(m: np.ndarray) -> None:
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")


def _check_psd(vals: np.ndarray) -> np.ndarray:
    """Pass through ascending eigenvalues (one row per matrix) if none is too negative."""
    lo = float(np.min(vals[..., 0], initial=np.inf))
    if lo < -PSD_ATOL:
        raise ValueError(f"matrix is not positive semidefinite (min eig {lo:g})")
    return vals


@dataclass(frozen=True)
class HilbertSpace:
    """An ordered list of tensor factors with unique string labels."""

    dims: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        labels = tuple(str(x) for x in self.labels)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "labels", labels)
        if len(dims) != len(labels):
            raise ValueError("dims and labels must have equal length")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate labels in {labels}")
        if not dims:
            raise ValueError("a space needs at least one factor")
        # dimension 1 is allowed: rank-one purifiers live on trivial factors
        if any(d < 1 for d in dims):
            raise ValueError(f"dims must be positive, got {dims}")

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"label {label!r} not in {self.labels}") from None

    def dim_of(self, label: str) -> int:
        return self.dims[self.axis(label)]

    def dims_of(self, labels: Iterable[str]) -> tuple[int, ...]:
        return tuple(self.dim_of(x) for x in labels)

    def restrict(self, labels: Iterable[str]) -> "HilbertSpace":
        """Subspace of the given labels, kept in this space's order."""
        wanted = set(labels)
        missing = wanted - set(self.labels)
        if missing:
            raise KeyError(f"labels {sorted(missing)} not in {self.labels}")
        keep = [x for x in self.labels if x in wanted]
        return HilbertSpace(self.dims_of(keep), tuple(keep))

    def tensor(self, other: "HilbertSpace") -> "HilbertSpace":
        overlap = set(self.labels) & set(other.labels)
        if overlap:
            raise ValueError(f"label collision on tensor product: {sorted(overlap)}")
        return HilbertSpace(self.dims + other.dims, self.labels + other.labels)

    def add_factor(self, label: str, dim: int) -> "HilbertSpace":
        return self.tensor(HilbertSpace((dim,), (label,)))


def _lock(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class StateVector:
    """A normalised pure state over a labelled space."""

    space: HilbertSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _as_complex(self.amplitudes).reshape(-1)
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        if amps.size != self.space.dim:
            raise ValueError(
                f"amplitude count {amps.size} does not match space dim {self.space.dim}"
            )
        nrm = float(np.linalg.norm(amps))
        if abs(nrm - 1.0) > 1e-9:
            raise ValueError(f"state norm {nrm!r} is not 1")
        if abs(nrm - 1.0) > NORM_ATOL:
            amps = amps / nrm  # renormalise away accumulated float dust
        object.__setattr__(self, "amplitudes", _lock(amps))

    def tensor(self, other: "StateVector") -> "StateVector":
        return StateVector(self.space.tensor(other.space),
                           np.kron(self.amplitudes, other.amplitudes))

    def density(self) -> "DensityOperator":
        return DensityOperator(self.space, np.outer(self.amplitudes, self.amplitudes.conj()))

    def marginal(self, keep: Iterable[str]) -> "DensityOperator":
        sub = self.space.restrict(keep)
        return DensityOperator(sub, vector_marginal(self.space, self.amplitudes, sub.labels))

    def permuted(self, new_order: Sequence[str]) -> "StateVector":
        amps = permute_vector(self.space, self.amplitudes, new_order)
        return StateVector(HilbertSpace(tuple(self.space.dims_of(new_order)), tuple(new_order)), amps)

    def overlap(self, other: "StateVector") -> complex:
        if self.space.dims != other.space.dims:
            raise ValueError("overlap requires identical spaces")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class DensityOperator:
    """A density matrix with construction-time invariant checks."""

    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self):
        m = _as_complex(self.matrix)
        dim = self.space.dim
        if m.shape != (dim, dim):
            raise ValueError(f"matrix shape {m.shape} does not match space dim {dim}")
        _check_finite(m)
        herm = float(np.max(np.abs(m - m.conj().T))) if dim else 0.0
        if herm > 1e-9:
            raise ValueError(f"matrix is not hermitian (deviation {herm:g})")
        if herm > NORM_ATOL:
            m = 0.5 * (m + m.conj().T)
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > 1e-9:
            raise ValueError(f"trace {tr!r} is not 1")
        if abs(tr - 1.0) > NORM_ATOL:
            m = m / tr.real
        # the spectrum of the stored matrix, kept for entropies and ranks
        object.__setattr__(self, "_eigenvalues", _lock(_check_psd(np.linalg.eigvalsh(m))))
        object.__setattr__(self, "matrix", _lock(m))

    def tensor(self, other: "DensityOperator") -> "DensityOperator":
        return DensityOperator(self.space.tensor(other.space),
                               np.kron(self.matrix, other.matrix))

    def marginal(self, keep: Iterable[str]) -> "DensityOperator":
        return partial_trace(self, keep)

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues, computed once at construction (read-only)."""
        return self._eigenvalues

    def rank(self, tol: float = SUPPORT_ATOL) -> int:
        return int(np.sum(self.eigenvalues() > tol))


@dataclass(frozen=True)
class LinearOperator:
    """A matrix on a labelled space, tagged with the structure it claims."""

    space: HilbertSpace
    matrix: np.ndarray
    kind: str = "general"

    def __post_init__(self):
        m = _as_complex(self.matrix)
        dim = self.space.dim
        if m.shape != (dim, dim):
            raise ValueError(f"matrix shape {m.shape} does not match space dim {dim}")
        if not np.all(np.isfinite(m)):
            raise ValueError("operator entries must be finite")
        if self.kind not in OPERATOR_KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        _verify_kind(m, self.kind)
        object.__setattr__(self, "matrix", _lock(m))

    def tensor(self, other: "LinearOperator") -> "LinearOperator":
        kind = self.kind if self.kind == other.kind else "general"
        return LinearOperator(self.space.tensor(other.space),
                              np.kron(self.matrix, other.matrix), kind)

    def dagger(self) -> "LinearOperator":
        return LinearOperator(self.space, self.matrix.conj().T, self.kind)


def _verify_kind(m: np.ndarray, kind: str) -> None:
    if kind == "general":
        return
    herm = float(np.max(np.abs(m - m.conj().T)))
    if kind == "hermitian":
        if herm > KIND_ATOL:
            raise ValueError(f"hermitian tag violated by {herm:g}")
    elif kind == "unitary":
        dev = float(np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))))
        if dev > KIND_ATOL:
            raise ValueError(f"unitary tag violated by {dev:g}")
    elif kind == "projector":
        dev = max(herm, float(np.max(np.abs(m @ m - m))))
        if dev > KIND_ATOL:
            raise ValueError(f"projector tag violated by {dev:g}")
    elif kind == "povm-element":
        if herm > KIND_ATOL:
            raise ValueError(f"povm-element tag violated by hermiticity {herm:g}")
        lo = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])
        if lo < -PSD_ATOL:
            raise ValueError(f"povm-element tag violated by min eig {lo:g}")


# ---------------------------------------------------------------------------
# tensor manipulation helpers


def permute_vector(space: HilbertSpace, amps: np.ndarray, new_order: Sequence[str]) -> np.ndarray:
    if sorted(new_order) != sorted(space.labels):
        raise ValueError(f"{new_order} is not a permutation of {space.labels}")
    perm = [space.axis(x) for x in new_order]
    return np.ascontiguousarray(
        np.asarray(amps).reshape(space.dims).transpose(perm)
    ).reshape(-1)


def apply_to_vector(space: HilbertSpace, amps: np.ndarray, matrix: np.ndarray,
                    labels: Sequence[str]) -> np.ndarray:
    """Apply an operator that acts only on the given labels to a state vector.

    ``matrix`` is indexed in the order of ``labels``; the result keeps the
    original axis order of ``space``.
    """
    labels = list(labels)
    axes = [space.axis(x) for x in labels]
    dims = [space.dims[a] for a in axes]
    block = int(np.prod(dims, dtype=np.int64))
    m = _as_complex(matrix)
    if m.shape != (block, block):
        raise ValueError(f"operator shape {m.shape} does not match labels {labels}")
    tensor = np.asarray(amps).reshape(space.dims)
    op = m.reshape(dims + dims)
    out = np.tensordot(op, tensor, axes=(list(range(len(dims), 2 * len(dims))), axes))
    # tensordot moved the acted-on axes to the front; put them back
    rest = [a for a in range(len(space.dims)) if a not in axes]
    current = axes + rest
    inverse = np.argsort(current)
    return np.ascontiguousarray(out.transpose(inverse)).reshape(-1)


def embed_operator(space: HilbertSpace, matrix: np.ndarray, labels: Sequence[str]) -> np.ndarray:
    """Extend an operator on a label subset to the whole space by identity."""
    labels = list(labels)
    axes = [space.axis(x) for x in labels]
    dims = [space.dims[a] for a in axes]
    rest = [a for a in range(len(space.dims)) if a not in axes]
    rest_dim = int(np.prod([space.dims[a] for a in rest], dtype=np.int64))
    m = _as_complex(matrix)
    block = int(np.prod(dims, dtype=np.int64))
    if m.shape != (block, block):
        raise ValueError(f"operator shape {m.shape} does not match labels {labels}")
    big = np.kron(m, np.eye(rest_dim))  # ordered (labels..., rest...)
    order = axes + rest
    n = len(space.dims)
    shaped = big.reshape([space.dims[a] for a in order] * 2)
    inverse = list(np.argsort(order))
    perm = inverse + [n + a for a in inverse]
    return np.ascontiguousarray(shaped.transpose(perm)).reshape(space.dim, space.dim)


def reduce_blocks(space: HilbertSpace, data: np.ndarray, keep: Sequence[str],
                  ops: Sequence[tuple[Sequence[str], np.ndarray]] = ()) -> np.ndarray:
    """Blocks Tr_rest[(E_j (x) F_k (x) ... (x) 1) rho] on ``keep``, per joint outcome.

    ``data`` is the matrix rho, or (possibly unnormalised) amplitudes psi of
    rho = |psi><psi|.  Each entry of ``ops`` pairs a label group with its
    stacked elements of shape (n, m, m), indexed in the group's label order.
    A matrix has the registers neither kept nor measured traced out first,
    then each group contracted against its elements.  Amplitudes never become
    D x D: each group's elements act on the ket, and one contraction with
    psi* over the measured and traced registers gives sum (E psi) psi*; the
    stacked kets and the blocks are budgeted first.  The result has shape
    (n_1, ..., n_k, K, K), with K indexed in the order of ``keep``.
    """
    groups = [tuple(labels) for labels, _ in ops] + [tuple(keep)]
    axes = [space.axis(x) for g in groups for x in g]
    rest = [a for a in range(len(space.dims)) if a not in axes]
    sizes = [int(np.prod(space.dims_of(g), dtype=np.int64)) for g in groups]
    n = len(space.dims)
    order = axes + rest
    k = len(ops)
    if data.ndim == 1:
        outcomes = [len(els) for _, els in ops]
        _budget(outcomes + [space.dim], "stacked measurement kets")
        _budget(outcomes + sizes[-1:] * 2, "measurement blocks")
        t = psi = data.reshape(space.dims).transpose(order).reshape(sizes + [-1])
        for g in reversed(range(k)):
            # t is (outcomes and rows of groups after g, columns of groups 0..g, K, rest)
            t = np.tensordot(ops[g][1], t, axes=([2], [2 * (k - 1 - g) + g]))
        # t is (n_1, row_1, ..., n_k, row_k, K, rest)
        return np.tensordot(t, psi.conj(), axes=(list(range(1, 2 * k, 2)) + [2 * k + 1],
                                                 list(range(k)) + [k + 1]))
    t = data.reshape(space.dims * 2).transpose(order + [n + a for a in order])
    m = int(np.prod(sizes, dtype=np.int64))
    rdim = space.dim // m
    t = np.einsum("irjr->ij", t.reshape(m, rdim, m, rdim)).reshape(sizes * 2)
    for g in reversed(range(k)):
        # t is (outcomes of groups after g, rows of groups 0..g, K, cols of
        # groups 0..g, K); Tr[E X] pairs E's row with X's column and vice versa.
        lead = k - 1 - g
        t = np.tensordot(ops[g][1], t, axes=([1, 2], [lead + 2 * g + 2, lead + g]))
    return t


def vector_marginal(space: HilbertSpace, amps: np.ndarray, keep: Sequence[str]) -> np.ndarray:
    """Reduced density matrix of a (possibly unnormalised) vector: ``reduce_blocks`` with no ops."""
    return reduce_blocks(space, np.asarray(amps).reshape(-1), keep)


# ---------------------------------------------------------------------------
# public operations


def tensor_product(a, b):
    """Kronecker product preserving labels; both operands of the same type."""
    if type(a) is not type(b):
        raise TypeError(f"cannot tensor {type(a).__name__} with {type(b).__name__}")
    return a.tensor(b)


def partial_trace(state, keep: Iterable[str]) -> DensityOperator:
    """Trace out every factor not named in ``keep`` (order preserved)."""
    if isinstance(state, StateVector):
        return state.marginal(keep)
    if not isinstance(state, DensityOperator):
        raise TypeError("partial_trace expects a DensityOperator or StateVector")
    sub = state.space.restrict(keep)
    if not sub.labels:
        raise ValueError("keep must name at least one factor")
    return DensityOperator(sub, reduce_blocks(state.space, state.matrix, sub.labels))


def purify(rho: DensityOperator, new_label: str = "E") -> StateVector:
    """Return a pure state on ``space (x) new_label`` whose marginal is rho.

    The purifier dimension equals the rank of rho (support cut at
    ``SUPPORT_ATOL``), so pure inputs get a one-dimensional purifier.
    """
    if new_label in rho.space.labels:
        raise ValueError(f"label {new_label!r} already used")
    vals, vecs = np.linalg.eigh(rho.matrix)
    sel = vals > SUPPORT_ATOL
    if not np.any(sel):
        raise ValueError("cannot purify an operator with empty support")
    lam = vals[sel]
    v = vecs[:, sel]
    amps = (v * np.sqrt(lam)).reshape(-1)  # index order (space, purifier)
    space = rho.space.add_factor(new_label, int(lam.size))
    return StateVector(space, amps)


def _eigh_hermitian(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of a finite hermitian matrix."""
    m = _as_complex(matrix)
    _check_finite(m)
    herm = float(np.max(np.abs(m - m.conj().T)))
    if not herm <= KIND_ATOL:
        raise ValueError(f"eigendecomposition needs a hermitian input (deviation {herm:g})")
    return np.linalg.eigh(m)


def sqrt_psd(matrix: np.ndarray) -> np.ndarray:
    """Square root of a positive semidefinite matrix.

    Eigenvalues at or below eigh's own rounding level (dim * eps * the
    largest) are zeroed first, so rounding dust does not become a 1e-8 root.
    """
    vals, vecs = _eigh_hermitian(matrix)
    if vals[0] < -PSD_ATOL:
        raise ValueError(f"sqrt of a non-positive operator (min eig {vals[0]:g})")
    vals = np.where(vals > len(vals) * np.finfo(float).eps * vals[-1], vals, 0.0)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def trace_norm(matrix: np.ndarray) -> float:
    m = _as_complex(matrix)
    _check_finite(m)
    if np.max(np.abs(m - m.conj().T)) <= KIND_ATOL:
        return float(np.sum(np.abs(np.linalg.eigvalsh(m))))
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def trace_distance(rho, sigma) -> float:
    """Normalised trace distance (1/2)||rho - sigma||_1 in [0, 1]."""
    a = rho.matrix if isinstance(rho, (DensityOperator, LinearOperator)) else _as_complex(rho)
    b = sigma.matrix if isinstance(sigma, (DensityOperator, LinearOperator)) else _as_complex(sigma)
    return float(np.clip(0.5 * trace_norm(a - b), 0.0, 1.0))


def fidelity(rho, sigma) -> float:
    """Root fidelity Tr|sqrt(rho) sqrt(sigma)| in [0, 1]."""
    a = rho.matrix if isinstance(rho, (DensityOperator, LinearOperator)) else _as_complex(rho)
    b = sigma.matrix if isinstance(sigma, (DensityOperator, LinearOperator)) else _as_complex(sigma)
    cross = sqrt_psd(a) @ sqrt_psd(b)
    return float(np.clip(np.sum(np.linalg.svd(cross, compute_uv=False)), 0.0, 1.0))


def pure_state_trace_distance(a: StateVector, b: StateVector) -> float:
    """Unnormalised Tr|a - b| for pure states, via the overlap."""
    ov = abs(a.overlap(b))
    return 2.0 * math.sqrt(max(0.0, 1.0 - min(1.0, ov) ** 2))
