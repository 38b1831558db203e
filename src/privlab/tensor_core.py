"""Dense linear algebra over labelled multipartite Hilbert spaces.

Everything downstream works at desk scale, so all operators are explicit
complex matrices and all structural bookkeeping (which tensor factor is
which) goes through :class:`HilbertSpace` labels rather than positional
conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

# Shared numerical tolerances.
NORM_ATOL = 1e-12      # state norm, trace, hermiticity
KIND_ATOL = 1e-10      # unitarity / idempotence checks on tagged operators
PSD_ATOL = 1e-10       # most negative eigenvalue tolerated on a positive object
SUPPORT_ATOL = 1e-10   # rank decisions (support of an operator)
LOG_CLAMP = 1e-12      # weights at or below this add nothing to an entropy
BOUND_ATOL = 1e-9      # rounding a certified chain bound or uncertainty relation may show

AMPLITUDE_CAP = 2 ** 20  # largest dense array (complex entries) a workload may ask for
_GRAM_BLOCK = 2 ** 14  # amplitudes per block of a pure-state distance: the difference stays in cache

OPERATOR_KINDS = ("general", "unitary", "projector")


class InvariantViolation(RuntimeError):
    """A numerical invariant failed beyond its stated tolerance."""


def _as_complex(a) -> np.ndarray:
    return np.array(a, dtype=np.complex128)


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
    if not lo >= -PSD_ATOL:
        raise ValueError(f"matrix is not positive semidefinite (min eig {lo:g})")
    return vals


def _checked_amplitudes(amps: np.ndarray) -> np.ndarray:
    """State vectors stacked as rows of ``amps`` (T, D), each finite with norm 1.

    A norm off by more than 1e-9 fails; one off by more than ``NORM_ATOL``
    is divided out (accumulated float dust).
    """
    if not np.isfinite(amps).all():
        raise ValueError("amplitudes must be finite")
    # the squared real and imaginary parts, summed row by row on a real view
    # of the stack, so no temporary is as large as the stack
    flat = np.ascontiguousarray(amps).view(np.float64)
    nrm = np.sqrt(np.einsum("td,td->t", flat, flat))
    dev = np.abs(nrm - 1.0)
    worst = float(dev.max())
    if not worst <= 1e-9:
        raise ValueError(f"state norm {float(nrm[np.argmax(dev)])!r} is not 1")
    if worst > NORM_ATOL:
        fix = dev > NORM_ATOL
        amps = amps.copy()
        amps[fix] /= nrm[fix, None]
    return amps


def _checked_spectra(vals: np.ndarray) -> np.ndarray:
    """Ascending spectra stacked as rows of ``vals`` (T, D), each finite and
    summing to 1 within 1e-9; ``_check_psd`` is left to the caller."""
    if not np.isfinite(vals).all():
        raise ValueError("eigenvalues must be finite")
    if not np.all(np.diff(vals, axis=-1) >= 0.0):
        raise ValueError("eigenvalues must be ascending")
    sums = vals.sum(axis=-1)
    dev = np.abs(sums - 1.0)
    if not float(dev.max()) <= 1e-9:
        raise ValueError(f"eigenvalues sum to {float(sums[np.argmax(dev)])!r}, not 1")
    return vals


def _checked_densities(m: np.ndarray, spectra: np.ndarray | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Density matrices stacked along axis 0 of ``m`` (T, D, D), and their spectra.

    Each must be finite, hermitian within 1e-9 and of unit trace within
    1e-9 (deviations past ``NORM_ATOL`` are symmetrised or divided out, in
    place), and positive to ``PSD_ATOL``.  One batched eigvalsh gives the
    ascending eigenvalues, unless the caller knows them: given ``spectra``
    (T, D) are checked by ``_checked_spectra`` and used instead.
    """
    _check_finite(m)
    herm = np.abs(m - m.conj().swapaxes(1, 2)).reshape(len(m), -1).max(axis=1)
    worst = float(herm.max())
    if not worst <= 1e-9:
        raise ValueError(f"matrix is not hermitian (deviation {worst:g})")
    if worst > NORM_ATOL:
        fix = herm > NORM_ATOL
        m[fix] = 0.5 * (m[fix] + m[fix].conj().swapaxes(1, 2))
    tr = m.diagonal(axis1=1, axis2=2).sum(axis=1)
    dev = np.abs(tr - 1.0)
    worst = float(dev.max())
    if not worst <= 1e-9:
        raise ValueError(f"trace {complex(tr[np.argmax(dev)])!r} is not 1")
    if worst > NORM_ATOL:
        fix = dev > NORM_ATOL
        m[fix] /= tr[fix].real[:, None, None]
    vals = np.linalg.eigvalsh(m) if spectra is None else _checked_spectra(spectra)
    return m, _check_psd(vals)


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


@dataclass(frozen=True, eq=False)
class StateVector:
    """A normalised pure state over a labelled space."""

    space: HilbertSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _as_complex(self.amplitudes).reshape(-1)
        if amps.size != self.space.dim:
            raise ValueError(
                f"amplitude count {amps.size} does not match space dim {self.space.dim}"
            )
        object.__setattr__(self, "amplitudes", _lock(_checked_amplitudes(amps[None])[0]))

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


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A density matrix with construction-time invariant checks."""

    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self, eigensystem: tuple[np.ndarray, np.ndarray] | None = None):
        m = _as_complex(self.matrix)
        dim = self.space.dim
        if m.shape != (dim, dim):
            raise ValueError(f"matrix shape {m.shape} does not match space dim {dim}")
        vals = vecs = None
        if eigensystem is not None:
            vals = np.array(eigensystem[0], dtype=float)
            vecs = np.asarray(eigensystem[1], dtype=np.complex128)  # kept, not copied
            _check_finite(vecs)
            if vals.shape != (dim,) or vecs.shape != (dim, dim):
                raise ValueError(f"an eigensystem of a {dim}-dim space needs {dim} values "
                                 f"and {dim} x {dim} vectors")
            vals = vals[None]
        stack, vals = _checked_densities(m[None], vals)
        # the spectrum of the stored matrix, kept for entropies and ranks; given
        # eigenvectors fill the ``_eigh`` cache with it
        object.__setattr__(self, "_eigenvalues", _lock(vals[0]))
        object.__setattr__(self, "matrix", _lock(stack[0]))
        if vecs is not None:
            self.__dict__["_eigh"] = (self._eigenvalues, _lock(vecs))

    @classmethod
    def _from_eigensystem(cls, space: HilbertSpace, matrix: np.ndarray, vals: np.ndarray,
                          vecs: np.ndarray) -> "DensityOperator":
        """A density whose ascending spectrum ``vals`` and orthonormal eigenvectors
        (the columns of ``vecs``) are known to the caller.

        The matrix is checked as in construction, except that positivity is
        read off ``vals`` in place of an eigvalsh, and the pair is the ``_eigh``
        cache, so ``purify`` reads it instead of factorising the matrix.
        """
        rho = object.__new__(cls)
        object.__setattr__(rho, "space", space)
        object.__setattr__(rho, "matrix", matrix)
        rho.__post_init__((vals, vecs))
        return rho

    def tensor(self, other: "DensityOperator") -> "DensityOperator":
        return DensityOperator(self.space.tensor(other.space),
                               np.kron(self.matrix, other.matrix))

    def marginal(self, keep: Iterable[str]) -> "DensityOperator":
        return partial_trace(self, keep)

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues, computed or given at construction (read-only)."""
        return self._eigenvalues

    def rank(self, tol: float = SUPPORT_ATOL) -> int:
        return int(np.sum(self.eigenvalues() > tol))

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and eigenvectors: the pair given at construction,
        or one eigh of the matrix, taken once per density (read-only)."""
        return tuple(map(_lock, np.linalg.eigh(self.matrix)))

    @cached_property
    def _purified(self) -> "StateVector":
        """The purification every reader of this density shares, taken once: onto
        E, or onto a label longer than all of the density's when it carries E."""
        labels = self.space.labels
        return purify(self, "E" * (1 + max(map(len, labels)) if "E" in labels else 1))


@dataclass(frozen=True, eq=False)
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


def _verify_kind(m: np.ndarray, kind: str) -> None:
    if kind == "general":
        return
    if kind == "unitary":
        dev = float(np.max(np.abs(m @ m.conj().T - np.eye(m.shape[0]))))
        if not dev <= KIND_ATOL:
            raise ValueError(f"unitary tag violated by {dev:g}")
    elif kind == "projector":
        dev = max(float(np.max(np.abs(m - m.conj().T))), float(np.max(np.abs(m @ m - m))))
        if not dev <= KIND_ATOL:
            raise ValueError(f"projector tag violated by {dev:g}")


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


def _group_layout(space: HilbertSpace, keep: Sequence[str],
                  ops: Sequence[tuple[Sequence[str], np.ndarray]]) -> tuple[list[int], list[int]]:
    """Axis order (each measured group, then ``keep``, then the rest) and group sizes."""
    groups = [tuple(labels) for labels, _ in ops] + [tuple(keep)]
    axes = [space.axis(x) for g in groups for x in g]
    rest = [a for a in range(len(space.dims)) if a not in axes]
    return axes + rest, [math.prod(space.dims_of(g)) for g in groups]


def reduce_blocks(space: HilbertSpace, data: np.ndarray, keep: Sequence[str],
                  ops: Sequence[tuple[Sequence[str], np.ndarray]] = ()) -> np.ndarray:
    """Blocks Tr_rest[(E_j (x) F_k (x) ... (x) 1) rho] on ``keep``, per joint outcome.

    ``data`` is the matrix rho, or (possibly unnormalised) amplitudes psi of
    rho = |psi><psi|.  Each entry of ``ops`` pairs a label group with its
    stacked elements of shape (n, m, m), indexed in the group's label order.
    A matrix has the registers neither kept nor measured traced out first,
    then each group contracted against its elements.  Amplitudes go through
    ``_reduce_amplitudes`` as a stack of one and never become D x D.  The
    result has shape (n_1, ..., n_k, K, K), with K indexed in the order of
    ``keep``.
    """
    if data.ndim == 1:
        return _reduce_amplitudes(space, data[None], keep, ops)[0]
    order, sizes = _group_layout(space, keep, ops)
    n = len(space.dims)
    k = len(ops)
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


def _reduction_stacks(space: HilbertSpace, keep: Sequence[str],
                      outcomes: Sequence[int]) -> dict[str, list[int]]:
    """Per-row shapes of the stacks ``_reduce_amplitudes`` builds: one ket of D
    amplitudes, and one K x K block on ``keep``, per joint outcome."""
    kept = math.prod(space.dims_of(keep))
    return {"stacked measurement kets": [*outcomes, space.dim],
            "measurement blocks": [*outcomes, kept, kept]}


def _reduce_amplitudes(space: HilbertSpace, amps: np.ndarray, keep: Sequence[str],
                       ops: Sequence[tuple[Sequence[str], np.ndarray]] = ()) -> np.ndarray:
    """``reduce_blocks`` of every row psi_t of ``amps`` (T, D): shape (T, n_1, ..., n_k, K, K).

    An element stack is (n, m, m), shared by every row, or (T, n, m, m), one
    POVM per row.  Each group's elements act on the kets, and one batched
    product with psi* over the measured and traced registers gives
    sum (E psi) psi*; the stacked kets and the blocks are budgeted first.
    """
    order, sizes = _group_layout(space, keep, ops)
    count, k = len(amps), len(ops)
    outcomes = [els.shape[-3] for _, els in ops]
    for what, shape in _reduction_stacks(space, keep, outcomes).items():
        _budget([count] + shape, what)
    perm = [0] + [1 + a for a in order]
    t = psi = amps.reshape((count,) + space.dims).transpose(perm).reshape([count] + sizes + [-1])
    for g in reversed(range(k)):
        # t is (T, outcomes and rows of groups after g, columns of groups 0..g, K, rest);
        # the group's (outcome, row) pair replaces its column at the front
        els = ops[g][1]
        n_g, m_g = els.shape[-3], els.shape[-1]
        col = 1 + 2 * (k - 1 - g) + g
        t = t.transpose([0, col] + [a for a in range(1, t.ndim) if a != col])
        shape = t.shape[2:]
        t = els.reshape(els.shape[:-3] + (n_g * m_g, m_g)) @ t.reshape(count, m_g, -1)
        t = t.reshape((count, n_g, m_g) + shape)
    # t is (T, n_1, row_1, ..., n_k, row_k, K, rest): pair rows and rest with psi*
    outs = [1 + 2 * g for g in range(k)] + [1 + 2 * k]
    rows = [2 + 2 * g for g in range(k)] + [2 + 2 * k]
    lhs = t.transpose([0] + outs + rows).reshape(count, -1, psi[0].size // sizes[-1])
    rhs = psi.conj().transpose([0] + list(range(1, k + 1)) + [k + 2, k + 1])
    blocks = lhs @ rhs.reshape(count, -1, sizes[-1])
    return blocks.reshape([count] + outcomes + sizes[-1:] * 2)


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
    ``SUPPORT_ATOL``), so pure inputs get a one-dimensional purifier.  The
    purifier basis is rho's eigenbasis (``DensityOperator._eigh``): the one
    rho was built with, if any (a Werner state's Bell basis), else the eigh
    of its matrix.  Each call builds a new vector; the package's readers
    share the one ``DensityOperator._purified`` holds.
    """
    if new_label in rho.space.labels:
        raise ValueError(f"label {new_label!r} already used")
    vals, vecs = rho._eigh
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
    """Square root of a positive semidefinite matrix."""
    vals, vecs = _eigh_hermitian(matrix)
    if not vals[0] >= -PSD_ATOL:
        raise ValueError(f"sqrt of a non-positive operator (min eig {vals[0]:g})")
    return _psd_root(vals, vecs)


def _psd_root(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """The square roots of positive matrices from their ascending eigensystems,
    one matrix or a stack of them as ``np.linalg.eigh`` returns them.

    Eigenvalues at or below eigh's own rounding level (dim * eps * the
    largest) are zeroed first, so rounding dust does not become a 1e-8 root.
    """
    vals = np.where(vals > vals.shape[-1] * np.finfo(float).eps * vals[..., -1:], vals, 0.0)
    return (vecs * np.sqrt(vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)


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


def _gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(<a|a>, <b|b>, <a|b>, ||a - b||^2): the sums a pure-state distance reads, over any chunk.

    Read in blocks of ``_GRAM_BLOCK`` amplitudes, so a - b takes one block and
    not the size of its arguments (at n=3 a (D, B, A, E) hashing chain slice is 0.6 MB).
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
    """Unnormalised Tr|a - b| of two unit vectors from their ``_gram`` sums.

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


def pure_state_trace_distance(a: StateVector, b: StateVector) -> float:
    """Unnormalised Tr|a - b| for pure states, from their ``_gram`` sums."""
    if a.space.dims != b.space.dims:
        raise ValueError("overlap requires identical spaces")
    return _chain_distance(_gram(a.amplitudes, b.amplitudes))
