"""CSS codes over prime fields, sampled row-by-row from orthogonal complements.

A code is a pair of parity matrices M_z (m_z x n) and M_x (m_x x n) over
GF(d) with M_z M_x^T = 0.  Standard-basis strings k fall into classes by
the syndrome alpha = M_z k; conjugate-basis strings x by beta = M_x x.
Logical representatives are normalised so logical_z . logical_x^T = 1.
A code builds its strings' class values, encode maps and n-qudit Fourier
basis once, when first read, as ``CssCode._tables``.

The sampler draws each row uniformly from the orthogonal complement of the
rows drawn so far, which makes every row slice a two-universal hash family;
codes additionally condition on all rows being linearly independent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .qudit_ops import ConjugateBasis, generalized_paulis
from .tensor_core import HilbertSpace, LinearOperator


class CodeSamplingError(RuntimeError):
    """Could not draw an independent stabilizer set for these parameters."""


def is_prime(d: int) -> bool:
    if d < 2:
        return False
    return all(d % q for q in range(2, int(d ** 0.5) + 1))


# GF(d) arithmetic is int64: a product of two reduced entries stays below
# 2^42, so sums of up to 2^20 of them (longer than any string that fits the
# amplitude cap) stay below 2^62.
_MAX_FIELD_ORDER = 2 ** 21


def _check_prime(d: int) -> int:
    d = int(d)
    if d > _MAX_FIELD_ORDER:
        raise ValueError(f"field order {d} is above the {_MAX_FIELD_ORDER} limit "
                         "of int64 GF(d) arithmetic")
    if not is_prime(d):
        raise ValueError(f"field order {d} is not prime")
    return d


# ---------------------------------------------------------------------------
# GF(d) linear algebra on integer arrays


def gf_rref(a: np.ndarray, d: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod d; returns (matrix, pivot columns)."""
    m = np.array(a, dtype=np.int64) % d
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        swap = r + int(nz[0])
        m[[r, swap]] = m[[swap, r]]
        inv = pow(int(m[r, c]), d - 2, d)
        m[r] = (m[r] * inv) % d
        for other in range(rows):
            if other != r and m[other, c]:
                m[other] = (m[other] - m[other, c] * m[r]) % d
        pivots.append(c)
        r += 1
    return m, pivots


def gf_rank(a: np.ndarray, d: int) -> int:
    if np.asarray(a).size == 0:
        return 0
    return len(gf_rref(a, d)[1])


def gf_nullspace(a: np.ndarray, d: int) -> np.ndarray:
    """Rows spanning {v : a v = 0 mod d}."""
    a = np.atleast_2d(np.array(a, dtype=np.int64)) % d
    cols = a.shape[1]
    if a.size == 0 or a.shape[0] == 0:
        return np.eye(cols, dtype=np.int64)
    r, pivots = gf_rref(a, d)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, c in enumerate(free):
        basis[i, c] = 1
        for row, p in enumerate(pivots):
            basis[i, p] = (-r[row, c]) % d
    return basis


def gf_inv(a: np.ndarray, d: int) -> np.ndarray:
    a = np.array(a, dtype=np.int64) % d
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    aug = np.hstack([a, np.eye(n, dtype=np.int64)])
    r, pivots = gf_rref(aug, d)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular over GF(d)")
    return r[:, n:] % d


@dataclass(frozen=True, eq=False)
class GfMatrix:
    """An integer matrix with entries reduced mod a prime d."""

    d: int
    entries: np.ndarray

    def __post_init__(self):
        d = _check_prime(self.d)
        m = np.atleast_2d(np.array(self.entries, dtype=np.int64)) % d
        m.flags.writeable = False
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "entries", m)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


def _flat_classes(strings: np.ndarray, rows: GfMatrix) -> np.ndarray:
    """Flat class value of each string under the GF(d) map ``rows``."""
    d = rows.d
    if rows.rows == 0:
        return np.zeros(len(strings), dtype=np.int64)
    vals = (strings @ rows.entries.T) % d
    powers = d ** np.arange(rows.rows - 1, -1, -1)
    return vals @ powers


# ---------------------------------------------------------------------------
# codes


def _complete_basis(fixed: np.ndarray, candidates: np.ndarray, d: int,
                    count: int) -> np.ndarray:
    """Pick ``count`` candidate rows extending ``fixed`` to an independent set.

    The pivot columns of the transposed stack are the rows, in order, that
    are independent of the rows before them.
    """
    _, pivots = gf_rref(np.vstack([fixed, candidates]).T, d)
    picked = [p - len(fixed) for p in pivots if p >= len(fixed)][:count]
    if len(picked) != count:
        raise ValueError("could not complete an independent set")
    return candidates[picked] % d


@dataclass(frozen=True, eq=False)
class _CodeTables:
    """Flat class values of every string under one code, and its encode maps.

    ``alpha_classes``/``beta_classes`` map each syndrome value to its member
    strings, ``strings`` lists the strings by index, and each row of
    ``cosets`` holds the strings of one coset of the row space of mx;
    column x of ``v`` is the n-qudit Fourier conjugate-basis vector |x~>;
    ``zperm`` sends a string to its flat (logical, z-syndrome,
    destabiliser) coordinate, ``cperm`` does the same for a guess register
    and sends its fail slot to the first value past the strings.
    """

    alpha_of: np.ndarray
    beta_of: np.ndarray
    lam_of: np.ndarray
    mu_of: np.ndarray
    alpha_classes: Mapping
    beta_classes: Mapping
    strings: np.ndarray
    cosets: np.ndarray
    v: np.ndarray
    zperm: np.ndarray
    cperm: np.ndarray

    def __post_init__(self):  # every caller of one code shares them: read-only
        for value in vars(self).values():
            for arr in value.values() if isinstance(value, Mapping) else (value,):
                arr.flags.writeable = False


@dataclass(frozen=True, eq=False)
class CssCode:
    """Stabilizer data plus paired logical representatives over GF(d)."""

    mz: GfMatrix
    mx: GfMatrix
    logical_z: GfMatrix
    logical_x: GfMatrix

    def __post_init__(self):
        d = self.mz.d
        n = self.mz.cols
        if {self.mx.d, self.logical_z.d, self.logical_x.d} != {d}:
            raise ValueError("all blocks must share the field order")
        if {self.mx.cols, self.logical_z.cols, self.logical_x.cols} != {n}:
            raise ValueError("all blocks must share the string length")
        k = n - self.mz.rows - self.mx.rows
        if k < 0:
            raise ValueError("more stabilizers than positions")
        if self.logical_z.rows != k or self.logical_x.rows != k:
            raise ValueError(f"expected {k} logical rows")
        if np.any((self.mz.entries @ self.mx.entries.T) % d):
            raise ValueError("M_z and M_x are not orthogonal")
        stacked = np.vstack([self.mz.entries, self.mx.entries])
        if stacked.size and gf_rank(stacked, d) != self.mz.rows + self.mx.rows:
            raise ValueError("stabilizer rows are not independent")
        if np.any((self.logical_z.entries @ self.mx.entries.T) % d):
            raise ValueError("logical Z rows must commute with X stabilizers")
        if np.any((self.logical_x.entries @ self.mz.entries.T) % d):
            raise ValueError("logical X rows must commute with Z stabilizers")
        if k:
            pairing = (self.logical_z.entries @ self.logical_x.entries.T) % d
            if np.any(pairing != np.eye(k, dtype=np.int64)):
                raise ValueError("logical pairing is not the identity")
            if gf_rank(np.vstack([self.mz.entries, self.logical_z.entries]), d) != self.mz.rows + k:
                raise ValueError("logical Z rows are dependent on M_z")
            if gf_rank(np.vstack([self.mx.entries, self.logical_x.entries]), d) != self.mx.rows + k:
                raise ValueError("logical X rows are dependent on M_x")

    @property
    def d(self) -> int:
        return self.mz.d

    @property
    def n(self) -> int:
        return self.mz.cols

    @property
    def m_z(self) -> int:
        return self.mz.rows

    @property
    def m_x(self) -> int:
        return self.mx.rows

    @property
    def k(self) -> int:
        return self.n - self.m_z - self.m_x

    @classmethod
    def from_stabilizers(cls, d: int, mz_rows, mx_rows, n: int | None = None) -> "CssCode":
        """Derive paired logical representatives from parity rows of n entries each."""
        d = _check_prime(d)
        mz, mx = ([np.asarray(row, dtype=np.int64) % d for row in rows]
                  for rows in (mz_rows, mx_rows))
        if n is None:
            if not (mz or mx):
                raise ValueError("need n for a trivial code")
            n = (mz or mx)[0].size
        for row in mz + mx:
            if row.shape != (n,):
                raise ValueError(f"a stabilizer row has {row.size} entries, but n = {n}")
        mz, mx = (np.array(rows, dtype=np.int64).reshape(len(rows), n) for rows in (mz, mx))
        k = n - mz.shape[0] - mx.shape[0]
        if k < 0:
            raise ValueError("more stabilizers than positions")
        # X-type logicals: complete M_x inside the kernel of M_z
        lx = _complete_basis(mx, gf_nullspace(mz, d), d, k)
        # Z-type logicals: complete M_z inside the kernel of M_x, then pair them
        lz = _complete_basis(mz, gf_nullspace(mx, d), d, k)
        lz = (gf_inv((lz @ lx.T) % d, d) @ lz) % d
        return cls(GfMatrix(d, mz), GfMatrix(d, mx), GfMatrix(d, lz), GfMatrix(d, lx))

    @classmethod
    def trivial(cls, d: int, n: int) -> "CssCode":
        return cls.from_stabilizers(d, np.zeros((0, n), np.int64),
                                    np.zeros((0, n), np.int64), n=n)

    def destabilizer_z(self) -> GfMatrix:
        """Rows D_z with D_z M_x^T = 1 and D_z L_x^T = 0.

        Together with (logical_z, M_z) they turn the string k into the
        invertible coordinate triple (L_z k, M_z k, D_z k).
        """
        d, n, m_x = self.d, self.n, self.m_x
        # one reduction of [M_x; L_x | e_0 ... e_{m_x - 1}]; the rows of
        # [M_x; L_x] are independent, so every pivot lies in their n columns
        lhs = np.vstack([self.mx.entries, self.logical_x.entries])
        r, pivots = gf_rref(np.hstack([lhs, np.eye(len(lhs), m_x, dtype=np.int64)]), d)
        out = np.zeros((m_x, n), dtype=np.int64)  # free entries stay 0
        out[:, pivots] = r[:len(pivots), n:].T
        frame = np.vstack([self.logical_z.entries, self.mz.entries, out])
        if gf_rank(frame, d) != n:
            raise ValueError("destabilizer completion failed")
        return GfMatrix(d, out)

    @cached_property
    def _tables(self) -> _CodeTables:
        """The code's ``_CodeTables``, built when first read."""
        d, n = self.d, self.n
        strings = all_strings(d, n)
        alpha_of, beta_of = _flat_classes(strings, self.mz), _flat_classes(strings, self.mx)
        lam_of = _flat_classes(strings, self.logical_z)
        g_of = _flat_classes(strings, self.destabilizer_z())
        # k + m_z + m_x = n, so the coordinates (lam, alpha, g) index all d^n values
        zperm = (lam_of * d ** self.m_z + alpha_of) * d ** self.m_x + g_of
        # row c of shifted is the coset of string c modulo the row space of mx;
        # the rows of the strings that are their coset's least member list each once
        span = (all_strings(d, self.m_x) @ self.mx.entries) % d
        shifted = ((strings[:, None] + span) % d) @ d ** np.arange(n - 1, -1, -1)
        return _CodeTables(
            alpha_of=alpha_of, beta_of=beta_of,
            lam_of=lam_of, mu_of=_flat_classes(strings, self.logical_x),
            alpha_classes=MappingProxyType({tuple(int(x) for x in a): np.flatnonzero(alpha_of == c)
                                            for c, a in enumerate(all_strings(d, self.m_z))}),
            beta_classes=MappingProxyType({tuple(int(x) for x in b): np.flatnonzero(beta_of == c)
                                           for c, b in enumerate(all_strings(d, self.m_x))}),
            strings=strings, cosets=shifted[shifted.min(axis=1) == np.arange(d ** n)],
            v=reduce(np.kron, [ConjugateBasis.fourier(d).vectors] * n),
            zperm=zperm, cperm=np.append(zperm, d ** n))


# ---------------------------------------------------------------------------
# sampling


def _draw_css_slices(d: int, n: int, m_z: int, m_x: int,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Raw draw: z rows iid uniform, x rows uniform over the dual of the z block.

    Z-type rows need no constraint among themselves (Z operators always
    commute); drawing them mutually orthogonal would skew the syndrome hash
    away from two-universality whenever the probe difference is
    self-orthogonal.
    """
    mz = rng.integers(0, d, size=(m_z, n)).astype(np.int64)
    if m_x:
        null = gf_nullspace(mz, d) if mz.size else np.eye(n, dtype=np.int64)
        coeff = rng.integers(0, d, size=(m_x, null.shape[0]))
        mx = (coeff @ null) % d
    else:
        mx = np.zeros((0, n), dtype=np.int64)
    return mz, mx


def sample_universal_css(d: int, n: int, m_z: int, m_x: int,
                         rng: np.random.Generator,
                         max_attempts: int = 500) -> CssCode:
    """Sample a CSS code whose z slice is a two-universal syndrome hash.

    M_z rows are iid uniform over GF(d)^n and M_x rows uniform over the dual
    of the z block; draws with dependent rows in either block are rejected
    wholesale.
    """
    d = _check_prime(d)
    if m_z < 0 or m_x < 0 or m_z + m_x > n:
        raise ValueError(f"infeasible parameters (n={n}, m_z={m_z}, m_x={m_x})")
    for _ in range(max_attempts):
        mz, mx = _draw_css_slices(d, n, m_z, m_x, rng)
        if gf_rank(np.vstack([mz, mx]), d) == m_z + m_x:
            return CssCode.from_stabilizers(d, mz, mx, n=n)
    raise CodeSamplingError(
        f"no independent completion found for (d={d}, n={n}, m_z={m_z}, m_x={m_x}) "
        f"after {max_attempts} attempts")


@dataclass(frozen=True)
class UniversalityEstimate:
    collision_rate: float
    std_error: float
    trials: int
    reference: float  # d^{-m}
    strings: tuple[tuple[int, ...], tuple[int, ...]]


def universality_estimate(d: int, n: int, m: int, row_slice: str = "z", *,
                          trials: int = 10_000, rng: np.random.Generator,
                          m_other: int = 0,
                          strings: tuple[Sequence[int], Sequence[int]] | None = None,
                          ) -> UniversalityEstimate:
    """Estimate the syndrome collision probability of a sampled row slice.

    Draws the raw slice distribution (z rows iid uniform, x rows uniform over
    the dual of ``m_other`` z rows; no independence rejection) and counts how
    often two fixed distinct strings hash to the same ``m``-symbol syndrome.
    Two-universality predicts a rate <= d^{-m}.
    """
    d = _check_prime(d)
    if row_slice not in ("z", "x"):
        raise ValueError("row_slice must be 'z' or 'x'")
    if m + m_other > n:
        raise ValueError("too many rows for the string length")
    if strings is None:
        while True:
            k1 = tuple(int(v) for v in rng.integers(0, d, size=n))
            k2 = tuple(int(v) for v in rng.integers(0, d, size=n))
            if k1 != k2:
                break
    else:
        k1, k2 = (tuple(int(v) for v in s) for s in strings)
        if k1 == k2:
            raise ValueError("the probe strings must differ")
    diff = (np.array(k1, dtype=np.int64) - np.array(k2, dtype=np.int64)) % d
    hits = 0
    for _ in range(trials):
        if row_slice == "z":
            sel, _ = _draw_css_slices(d, n, m, m_other, rng)
        else:
            _, sel = _draw_css_slices(d, n, m_other, m, rng)
        if not np.any((sel @ diff) % d):
            hits += 1
    rate = hits / trials
    return UniversalityEstimate(
        collision_rate=rate,
        std_error=float(np.sqrt(max(rate * (1 - rate), 1e-12) / trials)),
        trials=trials,
        reference=float(d) ** (-m),
        strings=(k1, k2))


# ---------------------------------------------------------------------------
# operators on the n-qudit register


def all_strings(d: int, n: int) -> np.ndarray:
    """All strings in lexicographic order; row index equals the register index."""
    return np.array(list(itertools.product(range(d), repeat=n)), dtype=np.int64).reshape(d ** n, n)


def string_index(string: Sequence[int], d: int) -> int:
    idx = 0
    for v in string:
        idx = idx * d + int(v) % d
    return idx


def syndrome(code: CssCode, string: Sequence[int], basis: str = "standard") -> np.ndarray:
    """M_z k for standard-basis strings, M_x x for conjugate-basis strings."""
    s = np.array(string, dtype=np.int64) % code.d
    if s.shape != (code.n,):
        raise ValueError(f"string must have length {code.n}")
    if basis == "standard":
        return (code.mz.entries @ s) % code.d
    if basis == "conjugate":
        return (code.mx.entries @ s) % code.d
    raise ValueError("basis must be 'standard' or 'conjugate'")


_KIND_MATRIX = {"alpha": ("mz", "standard"), "beta": ("mx", "conjugate"),
                "lambda": ("logical_z", "standard"), "mu": ("logical_x", "conjugate")}


def class_members(code: CssCode, value: Sequence[int], kind: str) -> np.ndarray:
    """Register indices of the strings in the class ``{s : M s = value}``."""
    if kind not in _KIND_MATRIX:
        raise ValueError(f"unknown class kind {kind!r}")
    m: GfMatrix = getattr(code, _KIND_MATRIX[kind][0])
    v = np.array(value, dtype=np.int64).reshape(-1) % code.d
    if v.shape != (m.rows,):
        raise ValueError(f"class value must have length {m.rows}")
    flat = _flat_classes(all_strings(code.d, code.n), m)
    return np.flatnonzero(flat == string_index(v, code.d))


def class_projector(code: CssCode, value: Sequence[int], kind: str) -> LinearOperator:
    """Projector onto a syndrome or logical class of the n-qudit register.

    ``alpha`` and ``lambda`` classes live in the standard basis, ``beta``
    and ``mu`` classes in the conjugate (Fourier) basis.
    """
    members = class_members(code, value, kind)
    dim = code.d ** code.n
    _, basis = _KIND_MATRIX[kind]
    diag = np.zeros(dim)
    diag[members] = 1.0
    space = HilbertSpace((dim,), ("Q",))
    if basis == "standard":
        return LinearOperator(space, np.diag(diag.astype(np.complex128)), "projector")
    f = code._tables.v
    return LinearOperator(space, (f * diag) @ f.conj().T, "projector")


def logical_operators(code: CssCode) -> tuple[list[LinearOperator], list[LinearOperator]]:
    """Encoded operators: Z-type rows as Z^s, X-type rows as X^t."""
    z1, x1, _ = generalized_paulis(code.d)
    dim = code.d ** code.n
    space = HilbertSpace((dim,), ("Q",))

    def weave(single: np.ndarray, powers: np.ndarray) -> np.ndarray:
        out = np.eye(1, dtype=np.complex128)
        for p in powers:
            out = np.kron(out, np.linalg.matrix_power(single, int(p)))
        return out

    zs = [LinearOperator(space, weave(z1.matrix, row), "unitary")
          for row in code.logical_z.entries]
    xs = [LinearOperator(space, weave(x1.matrix, row), "unitary")
          for row in code.logical_x.entries]
    return zs, xs
