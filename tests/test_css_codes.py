"""GF(d) linear algebra, CSS codes, class projectors, universality."""

import itertools

import numpy as np
import pytest

from privlab import CssCode, GfMatrix, substream
from privlab.css_codes import (CodeSamplingError, _complete_basis, all_strings, class_members,
                               class_projector, gf_inv, gf_nullspace, gf_rank,
                               gf_rref, is_prime, logical_operators,
                               sample_universal_css, string_index, syndrome,
                               universality_estimate)


def brute_rank(a, d):
    """Row-space size oracle: rank = log_d |span|."""
    a = np.asarray(a) % d
    span = {tuple(np.zeros(a.shape[1], dtype=int))}
    for coeffs in itertools.product(range(d), repeat=a.shape[0]):
        v = tuple((np.array(coeffs) @ a) % d)
        span.add(v)
    r = 0
    while d ** r < len(span):
        r += 1
    return r


def test_is_prime():
    assert [p for p in range(2, 20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)


def test_gf_rank_against_spanning_oracle():
    for d in (2, 3, 5):
        for seed in range(8):
            rng = substream(1000 * d + seed)
            a = rng.integers(0, d, size=(3, 4))
            assert gf_rank(a, d) == brute_rank(a, d)


def test_gf_rref_reproduces_row_space():
    for d in (2, 3):
        for seed in range(6):
            rng = substream(2000 * d + seed)
            a = rng.integers(0, d, size=(3, 5))
            r, pivots = gf_rref(a, d)
            assert gf_rank(r, d) == gf_rank(a, d)
            assert len(pivots) == gf_rank(a, d)
            # pivot columns carry identity rows
            for i, c in enumerate(pivots):
                col = r[:, c]
                want = np.zeros(r.shape[0], dtype=col.dtype)
                want[i] = 1
                assert np.array_equal(col, want)


def test_gf_nullspace():
    for d in (2, 3, 5):
        for seed in range(6):
            rng = substream(3000 * d + seed)
            a = rng.integers(0, d, size=(3, 5))
            ns = gf_nullspace(a, d)
            assert ns.shape[0] == 5 - gf_rank(a, d)
            if ns.size:
                assert not np.any((a @ ns.T) % d)
                assert gf_rank(ns, d) == ns.shape[0]


def test_gf_inv():
    for d in (2, 3, 5):
        rng = substream(17 * d)
        while True:
            a = rng.integers(0, d, size=(3, 3))
            if gf_rank(a, d) == 3:
                break
        inv = gf_inv(a, d)
        assert np.array_equal((a @ inv) % d, np.eye(3, dtype=np.int64))


def test_all_strings_order_and_index():
    assert all_strings(2, 2).tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert all_strings(3, 0).shape == (1, 0)
    strings = all_strings(3, 2)
    assert strings.shape == (9, 2)
    for i, s in enumerate(strings):
        assert string_index(s, 3) == i


def test_gf_matrix_validation():
    m = GfMatrix(3, np.array([[4, -1], [0, 2]]))
    assert m.entries.tolist() == [[1, 2], [0, 2]]  # reduced mod 3
    assert m.rows == 2 and m.cols == 2
    with pytest.raises(ValueError):
        GfMatrix(4, np.array([[1, 0]]))  # composite d


def test_trivial_code():
    code = CssCode.trivial(2, 3)
    assert code.k == 3 and code.m_z == 0 and code.m_x == 0
    assert code.logical_z.rows == 3
    # logical frame is the identity pairing
    assert np.array_equal(
        (code.logical_z.entries @ code.logical_x.entries.T) % 2,
        np.eye(3, dtype=np.int64))


def test_from_stabilizers_validation():
    with pytest.raises(ValueError):
        # rows not orthogonal: (1,1,0).(0,1,1) = 1 mod 2
        CssCode.from_stabilizers(2, [[1, 1, 0]], [[0, 1, 1]], n=3)
    with pytest.raises(ValueError):
        # dependent z rows
        CssCode.from_stabilizers(2, [[1, 1, 0], [1, 1, 0]], [], n=3)
    code = CssCode.from_stabilizers(3, [[1, 2]], [], n=2)
    assert code.d == 3 and code.k == 1


def test_from_stabilizers_reads_n_off_the_rows():
    code = CssCode.from_stabilizers(2, [[1, 1, 0]], [[0, 0, 1]])
    want = CssCode.from_stabilizers(2, [[1, 1, 0]], [[0, 0, 1]], n=3)
    assert code.n == 3 and code.k == 1
    for block in ("mz", "mx", "logical_z", "logical_x"):
        assert np.array_equal(getattr(code, block).entries, getattr(want, block).entries)
    assert CssCode.from_stabilizers(3, [], [[1, 2]]).n == 2  # x rows alone give n too
    with pytest.raises(ValueError, match="need n for a trivial code"):
        CssCode.from_stabilizers(2, [], [])


def test_syndrome_matches_matrix_product():
    code = CssCode.from_stabilizers(2, [[1, 1, 0]], [[0, 0, 1]], n=3)
    for s in all_strings(2, 3):
        assert np.array_equal(syndrome(code, s),
                              (code.mz.entries @ s) % 2)
        assert np.array_equal(syndrome(code, s, basis="conjugate"),
                              (code.mx.entries @ s) % 2)
    with pytest.raises(ValueError):
        syndrome(code, [1, 1, 0], basis="hadamard")


def test_class_members_partition():
    for d, n, m_z, m_x in ((2, 3, 1, 1), (3, 2, 1, 0)):
        code = sample_universal_css(d, n, m_z, m_x, substream(d * 10 + n))
        for kind, rows in (("alpha", m_z), ("beta", m_x), ("lambda", code.k),
                           ("mu", code.k)):
            seen = []
            for value in all_strings(d, rows):
                members = class_members(code, value, kind)
                assert len(members) == d ** (n - rows)
                seen.extend(members.tolist())
            assert sorted(seen) == list(range(d ** n))


def test_class_members_match_the_code_tables_without_building_them():
    code = sample_universal_css(3, 3, 1, 1, substream(23))
    members = {(kind, tuple(v)): class_members(code, v, kind)
               for kind, rows in (("alpha", 1), ("beta", 1)) for v in all_strings(3, rows)}
    assert "_tables" not in vars(code)  # the d^(2n) Fourier basis was never built
    tab = code._tables
    assert code._tables is tab
    for (kind, value), got in members.items():
        want = (tab.alpha_classes if kind == "alpha" else tab.beta_classes)[value]
        assert np.array_equal(got, want)
    # a conjugate-basis projector reads the code's one Fourier basis
    p = class_projector(code, [2], "beta").matrix
    f = tab.v[:, members[("beta", (2,))]]
    assert np.allclose(p, f @ f.conj().T, atol=1e-12)


def test_class_projectors_resolve_identity_and_commute():
    code = CssCode.from_stabilizers(2, [[1, 1, 0]], [[0, 0, 1]], n=3)
    dim = 2 ** 3
    for kind, rows in (("alpha", 1), ("beta", 1)):
        total = np.zeros((dim, dim), dtype=np.complex128)
        for value in all_strings(2, rows):
            p = class_projector(code, value, kind).matrix
            assert np.allclose(p @ p, p, atol=1e-12)
            assert np.allclose(p, p.conj().T, atol=1e-12)
            total += p
        assert np.allclose(total, np.eye(dim), atol=1e-12)
    # CSS orthogonality makes standard and conjugate classes compatible
    for av in all_strings(2, 1):
        for bv in all_strings(2, 1):
            pa = class_projector(code, av, "alpha").matrix
            pb = class_projector(code, bv, "beta").matrix
            assert np.allclose(pa @ pb, pb @ pa, atol=1e-12)
    # lambda refines alpha: lambda projectors commute with beta ones too
    for lv in all_strings(2, code.k):
        pl_ = class_projector(code, lv, "lambda").matrix
        for bv in all_strings(2, 1):
            pb = class_projector(code, bv, "beta").matrix
            assert np.allclose(pl_ @ pb, pb @ pl_, atol=1e-12)


def test_logical_operators_weyl_pairing():
    for d, n, m_z, m_x in ((2, 3, 1, 1), (3, 2, 1, 0)):
        code = sample_universal_css(d, n, m_z, m_x, substream(d * 100 + n))
        zops, xops = logical_operators(code)
        assert len(zops) == code.k and len(xops) == code.k
        omega = np.exp(2j * np.pi / d)
        for i, zo in enumerate(zops):
            for j, xo in enumerate(xops):
                lhs = zo.matrix @ xo.matrix
                rhs = xo.matrix @ zo.matrix
                phase = omega if i == j else 1.0
                assert np.allclose(lhs, phase * rhs, atol=1e-10)
        # logicals preserve syndrome classes
        p0 = class_projector(code, [0] * code.m_z, "alpha").matrix
        for xo in xops:
            assert np.allclose(xo.matrix @ p0 @ xo.matrix.conj().T, p0,
                               atol=1e-10)


def solve_one(a, b, d):
    """One solution of a v = b mod d with every free entry 0, one system at a time."""
    r, pivots = gf_rref(np.hstack([a, b[:, None]]), d)
    assert a.shape[1] not in pivots, "inconsistent system"
    v = np.zeros(a.shape[1], dtype=np.int64)
    for row, p in enumerate(pivots):
        v[p] = r[row, -1]
    return v


# (n, m_z, m_x): generic, m_x = 0, k = 0, and both
@pytest.mark.parametrize("shape", [(4, 1, 2), (3, 1, 1), (4, 2, 0), (3, 0, 0),
                                   (3, 0, 3), (4, 1, 3), (3, 2, 1), (3, 3, 0)])
@pytest.mark.parametrize("d", [2, 3, 5])
def test_destabilizer_z(d, shape):
    n, m_z, m_x = shape
    for seed in range(4):
        code = sample_universal_css(d, n, m_z, m_x, substream(seed, 9))
        dz = code.destabilizer_z().entries
        lhs = np.vstack([code.mx.entries, code.logical_x.entries])
        want = [solve_one(lhs, np.eye(len(lhs), dtype=np.int64)[i], d) for i in range(m_x)]
        assert dz.shape == (m_x, n)
        assert np.array_equal(dz, np.array(want, dtype=np.int64).reshape(m_x, n))
        assert np.array_equal((dz @ code.mx.entries.T) % d, np.eye(m_x, dtype=np.int64))
        assert not np.any((dz @ code.logical_x.entries.T) % d)
        assert gf_rank(np.vstack([code.logical_z.entries, code.mz.entries, dz]), d) == n


def complete_basis_one_by_one(fixed, candidates, d, count):
    """Add each candidate row that raises the rank, until ``count`` are picked."""
    picked = []
    rank = gf_rank(fixed, d)
    for row in candidates:
        if len(picked) == count:
            break
        if gf_rank(np.vstack([fixed, *picked, row]), d) > rank + len(picked):
            picked.append(row)
    if len(picked) != count:
        raise ValueError("could not complete an independent set")
    return np.array(picked, dtype=np.int64).reshape(count, candidates.shape[1]) % d


def test_complete_basis_picks_what_a_rank_per_candidate_picks():
    rng = substream(4040)
    outcomes = {"picked": 0, "raised": 0, "count 0": 0}
    for _ in range(600):
        d = int(rng.choice([2, 3, 5]))
        n = int(rng.integers(1, 6))
        fixed = rng.integers(0, d, size=(int(rng.integers(0, n + 1)), n))
        if len(fixed) > 1 and rng.random() < 0.3:  # a dependent fixed row
            fixed[-1] = (fixed[0] * int(rng.integers(0, d))) % d
        candidates = rng.integers(0, d, size=(int(rng.integers(0, n + 3)), n))
        count = int(rng.integers(0, n + 1))
        try:
            want = complete_basis_one_by_one(fixed, candidates, d, count)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                _complete_basis(fixed, candidates, d, count)
            outcomes["raised"] += 1
            continue
        got = _complete_basis(fixed, candidates, d, count)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        outcomes["picked" if count else "count 0"] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_sampled_codes_are_valid():
    # constructor re-validates orthogonality, independence and pairing
    grid = ((2, 3, 1, 1), (2, 4, 2, 1), (3, 3, 1, 1), (5, 2, 1, 0))
    for d, n, m_z, m_x in grid:
        for seed in range(10):
            code = sample_universal_css(d, n, m_z, m_x, substream(seed))
            assert (code.d, code.n, code.m_z, code.m_x) == (d, n, m_z, m_x)
            assert not np.any((code.mz.entries @ code.mx.entries.T) % d)
            assert gf_rank(code.mz.entries, d) == m_z
            assert gf_rank(code.mx.entries, d) == m_x
            assert code.k == n - m_z - m_x


def test_sample_rejects_impossible_shapes():
    with pytest.raises(ValueError):
        sample_universal_css(2, 3, 2, 2, substream(0))
    with pytest.raises(ValueError):
        sample_universal_css(6, 3, 1, 1, substream(0))


def test_universality_estimate_tracks_reference():
    for d, n, m in ((2, 3, 1), (3, 3, 2)):
        est = universality_estimate(d, n, m, "z", trials=4000,
                                    rng=substream(71 + d))
        assert est.reference == pytest.approx(d ** -m)
        assert est.trials == 4000
        assert abs(est.collision_rate - est.reference) <= 5 * est.std_error + 1e-3
        s1, s2 = est.strings
        assert list(s1) != list(s2)


def test_universality_custom_string_pair():
    est = universality_estimate(2, 3, 1, "z", trials=1500, rng=substream(5),
                                strings=([1, 0, 0], [0, 1, 0]))
    assert est.collision_rate <= est.reference + 5 * est.std_error + 1e-3
