"""Generalized Paulis, conjugate bases, twisting, measurement."""

import numpy as np
import pytest

from privlab import (ConjugateBasis, HilbertSpace, Povm,
                     StateVector, TwistingOperator, build_private_state,
                     coherent_measure, generalized_paulis, haar_unitary,
                     maximally_entangled, measure, partial_trace,
                     random_pure_state, substream, twisting_unitary)
from privlab import qudit_ops
from privlab.tensor_core import InvariantViolation, _psd_root
from conftest import assert_povm


def test_generalized_paulis_defining_relations():
    for d in (2, 3, 5):
        zop, xop, omega = generalized_paulis(d)
        z, x = zop.matrix, xop.matrix
        assert abs(omega - np.exp(2j * np.pi / d)) < 1e-12
        assert np.allclose(z, np.diag([omega ** k for k in range(d)]))
        # X|k> = |k+1 mod d>
        for k in range(d):
            e = np.zeros(d)
            e[k] = 1.0
            out = x @ e
            assert abs(out[(k + 1) % d] - 1.0) < 1e-12
        assert np.allclose(np.linalg.matrix_power(z, d), np.eye(d), atol=1e-10)
        assert np.allclose(np.linalg.matrix_power(x, d), np.eye(d), atol=1e-10)
        # Weyl commutation ZX = omega XZ
        assert np.allclose(z @ x, omega * (x @ z), atol=1e-12)


def test_fourier_conjugate_basis_overlaps():
    for d in (2, 3, 5):
        cb = ConjugateBasis.fourier(d)
        v = cb.vectors
        assert np.allclose(v.conj().T @ v, np.eye(d), atol=1e-12)
        omega = np.exp(2j * np.pi / d)
        for x in range(d):
            for k in range(d):
                assert abs(v[k, x] - omega ** (x * k) / np.sqrt(d)) < 1e-12
        # mutual unbiasedness against the standard basis
        assert np.allclose(np.abs(v) ** 2, np.full((d, d), 1.0 / d), atol=1e-12)


def test_conjugate_basis_povm_and_projectors():
    for d in (2, 3):
        cb = ConjugateBasis.fourier(d)
        assert_povm(cb.povm(), d)
        total = np.zeros((d, d), dtype=np.complex128)
        for y in range(d):
            p = cb.projector(y)
            assert np.allclose(p @ p, p, atol=1e-12)
            total += p
        assert np.allclose(total, np.eye(d), atol=1e-12)
        star = cb.conjugated()
        assert np.allclose(star.vectors, cb.vectors.conj())


def test_conjugate_basis_rejects_biased_columns():
    # the standard basis itself is not mutually unbiased with itself
    with pytest.raises(ValueError):
        ConjugateBasis(2, np.eye(2))


def test_maximally_entangled_marginals():
    for d in (2, 3):
        phi = maximally_entangled(d)
        amps = phi.amplitudes.reshape(d, d)
        assert np.allclose(amps, np.eye(d) / np.sqrt(d))
        red = partial_trace(phi, ("A",))
        assert np.allclose(red.matrix, np.eye(d) / d, atol=1e-12)


def test_twisting_unitary_block_structure():
    d, sh = 2, 3
    space = HilbertSpace((d, d, sh), ("A", "B", "S"))
    t = TwistingOperator.random(d, sh, substream(7))
    u = twisting_unitary(t).matrix
    assert np.allclose(u @ u.conj().T, np.eye(d * d * sh), atol=1e-10)
    # oracle: U = sum_{jk} |j><j| (x) |k><k| (x) V_jk
    want = np.zeros_like(u)
    for (j, k), block in t.blocks.items():
        pj = np.zeros((d, d))
        pj[j, j] = 1.0
        pk = np.zeros((d, d))
        pk[k, k] = 1.0
        want += np.kron(np.kron(pj, pk), block)
    assert np.allclose(u, want, atol=1e-12)


def test_twisting_identity_and_diagonal():
    t = TwistingOperator.identity(2, 2)
    assert np.allclose(twisting_unitary(t).matrix, np.eye(8))
    blocks = [np.diag(np.exp(1j * np.array([0.3, -0.1]))) for _ in range(2)]
    td = TwistingOperator.from_diagonal(2, blocks)
    u = twisting_unitary(td).matrix
    assert np.allclose(u, np.diag(np.diag(u)))


def test_twisting_shares_one_checked_identity_off_the_diagonal(monkeypatch):
    # d diagonal blocks and one identity, each converted and checked once
    checked = []
    as_complex = qudit_ops._as_complex
    monkeypatch.setattr(qudit_ops, "_as_complex", lambda a: checked.append(1) or as_complex(a))
    diagonal = [np.diag(np.exp(1j * np.array([0.3, -0.1, 0.2]) * k)) for k in range(3)]
    t = TwistingOperator.from_diagonal(3, diagonal)
    assert len(checked) == 4
    off = {id(t.blocks[(j, k)]) for j in range(3) for k in range(3) if j != k}
    assert len(off) == 1 and np.array_equal(t.blocks[(0, 1)], np.eye(3))
    assert not t.blocks[(0, 1)].flags.writeable
    assert all(t.blocks[(k, k)] is not diagonal[k] and diagonal[k].flags.writeable
               for k in range(3))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_twisting_rejects_non_finite_blocks(bad):
    # a NaN deviation used to pass the unitarity comparison
    block = np.array([[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        TwistingOperator.from_diagonal(2, [block, np.eye(2)])
    space = HilbertSpace((2, 2, 2), ("A", "B", "S"))
    blocks = {(j, k): np.eye(2) for j in range(2) for k in range(2)}
    blocks[(0, 1)] = block
    with pytest.raises(ValueError, match="finite"):
        TwistingOperator(space, blocks)


def test_private_state_key_correlations():
    for d, seed in ((2, 0), (3, 1)):
        sh = 2
        t = TwistingOperator.random(d, sh, substream(30 + seed))
        xi = random_pure_state(HilbertSpace((sh,), ("S",)), substream(40 + seed))
        gamma = build_private_state(d, t, xi)
        assert gamma.space.labels == ("A", "B", "S")
        res = measure(gamma, [(("A",), Povm.standard_basis(d)),
                              (("B",), Povm.standard_basis(d))])
        probs = res.probs.reshape(d, d)
        assert np.allclose(probs, np.eye(d) / d, atol=1e-12)


def test_private_state_with_identity_twisting_is_product():
    d, sh = 2, 2
    t = TwistingOperator.identity(d, sh)
    xi = random_pure_state(HilbertSpace((sh,), ("S",)), substream(50))
    gamma = build_private_state(d, t, xi)
    phi = maximally_entangled(d).density()
    want = np.kron(phi.matrix, xi.density().matrix)
    assert np.allclose(gamma.matrix, want, atol=1e-12)


def test_measure_born_rule_oracle():
    space = HilbertSpace((2, 3), ("A", "B"))
    for seed in range(4):
        psi = random_pure_state(space, substream(60 + seed))
        rho = psi.density()
        povm = Povm.standard_basis(2)
        res = measure(rho, [(("A",), povm)])
        assert res.kept_labels == ("B",)
        # oracle: p(a) = Tr[(E_a (x) I) rho], conditional on B from the
        # projected state
        for a in range(2):
            el = np.kron(povm.elements[a], np.eye(3))
            want = float(np.real(np.trace(el @ rho.matrix)))
            assert abs(res.probs[a] - want) < 1e-12
            cond = res.conditionals[(a,)]
            ww = (el @ rho.matrix @ el).reshape(2, 3, 2, 3)
            marg = np.trace(ww, axis1=0, axis2=2) / want
            assert np.allclose(cond.matrix, marg, atol=1e-10)


def test_measure_conditionals_are_built_once_and_read_only():
    space = HilbertSpace((3, 2, 3), ("A", "B", "E"))
    psi = random_pure_state(space, substream(64))
    res = measure(psi, [(("A",), Povm.standard_basis(3)),
                        (("E",), ConjugateBasis.fourier(3).povm())])
    assert len(res.conditionals) == 9 and sorted(res.conditionals) == sorted(
        np.ndindex(3, 3))
    cond = res.conditionals[(1, 2)]
    assert res.conditionals[(1, 2)] is cond
    assert cond.space.labels == ("B",)
    assert abs(np.trace(cond.matrix) - 1.0) < 1e-12
    with pytest.raises(TypeError):
        res.conditionals[(0, 0)] = cond


def test_measure_two_registers_joint_probs():
    phi = maximally_entangled(2)
    res = measure(phi.density(), [(("A",), Povm.standard_basis(2)),
                                  (("B",), Povm.standard_basis(2))])
    assert np.allclose(np.asarray(res.probs).reshape(2, 2), np.eye(2) / 2,
                       atol=1e-12)


def test_coherent_measure_is_isometric():
    space = HilbertSpace((2, 2), ("A", "B"))
    psi = random_pure_state(space, substream(70))
    cb = ConjugateBasis.fourier(2)
    out = coherent_measure(psi, ("A",), cb.povm(), "R")
    assert "R" in out.space.labels
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10
    # tracing out the record recovers the dephased state
    rec = partial_trace(out, ("A", "B"))
    dephased = np.zeros((4, 4), dtype=np.complex128)
    rho = psi.density().matrix
    for y in range(2):
        el = np.kron(cb.projector(y), np.eye(2))
        dephased += el @ rho @ el
    assert np.allclose(rec.matrix, dephased, atol=1e-10)


def test_povm_validation():
    with pytest.raises(ValueError):
        Povm((np.diag([1.0, 0.0]), np.diag([0.5, 0.5])))  # over-complete
    with pytest.raises(ValueError):
        Povm((np.array([[0.5, 0.7], [0.7, 0.5]]),
              np.array([[0.5, -0.7], [-0.7, 0.5]])))  # not PSD
    # a fault in the last element alone, with the sum still the identity
    with pytest.raises(ValueError, match="positive"):
        Povm((np.diag([1.0, 0.0]), np.diag([0.5, 0.0]), np.diag([-0.5, 1.0])))
    with pytest.raises(ValueError, match="finite"):
        Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.diag([0.0, np.nan])))
    povm = Povm.standard_basis(3)
    assert povm.dim == 3 and povm.n_outcomes == 3
    roots = povm.sqrt_elements()
    for r, e in zip(roots, povm.elements):
        assert np.allclose(r @ r, e, atol=1e-12)


@pytest.mark.parametrize("dim,count", [(2, 3), (256, 3)])
def test_povm_validation_on_one_stack(dim, count):
    # every check still fires on the last of several elements, small or large
    base = [np.eye(dim) / count for _ in range(count)]
    nonherm = np.zeros((dim, dim))
    nonherm[0, 1] = 1e-6
    negative = np.zeros((dim, dim))
    negative[0, 0] = -1.0
    nan = np.zeros((dim, dim))
    nan[1, 0] = np.nan
    for bad, match in ((nan, "finite"), (nonherm, "hermitian"), (negative, "positive"),
                       (1e-6 * np.eye(dim), "identity")):
        with pytest.raises(ValueError, match=match):
            Povm(tuple(base[:-1]) + (base[-1] + bad,))
    with pytest.raises(ValueError, match="square"):
        Povm((np.eye(2), np.eye(3)))
    # the elements are read-only views of one stack, not copies of their own
    povm = Povm(tuple(base))
    assert povm.elements[0].base is povm.elements[1].base is not None
    assert not any(el.flags.writeable for el in povm.elements)


def test_elements_and_roots_are_each_one_read_only_stack():
    given = np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(np.complex128)
    for povm in (Povm(given), Povm.standard_basis(3), ConjugateBasis.fourier(5).povm(),
                 Povm.projective_from_columns(haar_unitary(4, substream(81)))):
        shape = (povm.n_outcomes, povm.dim, povm.dim)
        for stack in (povm.elements, povm.sqrt_elements()):
            assert type(stack) is np.ndarray and stack.shape == shape
            assert not stack.flags.writeable
    # the constructor still copies what it is given
    assert not np.shares_memory(Povm(given).elements, given) and given.flags.writeable


def test_factored_povm_builds_its_elements_when_read():
    u = haar_unitary(4, substream(82))
    f = np.stack([u[:, :2], u[:, 2:]])  # two rank-2 projectors
    povm = Povm._factored(f, ("a", "b"))
    assert "elements" not in vars(povm) and povm.dim == 4 and povm.n_outcomes == 2
    assert povm.outcome_labels == ("a", "b")
    els = povm.elements
    assert povm.elements is els and not els.flags.writeable
    assert np.allclose(els, f @ f.conj().swapaxes(1, 2), atol=1e-14)
    assert_povm(povm, 4)
    # three rank-1 factors and the remainder, the projector onto the last column
    rest = Povm._factored(u[:, :3].T[:, :, None], remainder=True)
    assert rest.outcome_labels == (0, 1, 2, "fail") and rest.n_outcomes == 4
    assert np.allclose(rest.elements[-1], np.outer(u[:, 3], u[:, 3].conj()), atol=1e-14)
    assert_povm(rest, 4)


def test_factored_povm_checks_finiteness_and_completeness_from_its_factors():
    u = haar_unitary(4, substream(83))
    f = u.T[:, :, None]
    bad = f.copy()
    bad[1, 2, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        Povm._factored(bad)
    with pytest.raises(ValueError, match="identity"):
        Povm._factored(f[:3])  # a column short
    with pytest.raises(ValueError, match="identity"):
        Povm._factored(1.001 * f)
    with pytest.raises(ValueError, match="positive"):
        Povm._factored(1.001 * f[:3], remainder=True)  # a remainder below 0
    # at least as strict as the entrywise check: G = 1 + cJ puts 2c + 4c^2 on every
    # entry of G G^dag - 1, inside 1e-9, but 8c + 16c^2 on the all-ones direction
    c = 2e-10
    g = np.eye(4) + c * np.ones((4, 4))
    Povm(g.T[:, :, None] * g.T[:, None, :])  # the same elements, given, pass
    with pytest.raises(ValueError, match="identity"):
        Povm._factored(g.T[:, :, None])


@pytest.mark.parametrize("outcomes", [3, 2])
def test_factored_roots_match_the_roots_of_their_elements(outcomes):
    # the rows of a 12 x 12 unitary sum to the identity over its columns: three
    # factors of four columns each are complete, two leave a remainder; the
    # elements are neither projectors nor of full rank
    g = haar_unitary(12, substream(84))[:6]
    f = np.stack([g[:, 4 * k:4 * k + 4] for k in range(outcomes)])
    povm = Povm._factored(f, remainder=outcomes < 3)
    roots = povm.sqrt_elements()
    assert roots.shape == (povm.n_outcomes, 6, 6) and not roots.flags.writeable
    assert np.allclose(roots, _psd_root(*np.linalg.eigh(povm.elements)), atol=1e-12)


def test_coherent_measure_rejects_nan_roots():
    psi = random_pure_state(HilbertSpace((2, 2), ("A", "B")), substream(71))
    povm = Povm((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
    povm.__dict__["_roots"] = tuple(np.full((2, 2), np.nan) for _ in range(2))
    with pytest.raises(InvariantViolation, match="normalisation"):
        coherent_measure(psi, ("A",), povm, "R")


def test_standard_and_fourier_povms_and_roots_are_built_once():
    povm = Povm.standard_basis(3)
    assert Povm.standard_basis(3) is povm
    basis = ConjugateBasis.fourier(5)
    assert ConjugateBasis.fourier(5) is basis and basis.povm() is basis.povm()
    assert_povm(basis.povm(), 5)
    roots = basis.povm().sqrt_elements()
    assert basis.povm().sqrt_elements() is roots
    for arr in (*povm.elements, *basis.povm().elements, *roots, basis.theta):
        assert not arr.flags.writeable
    for r, e in zip(roots, basis.povm().elements):
        assert np.allclose(r @ r, e, atol=1e-12)


def test_projective_from_columns():
    u = haar_unitary(3, substream(80))
    povm = Povm.projective_from_columns(u, labels=("a", "b", "c"))
    assert povm.outcome_labels == ("a", "b", "c")
    assert_povm(povm, 3)
    for i in range(3):
        want = np.outer(u[:, i], u[:, i].conj())
        assert np.allclose(povm.elements[i], want, atol=1e-12)
