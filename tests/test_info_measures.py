"""Entropies, Holevo quantity, uncertainty-relation audits."""

import math

import numpy as np
import pytest

from privlab import (ConjugateBasis, CqEnsemble, DensityOperator, HilbertSpace,
                     Povm, coherent_information, conditional_entropy,
                     haar_unitary, helstrom_pair, holevo_information,
                     maximally_entangled, mutual_information, partial_trace,
                     random_density_operator, random_pure_state, shannon_entropy,
                     substream, uncertainty_audit, von_neumann_entropy)


def test_shannon_entropy_frozen_values():
    assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)
    # zero entries are clamped, leaving ~4e-11 of numerical floor
    assert shannon_entropy([1.0, 0.0]) == pytest.approx(0.0, abs=1e-9)
    # binary entropy of 1/4
    assert shannon_entropy([0.25, 0.75]) == pytest.approx(0.8112781244591328,
                                                          abs=1e-12)
    assert shannon_entropy([0.25] * 4) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        shannon_entropy([0.5, 0.7])
    with pytest.raises(ValueError):
        shannon_entropy([-0.2, 1.2])


def test_von_neumann_entropy_basics():
    h = HilbertSpace((3,), ("A",))
    pure = DensityOperator(h, np.diag([1.0, 0.0, 0.0]))
    assert von_neumann_entropy(pure) == pytest.approx(0.0, abs=1e-10)
    mixed = DensityOperator(h, np.eye(3) / 3)
    assert von_neumann_entropy(mixed) == pytest.approx(math.log2(3), abs=1e-10)
    # basis independence: conjugation by a unitary preserves the entropy
    rho = random_density_operator(h, substream(1))
    u = haar_unitary(3, substream(2))
    rot = DensityOperator(h, u @ rho.matrix @ u.conj().T)
    assert von_neumann_entropy(rot) == pytest.approx(von_neumann_entropy(rho),
                                                     abs=1e-10)


def test_von_neumann_entropy_reads_the_construction_spectrum(monkeypatch):
    rho = random_density_operator(HilbertSpace((2, 3), ("A", "B")), substream(5))
    want = -sum(v * math.log2(v) for v in np.linalg.eigvalsh(rho.matrix) if v > 1e-12)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
    got = von_neumann_entropy(rho)
    assert calls == []
    assert got == pytest.approx(want, abs=1e-12)
    monkeypatch.undo()
    assert got == von_neumann_entropy(rho.matrix)  # the fresh eigvalsh path
    assert not rho.eigenvalues().flags.writeable


def test_von_neumann_entropy_additivity():
    a = random_density_operator(HilbertSpace((2,), ("A",)), substream(3))
    b = random_density_operator(HilbertSpace((3,), ("B",)), substream(4))
    joint = a.tensor(b)
    assert von_neumann_entropy(joint) == pytest.approx(
        von_neumann_entropy(a) + von_neumann_entropy(b), abs=1e-10)


def test_mutual_information_extremes():
    # perfectly correlated uniform bits carry one bit of mutual information
    assert mutual_information([[0.5, 0.0], [0.0, 0.5]]) == pytest.approx(
        1.0, abs=1e-9)
    p = np.array([0.3, 0.7])
    q = np.array([0.2, 0.5, 0.3])
    assert mutual_information(np.outer(p, q)) == pytest.approx(0.0, abs=1e-9)


def test_mutual_information_entropy_oracle():
    for seed in range(5):
        rng = substream(10 + seed)
        j = rng.random((3, 4))
        j /= j.sum()
        want = (shannon_entropy(j.sum(axis=1)) + shannon_entropy(j.sum(axis=0))
                - shannon_entropy(j.reshape(-1)))
        assert mutual_information(j) == pytest.approx(want, abs=1e-9)


def test_conditional_entropy_formula():
    # H(X|Y) = 0 for perfectly correlated, 1 for independent uniform bits
    assert conditional_entropy([[0.5, 0.0], [0.0, 0.5]]) == pytest.approx(
        0.0, abs=1e-9)
    assert conditional_entropy(np.full((2, 2), 0.25)) == pytest.approx(
        1.0, abs=1e-9)
    for seed in range(5):
        rng = substream(20 + seed)
        j = rng.random((2, 3))
        j /= j.sum()
        want = shannon_entropy(j.reshape(-1)) - shannon_entropy(j.sum(axis=0))
        assert conditional_entropy(j) == pytest.approx(want, abs=1e-9)
    with pytest.raises(ValueError):
        conditional_entropy(np.full((2, 2), 0.3))


def test_coherent_information_values():
    phi = maximally_entangled(2)
    assert coherent_information(phi.density()) == pytest.approx(1.0, abs=1e-10)
    mm = DensityOperator(HilbertSpace((2, 2), ("A", "B")), np.eye(4) / 4)
    assert coherent_information(mm) == pytest.approx(-1.0, abs=1e-10)
    space = HilbertSpace((2, 3), ("A", "B"))
    for seed in range(5):
        rho = random_density_operator(space, substream(30 + seed))
        want = (von_neumann_entropy(partial_trace(rho, ("B",)))
                - von_neumann_entropy(rho))
        assert coherent_information(rho, target="B") == pytest.approx(
            want, abs=1e-10)


def test_holevo_information_oracle():
    h = HilbertSpace((2,), ("Q",))
    e0 = DensityOperator(h, np.diag([1.0, 0.0]))
    e1 = DensityOperator(h, np.diag([0.0, 1.0]))
    ens = CqEnsemble(np.array([0.3, 0.7]), (e0, e1))
    # orthogonal signal states: chi = H(p)
    assert holevo_information(ens) == pytest.approx(
        shannon_entropy([0.3, 0.7]), abs=1e-10)
    same = CqEnsemble(np.array([0.5, 0.5]), (e0, e0))
    assert holevo_information(same) == pytest.approx(0.0, abs=1e-10)
    for seed in range(4):
        states = tuple(random_density_operator(h, substream(40 + seed + 10 * i))
                       for i in range(3))
        p = np.array([0.2, 0.5, 0.3])
        ens = CqEnsemble(p, states)
        avg = DensityOperator(h, sum(pi * s.matrix for pi, s in zip(p, states)))
        want = von_neumann_entropy(avg) - sum(
            pi * von_neumann_entropy(s) for pi, s in zip(p, states))
        assert holevo_information(ens) == pytest.approx(want, abs=1e-10)


def test_cq_ensemble_validation():
    h = HilbertSpace((2,), ("Q",))
    e0 = DensityOperator(h, np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        CqEnsemble(np.array([0.5, 0.7]), (e0, e0))
    with pytest.raises(ValueError):
        CqEnsemble(np.array([-0.1, 1.1]), (e0, e0))


def test_maassen_uffink_frozen_case():
    h = HilbertSpace((2,), ("A",))
    st = DensityOperator(h, np.diag([1.0, 0.0]))
    rec = uncertainty_audit("maassen_uffink", st)
    # H(Z) = 0, H(X) = 1, bound log2(2) = 1: the relation is tight
    assert rec.rhs == pytest.approx(1.0, abs=1e-12)
    assert rec.lhs_terms[1] == pytest.approx(1.0, abs=1e-9)
    assert rec.slack == pytest.approx(0.0, abs=1e-8)


def test_maassen_uffink_random_states():
    for d in (2, 3, 5):
        h = HilbertSpace((d,), ("A",))
        for seed in range(20):
            rho = random_density_operator(h, substream(100 * d + seed))
            rec = uncertainty_audit("maassen_uffink", rho)
            assert rec.mode == "maassen_uffink"
            assert rec.rhs == pytest.approx(math.log2(d), abs=1e-12)
            assert rec.slack >= -1e-9


def test_quantum_cit_random_states():
    for d in (2, 3):
        space = HilbertSpace((d, d, d), ("A", "B", "E"))
        for seed in range(15):
            psi = random_pure_state(space, substream(200 * d + seed))
            rec = uncertainty_audit("quantum_cit", psi)
            assert len(rec.lhs_terms) == 2
            assert rec.rhs == pytest.approx(math.log2(d), abs=1e-12)
            assert rec.slack >= -1e-9


def test_quantum_cit_tight_on_bell_with_trivial_eve():
    # |phi+>^{AB} (x) |0>^E: H(Z|E) = 1 and H(X|B) = 0
    phi = maximally_entangled(2)
    e = np.zeros(2)
    e[0] = 1.0
    psi = phi.tensor(
        __import__("privlab").StateVector(HilbertSpace((2,), ("E",)), e + 0j))
    rec = uncertainty_audit("quantum_cit", psi)
    assert rec.slack == pytest.approx(0.0, abs=1e-8)


def test_cit_with_classical_witnesses():
    for d in (2, 3):
        space = HilbertSpace((d, d, d), ("A", "B", "E"))
        for seed in range(15):
            psi = random_pure_state(space, substream(300 * d + seed))
            zw = Povm.projective_from_columns(
                haar_unitary(d, substream(400 * d + seed)))
            xw = Povm.projective_from_columns(
                haar_unitary(d, substream(500 * d + seed)))
            rec = uncertainty_audit("cit", psi, z_witness=(("E",), zw),
                                    x_witness=(("B",), xw))
            assert rec.slack >= -1e-9


def test_cit_requires_witnesses():
    psi = random_pure_state(HilbertSpace((2, 2, 2), ("A", "B", "E")),
                            substream(1))
    with pytest.raises(ValueError):
        uncertainty_audit("cit", psi)


def test_audit_rejects_unknown_mode():
    h = HilbertSpace((2,), ("A",))
    st = DensityOperator(h, np.eye(2) / 2)
    with pytest.raises(ValueError):
        uncertainty_audit("nosuch", st)


def test_audit_custom_conjugate_basis():
    # a non-Fourier conjugate basis changes nothing structurally
    d = 2
    cb = ConjugateBasis.fourier(d)
    h = HilbertSpace((d,), ("A",))
    rho = random_density_operator(h, substream(77))
    rec = uncertainty_audit("maassen_uffink", rho, cb)
    assert rec.slack >= -1e-9


NAN, INF = float("nan"), float("inf")
NON_FINITE = {
    "shannon_nan": (lambda: shannon_entropy([NAN, 1.0]), "finite"),
    "shannon_inf": (lambda: shannon_entropy([INF, 0.0]), "finite"),
    "conditional_nan": (lambda: conditional_entropy([[NAN, 0.5], [0.25, 0.25]]), "finite"),
    "conditional_inf": (lambda: conditional_entropy([[-INF, 0.5], [0.25, INF]]), "finite"),
    "mutual_nan": (lambda: mutual_information([[NAN, 0.5], [0.25, 0.25]]), "finite"),
    "mutual_inf": (lambda: mutual_information([[INF, 0.5], [0.25, 0.25]]), "finite"),
    "helstrom_p0_nan": (lambda: helstrom_pair(np.eye(2) / 2, np.eye(2) / 2, p0=NAN),
                        "invalid priors"),
    "helstrom_p1_nan": (lambda: helstrom_pair(np.eye(2) / 2, np.eye(2) / 2, p0=0.5,
                                              p1=NAN), "invalid priors"),
    "helstrom_p0_inf": (lambda: helstrom_pair(np.eye(2) / 2, np.eye(2) / 2, p0=INF),
                        "invalid priors"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_probabilities_are_rejected_up_front(case):
    call, match = NON_FINITE[case]
    with pytest.raises(ValueError, match=match):
        call()
