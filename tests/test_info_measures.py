"""Entropies, Holevo quantity, uncertainty-relation audits."""

import json
import math

import numpy as np
import pytest

from privlab import (ConjugateBasis, CqEnsemble, DensityOperator, HilbertSpace,
                     Povm, StateVector, coherent_information, conditional_entropy,
                     haar_unitary, helstrom_pair, holevo_information,
                     maximally_entangled, measure, mutual_information, partial_trace,
                     permute_vector, purify, random_density_operator, random_pure_state,
                     shannon_entropy, substream, uncertainty_audit, von_neumann_entropy)
from privlab.cli import run as cli_run
from privlab.info_measures import AUDIT_MODES, _audit_rows, _audit_trials
from privlab.tensor_core import AMPLITUDE_CAP


def test_shannon_entropy_frozen_values():
    assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)
    # zero entries add nothing (test_zero_probabilities_add_exactly_nothing)
    assert shannon_entropy([1.0, 0.0]) == pytest.approx(0.0, abs=1e-9)
    # binary entropy of 1/4
    assert shannon_entropy([0.25, 0.75]) == pytest.approx(0.8112781244591328,
                                                          abs=1e-12)
    assert shannon_entropy([0.25] * 4) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        shannon_entropy([0.5, 0.7])
    with pytest.raises(ValueError):
        shannon_entropy([-0.2, 1.2])


def test_zero_probabilities_add_exactly_nothing():
    # no entry is clamped up to LOG_CLAMP, so zeros leave no 4e-11 floor
    assert shannon_entropy([1.0, 0.0]) == 0.0
    assert shannon_entropy([0.5, 0.5, 0.0]) == 1.0
    for d in (2, 3, 5, 8):
        key = DensityOperator(HilbertSpace((d,), ("A",)), np.diag(np.eye(d)[0]))
        rec = uncertainty_audit("maassen_uffink", key)
        assert rec.lhs_terms[0] == 0.0
        assert abs(rec.slack) <= 1e-15, d


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


@pytest.mark.parametrize("transpose", [False, True])
def test_von_neumann_entropy_rejects_a_matrix_that_is_no_density(transpose):
    # eigvalsh reads one triangle: these read 1.0 and -0.68 bits unchecked
    m = np.array([[0.5, 0.9], [0.0, 0.5]])
    with pytest.raises(ValueError, match="hermitian"):
        von_neumann_entropy(m.T if transpose else m)
    with pytest.raises(ValueError, match="positive"):
        von_neumann_entropy(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError, match="trace"):
        von_neumann_entropy(np.eye(2))


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


# ---------------------------------------------------------------------------
# the stacked audit kernel against the per-trial audit it replaced


def _oracle_entropy(w) -> float:
    w = np.clip(np.asarray(w, dtype=float), 0.0, None)
    w = w[w > 1e-12]
    return float(-np.sum(w * np.log2(w))) if w.size else 0.0


def _oracle_key_given_side(psi, key_label, columns, side) -> float:
    """S(K|side) = H(K) - chi with one eigvalsh per cq block, as a loop."""
    space = psi.space
    rest = tuple(x for x in space.labels if x not in (key_label, side))
    amps = permute_vector(space, psi.amplitudes, (key_label, side) + rest)
    rows = columns.conj().T @ amps.reshape(space.dim_of(key_label), -1)
    rows = rows.reshape(columns.shape[1], space.dim_of(side), -1)
    blocks = [w @ w.conj().T for w in rows]
    p = np.array([np.trace(b).real for b in blocks])
    ent = [_oracle_entropy(np.linalg.eigvalsh(b) / q) if q > 1e-14 else 0.0
           for b, q in zip(blocks, p)]
    q = p / p.sum()
    chi = _oracle_entropy(np.linalg.eigvalsh(sum(blocks))) - float(q @ ent)
    return _oracle_entropy(q) - chi


def per_trial_audit(mode, state, conj_basis=None, *, key_label="A",
                    x_witness=None, z_witness=None) -> tuple[float, float]:
    """lhs terms of one audit, computed the way the per-trial audit did."""
    space = state.space
    d = space.dim_of(key_label)
    basis = conj_basis if conj_basis is not None else ConjugateBasis.fourier(d)
    if mode == "maassen_uffink":
        rho = state.marginal((key_label,)) if len(space.labels) > 1 else (
            state.density() if isinstance(state, StateVector) else state)
        cols = basis.vectors
        key_probs = np.einsum("kx,kl,lx->x", cols.conj(), rho.matrix, cols).real
        return (shannon_entropy(np.clip(np.diag(rho.matrix).real, 0.0, None)),
                shannon_entropy(np.clip(key_probs, 0.0, None)))
    if mode == "cit":
        return tuple(conditional_entropy(measure(
            state, [((key_label,), key), (tuple(labels), witness)]).probs)
            for key, (labels, witness) in ((Povm.standard_basis(d), z_witness),
                                           (basis.povm(), x_witness)))
    psi = state if isinstance(state, StateVector) else purify(state, "EE")
    return (_oracle_key_given_side(psi, key_label, np.eye(d), "E"),
            _oracle_key_given_side(psi, key_label, basis.vectors, "B"))


def random_povm(m: int, n: int, rng) -> Povm:
    """n full-rank elements S^-1/2 G_k S^-1/2 on dimension m (not projective)."""
    g = rng.normal(size=(n, m, m)) + 1j * rng.normal(size=(n, m, m))
    g = g @ g.conj().swapaxes(1, 2)
    vals, vecs = np.linalg.eigh(g.sum(axis=0))
    root = (vecs / np.sqrt(vals)) @ vecs.conj().T
    els = root @ g @ root
    return Povm(tuple(0.5 * (e + e.conj().T) for e in els))


def audit_cases(d: int, seed: int):
    """(mode, state, witness keywords) over vector and density inputs and
    projective and non-projective witnesses."""
    rng = substream(900 + d, seed)
    space = HilbertSpace((d, 2, 3), ("A", "B", "E"))
    psi = random_pure_state(space, rng)
    rho = random_density_operator(space, rng, rank=2)
    projective = {"z_witness": (("E",), Povm.projective_from_columns(haar_unitary(3, rng))),
                  "x_witness": (("B",), Povm.projective_from_columns(haar_unitary(2, rng)))}
    general = {"z_witness": (("E",), random_povm(3, 4, rng)),
               "x_witness": (("B",), random_povm(2, 3, rng))}
    for state in (psi, rho):
        yield "maassen_uffink", state, {}
        yield "quantum_cit", state, {}
        yield "cit", state, projective
        yield "cit", state, general
    key = HilbertSpace((d,), ("A",))
    yield "maassen_uffink", random_pure_state(key, rng), {}
    yield "maassen_uffink", random_density_operator(key, rng), {}


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_uncertainty_audit_matches_the_per_trial_oracle(d):
    for seed in range(3):
        for mode, state, kw in audit_cases(d, seed):
            got = uncertainty_audit(mode, state, **kw)
            want = per_trial_audit(mode, state, **kw)
            assert np.allclose(got.lhs_terms, want, rtol=0.0, atol=1e-12), (mode, kw)
            assert got.rhs == math.log2(d)
            assert got.slack == sum(got.lhs_terms) - got.rhs


@pytest.mark.parametrize("mode", AUDIT_MODES)
def test_stacked_kernel_rows_match_the_per_trial_oracle(mode):
    d, count = 3, 7
    space = HilbertSpace((d, 2, 3), ("A", "B", "E"))
    states = [random_pure_state(space, substream(950, i)) for i in range(count)]
    rng = substream(951)
    povms = [(random_povm(3, 4, rng), Povm.projective_from_columns(haar_unitary(2, rng)))
             for _ in range(count)]
    basis = ConjugateBasis.fourier(d)
    amps = np.stack([s.amplitudes for s in states])
    if mode == "maassen_uffink":
        rows = _audit_rows(mode, space, np.stack([s.marginal(("A",)).matrix for s in states]),
                           basis)
    else:
        witnesses = ((("E",), np.stack([np.stack(z.elements) for z, _ in povms])),
                     (("B",), np.stack([np.stack(x.elements) for _, x in povms])))
        rows = _audit_rows(mode, space, amps, basis, witnesses=witnesses)
    assert rows.shape == (count, 2)
    for state, (zw, xw), row in zip(states, povms, rows):
        want = per_trial_audit(mode, state, z_witness=(("E",), zw), x_witness=(("B",), xw))
        assert np.allclose(row, want, rtol=0.0, atol=1e-12)


def oracle_payload(mode: str, d: int, trials: int, seed: int) -> dict:
    """The ``uncertainty`` results of a loop of per-trial oracle audits."""
    terms = []
    for i in range(trials):
        rng = substream(seed, i)
        if mode == "maassen_uffink":
            state = random_pure_state(HilbertSpace((d, d), ("A", "K")), rng).marginal(("A",))
            terms.append(per_trial_audit(mode, state))
            continue
        state = random_pure_state(HilbertSpace((d, d, d), ("A", "B", "E")), rng)
        zw = Povm.projective_from_columns(haar_unitary(d, substream(seed, 10_000 + i)))
        xw = Povm.projective_from_columns(haar_unitary(d, substream(seed, 20_000 + i)))
        terms.append(per_trial_audit(mode, state, z_witness=(("E",), zw),
                                     x_witness=(("B",), xw)))
    slacks = np.array([sum(t) - math.log2(d) for t in terms])
    return {"mode": mode, "d": d, "trials": trials, "min_slack": float(slacks.min()),
            "mean_slack": float(slacks.mean()), "rhs": math.log2(d),
            "worst_lhs_terms": list(terms[int(np.argmin(slacks))])}


def assert_payload(got: dict, want: dict) -> None:
    assert set(got) == set(want)
    for key, value in want.items():
        if isinstance(value, float) or isinstance(value, list):
            assert np.allclose(got[key], value, rtol=0.0, atol=1e-12), key
        else:
            assert got[key] == value, key


def cli_results(argv) -> dict:
    return json.loads(cli_run(argv))["results"]


@pytest.mark.parametrize("mode", AUDIT_MODES)
def test_uncertainty_payloads_equal_a_loop_of_the_oracle(mode, capsys):
    for seed in (1, 2, 3):
        got = cli_results(["uncertainty", "--mode", mode, "--d", "3", "--trials", "12",
                           "--seed", str(seed)])
        assert_payload(got, oracle_payload(mode, 3, 12, seed))
    # one trial takes the same stacked pass and cross-check as any other count
    got = cli_results(["uncertainty", "--mode", mode, "--d", "3", "--trials", "1", "--seed", "4"])
    assert_payload(got, oracle_payload(mode, 3, 1, 4))


def test_uncertainty_chunks_by_the_kernel_budget(monkeypatch, capsys):
    from privlab import info_measures, tensor_core

    # cit at d = 3 stacks d^2 kets of 27 amplitudes per trial: a cap of two
    # trials' kets makes 7 trials take 4 chunks, none refused by the kernel
    stacks = tensor_core._reduction_stacks(HilbertSpace((3, 3, 3), ("A", "B", "E")), (), [3, 3])
    assert stacks["stacked measurement kets"] == [3, 3, 27]
    cap = 2 * 3 ** 5
    monkeypatch.setattr(tensor_core, "AMPLITUDE_CAP", cap)
    monkeypatch.setattr(info_measures, "AMPLITUDE_CAP", cap)
    spans = []
    real = info_measures._audit_rows
    monkeypatch.setattr(info_measures, "_audit_rows",
                        lambda *a, **k: spans.append(len(a[2])) or real(*a, **k))
    got = cli_results(["uncertainty", "--mode", "cit", "--d", "3", "--trials", "7",
                       "--seed", "6"])
    assert spans == [2, 2, 2, 1, 1]  # four chunks, then the worst trial's re-audit
    assert_payload(got, oracle_payload("cit", 3, 7, 6))


def test_cit_reduces_a_density_without_purifying_it():
    # a full-rank density on (4, 4, 16) purifies to 65536 amplitudes, whose
    # 4 x 16 measured kets would exceed the cap; its matrix reduces directly
    space = HilbertSpace((4, 4, 16), ("A", "B", "E"))
    rng = substream(960)
    rho = random_density_operator(space, rng)
    assert rho.rank() == space.dim and 4 * 16 * space.dim ** 2 > AMPLITUDE_CAP
    kw = {"z_witness": (("E",), Povm.projective_from_columns(haar_unitary(16, rng))),
          "x_witness": (("B",), random_povm(4, 5, rng))}
    got = uncertainty_audit("cit", rho, **kw)
    assert np.allclose(got.lhs_terms, per_trial_audit("cit", rho, **kw), rtol=0.0, atol=1e-12)


def test_uncertainty_stack_spanning_two_chunks_gives_the_oracle_payload(capsys):
    # 64^3 amplitudes per trial: four trials fill the cap, so six take two chunks
    assert AMPLITUDE_CAP // 64 ** 3 == 4
    got = cli_results(["uncertainty", "--mode", "quantum_cit", "--d", "64",
                       "--trials", "6", "--seed", "5"])
    assert_payload(got, oracle_payload("quantum_cit", 64, 6, 5))


def test_uncertainty_builds_no_per_trial_objects(monkeypatch, capsys):
    built = []
    for cls in (StateVector, DensityOperator, Povm):
        monkeypatch.setattr(cls, "__post_init__",
                            lambda self, _f=cls.__post_init__, _n=cls.__name__:
                            built.append(_n) or _f(self))

    def count(mode, trials):
        built.clear()
        cli_results(["uncertainty", "--mode", mode, "--d", "3", "--trials", str(trials)])
        return sorted(built)

    for mode in AUDIT_MODES:
        count(mode, 1)  # fills the cached bases
        assert count(mode, 2) == count(mode, 20), mode
        assert 1 <= len(count(mode, 20)) <= 3, mode


def test_uncertainty_exits_3_when_the_stack_disagrees_with_the_single_audit(monkeypatch,
                                                                              capsys):
    from privlab import cli

    # only the stacked pass is shifted; the re-audit runs the kernel unpatched
    monkeypatch.setattr(cli, "_audit_trials", lambda *a, **k: _audit_trials(*a, **k) + 1e-9)
    for mode in AUDIT_MODES:
        assert cli.main(["uncertainty", "--mode", mode, "--d", "2", "--trials", "3"]) == 3
        assert "off its single audit" in capsys.readouterr().err
