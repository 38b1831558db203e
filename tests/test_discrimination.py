"""Helstrom pairs, pretty good measurement, per-class decoders."""

import math

import numpy as np
import pytest

from privlab import (CqEnsemble, DensityOperator, HilbertSpace, HswConfig,
                     HswDecoderResult, haar_unitary, haar_vector, helstrom_pair,
                     Povm, hsw_class_decoder, pgm, pgm_error,
                     random_density_operator, substream, trace_norm)
from privlab.discrimination import _ensemble_rows, _guess_error, _guess_slots
from conftest import assert_povm, loop_class_errors


def ket_density(vec, label="Q"):
    vec = np.asarray(vec, dtype=np.complex128)
    h = HilbertSpace((vec.size,), (label,))
    return DensityOperator(h, np.outer(vec, vec.conj()))


def test_helstrom_two_pure_states_analytic():
    # equal priors: p_err = 1/2 (1 - sqrt(1 - |<a|b>|^2))
    for seed in range(8):
        rng = substream(seed)
        a = haar_vector(3, rng)
        b = haar_vector(3, rng)
        ov2 = abs(np.vdot(a, b)) ** 2
        want = 0.5 * (1.0 - math.sqrt(1.0 - ov2))
        povm, err = helstrom_pair(ket_density(a), ket_density(b))
        assert err == pytest.approx(want, abs=1e-10)
        assert_povm(povm, 3)


def test_helstrom_orthogonal_states_and_identical():
    e0 = ket_density([1.0, 0.0])
    e1 = ket_density([0.0, 1.0])
    _, err = helstrom_pair(e0, e1)
    assert err == pytest.approx(0.0, abs=1e-12)
    _, same = helstrom_pair(e0, e0)
    assert same == pytest.approx(0.5, abs=1e-12)


def test_helstrom_routes_zero_eigenvalues_to_outcome_0():
    # identical states leave p0 rho0 - p1 rho1 = 0: the whole space is outcome 0
    e0 = ket_density([1.0, 0.0])
    povm, _ = helstrom_pair(e0, e0)
    assert np.array_equal(povm.elements[0], np.eye(2))
    assert np.array_equal(povm.elements[1], np.zeros((2, 2)))


def test_helstrom_trace_norm_oracle():
    # p_err = 1/2 (1 - ||p0 rho0 - p1 rho1||_1)
    h = HilbertSpace((3,), ("Q",))
    for seed in range(8):
        r0 = random_density_operator(h, substream(100 + seed))
        r1 = random_density_operator(h, substream(200 + seed))
        for p0 in (0.5, 0.3, 0.8):
            want = 0.5 * (1.0 - trace_norm(p0 * r0.matrix - (1 - p0) * r1.matrix))
            _, err = helstrom_pair(r0, r1, p0=p0)
            assert err == pytest.approx(want, abs=1e-10)


def test_helstrom_error_is_achieved_by_returned_povm():
    h = HilbertSpace((2,), ("Q",))
    for seed in range(6):
        r0 = random_density_operator(h, substream(300 + seed))
        r1 = random_density_operator(h, substream(400 + seed))
        povm, err = helstrom_pair(r0, r1)
        achieved = 1.0 - 0.5 * float(np.real(
            np.trace(povm.elements[0] @ r0.matrix)
            + np.trace(povm.elements[1] @ r1.matrix)))
        assert achieved == pytest.approx(err, abs=1e-10)


def test_pgm_orthogonal_ensemble_is_projective():
    ens = CqEnsemble(np.array([0.25, 0.75]),
                     (ket_density([1.0, 0.0]), ket_density([0.0, 1.0])))
    povm = pgm(ens)
    assert_povm(povm, 2)
    assert pgm_error(ens, povm) == pytest.approx(0.0, abs=1e-12)


def test_pgm_trine_frozen_error():
    # symmetric trine: PGM is optimal with success 2/3
    kets = [np.array([math.cos(2 * math.pi * k / 3),
                      math.sin(2 * math.pi * k / 3)]) for k in range(3)]
    ens = CqEnsemble(np.full(3, 1 / 3), tuple(ket_density(v) for v in kets))
    assert pgm_error(ens) == pytest.approx(1 / 3, abs=1e-10)


def test_pgm_between_helstrom_and_twice_helstrom():
    h = HilbertSpace((3,), ("Q",))
    for seed in range(12):
        r0 = random_density_operator(h, substream(500 + seed))
        r1 = random_density_operator(h, substream(600 + seed))
        p0 = float(substream(700 + seed).uniform(0.2, 0.8))
        ens = CqEnsemble(np.array([p0, 1 - p0]), (r0, r1))
        _, opt = helstrom_pair(r0, r1, p0=p0)
        err = pgm_error(ens)
        assert err >= opt - 1e-10
        assert err <= 2 * opt + 1e-10


def test_pgm_error_accepts_external_measurement():
    h = HilbertSpace((2,), ("Q",))
    r0 = random_density_operator(h, substream(800))
    r1 = random_density_operator(h, substream(801))
    ens = CqEnsemble(np.array([0.5, 0.5]), (r0, r1))
    povm, opt = helstrom_pair(r0, r1)
    assert pgm_error(ens, povm) == pytest.approx(opt, abs=1e-10)


def test_hsw_class_decoder_single_class_matches_pgm():
    h = HilbertSpace((3,), ("Q",))
    states = tuple(random_density_operator(h, substream(900 + i))
                   for i in range(3))
    ens = CqEnsemble(np.array([0.2, 0.5, 0.3]), states, labels=(0, 1, 2))
    res = hsw_class_decoder(ens, {(): (0, 1, 2)})
    assert isinstance(res, HswDecoderResult)
    assert set(res.decoders) == {()}
    assert res.average_error == pytest.approx(pgm_error(ens), abs=1e-10)
    assert res.aborted_mass == pytest.approx(0.0, abs=1e-12)


def test_hsw_class_decoder_partition_bookkeeping():
    h = HilbertSpace((2,), ("Q",))
    states = tuple(random_density_operator(h, substream(1000 + i))
                   for i in range(4))
    probs = np.array([0.1, 0.4, 0.2, 0.3])
    ens = CqEnsemble(probs, states, labels=(0, 1, 2, 3))
    classes = {(0,): (0, 1), (1,): (2, 3)}
    res = hsw_class_decoder(ens, classes)
    assert set(res.decoders) == {(0,), (1,)}
    for value, members in classes.items():
        assert_povm(res.decoders[value], 2)
        assert res.decoders[value].outcome_labels == tuple(members)
    # average error = sum_class P(class) * per-class error
    want = sum(probs[list(m)].sum() * res.per_class_error[v]
               for v, m in classes.items())
    assert res.average_error == pytest.approx(want, abs=1e-10)
    # orthogonal pairs inside each class would make both errors vanish; the
    # random ones cannot beat guessing the likelier member
    for v, m in classes.items():
        assert 0.0 <= res.per_class_error[v] <= 0.5 + 1e-12


def test_hsw_class_decoder_rejects_bad_partition():
    h = HilbertSpace((2,), ("Q",))
    states = (random_density_operator(h, substream(1)),
              random_density_operator(h, substream(2)))
    ens = CqEnsemble(np.array([0.5, 0.5]), states, labels=(0, 1))
    with pytest.raises(ValueError):
        hsw_class_decoder(ens, {(0,): (0,)})  # misses index 1
    with pytest.raises(ValueError):
        hsw_class_decoder(ens, {(0,): (0, 1), (1,): (1,)})  # overlap


def test_hsw_typicality_path_stays_sound():
    h = HilbertSpace((2,), ("Q",))
    base_states = (DensityOperator(h, np.diag([0.9, 0.1])),
                   DensityOperator(h, np.diag([0.2, 0.8])))
    base = CqEnsemble(np.array([0.5, 0.5]), base_states, labels=(0, 1))
    # two-fold iid extension of the base ensemble
    labels, probs, states = [], [], []
    for i in range(2):
        for j in range(2):
            labels.append(2 * i + j)
            probs.append(0.25)
            m = np.kron(base_states[i].matrix, base_states[j].matrix)
            states.append(DensityOperator(HilbertSpace((4,), ("Q",)), m))
    ens = CqEnsemble(np.array(probs), tuple(states), labels=tuple(labels))
    cfg = HswConfig(delta=0.4, use_typicality=True)
    res = hsw_class_decoder(ens, {(): tuple(labels)}, cfg, iid_base=base,
                            n_copies=2)
    assert 0.0 <= res.average_error <= 1.0
    assert 0.0 <= res.aborted_mass <= 1.0
    for povm in res.decoders.values():
        total = np.sum(povm.elements, axis=0)
        vals = np.linalg.eigvalsh(total)
        assert vals.max() <= 1.0 + 1e-9  # sub-normalized is allowed here


# ---------------------------------------------------------------------------
# the amplitude-row PGM against the inverse-square-root formula


def inv_sqrt_pgm(probs, mats, labels):
    """Oracle: S^{-1/2} p_k phi_k S^{-1/2} with the kernel of S as "fail"."""
    s = sum(p * m for p, m in zip(probs, mats))
    vals, vecs = np.linalg.eigh(s)
    sup = vals > 1e-10
    inv_root = (vecs[:, sup] / np.sqrt(vals[sup])) @ vecs[:, sup].conj().T
    elements = [inv_root @ (p * m) @ inv_root for p, m in zip(probs, mats)]
    labels = list(labels)
    if not sup.all():
        elements.append(vecs[:, ~sup] @ vecs[:, ~sup].conj().T)
        labels.append("fail")
    return elements, labels


def assert_povm_matches(povm, elements, labels, atol=1e-10):
    assert povm.outcome_labels == tuple(labels)
    for got, want in zip(povm.elements, elements, strict=True):
        assert np.allclose(got, want, rtol=0.0, atol=atol)
    total = np.sum(povm.elements, axis=0)
    assert np.max(np.abs(total - np.eye(povm.dim))) <= 1e-13


def _pgm_ensembles():
    h3, h4 = HilbertSpace((3,), ("Q",)), HilbertSpace((4,), ("Q",))
    mixed = tuple(random_density_operator(h3, substream(1100 + i)) for i in range(4))
    low = tuple(random_density_operator(h4, substream(1200 + i), rank=1) for i in range(3))
    return {
        "random": CqEnsemble(np.array([0.1, 0.2, 0.3, 0.4]), mixed),
        "zero_prior_member": CqEnsemble(np.array([0.5, 0.0, 0.25, 0.25]), mixed),
        "rank_deficient": CqEnsemble(np.array([0.2, 0.3, 0.5]), low, labels=(7, 8, 9)),
    }


@pytest.mark.parametrize("case", ["random", "zero_prior_member", "rank_deficient"])
def test_pgm_matches_the_inverse_square_root_oracle(case):
    ens = _pgm_ensembles()[case]
    povm = pgm(ens)
    elements, labels = inv_sqrt_pgm(ens.probs, [st.matrix for st in ens.states],
                                    ens.labels)
    assert ("fail" in labels) == (case == "rank_deficient")
    assert_povm_matches(povm, elements, labels)


def test_hsw_class_decoder_matches_the_oracle_per_class():
    h = HilbertSpace((4,), ("Q",))
    states = tuple(random_density_operator(h, substream(1300 + i), rank=1 + i % 3)
                   for i in range(6))
    probs = np.array([0.3, 0.2, 0.0, 0.0, 0.1, 0.4])
    ens = CqEnsemble(probs, states, labels=tuple(range(6)))
    classes = {(0,): (0, 1), (1,): (2, 3), (2,): (4, 5)}
    res = hsw_class_decoder(ens, classes)
    # the zero-weight class is never read: it gets the single element {fail: 1}
    dead = res.decoders[(1,)]
    assert dead.outcome_labels == ("fail",)
    assert np.array_equal(dead.elements[0], np.eye(4))
    assert res.per_class_error[(1,)] == 0.0
    want_avg = 0.0
    for value in ((0,), (2,)):
        members = classes[value]
        mass = probs[list(members)].sum()
        sub = probs[list(members)] / mass
        mats = [states[k].matrix for k in members]
        elements, labels = inv_sqrt_pgm(sub, mats, members)
        assert_povm_matches(res.decoders[value], elements, labels)
        err = 1.0 - sum(p * np.trace(el @ m).real
                        for p, el, m in zip(sub, elements, mats))
        assert res.per_class_error[value] == pytest.approx(err, abs=1e-12)
        want_avg += mass * err
    assert res.average_error == pytest.approx(want_avg, abs=1e-12)


@pytest.mark.parametrize("delta", [float("nan"), -0.1])
def test_hsw_config_rejects_bad_delta(delta):
    with pytest.raises(ValueError):
        HswConfig(delta=delta)


# ---------------------------------------------------------------------------
# the typicality decoder against the explicit T^{-1/2} Q Q_k Q T^{-1/2} formula


def typicality_oracle(ensemble, classes, delta, iid_base, n_copies):
    """Oracle: T^{-1/2} Q Q_k Q T^{-1/2} per typical member, with 1 - sum as "fail"."""

    def band_projector(matrix, lo, hi):
        vals, vecs = np.linalg.eigh(matrix)
        v = vecs[:, (vals >= lo) & (vals <= hi)]
        return v @ v.conj().T

    def entropy(matrix):
        vals = np.linalg.eigvalsh(matrix)
        vals = vals[vals > 1e-12]
        return float(-np.sum(vals * np.log2(vals)))

    probs = ensemble.probs
    base_p = iid_base.probs[iid_base.probs > 0]
    h_rate = float(-np.sum(base_p * np.log2(base_p)))
    s_bar = float(np.dot(iid_base.probs, [entropy(st.matrix) for st in iid_base.states]))
    s_avg = entropy(iid_base.average_matrix())
    nd = n_copies * delta
    q = band_projector(ensemble.average_matrix(), 2.0 ** (-n_copies * s_avg - nd),
                       2.0 ** (-n_copies * s_avg + nd))
    dim = q.shape[0]
    decoders, per_class, total, aborted = {}, {}, 0.0, 0.0
    for value, members in classes.items():
        mass = float(np.sum(probs[list(members)]))
        typical = [k for k in members if 2.0 ** (-n_copies * h_rate - nd) <= probs[k]
                   <= 2.0 ** (-n_copies * h_rate + nd)]
        atyp = float(sum(probs[k] for k in members if k not in typical))
        aborted += atyp
        sandwiched = {k: q @ band_projector(ensemble.states[k].matrix,
                                            2.0 ** (-n_copies * s_bar - nd),
                                            2.0 ** (-n_copies * s_bar + nd)) @ q
                      for k in typical}
        t = np.sum(list(sandwiched.values()), axis=0) if typical else np.zeros((dim, dim))
        vals, vecs = np.linalg.eigh(0.5 * (t + t.conj().T))
        sup = vals > 1e-10
        inv_root = (vecs[:, sup] / np.sqrt(vals[sup])) @ vecs[:, sup].conj().T
        elements = {k: inv_root @ sandwiched[k] @ inv_root for k in typical}
        elements["fail"] = np.eye(dim) - sum(elements.values(), np.zeros((dim, dim)))
        err = atyp + sum(probs[k] * (1.0 - np.trace(elements[k] @ ensemble.states[k].matrix).real)
                         for k in typical)
        per_class[value] = min(max(err / mass if mass > 0 else 0.0, 0.0), 1.0)
        decoders[value] = elements
        total += mass * per_class[value]
    return decoders, per_class, min(max(total, 0.0), 1.0), aborted


def iid_extension(base, n):
    """The n-fold iid ensemble of ``base``: product priors, Kronecker states."""
    probs, mats = np.ones(1), [np.ones((1, 1))]
    for _ in range(n):
        probs = np.kron(probs, base.probs)
        mats = [np.kron(m, st.matrix) for m in mats for st in base.states]
    h = HilbertSpace((mats[0].shape[0],), ("Q",))
    return CqEnsemble(probs, tuple(DensityOperator(h, m) for m in mats),
                      labels=tuple(range(len(probs))))


def _typicality_cases():
    h = HilbertSpace((2,), ("Q",))
    fixed = CqEnsemble(np.array([0.5, 0.5]), (DensityOperator(h, np.diag([0.9, 0.1])),
                                              DensityOperator(h, np.diag([0.2, 0.8]))),
                       labels=(0, 1))
    cases = [(fixed, 2, 0.4, {(): tuple(range(4))})]
    for i in range(24):
        rng = substream(1400 + i)
        size, n = 2 + i % 2, 2 + (i // 2) % 2
        base = CqEnsemble(rng.dirichlet(np.ones(size)),
                          tuple(random_density_operator(h, rng, rank=1 + int(rng.integers(2)))
                                for _ in range(size)))
        members = rng.permutation(size ** n)
        cuts = np.sort(rng.choice(np.arange(1, size ** n), size=2, replace=False))
        classes = {c: tuple(int(k) for k in part)
                   for c, part in enumerate(np.split(members, cuts))}
        cases.append((base, n, float(rng.uniform(0.05, 2.5)), classes))
    return cases


def test_typicality_decoder_matches_the_inverse_root_oracle():
    empty_classes = rank_deficient = full_rank = 0
    for base, n, delta, classes in _typicality_cases():
        ens = iid_extension(base, n)
        res = hsw_class_decoder(ens, classes, HswConfig(delta=delta, use_typicality=True),
                                iid_base=base, n_copies=n)
        decoders, per_class, average, aborted = typicality_oracle(ens, classes, delta, base, n)
        for value, want in decoders.items():
            got = dict(zip(res.decoders[value].outcome_labels, res.decoders[value].elements))
            assert set(got) <= set(want)
            zero = np.zeros((ens.states[0].space.dim,) * 2)
            for label, element in want.items():
                assert np.allclose(got.get(label, zero), element, rtol=0.0, atol=1e-12)
            assert res.per_class_error[value] == pytest.approx(per_class[value], abs=1e-12)
            empty_classes += set(want) == {"fail"}
            rank_deficient += "fail" in got and len(want) > 1
            full_rank += "fail" not in got
        assert res.average_error == pytest.approx(average, abs=1e-12)
        assert res.aborted_mass == pytest.approx(aborted, abs=1e-12)
    # classes with no typical member, with a rank-deficient T and with a full-rank one
    assert empty_classes and rank_deficient and full_rank


def test_typicality_decoder_errors_equal_the_member_loop_bit_for_bit():
    # atypical members have no element, and some classes have a fail element
    for base, n, delta, classes in _typicality_cases():
        ens = iid_extension(base, n)
        res = hsw_class_decoder(ens, classes, HswConfig(delta=delta, use_typicality=True),
                                iid_base=base, n_copies=n)
        per_class, average = loop_class_errors(_ensemble_rows(ens), classes, res.decoders)
        assert res.per_class_error == per_class
        assert res.average_error == average


def test_guess_slots_send_every_label_but_an_in_range_integer_to_the_miss_slot():
    labels = (0, 2, "fail", "x", 7, -1, np.int64(1))
    dec = Povm.projective_from_columns(np.eye(len(labels)), labels)
    assert _guess_slots(dec, 3).tolist() == [0, 2, 3, 3, 3, 3, 1]


@pytest.mark.parametrize("value_of", [[0, 1, 2, 3], [0, 0, 1, 1]])
def test_guess_error_scores_narrow_factors_as_their_elements(value_of):
    # four rank-2 elements of a 10-dim space and the fail remainder, scored on the
    # rows of six members (two own no outcome) from their factors and, given as
    # elements, from those; with [0, 0, 1, 1] every member owns two outcomes
    g = haar_unitary(10, substream(95))
    factored = Povm._factored(np.stack([g[:, 2 * k:2 * k + 2] for k in range(4)]),
                              remainder=True)
    given = Povm(factored.elements, factored.outcome_labels)
    rng = substream(96)
    rows = rng.normal(size=(6, 10, 3)) + 1j * rng.normal(size=(6, 10, 3))
    rows /= np.linalg.norm(rows)
    value_of = np.array(value_of + [4, 5])
    classes = {0: np.arange(6), 1: np.array([4, 1, 2])}
    got = _guess_error(rows, {0: factored, 1: factored}, classes, value_of)
    want = _guess_error(rows, {0: given, 1: given}, classes, value_of)
    assert got[0] == pytest.approx(want[0], abs=1e-14)
    for key in classes:
        assert got[1][key] == pytest.approx(want[1][key], abs=1e-14)
    assert want[1][1] > 0.0
