import numpy as np
import pytest

from privlab import (DensityOperator, HilbertSpace, StateVector,
                     random_density_operator, random_pure_state, substream)


@pytest.fixture
def rand_state():
    def make(dims, labels, seed):
        return random_pure_state(HilbertSpace(tuple(dims), tuple(labels)),
                                 substream(seed))
    return make


@pytest.fixture
def rand_density():
    def make(dims, labels, seed, rank=None):
        return random_density_operator(HilbertSpace(tuple(dims), tuple(labels)),
                                       substream(seed), rank=rank)
    return make


@pytest.fixture
def factorised(monkeypatch):
    """Shapes of the matrices np.linalg factorises, listed by function name.

    Wraps ``eigvalsh``, ``eigh``, ``svd``, ``pinv`` and ``qr``; each call records
    the trailing two dimensions of its argument (one entry per stack).
    """
    shapes = {}
    for name in ("eigvalsh", "eigh", "svd", "pinv", "qr"):
        shapes[name] = []

        def recorded(a, *args, _fn=getattr(np.linalg, name), _log=shapes[name],
                     **kwargs):
            _log.append(np.shape(a)[-2:])
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return shapes


def largest_side(*shape_lists) -> int:
    """The largest side among recorded matrix shapes (0 when there are none)."""
    return max((max(sh) for shapes in shape_lists for sh in shapes), default=0)


def loop_class_errors(rows, classes, decoders):
    """Per-class and average errors of class decoders on the rows (x, m, r), by the
    member loop that ``_class_pgms`` once ran: element i, labelled with member x,
    hits with <w_x|Lambda_i|w_x>, or with ||F_i^dag w_x||^2 for a decoder that keeps
    its factors, Lambda_i = F_i F_i^dag with fewer columns than rows, a trailing "fail"
    element scores nothing, and the class errors are averaged with the classes'
    shares of the total, each row weighing ||w_x||^2."""
    weights = np.array([np.vdot(row, row).real for row in rows])
    per_class, total_error = {}, 0.0
    for value, members in classes.items():
        dec = decoders[value]
        weight = float(weights[np.asarray(members, dtype=np.int64)].sum())
        owned = dec.elements if dec.outcome_labels[-1] != "fail" else dec.elements[:-1]
        hits = 0.0
        for i, (x, el) in enumerate(zip(dec.outcome_labels, owned)):
            if dec._form is not None:
                applied = dec._form.stack[i].conj().T @ rows[x]
                hits += np.vdot(applied, applied).real
            else:
                hits += np.vdot(rows[x], el @ rows[x]).real
        per_class[value] = float(min(max(1.0 - hits / weight, 0.0), 1.0)) if weight else 0.0
        total_error += weight * per_class[value]
    return per_class, float(min(max(total_error / weights.sum(), 0.0), 1.0))


def assert_povm(povm, dim, atol=1e-9):
    total = np.zeros((dim, dim), dtype=np.complex128)
    for el in povm.elements:
        assert np.allclose(el, el.conj().T, atol=1e-10)
        vals = np.linalg.eigvalsh(el)
        assert vals.min() > -1e-10
        total += el
    assert np.allclose(total, np.eye(dim), atol=atol)


ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
