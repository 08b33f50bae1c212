import numpy as np
import pytest

import semiflow as sf
from semiflow.errors import NonFiniteValue


def quad():
    return sf.QuadraticObjective(
        {0: np.array([1.0, -2.0]), 1: np.zeros(3)},
        {0: 0.25, 1: 0.0},
    )


def test_quadratic_value_at_center():
    obj = quad()
    assert obj.value(np.array([1.0, -2.0]), 0) == pytest.approx(0.25)


def test_quadratic_value_off_center():
    obj = quad()
    x = np.array([1.0, 0.0, 0.0])
    assert obj.value(x, 1) == pytest.approx(0.5)


def test_quadratic_grad():
    obj = quad()
    c = np.array([1.0, -2.0])
    assert np.allclose(obj.grad(c, 0), np.zeros(2))
    u = np.array([0.3, -0.7])
    assert np.allclose(obj.grad(c + u, 0), u)


def test_tracker_first_sample_initializes():
    t = sf.ValTracker()
    assert t.update(7, 2.0) == 2.0


def test_tracker_ema_step():
    t = sf.ValTracker(decay=0.9)
    t.update(0, 1.0)
    assert t.update(0, 2.0) == pytest.approx(1.1)


def test_tracker_converges_to_constant():
    t = sf.ValTracker(decay=0.9)
    for _ in range(400):
        v = t.update(0, 3.25)
    assert v == pytest.approx(3.25, abs=1e-12)


def test_tracker_bit_deterministic():
    rng = np.random.default_rng(0)
    samples = rng.uniform(0, 1, 100).tolist()

    def run():
        t = sf.ValTracker(decay=0.9)
        for s in samples:
            t.update(4, s)
        return t.running[4]

    assert run() == run()


def test_tracker_refuses_a_non_finite_sample_by_node():
    t = sf.ValTracker()
    with pytest.raises(NonFiniteValue, match="^validation sample at node 3 is inf$") as err:
        t.update(3, float("inf"))
    assert err.value.node == 3
    assert dict(t.running) == {}


def test_tracker_nodes_independent():
    t = sf.ValTracker(decay=0.5)
    t.update(0, 1.0)
    t.update(1, 9.0)
    t.update(0, 3.0)
    assert t.running[0] == pytest.approx(2.0)
    assert t.running[1] == pytest.approx(9.0)


def test_eval_val_updates_tracker():
    obj = quad()
    t = sf.ValTracker(decay=0.9)
    out = sf.eval_val(obj.bind((0,), np.array([[1.0, -2.0]])), t, (0,))
    assert out == [pytest.approx(0.25)]
    assert t.running[0] == pytest.approx(0.25)


def test_quadratic_bound_group_reads_stack_in_place():
    # A bound group scores the live stack: in-place writes to x show.
    obj = sf.QuadraticObjective({0: np.zeros(2), 1: np.ones(2), 2: np.zeros(2)},
                                {2: 1.0})
    x = np.zeros((2, 2))
    bound = obj.bind((1, 2), x)
    values, grads = bound.value_and_grad()
    assert values.tolist() == [1.0, 1.0]
    assert np.array_equal(grads, [[-1.0, -1.0], [0.0, 0.0]])
    x[1] = [3.0, 4.0]
    assert bound.value().tolist() == [1.0, 13.5]
