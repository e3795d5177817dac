import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stlfunnel
from stlfunnel import backend
from stlfunnel._kernels_py import adam_step as adam_step_py
from stlfunnel._kernels_py import forward_single as forward_single_py
from stlfunnel.mlp import MLP, Adam


def make_net(sizes=(3, 8, 5, 2), seed=0):
    return MLP(list(sizes), rng=np.random.default_rng(seed))


# Forward pass -----------------------------------------------------------------

def test_zero_network_outputs_zero():
    net = MLP([4, 16, 3], rng=None)
    assert np.array_equal(net.forward_single(np.ones(4)), np.zeros(3))


def test_forward_single_matches_batch():
    net = make_net()
    rng = np.random.default_rng(1)
    X = rng.normal(size=(10, 3))
    out, _ = net.forward_batch(X)
    for i in range(10):
        single = net.forward_single(X[i])
        assert np.allclose(single, out[i], atol=1e-12)


def test_forward_hand_computed_tiny_net():
    net = MLP([1, 2, 1], rng=None)
    net.weights[0][:] = [[2.0], [-1.0]]
    net.biases[0][:] = [0.5, 0.0]
    net.weights[1][:] = [[1.0, 3.0]]
    net.biases[1][:] = [0.25]
    # x=1: hidden = relu([2.5, -1]) = [2.5, 0]; out = 2.5 + 0.25 = 2.75.
    assert net.forward_single(np.array([1.0]))[0] == pytest.approx(2.75)
    # x=-1: hidden = relu([-1.5, 1]) = [0, 1]; out = 3 + 0.25 = 3.25.
    assert net.forward_single(np.array([-1.0]))[0] == pytest.approx(3.25)


def test_forward_rejects_wrong_shape():
    net = make_net()
    with pytest.raises(ValueError):
        net.forward_single(np.zeros(4))
    with pytest.raises(ValueError):
        net.forward_batch(np.zeros((5, 4)))


# Backward pass: finite-difference check ---------------------------------------

def fd_gradient(net, X, target, param, idx, h=1e-6):
    def loss():
        out, _ = net.forward_batch(X)
        return float(np.mean((out - target) ** 2))

    old = param[idx]
    param[idx] = old + h
    up = loss()
    param[idx] = old - h
    down = loss()
    param[idx] = old
    return (up - down) / (2 * h)


def test_backward_matches_finite_differences():
    net = make_net(sizes=(3, 6, 4, 2), seed=3)
    rng = np.random.default_rng(4)
    X = rng.normal(size=(5, 3))
    target = rng.normal(size=(5, 2))
    out, acts = net.forward_batch(X)
    d_out = 2.0 * (out - target) / out.size
    dW, db = net.backward(acts, d_out)

    checked = 0
    for li in range(len(net.weights)):
        for idx in [(0, 0), (1, 2), (net.weights[li].shape[0] - 1,
                                     net.weights[li].shape[1] - 1)]:
            num = fd_gradient(net, X, target, net.weights[li], idx)
            ana = dW[li][idx]
            assert num == pytest.approx(ana, rel=1e-4, abs=1e-8)
            checked += 1
        num = fd_gradient(net, X, target, net.biases[li], (0,))
        assert num == pytest.approx(db[li][0], rel=1e-4, abs=1e-8)
        checked += 1
    assert checked >= 12


def test_backward_relu_blocks_gradient():
    net = MLP([1, 1, 1], rng=None)
    net.weights[0][:] = [[1.0]]
    net.weights[1][:] = [[1.0]]
    # Negative pre-activation: hidden unit off, no gradient reaches layer 0.
    out, acts = net.forward_batch(np.array([[-2.0]]))
    dW, db = net.backward(acts, np.ones((1, 1)))
    assert dW[0][0, 0] == 0.0
    assert db[0][0] == 0.0
    assert dW[1][0, 0] == 0.0  # hidden activation is zero
    assert db[1][0] == 1.0


# Backend agreement ------------------------------------------------------------

def test_compiled_and_pure_forward_agree():
    net = make_net(sizes=(5, 32, 32, 7), seed=9)
    rng = np.random.default_rng(10)
    for _ in range(20):
        x = np.ascontiguousarray(rng.normal(size=5))
        a = backend.forward_single(net.weights, net.biases, x)
        b = forward_single_py(net.weights, net.biases, x)
        assert np.allclose(a, b, atol=1e-12, rtol=0)


def test_compiled_and_pure_adam_agree():
    rng = np.random.default_rng(11)
    p1 = rng.normal(size=64)
    p2 = p1.copy()
    m1, v1 = np.zeros(64), np.zeros(64)
    m2, v2 = np.zeros(64), np.zeros(64)
    for t in range(1, 30):
        g = np.ascontiguousarray(rng.normal(size=64))
        backend.adam_step(p1, g, m1, v1, t, 1e-3, 0.9, 0.999, 1e-8)
        adam_step_py(p2, g, m2, v2, t, 1e-3, 0.9, 0.999, 1e-8)
    assert np.allclose(p1, p2, atol=1e-12, rtol=0)
    assert np.allclose(m1, m2, atol=1e-15, rtol=0)
    assert np.allclose(v1, v2, atol=1e-15, rtol=0)


def test_pure_python_env_var_forces_fallback():
    code = ("import stlfunnel.backend as b; "
            "raise SystemExit(0 if not b.COMPILED else 1)")
    # The child sees only this environment, so it is told where the package
    # under test lives (it need not be installed).
    package_root = str(Path(stlfunnel.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={"PATH": "/usr/bin:/bin", "STLFUNNEL_PURE_PYTHON": "1",
             "PYTHONPATH": package_root},
        capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()


# Optimizer --------------------------------------------------------------------

def test_adam_first_step_moves_by_lr():
    net = MLP([1, 1], rng=None)
    net.weights[0][:] = [[1.0]]
    opt = Adam(net, lr=0.1)
    # With eps << 1 the first update is lr * sign(grad) to high accuracy.
    opt.step([np.array([[0.5]])], [np.array([0.0])])
    assert net.weights[0][0, 0] == pytest.approx(1.0 - 0.1, abs=1e-7)


def test_adam_reduces_quadratic_loss():
    net = make_net(sizes=(2, 16, 1), seed=20)
    opt = Adam(net, lr=1e-2)
    rng = np.random.default_rng(21)
    X = rng.normal(size=(64, 2))
    y = (X[:, :1] * 2.0 - X[:, 1:] + 0.5)
    first = None
    for _ in range(200):
        out, acts = net.forward_batch(X)
        err = out - y
        loss = float(np.mean(err ** 2))
        if first is None:
            first = loss
        dW, db = net.backward(acts, 2.0 * err / err.size)
        opt.step(dW, db)
    assert loss < 0.05 * first


def test_adam_state_round_trip():
    net = make_net(seed=30)
    opt = Adam(net, lr=5e-3)
    rng = np.random.default_rng(31)
    X = rng.normal(size=(8, 3))
    for _ in range(5):
        out, acts = net.forward_batch(X)
        dW, db = net.backward(acts, out / out.size)
        opt.step(dW, db)
    state = opt.state_dict()

    net2 = net.copy()
    opt2 = Adam(net2, lr=5e-3)
    opt2.load_state_dict(state)
    out, acts = net.forward_batch(X)
    dW, db = net.backward(acts, out / out.size)
    opt.step(dW, db)
    out2, acts2 = net2.forward_batch(X)
    dW2, db2 = net2.backward(acts2, out2 / out2.size)
    opt2.step(dW2, db2)
    for a, b in zip(net.weights, net2.weights):
        assert np.array_equal(a, b)


# Copy semantics ---------------------------------------------------------------

def test_copy_is_deep():
    net = make_net(seed=40)
    clone = net.copy()
    clone.weights[0][0, 0] += 1.0
    assert net.weights[0][0, 0] != clone.weights[0][0, 0]


def test_copy_from_synchronizes():
    a = make_net(seed=41)
    b = make_net(seed=42)
    b.copy_from(a)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
