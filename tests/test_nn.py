import numpy as np
import pytest

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


# Optimizer --------------------------------------------------------------------

def test_adam_first_step_moves_by_lr():
    net = MLP([1, 1], rng=None)
    net.weights[0][:] = [[1.0]]
    opt = Adam(net, lr=0.1)
    # With eps << 1 the first update is lr * sign(grad) to high accuracy.
    opt.step(np.array([0.5, 0.0]))
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
        net.backward(acts, 2.0 * err / err.size)
        opt.step(net.grad)
    assert loss < 0.05 * first


def test_adam_state_round_trip():
    net = make_net(seed=30)
    opt = Adam(net, lr=5e-3)
    rng = np.random.default_rng(31)
    X = rng.normal(size=(8, 3))
    for _ in range(5):
        out, acts = net.forward_batch(X)
        net.backward(acts, out / out.size)
        opt.step(net.grad)
    # The whole optimizer state is the two flat moments and the step count,
    # which is what a checkpoint stores.
    net2 = net.copy()
    opt2 = Adam(net2, lr=5e-3)
    np.copyto(opt2.m, opt.m)
    np.copyto(opt2.v, opt.v)
    opt2.step_count = opt.step_count
    out, acts = net.forward_batch(X)
    net.backward(acts, out / out.size)
    opt.step(net.grad)
    out2, acts2 = net2.forward_batch(X)
    net2.backward(acts2, out2 / out2.size)
    opt2.step(net2.grad)
    for a, b in zip(net.weights, net2.weights):
        assert np.array_equal(a, b)


def adam_step_oracle(param, grad, m, v, step, lr, beta1, beta2, eps):
    """Reference update of one array, in the per-array numpy form the flat
    step replaced; the flat step must equal it bit for bit."""
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    mhat = m / (1.0 - beta1 ** step)
    vhat = v / (1.0 - beta2 ** step)
    param -= lr * mhat / (np.sqrt(vhat) + eps)


def test_flat_adam_matches_per_array_oracle():
    lr, beta1, beta2, eps = 3e-3, 0.85, 0.995, 1e-7
    net = make_net(sizes=(4, 12, 9, 3), seed=50)
    opt = Adam(net, lr=lr, beta1=beta1, beta2=beta2, eps=eps)
    ref = [a.copy() for a in net.weights + net.biases]
    ref_m = [np.zeros_like(a) for a in ref]
    ref_v = [np.zeros_like(a) for a in ref]
    rng = np.random.default_rng(51)
    X = rng.normal(size=(16, 4))
    target = rng.normal(size=(16, 3))
    for step in range(1, 61):
        out, acts = net.forward_batch(X)
        dW, db = net.backward(acts, 2.0 * (out - target) / out.size)
        grads = [g.copy() for g in dW + db]
        opt.step(net.grad)
        for p, g, m, v in zip(ref, grads, ref_m, ref_v):
            adam_step_oracle(p, g, m, v, step, lr, beta1, beta2, eps)
    m_w, m_b = net.views(opt.m)
    v_w, v_b = net.views(opt.v)
    for got, want in zip(net.weights + net.biases + m_w + m_b + v_w + v_b,
                         ref + ref_m + ref_v):
        assert np.array_equal(got, want)
    with pytest.raises(ValueError, match="gradient shape"):
        opt.step(np.zeros(3))


# Copy semantics ---------------------------------------------------------------

def assert_views_into_params(net):
    for arr in net.weights + net.biases:
        assert np.shares_memory(arr, net.params)


def test_copy_is_deep():
    net = make_net(seed=40)
    clone = net.copy()
    assert_views_into_params(clone)
    assert np.array_equal(clone.params, net.params)
    assert not np.shares_memory(clone.params, net.params)
    clone.weights[0][0, 0] += 1.0
    assert net.weights[0][0, 0] != clone.weights[0][0, 0]
    assert clone.params[0] == clone.weights[0][0, 0]


def test_copy_from_synchronizes():
    a = make_net(seed=41)
    b = make_net(seed=42)
    b.copy_from(a)
    assert_views_into_params(b)
    for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
        assert np.array_equal(wa, wb)
    assert not np.shares_memory(a.params, b.params)


def test_gradient_views_and_checked_loading():
    net = make_net(sizes=(3, 5, 2), seed=43)
    assert net.grad is None  # allocated by the first backward pass
    out, acts = net.forward_batch(np.ones((4, 3)))
    dW, db = net.backward(acts, out)
    for arr in dW + db:
        assert np.shares_memory(arr, net.grad)
    flat = net.params + 1.0
    np.copyto(net.params, flat)  # how a checkpoint is loaded
    assert_views_into_params(net)
    weights, biases = net.views(flat)
    for got, want in zip(net.weights + net.biases, weights + biases):
        assert got.shape == want.shape and np.array_equal(got, want)
