"""Minimal fully connected network with exact backpropagation, plus an
adaptive-moment optimizer. Double precision throughout; rectifier hidden
layers, linear output.

Every parameter of a network lives in one contiguous vector, ``params``:
all weight matrices (row-major, layer by layer), then all bias vectors.
``weights`` and ``biases`` are views into it, and so are the gradient and the
optimizer moments, which are laid out the same way. Copies, target syncs and
the optimizer step therefore each touch one vector.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MLP", "Adam"]


class MLP:
    def __init__(self, layer_sizes: list[int], rng: np.random.Generator | None = None):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.layer_sizes = list(layer_sizes)
        self.params = np.zeros(sum((n_in + 1) * n_out for n_in, n_out
                                   in zip(layer_sizes[:-1], layer_sizes[1:])))
        self.weights, self.biases = self.views(self.params)
        if rng is not None:
            for W in self.weights:
                W[...] = rng.normal(0.0, np.sqrt(2.0 / W.shape[1]), size=W.shape)
        # Flat gradient and its per-layer views; allocated by the first backward
        # pass, so networks that never train (targets, snapshots) hold none.
        self.grad: np.ndarray | None = None
        self._d_weights: list[np.ndarray] = []
        self._d_biases: list[np.ndarray] = []

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    def views(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer (weights, biases) views into a vector laid out like params."""
        weights, biases = [], []
        start = 0
        for n_in, n_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            weights.append(flat[start:start + n_in * n_out].reshape(n_out, n_in))
            start += n_in * n_out
        for n_out in self.layer_sizes[1:]:
            biases.append(flat[start:start + n_out])
            start += n_out
        return weights, biases

    def forward_single(self, x: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape != (self.n_inputs,):
            raise ValueError(f"input shape {x.shape} != ({self.n_inputs},)")
        h = x
        last = len(self.weights) - 1
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            h = W @ h + b
            if i != last:
                np.maximum(h, 0.0, out=h)
        return h

    def forward_batch(self, X: np.ndarray, picked: np.ndarray | None = None):
        """Returns (output, cache) where cache holds layer activations for backward.

        With picked, one output index per row, the last layer computes only
        each row's picked output and the output is the (n,) vector of them.
        The hidden activations are those of the full pass, bit for bit; the
        picked outputs agree with the full pass's to rounding, not in every
        bit, since a row-by-row dot product sums in another order than the
        matrix product.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_inputs:
            raise ValueError(f"batch shape {X.shape} incompatible with input size {self.n_inputs}")
        acts = [X]
        h = X
        last = len(self.weights) - 1
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            if i == last and picked is not None:
                h = np.einsum("ij,ij->i", h, W[picked])
                h += b[picked]
            else:
                h = h @ W.T
                h += b
            if i != last:
                np.maximum(h, 0.0, out=h)
            acts.append(h)
        return h, acts

    def backward(self, acts: list[np.ndarray], d_out: np.ndarray,
                 picked: np.ndarray | None = None):
        """Gradients of a scalar loss given d(loss)/d(output), written into the
        flat vector self.grad (laid out like params).

        With picked, one output index per row, the loss reads only those
        outputs and d_out is the (n,) vector of its gradient with respect to
        each row's picked output. The output layer's weight gradient is then
        a product over the distinct picked units only, and its bias gradient
        a bincount; both agree with the dense pass to rounding. The delta into
        the last hidden layer, d_out[:, None] * W_last[picked], equals the
        product of the one-hot output gradient with W_last bit for bit, and so
        do the gradients of every layer below.

        Returns (d_weights, d_biases): views into self.grad matching
        self.weights/self.biases, overwritten by the next call.
        """
        if self.grad is None:
            self.grad = np.empty_like(self.params)
            self._d_weights, self._d_biases = self.views(self.grad)
        delta = np.asarray(d_out, dtype=np.float64)
        top = len(self.weights) - 1
        if picked is not None:
            self._picked_output_grads(acts[top], delta, picked)
            if top > 0:
                delta = delta[:, None] * self.weights[top][picked]
                delta *= acts[top] > 0.0
            top -= 1
        for i in range(top, -1, -1):
            np.matmul(delta.T, acts[i], out=self._d_weights[i])
            delta.sum(axis=0, out=self._d_biases[i])
            if i > 0:
                delta = delta @ self.weights[i]
                delta *= acts[i] > 0.0
        return self._d_weights, self._d_biases

    def _picked_output_grads(self, h: np.ndarray, g: np.ndarray, picked: np.ndarray):
        """Output-layer gradients when row r's loss reads only output picked[r]
        with gradient g[r]; h holds the last hidden layer's activations."""
        n_out = self.layer_sizes[-1]
        units = np.flatnonzero(np.bincount(picked, minlength=n_out))
        slot = np.empty(n_out, dtype=np.intp)  # row of each picked unit within units
        slot[units] = np.arange(len(units))
        d_units = np.zeros((len(units), len(g)))
        d_units[slot[picked], np.arange(len(g))] = g
        dW = self._d_weights[-1]
        dW.fill(0.0)
        dW[units] = d_units @ h
        self._d_biases[-1][:] = np.bincount(picked, weights=g, minlength=n_out)

    def copy(self) -> "MLP":
        clone = MLP(self.layer_sizes, rng=None)
        np.copyto(clone.params, self.params)
        return clone

    def copy_from(self, other: "MLP"):
        np.copyto(self.params, other.params)


class Adam:
    """Adaptive-moment optimizer (Kingma & Ba, 2015) over a network's flat
    parameter vector."""

    def __init__(self, net: MLP, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.net = net
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = np.zeros_like(net.params)
        self.v = np.zeros_like(net.params)
        self._scratch: np.ndarray | None = None  # one vector, from the first step

    def step(self, grad: np.ndarray):
        """One update of net.params from a flat gradient laid out like params.

        The bias corrections are folded into the step size and epsilon, in the
        order of Kingma & Ba (2015, section 2): with c = sqrt(1 - b2^t),
        p -= (lr*c/(1-b1^t)) * m / (sqrt(v) + eps*c), which is the textbook
        p -= lr*mhat / (sqrt(vhat) + eps) up to rounding, with one vector
        divide instead of three.
        """
        if grad.shape != self.m.shape:
            raise ValueError(f"gradient shape {grad.shape} != parameter shape {self.m.shape}")
        self.step_count += 1
        if self._scratch is None:
            self._scratch = np.empty_like(self.m)
        a = self._scratch
        beta1, beta2 = self.beta1, self.beta2
        m, v = self.m, self.v
        root = np.sqrt(1.0 - beta2 ** self.step_count)
        alpha = self.lr * root / (1.0 - beta1 ** self.step_count)
        # In place: m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g;
        # p -= (m / (sqrt(v) + eps*c)) * alpha.
        m *= beta1
        np.multiply(grad, 1.0 - beta1, out=a)
        m += a
        v *= beta2
        np.multiply(grad, 1.0 - beta2, out=a)
        a *= grad
        v += a
        np.sqrt(v, out=a)
        a += self.eps * root
        np.divide(m, a, out=a)
        a *= alpha
        self.net.params -= a

    def copy(self, net: MLP) -> "Adam":
        """An optimizer for net (a copy of self.net) with this one's state."""
        twin = Adam(net, lr=self.lr, beta1=self.beta1, beta2=self.beta2, eps=self.eps)
        twin.step_count = self.step_count
        np.copyto(twin.m, self.m)
        np.copyto(twin.v, self.v)
        return twin
