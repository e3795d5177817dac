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

    @property
    def n_outputs(self) -> int:
        return self.layer_sizes[-1]

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

    def load_arrays(self, flat: np.ndarray, arrays) -> None:
        """Copy one array per weight matrix, then one per bias vector, into a
        vector laid out like params. ValueError when the count or a shape does
        not match layer_sizes."""
        weights, biases = self.views(flat)
        dsts = weights + biases
        names = ([f"weights[{i}]" for i in range(len(weights))]
                 + [f"biases[{i}]" for i in range(len(biases))])
        if len(arrays) != len(dsts):
            raise ValueError(f"{len(arrays)} arrays for {len(dsts)} weights and biases "
                             f"of layer_sizes {self.layer_sizes}")
        for name, dst, src in zip(names, dsts, arrays):
            src = np.asarray(src, dtype=np.float64)
            if src.shape != dst.shape:
                raise ValueError(f"{name} has shape {src.shape}, layer_sizes "
                                 f"{self.layer_sizes} need {dst.shape}")
            np.copyto(dst, src)

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

    def forward_batch(self, X: np.ndarray):
        """Returns (output, cache) where cache holds layer activations for backward."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_inputs:
            raise ValueError(f"batch shape {X.shape} incompatible with input size {self.n_inputs}")
        acts = [X]
        h = X
        last = len(self.weights) - 1
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ W.T + b
            if i != last:
                np.maximum(h, 0.0, out=h)
            acts.append(h)
        return h, acts

    def backward(self, acts: list[np.ndarray], d_out: np.ndarray):
        """Gradients of a scalar loss given d(loss)/d(output), written into the
        flat vector self.grad (laid out like params).

        Returns (d_weights, d_biases): views into self.grad matching
        self.weights/self.biases, overwritten by the next call.
        """
        if self.grad is None:
            self.grad = np.empty_like(self.params)
            self._d_weights, self._d_biases = self.views(self.grad)
        delta = np.asarray(d_out, dtype=np.float64)
        for i in range(len(self.weights) - 1, -1, -1):
            np.matmul(delta.T, acts[i], out=self._d_weights[i])
            delta.sum(axis=0, out=self._d_biases[i])
            if i > 0:
                delta = delta @ self.weights[i]
                delta = delta * (acts[i] > 0.0)
        return self._d_weights, self._d_biases

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
        self._scratch: np.ndarray | None = None  # two vectors, from the first step

    def step(self, grad: np.ndarray):
        """One update of net.params from a flat gradient laid out like params."""
        if grad.shape != self.m.shape:
            raise ValueError(f"gradient shape {grad.shape} != parameter shape {self.m.shape}")
        self.step_count += 1
        if self._scratch is None:
            self._scratch = np.empty((2, self.m.size))
        a, b = self._scratch
        beta1, beta2 = self.beta1, self.beta2
        m, v = self.m, self.v
        # In place, with the per-element operations in the textbook order:
        # m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g;
        # p -= (lr*(m/(1-b1^t))) / (sqrt(v/(1-b2^t)) + eps).
        m *= beta1
        np.multiply(grad, 1.0 - beta1, out=a)
        m += a
        v *= beta2
        np.multiply(grad, 1.0 - beta2, out=a)
        a *= grad
        v += a
        np.divide(v, 1.0 - beta2 ** self.step_count, out=a)
        np.sqrt(a, out=a)
        a += self.eps
        np.divide(m, 1.0 - beta1 ** self.step_count, out=b)
        b *= self.lr
        b /= a
        self.net.params -= b

    def copy(self, net: MLP) -> "Adam":
        """An optimizer for net (a copy of self.net) with this one's state."""
        twin = Adam(net, lr=self.lr, beta1=self.beta1, beta2=self.beta2, eps=self.eps)
        twin.step_count = self.step_count
        np.copyto(twin.m, self.m)
        np.copyto(twin.v, self.v)
        return twin

    def state_dict(self) -> dict:
        m_w, m_b = self.net.views(self.m)
        v_w, v_b = self.net.views(self.v)
        return {
            "step_count": self.step_count,
            "lr": self.lr, "beta1": self.beta1, "beta2": self.beta2, "eps": self.eps,
            "m": [a.tolist() for a in m_w + m_b],
            "v": [a.tolist() for a in v_w + v_b],
        }

    def load_state_dict(self, state: dict):
        for key, moment in (("m", self.m), ("v", self.v)):
            try:
                self.net.load_arrays(moment, state[key])
            except ValueError as exc:
                raise ValueError(f"Adam moment {key}: {exc}") from exc
        self.step_count = int(state["step_count"])
        self.lr = float(state["lr"])
        self.beta1 = float(state["beta1"])
        self.beta2 = float(state["beta2"])
        self.eps = float(state["eps"])
