"""Small tanh MLPs with hand-rolled backprop, plus Adam.

Both the policy and the value function default to two hidden layers of width
32. The policy head is a diagonal Gaussian with a state-independent,
learnable log standard deviation clamped to [-5, 2].
"""
from __future__ import annotations

import math

import numpy as np

from ..errors import DataError

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
LOG2PI = np.log(2.0 * np.pi)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class _Mlp:
    """Feed-forward tanh network with linear output.

    One flat vector `params` holds every parameter: the weights, then the
    biases, then `extra` entries of the subclass's own; the per-layer arrays
    are views of it.
    """

    def __init__(self, rng: np.random.Generator, sizes: tuple[int, ...], extra: int = 0):
        self.sizes = sizes
        self._layout = []  # (slice of `params`, shape): each weight matrix, then each bias
        size = 0
        for shape in [*zip(sizes, sizes[1:]), *((fan_out,) for fan_out in sizes[1:])]:
            self._layout.append((slice(size, size + math.prod(shape)), shape))
            size += math.prod(shape)
        self._extra = slice(size, None)
        self.params = np.zeros(size + extra)
        self.weights, self.biases, self.extra = self._views(self.params)
        for w in self.weights:
            w[...] = rng.normal(scale=np.sqrt(2.0 / sum(w.shape)), size=w.shape)

    def _views(self, flat: np.ndarray):
        """Views of `flat`: the weight matrices, then the bias vectors, then
        the entries after them."""
        parts = [flat[part].reshape(shape) for part, shape in self._layout]
        n_layers = len(self.sizes) - 1
        return parts[:n_layers], parts[n_layers:], flat[self._extra]

    def forward(self, x: np.ndarray):
        """Returns output plus the per-layer activations for backprop. Each
        layer writes one fresh array and updates it in place."""
        acts = [x]
        last = len(self.weights) - 1
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = np.matmul(acts[-1], w)
            np.add(h, b, out=h)
            if k != last:
                np.tanh(h, out=h)
            acts.append(h)
        return acts[-1], acts

    def backward(self, acts, grad_out) -> tuple[np.ndarray, np.ndarray]:
        """Gradient of sum(grad_out * output), laid out like `params`, and the
        view of its `extra` entries, which are left for the caller to fill.

        Consumes `acts` from `forward`: each hidden activation is overwritten
        with its tanh slope and released (its entry set to None) once the
        slope is in the delta. The input `acts[0]`, the output and `grad_out`
        are left as they are."""
        grad = np.empty_like(self.params)
        gw, gb, extra = self._views(grad)
        delta = grad_out
        for k in range(len(gw) - 1, -1, -1):
            np.matmul(acts[k].T, delta, out=gw[k])
            delta.sum(axis=0, out=gb[k])
            if k > 0:
                slope, acts[k] = acts[k], None
                np.square(slope, out=slope)
                np.subtract(1.0, slope, out=slope)
                delta = np.matmul(delta, self.weights[k].T)
                np.multiply(delta, slope, out=delta)
        return grad, extra


class Adam:
    def __init__(self, size: int, lr: float):
        self.lr = lr
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, grad: np.ndarray) -> np.ndarray:
        """Update increment for a gradient ASCENT direction."""
        self.t += 1
        self.m = ADAM_BETA1 * self.m + (1 - ADAM_BETA1) * grad
        self.v = ADAM_BETA2 * self.v + (1 - ADAM_BETA2) * grad**2
        m_hat = self.m / (1 - ADAM_BETA1**self.t)
        v_hat = self.v / (1 - ADAM_BETA2**self.t)
        return self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


class GaussianPolicy(_Mlp):
    """Diagonal Gaussian policy over continuous actions; `log_std` is the
    last act_dim entries of `params`."""

    def __init__(self, obs_dim: int, act_dim: int, hidden=(32, 32), seed: int = 0,
                 log_std_init: float = -0.5):
        super().__init__(np.random.default_rng(seed), (obs_dim, *hidden, act_dim), extra=act_dim)
        self.log_std = self.extra
        self.log_std[...] = np.clip(log_std_init, LOG_STD_MIN, LOG_STD_MAX)

    # -- parameter vector ---------------------------------------------------

    def get_flat(self) -> np.ndarray:
        return self.params.copy()

    def set_flat(self, flat: np.ndarray):
        """Write every parameter, clamping log_std. A vector of the wrong size
        or with a non-finite entry raises DataError and changes nothing."""
        flat = np.asarray(flat, dtype=float)
        if flat.shape != self.params.shape:
            raise DataError(f"parameter vector has shape {flat.shape}, expected ({self.params.size},)")
        if not np.all(np.isfinite(flat)):
            raise DataError("policy parameters are not finite")
        self.params[:] = flat
        np.clip(self.log_std, LOG_STD_MIN, LOG_STD_MAX, out=self.log_std)

    @property
    def num_params(self) -> int:
        return self.params.size

    # -- distribution -------------------------------------------------------

    def mean(self, states: np.ndarray) -> np.ndarray:
        out, _ = self.forward(np.atleast_2d(states))
        return out

    def sample(self, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        mu = self.mean(states)
        sigma = np.exp(self.log_std)
        return mu + sigma * rng.standard_normal(mu.shape)

    def log_prob(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        mu = self.mean(states)
        actions = np.atleast_2d(actions)
        sigma = np.exp(self.log_std)
        z = (actions - mu) / sigma
        return -0.5 * np.sum(z**2 + 2.0 * self.log_std + LOG2PI, axis=1)

    def weighted_logp_grad(self, states, actions, weights) -> np.ndarray:
        """Gradient of sum_i weights_i * log pi(a_i | s_i) w.r.t. all params."""
        states = np.atleast_2d(np.asarray(states, dtype=float))
        actions = np.atleast_2d(np.asarray(actions, dtype=float))
        weights = np.asarray(weights, dtype=float)
        if states.shape[0] != actions.shape[0] or weights.shape != (states.shape[0],):
            raise DataError("batch dimensions disagree")
        mu, acts = self.forward(states)
        var = np.exp(2.0 * self.log_std)
        diff = np.subtract(actions, mu, out=mu)
        delta = np.multiply(weights[:, None], diff)
        np.divide(delta, var, out=delta)
        grad, grad_log_std = self.backward(acts, delta)
        # weights * (diff**2 / var - 1), summed over the batch
        term = np.square(diff, out=diff)
        np.divide(term, var, out=term)
        np.subtract(term, 1.0, out=term)
        np.multiply(weights[:, None], term, out=term)
        np.sum(term, axis=0, out=grad_log_std)
        return grad


class ValueFunction(_Mlp):
    """Scalar state-value estimator with the same MLP body."""

    def __init__(self, obs_dim: int, hidden=(32, 32), seed: int = 0):
        super().__init__(np.random.default_rng(seed), (obs_dim, *hidden, 1))

    def predict(self, states: np.ndarray) -> np.ndarray:
        out, _ = self.forward(np.atleast_2d(states))
        return out[:, 0]

    def mse_and_grad(self, states, targets) -> tuple[float, np.ndarray]:
        states = np.atleast_2d(np.asarray(states, dtype=float))
        targets = np.asarray(targets, dtype=float)
        pred, acts = self.forward(states)
        err = pred[:, 0] - targets
        loss = float(np.mean(err**2))
        grad, _ = self.backward(acts, (2.0 / err.size) * err[:, None])
        return loss, grad
