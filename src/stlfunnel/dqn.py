"""Time-aware deep Q-learning.

The Q-function conditions on the episode step: the network input is the state
with the normalized time t/horizon appended, and the behavior policy is
epsilon-greedy on Q(s, ., t). Training follows the classic online loop: one
environment step, one replay-buffer insert, one minibatch update per step,
with a periodically synced target network providing bootstrap targets
y = r + discount * max_a Q_target(s', a, t+1) (y = r at the horizon).
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field, asdict
from typing import Callable

import numpy as np

from .envs import Environment
from .mlp import MLP, Adam
from .reward import RewardSpec, reward
from .stl.formula import Formula

__all__ = [
    "Transition", "ReplayBuffer", "TrainConfig", "NeuralAgent", "TabularAgent",
    "epsilon_greedy", "epsilon_at", "td_target", "train", "TrainingDiverged",
    "save_checkpoint", "load_checkpoint", "CheckpointError", "TrainLogRow",
]

log = logging.getLogger(__name__)

CHECKPOINT_VERSION = 1


class TrainingDiverged(RuntimeError):
    pass


class CheckpointError(ValueError):
    pass


@dataclass(frozen=True)
class Transition:
    s: np.ndarray
    a: int
    r: float
    s_next: np.ndarray
    t: int
    terminal: bool


class ReplayBuffer:
    """Bounded ring of transitions with uniform sampling (with replacement)."""

    def __init__(self, capacity: int, state_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.size = 0
        self._next = 0
        self.s = np.empty((capacity, state_dim))
        self.a = np.empty(capacity, dtype=np.int64)
        self.r = np.empty(capacity)
        self.s_next = np.empty((capacity, state_dim))
        self.t = np.empty(capacity, dtype=np.int64)
        self.terminal = np.empty(capacity, dtype=bool)

    def __len__(self):
        return self.size

    def add(self, s, a, r, s_next, t, terminal):
        i = self._next
        self.s[i] = s
        self.a[i] = a
        self.r[i] = r
        self.s_next[i] = s_next
        self.t[i] = t
        self.terminal[i] = terminal
        self._next = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> dict:
        if self.size == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self.size, size=batch_size)
        return {
            "s": self.s[idx], "a": self.a[idx], "r": self.r[idx],
            "s_next": self.s_next[idx], "t": self.t[idx],
            "terminal": self.terminal[idx],
        }


@dataclass(frozen=True)
class TrainConfig:
    total_steps: int = 100_000
    discount: float = 0.99
    lr: float = 1e-3
    batch_size: int = 64
    target_update_freq: int = 1000
    eval_freq: int = 10_000
    eval_episodes: int = 5
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_steps: int | None = None  # default: half of total_steps
    hidden_sizes: tuple[int, ...] = (128, 128)
    replay_capacity: int = 100_000
    seed: int = 0
    # Per-dimension divisor applied to states before the network input; None
    # feeds raw states. Needed when coordinates are far outside unit scale.
    state_scale: tuple[float, ...] | None = None
    # Keep the best periodically-evaluated policy snapshot instead of the
    # final one (requires a monitored formula during training).
    keep_best: bool = False

    def __post_init__(self):
        if not (0 < self.discount < 1):
            raise ValueError(f"discount must be in (0,1), got {self.discount}")
        for name in ("lr", "batch_size", "target_update_freq", "eval_freq",
                     "eval_episodes", "replay_capacity"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.total_steps < 0:
            raise ValueError("total_steps must be nonnegative")
        if not (0 <= self.epsilon_end <= self.epsilon_start <= 1):
            raise ValueError("need 0 <= epsilon_end <= epsilon_start <= 1")

    @property
    def decay_steps(self) -> int:
        if self.epsilon_decay_steps is not None:
            return self.epsilon_decay_steps
        return max(self.total_steps // 2, 1)

    def digest(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True, default=list)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def epsilon_at(cfg: TrainConfig, k: int) -> float:
    """Linear schedule: start at k=0, end from decay_steps onwards."""
    if k >= cfg.decay_steps:
        return cfg.epsilon_end
    frac = k / cfg.decay_steps
    return cfg.epsilon_start + frac * (cfg.epsilon_end - cfg.epsilon_start)


def epsilon_greedy(q: np.ndarray, epsilon: float, rng: np.random.Generator) -> int:
    """Greedy action with probability 1 - eps + eps/|A|, any other eps/|A|.

    Argmax ties break toward the lowest index.
    """
    q = np.asarray(q)
    if q.size == 0:
        raise ValueError("empty Q-vector")
    if not (0 <= epsilon <= 1):
        raise ValueError(f"epsilon must be in [0,1], got {epsilon}")
    if epsilon > 0 and rng.random() < epsilon:
        return int(rng.integers(0, q.size))
    return int(np.argmax(q))


class NeuralAgent:
    """MLP Q-function with target network and adaptive-moment updates."""

    def __init__(self, state_dim: int, n_actions: int, hidden_sizes, horizon: int,
                 lr: float, rng: np.random.Generator | None,
                 state_scale: tuple[float, ...] | None = None):
        sizes = [state_dim + 1, *hidden_sizes, n_actions]
        self.net = MLP(sizes, rng)
        self.target_net = self.net.copy()
        self.optimizer = Adam(self.net, lr=lr)
        self.horizon = horizon
        self.state_dim = state_dim
        self.n_actions = n_actions
        if state_scale is not None:
            scale = np.asarray(state_scale, dtype=np.float64)
            if scale.shape != (state_dim,) or np.any(scale <= 0):
                raise ValueError(
                    f"state_scale must be {state_dim} positive values, got {state_scale}")
            self.state_scale = scale
        else:
            self.state_scale = None
        self._x = np.empty(state_dim + 1)
        self._xb: np.ndarray | None = None  # batch input, sized by the first batch

    def _input_single(self, s, t) -> np.ndarray:
        """Network input for one state, written into a buffer reused by every call."""
        x = self._x
        if self.state_scale is not None:
            np.divide(s, self.state_scale, out=x[:-1])
        else:
            x[:-1] = s
        # The time feature t/horizon: a correctly rounded float64 division, so
        # it equals the one _input_batch computes for the same t.
        x[-1] = t / self.horizon
        return x

    def _input_batch(self, S, T) -> np.ndarray:
        """Network input for a batch, written into a buffer reused by every call
        with the same batch size."""
        S = np.asarray(S, dtype=np.float64)
        X = self._xb
        if X is None or X.shape[0] != len(S):
            X = self._xb = np.empty((len(S), self.state_dim + 1))
        if self.state_scale is not None:
            np.divide(S, self.state_scale, out=X[:, :-1])
        else:
            X[:, :-1] = S
        np.divide(T, self.horizon, out=X[:, -1])
        return X

    def q_values(self, s, t) -> np.ndarray:
        return self.net.forward_single(self._input_single(s, t))

    def q_batch(self, S, T) -> np.ndarray:
        out, _ = self.net.forward_batch(self._input_batch(S, T))
        return out

    def target_q_batch(self, S, T) -> np.ndarray:
        out, _ = self.target_net.forward_batch(self._input_batch(S, T))
        return out

    def sync_target(self):
        self.target_net.copy_from(self.net)

    def clone(self) -> "NeuralAgent":
        twin = NeuralAgent.__new__(NeuralAgent)
        twin.net = self.net.copy()
        twin.target_net = self.target_net.copy()
        twin.optimizer = self.optimizer.copy(twin.net)
        twin.horizon = self.horizon
        twin.state_dim = self.state_dim
        twin.n_actions = self.n_actions
        twin.state_scale = None if self.state_scale is None else self.state_scale.copy()
        twin._x = np.empty_like(self._x)
        twin._xb = None
        return twin

    def update(self, batch: dict, discount: float) -> float:
        y = td_target(batch, self, discount, self.horizon)
        X = self._input_batch(batch["s"], batch["t"])
        out, acts = self.net.forward_batch(X)
        a = batch["a"]
        m = len(a)
        picked = out[np.arange(m), a]
        err = picked - y
        loss = float(np.mean(err ** 2))
        d_out = np.zeros_like(out)
        d_out[np.arange(m), a] = 2.0 * err / m
        self.net.backward(acts, d_out)
        self.optimizer.step(self.net.grad)
        return loss


def td_target(batch: dict, agent, discount: float, horizon: int) -> np.ndarray:
    """Bootstrap targets y = r + discount * max_a Q_target(s', a, t+1); no
    bootstrap on terminal records."""
    t_next = np.asarray(batch["t"]) + 1
    terminal = np.asarray(batch["terminal"], dtype=bool)
    if np.any(t_next[~terminal] > horizon):
        raise ValueError("non-terminal transition at or beyond the horizon")
    t_next = np.minimum(t_next, horizon)
    q_next = agent.target_q_batch(batch["s_next"], t_next)
    y = np.asarray(batch["r"], dtype=np.float64).copy()
    y[~terminal] += discount * q_next.max(axis=1)[~terminal]
    return y


class TabularAgent:
    """Table-backed Q-function sharing the NeuralAgent interface; used to
    validate the training loop against exact finite-horizon value iteration."""

    def __init__(self, n_states: int, n_actions: int, horizon: int,
                 state_to_index: Callable[[np.ndarray], int], lr: float = 1.0):
        self.q = np.zeros((n_states, n_actions, horizon + 1))
        self.target_q = np.zeros_like(self.q)
        self.horizon = horizon
        self.n_actions = n_actions
        self.state_to_index = state_to_index
        self.lr = lr

    def q_values(self, s, t) -> np.ndarray:
        return self.q[self.state_to_index(s), :, t]

    def target_q_batch(self, S, T) -> np.ndarray:
        idx = [self.state_to_index(s) for s in np.atleast_2d(S)]
        return self.target_q[idx, :, np.asarray(T)]

    def sync_target(self):
        np.copyto(self.target_q, self.q)

    def update(self, batch: dict, discount: float) -> float:
        y = td_target(batch, self, discount, self.horizon)
        errs = []
        for i in range(len(y)):
            si = self.state_to_index(batch["s"][i])
            a, t = int(batch["a"][i]), int(batch["t"][i])
            err = y[i] - self.q[si, a, t]
            self.q[si, a, t] += self.lr * err
            errs.append(err * err)
        return float(np.mean(errs))


@dataclass
class TrainLogRow:
    step: int
    episode: int
    epsilon: float
    loss: float
    eval_satisfaction: float
    eval_min_robustness: float


@dataclass
class TrainResult:
    agent: object
    log: list[TrainLogRow] = field(default_factory=list)
    episodes: int = 0
    best_agent: object = None  # best evaluated snapshot when keep_best is set


def train(env: Environment, reward_spec: RewardSpec, phi: Formula | None,
          cfg: TrainConfig, agent=None, start_step: int = 0) -> TrainResult:
    """Run the time-aware Q-learning loop.

    phi, when given, is the monitored specification used by the periodic
    greedy evaluations; without it the evaluation columns are NaN. Fully
    deterministic for a fixed config and seed.
    """
    from . import evalmon  # local import: evalmon depends on reward/funnel only

    horizon = env.horizon
    if reward_spec.horizon != horizon:
        raise ValueError(
            f"environment horizon {horizon} != reward schedule horizon {reward_spec.horizon}")

    rng = np.random.default_rng(cfg.seed)
    if agent is None:
        agent = NeuralAgent(len(env.schema), env.n_actions, cfg.hidden_sizes,
                            horizon, cfg.lr, rng, state_scale=cfg.state_scale)
    buffer = ReplayBuffer(cfg.replay_capacity, len(env.schema))
    result = TrainResult(agent=agent)

    if cfg.keep_best and phi is None:
        raise ValueError("keep_best requires a formula to evaluate against")

    s = env.reset(rng)
    t = 0
    episode = 0
    loss_window: list[float] = []
    best_score = None

    def evaluate(step_k: int, eps_k: float):
        nonlocal best_score
        if phi is None:
            sat, min_rob = float("nan"), float("nan")
        else:
            sats, min_robs = [], []
            for ep in range(cfg.eval_episodes):
                traj = evalmon.rollout(agent, env, reward_spec,
                                       seed=[cfg.seed, 7919, step_k, ep], greedy=True)
                rep = evalmon.check_satisfaction(phi, traj)
                sats.append(rep.satisfied)
                min_robs.append(rep.obligation_min)
            sat = float(np.mean(sats))
            min_rob = float(np.mean(min_robs))
            if cfg.keep_best and (best_score is None or (sat, min_rob) > best_score):
                best_score = (sat, min_rob)
                result.best_agent = agent.clone()
        mean_loss = float(np.mean(loss_window)) if loss_window else float("nan")
        loss_window.clear()
        result.log.append(TrainLogRow(step=step_k, episode=episode, epsilon=eps_k,
                                      loss=mean_loss, eval_satisfaction=sat,
                                      eval_min_robustness=min_rob))

    for k in range(start_step, start_step + cfg.total_steps):
        eps = epsilon_at(cfg, k)
        q = agent.q_values(s, t)
        a = epsilon_greedy(q, eps, rng)
        s_next = env.step(s, a)
        if not np.all(np.isfinite(s_next)):
            raise TrainingDiverged(f"non-finite state at step {k}: {s_next}")
        r = reward(reward_spec, env.state_dict(s), t)
        terminal = (t + 1 == horizon)
        buffer.add(s, a, r, s_next, t, terminal)

        if k % cfg.eval_freq == 0:
            evaluate(k, eps)

        if len(buffer) >= cfg.batch_size:
            batch = buffer.sample(cfg.batch_size, rng)
            loss = agent.update(batch, cfg.discount)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss at step {k}; batch t range "
                    f"[{batch['t'].min()},{batch['t'].max()}], "
                    f"|r| max {np.abs(batch['r']).max():.3g}")
            loss_window.append(loss)

        if k % cfg.target_update_freq == 0:
            agent.sync_target()

        if terminal:
            s = env.reset(rng)
            t = 0
            episode += 1
        else:
            s = s_next
            t += 1

    if cfg.total_steps > 0:
        evaluate(start_step + cfg.total_steps, epsilon_at(cfg, start_step + cfg.total_steps))
    result.episodes = episode
    return result


# Checkpointing ---------------------------------------------------------------

def save_checkpoint(agent: NeuralAgent, path, config_digest: str = "",
                    meta: dict | None = None):
    doc = {
        "version": CHECKPOINT_VERSION,
        "config_digest": config_digest,
        "layer_sizes": agent.net.layer_sizes,
        "horizon": agent.horizon,
        "state_dim": agent.state_dim,
        "n_actions": agent.n_actions,
        "state_scale": None if agent.state_scale is None else agent.state_scale.tolist(),
        "weights": [W.tolist() for W in agent.net.weights],
        "biases": [b.tolist() for b in agent.net.biases],
        "optimizer": agent.optimizer.state_dict(),
        "meta": meta or {},
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)


def load_checkpoint(path, expected_n_actions: int | None = None,
                    config_digest: str | None = None) -> NeuralAgent:
    """Agent saved by save_checkpoint. CheckpointError when the file is not a
    checkpoint of this version, lacks a key, or holds a weight, bias or Adam
    moment whose shape does not match its layer_sizes."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        version = doc["version"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version} unsupported (expected {CHECKPOINT_VERSION})")
    try:
        layer_sizes, weights, biases, horizon, state_dim, n_actions, opt_state = (
            doc[key] for key in ("layer_sizes", "weights", "biases", "horizon",
                                 "state_dim", "n_actions", "optimizer"))
    except KeyError as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: missing key {exc}") from exc
    if expected_n_actions is not None and n_actions != expected_n_actions:
        raise CheckpointError(
            f"checkpoint has {n_actions} actions, environment expects {expected_n_actions}")
    if config_digest and doc.get("config_digest") and doc["config_digest"] != config_digest:
        log.warning("checkpoint config digest %s differs from current %s",
                    doc["config_digest"], config_digest)

    scale = doc.get("state_scale")
    try:
        agent = NeuralAgent(state_dim, n_actions, layer_sizes[1:-1], horizon,
                            lr=opt_state["lr"], rng=None,
                            state_scale=None if scale is None else tuple(scale))
        agent.net.load_arrays(agent.net.params, [*weights, *biases])
        agent.optimizer.load_state_dict(opt_state)
    except KeyError as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: missing optimizer key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"bad checkpoint {path}: {exc}") from exc
    agent.sync_target()
    agent.meta = doc.get("meta", {})
    return agent
