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
import os
import zipfile
from dataclasses import dataclass, field, asdict

import numpy as np

from .envs import Environment
from .mlp import MLP, Adam
from .reward import RewardSpec, reward
from .stl.formula import Formula

__all__ = [
    "ReplayBuffer", "TrainConfig", "NeuralAgent",
    "epsilon_greedy", "epsilon_at", "td_target", "train", "TrainingDiverged",
    "save_checkpoint", "load_checkpoint", "CheckpointError", "TrainLogRow",
]

log = logging.getLogger(__name__)

CHECKPOINT_VERSION = 2


class TrainingDiverged(RuntimeError):
    pass


class CheckpointError(ValueError):
    pass


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
        counts = {name: getattr(self, name) for name in (
            "total_steps", "batch_size", "target_update_freq", "eval_freq", "eval_episodes",
            "replay_capacity", "seed", "epsilon_decay_steps")}
        if self.epsilon_decay_steps is None:
            del counts["epsilon_decay_steps"]
        counts.update((f"hidden_sizes[{i}]", n) for i, n in enumerate(self.hidden_sizes))
        for name, value in counts.items():
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool) and 0 < x < np.inf
                   for x in self.state_scale or ()):
            raise ValueError(f"state_scale must be positive and finite, got {self.state_scale}")
        if not (0 < self.discount < 1):
            raise ValueError(f"discount must be in (0,1), got {self.discount}")
        for name in ("lr", "batch_size", "target_update_freq", "eval_freq",
                     "eval_episodes", "replay_capacity"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if any(n <= 0 for n in self.hidden_sizes):
            raise ValueError(f"hidden_sizes must be positive, got {self.hidden_sizes}")
        for name in ("total_steps", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
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


def epsilon_greedy(q, epsilon: float, rng: np.random.Generator, n_actions: int) -> int:
    """Greedy action with probability 1 - eps + eps/|A|, any other eps/|A|.

    q is a function of no arguments that returns the Q-vector; it is called
    only when the greedy branch is taken. n_actions is |A|. Argmax ties break
    toward the lowest index.
    """
    if n_actions == 0:
        raise ValueError("empty Q-vector")
    if not (0 <= epsilon <= 1):
        raise ValueError(f"epsilon must be in [0,1], got {epsilon}")
    if epsilon > 0 and rng.random() < epsilon:
        return int(rng.integers(0, n_actions))
    return int(np.argmax(q()))


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
        a = batch["a"]
        m = len(a)
        q, acts = self.net.forward_batch(X, picked=a)
        err = q - y
        loss = float(np.add.reduce(err * err)) / m  # the bits of np.mean(err ** 2)
        self.net.backward(acts, 2.0 * err / m, picked=a)
        self.optimizer.step(self.net.grad)
        return loss


def td_target(batch: dict, agent, discount: float, horizon: int) -> np.ndarray:
    """Bootstrap targets y = r + discount * max_a Q_target(s', a, t+1); no
    bootstrap on terminal records."""
    t_next = np.asarray(batch["t"]) + 1
    live = ~np.asarray(batch["terminal"], dtype=bool)
    if t_next.max() > horizon:
        if np.any(t_next[live] > horizon):
            raise ValueError("non-terminal transition at or beyond the horizon")
        t_next = np.minimum(t_next, horizon)
    q_next = agent.target_q_batch(batch["s_next"], t_next)
    y = np.asarray(batch["r"], dtype=np.float64).copy()
    y[live] += discount * q_next.max(axis=1)[live]
    return y


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
        a = epsilon_greedy(lambda: agent.q_values(s, t), eps, rng, env.n_actions)
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

_ARRAYS = ("params", "adam_m", "adam_v")
_HEADER_KEYS = ("layer_sizes", "horizon", "state_dim", "n_actions", "state_scale",
                "optimizer", "config_digest", "meta")


def save_checkpoint(agent: NeuralAgent, path, config_digest: str = "",
                    meta: dict | None = None):
    """Write agent as an uncompressed .npz: the JSON header as a uint8 array and
    the flat parameters and Adam moments as float64 arrays. Entries carry a fixed
    time stamp, so equal agents give equal bytes. The archive goes to a temp file
    in path's directory, fsynced and then renamed to exactly path."""
    opt = agent.optimizer
    header = {"version": CHECKPOINT_VERSION, "config_digest": config_digest,
              "layer_sizes": agent.net.layer_sizes, "horizon": agent.horizon,
              "state_dim": agent.state_dim, "n_actions": agent.n_actions,
              "state_scale": None if agent.state_scale is None else agent.state_scale.tolist(),
              "optimizer": {"step_count": opt.step_count, "lr": opt.lr, "beta1": opt.beta1,
                            "beta2": opt.beta2, "eps": opt.eps},
              "meta": meta or {}}
    arrays = {"header": np.frombuffer(json.dumps(header, sort_keys=True).encode(), np.uint8),
              "params": agent.net.params, "adam_m": opt.m, "adam_v": opt.v}
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            with zipfile.ZipFile(fh, "w") as archive:
                for name, array in arrays.items():
                    info = zipfile.ZipInfo(f"{name}.npy", (1980, 1, 1, 0, 0, 0))
                    info.external_attr = 0o644 << 16
                    with archive.open(info, "w", force_zip64=True) as entry:
                        np.lib.format.write_array(entry, array, allow_pickle=False)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path, expected_n_actions: int | None = None,
                    config_digest: str | None = None, *,
                    expected_horizon: int | None = None,
                    expected_state_dim: int | None = None) -> NeuralAgent:
    """Agent saved by save_checkpoint. CheckpointError when the file is not a
    version-2 checkpoint, lacks a header key or an array, holds an array whose
    dtype or length does not fit its layer_sizes, or was saved for another
    action count, horizon or state dimension than the expected ones."""
    with open(path, "rb") as fh:
        if (magic := fh.read(4)) != b"PK\x03\x04":
            kind = "a version-1 JSON checkpoint" if magic[:1] == b"{" else "not an .npz archive"
            raise CheckpointError(f"{path} is {kind}, this stlfunnel reads version 2")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as archive:
                arrays = {name: archive[name] for name in archive.files}
            header = json.loads(arrays.pop("header").astype(np.uint8, casting="no").tobytes())
            version = header["version"]
        except KeyError as exc:
            raise CheckpointError(f"corrupt checkpoint {path}: missing {exc}") from exc
        except (ValueError, TypeError, EOFError, zipfile.BadZipFile) as exc:
            raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version} unsupported (expected {CHECKPOINT_VERSION})")
    missing = [f"key {key!r}" for key in _HEADER_KEYS if key not in header]
    missing += [f"array {name!r}" for name in _ARRAYS if name not in arrays]
    if missing:
        raise CheckpointError(f"corrupt checkpoint {path}: missing {', '.join(missing)}")
    if not isinstance(header["meta"], dict):
        raise CheckpointError(f"corrupt checkpoint {path}: meta is not a JSON object")
    for name, expected in (("n_actions", expected_n_actions), ("horizon", expected_horizon),
                           ("state_dim", expected_state_dim)):
        if expected is not None and header[name] != expected:
            raise CheckpointError(f"checkpoint has {name} {header[name]}, "
                                  f"environment expects {expected}")
    if config_digest and header["config_digest"] and header["config_digest"] != config_digest:
        log.warning("checkpoint config digest %s differs from current %s",
                    header["config_digest"], config_digest)
    layer_sizes, opt_state, scale = (header[k] for k in ("layer_sizes", "optimizer", "state_scale"))
    try:
        agent = NeuralAgent(header["state_dim"], header["n_actions"], layer_sizes[1:-1],
                            header["horizon"], lr=float(opt_state["lr"]), rng=None,
                            state_scale=None if scale is None else tuple(scale))
        opt = agent.optimizer
        opt.step_count = int(opt_state["step_count"])
        opt.beta1, opt.beta2, opt.eps = (float(opt_state[k]) for k in ("beta1", "beta2", "eps"))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"bad checkpoint {path}: {exc!r}") from exc
    if agent.net.layer_sizes != layer_sizes:
        raise CheckpointError(f"bad checkpoint {path}: layer_sizes {layer_sizes} do not fit "
                              f"state_dim {agent.state_dim} and n_actions {agent.n_actions}")
    for name, dst in zip(_ARRAYS, (agent.net.params, opt.m, opt.v)):
        src = arrays[name]
        if src.dtype != np.float64 or src.shape != dst.shape:
            raise CheckpointError(f"bad checkpoint {path}: {name} is {src.dtype} {src.shape}, "
                                  f"layer_sizes {layer_sizes} need float64 {dst.shape}")
        np.copyto(dst, src)
    agent.sync_target()
    agent.meta = header["meta"]
    return agent
