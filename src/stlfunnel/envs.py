"""Deterministic discrete-time simulators with finite action grids.

Three environments share one interface: an inverted pendulum (angle, angular
velocity; torque actions), a differential-drive robot (planar position and
heading; forward/angular velocity action pairs) and a 1-D integrator
(position; velocity actions). Dynamics are explicit Euler steps with sampling
time tau; episodes end only at the horizon.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = ["ActionGrid", "EnvConfig", "Environment", "make_env",
           "PendulumEnv", "DiffDriveEnv", "IntegratorEnv"]


class ActionGrid:
    """Cartesian product of per-dimension arithmetic sequences with flat indexing."""

    def __init__(self, axes: Sequence[np.ndarray]):
        self.axes = [np.asarray(a, dtype=float) for a in axes]
        self.shape = tuple(len(a) for a in self.axes)
        self.n = int(np.prod(self.shape))
        # Row-major flat order, as np.unravel_index: the last axis varies fastest.
        self._tuples = list(itertools.product(*(ax.tolist() for ax in self.axes)))

    def tuple_of(self, index: int) -> tuple[float, ...]:
        if not (0 <= index < self.n):
            raise IndexError(f"action index {index} out of range [0,{self.n})")
        return self._tuples[index]

    def index_of(self, values: Sequence[float]) -> int:
        multi = []
        for ax, v in zip(self.axes, values):
            hits = np.nonzero(np.isclose(ax, v))[0]
            if len(hits) == 0:
                raise ValueError(f"value {v} not on action axis {ax}")
            multi.append(int(hits[0]))
        return int(np.ravel_multi_index(tuple(multi), self.shape))


def _arange_inclusive(lo: float, hi: float, step: float) -> np.ndarray:
    n = int(round((hi - lo) / step)) + 1
    return lo + step * np.arange(n)


_PENDULUM_CONSTANTS = {"g": 9.8, "m": 0.15, "l": 0.5, "mu": 0.05}


@dataclass(frozen=True)
class EnvConfig:
    kind: str  # "pendulum" | "diffdrive" | "integrator"
    tau: float = 0.01
    horizon: int = 200
    # reset: ("fixed", values) or ("uniform", low, high)
    reset_kind: str = "fixed"
    reset_fixed: tuple[float, ...] | None = None
    reset_low: tuple[float, ...] | None = None
    reset_high: tuple[float, ...] | None = None
    constants: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.kind not in ("pendulum", "diffdrive", "integrator"):
            raise ValueError(f"unknown environment kind {self.kind!r}")
        if self.reset_kind not in ("fixed", "uniform"):
            raise ValueError(f"unknown reset kind {self.reset_kind!r}")


class Environment:
    """Base simulator: deterministic step, seeded reset."""

    schema: tuple[str, ...]
    grid: ActionGrid

    def __init__(self, cfg: EnvConfig):
        self.cfg = cfg
        dim = len(self.schema)
        if cfg.reset_kind == "fixed":
            fixed = cfg.reset_fixed if cfg.reset_fixed is not None else self.default_reset()
            if len(fixed) != dim:
                raise ValueError(f"reset point has {len(fixed)} components, expected {dim}")
            self._reset_fixed = np.asarray(fixed, dtype=float)
        else:
            if cfg.reset_low is None or cfg.reset_high is None:
                raise ValueError("uniform reset requires reset_low and reset_high")
            if len(cfg.reset_low) != dim or len(cfg.reset_high) != dim:
                raise ValueError("uniform reset bounds must match the state dimension")
            self._reset_low = np.asarray(cfg.reset_low, dtype=float)
            self._reset_high = np.asarray(cfg.reset_high, dtype=float)

    @property
    def horizon(self) -> int:
        return self.cfg.horizon

    @property
    def n_actions(self) -> int:
        return self.grid.n

    def default_reset(self) -> tuple[float, ...]:
        raise NotImplementedError

    def reset(self, rng: np.random.Generator | int | None = None) -> np.ndarray:
        if self.cfg.reset_kind == "fixed":
            return self._reset_fixed.copy()
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        return rng.uniform(self._reset_low, self._reset_high)

    def step(self, state: np.ndarray, action_index: int) -> np.ndarray:
        raise NotImplementedError

    def state_dict(self, state: np.ndarray) -> dict[str, float]:
        return {name: float(v) for name, v in zip(self.schema, state)}

    def metadata(self) -> dict:
        return {
            "kind": self.cfg.kind,
            "tau": self.cfg.tau,
            "horizon": self.cfg.horizon,
            "schema": list(self.schema),
            "n_actions": self.grid.n,
            "action_axes": [list(map(float, ax)) for ax in self.grid.axes],
        }


class PendulumEnv(Environment):
    schema = ("theta", "omega")

    def __init__(self, cfg: EnvConfig):
        self.grid = ActionGrid([_arange_inclusive(-3.0, 3.0, 0.1)])
        self.constants = {**_PENDULUM_CONSTANTS, **cfg.constants}
        super().__init__(cfg)
        g, m, l, mu = (self.constants[k] for k in ("g", "m", "l", "mu"))
        self._ml2 = m * l * l
        self._g_over_l = g / l
        self._mu_over_ml2 = mu / self._ml2

    def default_reset(self):
        # Hanging-down equilibrium.
        return (math.pi, 0.0)

    def step(self, state, action_index):
        (torque,) = self.grid.tuple_of(action_index)
        theta, omega = state
        tau = self.cfg.tau
        theta_next = theta + tau * omega
        omega_next = omega + tau * (self._g_over_l * math.sin(theta)
                                    - self._mu_over_ml2 * omega + torque / self._ml2)
        return np.array([theta_next, omega_next])

    def energy(self, state) -> float:
        """Total mechanical energy, zero at the hanging-down rest state."""
        theta, omega = state
        m, l, g = self.constants["m"], self.constants["l"], self.constants["g"]
        return 0.5 * m * l * l * omega * omega + m * g * l * (1.0 + math.cos(theta))


class DiffDriveEnv(Environment):
    schema = ("x", "y", "theta")

    def __init__(self, cfg: EnvConfig):
        self.grid = ActionGrid([
            _arange_inclusive(-5.0, 5.0, 0.5),
            _arange_inclusive(-3.0, 3.0, 0.5),
        ])
        super().__init__(cfg)

    def default_reset(self):
        return (0.0, 0.0, 0.0)

    def step(self, state, action_index):
        v, w = self.grid.tuple_of(action_index)
        x, y, theta = state
        tau = self.cfg.tau
        # Heading is deliberately not wrapped.
        return np.array([
            x + tau * v * math.cos(theta),
            y + tau * v * math.sin(theta),
            theta + tau * w,
        ])


class IntegratorEnv(Environment):
    schema = ("x",)

    def __init__(self, cfg: EnvConfig):
        self.grid = ActionGrid([_arange_inclusive(-3.0, 3.0, 0.5)])
        super().__init__(cfg)

    def default_reset(self):
        return (0.0,)

    def step(self, state, action_index):
        (v,) = self.grid.tuple_of(action_index)
        return np.array([state[0] + self.cfg.tau * v])


_ENV_CLASSES = {"pendulum": PendulumEnv, "diffdrive": DiffDriveEnv, "integrator": IntegratorEnv}


def make_env(cfg: EnvConfig) -> Environment:
    return _ENV_CLASSES[cfg.kind](cfg)
