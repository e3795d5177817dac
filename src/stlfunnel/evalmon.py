"""Offline evaluation: greedy rollouts, satisfaction checks and CSV export.

A trajectory holds horizon+1 states and horizon actions (the final row has
action -1). Satisfaction is decided by the sign of the trace robustness at
step 0, with zero counting as satisfied; the report also carries the
obligation minimum used for summary statistics, which equals that robustness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .dqn import epsilon_greedy
from .envs import Environment
from .funnel import FunnelSchedule
from .reward import RewardSpec, funnel_columns, robustness_columns
# The per-step reward under the name the benchmark's traced run wraps
# (perfbench/tracing.py); rollouts compute the reward column with funnel_columns.
from .reward import reward as reward_fn  # noqa: F401
from .robustness import rho_trace
from .stl.formula import Formula, FragmentError, formula_horizon, temporal_conjuncts

__all__ = [
    "Trajectory", "TrajectoryError", "SatisfactionReport", "rollout", "check_satisfaction",
    "export_csv", "export_funnel_csv", "read_trajectory_csv",
]

_FMT = "%.17g"


class TrajectoryError(ValueError):
    """A trajectory cannot be monitored: malformed CSV or too short for the formula."""


@dataclass
class Trajectory:
    schema: tuple[str, ...]
    states: np.ndarray          # (H+1, d)
    actions: np.ndarray         # (H+1,), last entry -1
    rewards: np.ndarray         # (H+1,)
    rho_psi: np.ndarray         # (H+1, n_psi)
    gamma_lower: np.ndarray     # (H+1,), NaN where no segment is active
    margin: np.ndarray          # (H+1,), funnel margin, NaN where inactive
    satisfied_so_far: np.ndarray  # (H+1,) of 0/1
    metadata: dict = field(default_factory=dict)

    @property
    def horizon(self) -> int:
        return len(self.states) - 1


@dataclass(frozen=True)
class SatisfactionReport:
    satisfied: bool
    robustness: float
    obligation_min: float


def _prefix_satisfaction(phi: Formula, rho_psi: np.ndarray) -> np.ndarray:
    """Per-step flag: no obligation due so far has been missed."""
    n = len(rho_psi)
    out = np.ones(n)
    try:
        conjuncts = temporal_conjuncts(phi)
    except FragmentError:
        return out
    for idx, c in enumerate(conjuncts):
        lo, hi = c.footprint.lo, c.footprint.hi
        vals = rho_psi[:, idx]
        if c.kind == "G":
            bad = np.zeros(n, dtype=bool)
            window = (np.arange(n) >= lo) & (np.arange(n) <= hi) & (vals < 0)
            bad = np.cumsum(window) > 0
            out[bad] = 0.0
        else:
            # F (and the F-G form, conservatively): once the window has fully
            # elapsed without a satisfying step, the prefix is violated.
            hit = np.zeros(n, dtype=bool)
            in_window = (np.arange(n) >= lo) & (np.arange(n) <= hi) & (vals >= 0)
            hit = np.cumsum(in_window) > 0
            missed = (np.arange(n) > hi) & ~hit
            out[missed] = 0.0
    return out


def rollout(agent, env: Environment, spec: RewardSpec, seed=0,
            greedy: bool = True, epsilon: float = 0.0,
            phi: Formula | None = None) -> Trajectory:
    """Roll the policy out for one episode, recording monitor fields.

    The loop only steps the policy; the reward, robustness and margin columns
    are computed once from the state array afterwards.
    """
    horizon = env.horizon
    if spec.horizon != horizon:
        raise ValueError(
            f"environment horizon {horizon} != reward schedule horizon {spec.horizon}")
    rng = np.random.default_rng(seed)
    states = np.empty((horizon + 1, len(env.schema)))
    actions = np.full(horizon + 1, -1, dtype=np.int64)

    s = env.reset(rng)
    for t in range(horizon + 1):
        if not np.isfinite(s).all():
            raise RuntimeError(f"non-finite state at step {t}: dynamics diverged")
        states[t] = s
        if t == horizon:
            break
        q = agent.q_values(s, t)
        a = int(q.argmax()) if greedy else epsilon_greedy(q, epsilon, rng)
        actions[t] = a
        s = env.step(s, a)

    rho = robustness_columns(spec, states, env.schema)
    rewards, margin, gamma_lower = funnel_columns(spec, rho)
    traj = Trajectory(
        schema=tuple(env.schema), states=states, actions=actions, rewards=rewards,
        rho_psi=rho, gamma_lower=gamma_lower, margin=margin,
        satisfied_so_far=np.ones(horizon + 1),
        metadata={"seed": seed if isinstance(seed, int) else list(seed),
                  "greedy": greedy, "mode": spec.mode},
    )
    if phi is not None:
        fill_prefix_satisfaction(traj, phi)
    return traj


def check_satisfaction(phi: Formula, traj: Trajectory) -> SatisfactionReport:
    """Boolean and quantitative verdict of phi on a trajectory (evaluated at 0).

    obligation_min is the minimum over the top-level conjuncts' robustness.
    A top-level And is that minimum by definition, and a formula that is no
    conjunction of temporal operators is its own single obligation, so it is
    the trace robustness itself: one evaluation serves both fields.
    """
    need = formula_horizon(phi)
    if need > traj.horizon:
        raise TrajectoryError(
            f"trajectory horizon {traj.horizon} shorter than formula horizon {need}")
    columns = {name: traj.states[:, j] for j, name in enumerate(traj.schema)}
    rho = rho_trace(phi, columns, 0)
    return SatisfactionReport(satisfied=rho >= 0, robustness=rho, obligation_min=rho)


def fill_prefix_satisfaction(traj: Trajectory, phi: Formula):
    traj.satisfied_so_far = _prefix_satisfaction(phi, traj.rho_psi)


def export_csv(traj: Trajectory, path, metadata_path=None):
    """Write the trajectory as CSV with a fixed column order and 17-significant
    digit decimals; numeric content round-trips exactly."""
    n_psi = traj.rho_psi.shape[1]
    header = ["t", *traj.schema, "action", "reward",
              *[f"rho_psi_{i}" for i in range(n_psi)],
              "gamma_lower", "margin", "satisfied_so_far"]
    # Integer columns travel as floats (exact below 2**53) and print with %d.
    row = ",".join(["%d", *[_FMT] * traj.states.shape[1], "%d", _FMT,
                    *[_FMT] * n_psi, _FMT, _FMT, "%d"]) + "\n"
    table = np.column_stack([
        np.arange(traj.horizon + 1), traj.states, traj.actions, traj.rewards,
        traj.rho_psi, traj.gamma_lower, traj.margin, traj.satisfied_so_far])
    text = ",".join(header) + "\n" + "".join([row % tuple(r) for r in table.tolist()])
    with open(path, "w") as fh:
        fh.write(text)
    if metadata_path is not None:
        with open(metadata_path, "w") as fh:
            json.dump(traj.metadata, fh, indent=2, sort_keys=True)


def read_trajectory_csv(path, schema: list[str]) -> Trajectory:
    """Load a trajectory CSV; only t and the state columns are required.

    Raises TrajectoryError for a file that does not decode as text, a missing
    column, a row whose field count differs from the header's, a cell that is
    not a number, or a NaN or infinite state cell.
    """
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            rows = [line.strip().split(",") for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise TrajectoryError(f"trajectory CSV is not text: {exc}") from None
    for name in ("t", *schema):
        if name not in header:
            raise TrajectoryError(f"trajectory CSV is missing column {name!r}")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise TrajectoryError(
                f"trajectory CSV data row {i + 1} has {len(row)} fields, "
                f"the header has {len(header)}")
    idx = {name: header.index(name) for name in header}
    n = len(rows)

    def col(name, default=np.nan, dtype=float):
        if name not in idx:
            return np.full(n, default)
        j = idx[name]
        try:
            return np.array([dtype(r[j]) for r in rows])
        except ValueError as exc:
            raise TrajectoryError(f"trajectory CSV column {name!r}: {exc}") from None

    states = np.column_stack([col(name) for name in schema])
    bad = np.argwhere(~np.isfinite(states))
    if len(bad):
        i, j = bad[0]
        raise TrajectoryError(
            f"trajectory CSV has non-finite {schema[j]!r} value "
            f"{rows[i][idx[schema[j]]]!r} at data row {i + 1}")
    n_psi = sum(1 for h in header if h.startswith("rho_psi_"))
    rho = np.full((n, max(n_psi, 1)), np.nan)
    for i in range(n_psi):
        rho[:, i] = col(f"rho_psi_{i}")
    return Trajectory(
        schema=tuple(schema), states=states,
        actions=col("action", default=-1, dtype=lambda x: np.int64(int(x))).astype(np.int64),
        rewards=col("reward"), rho_psi=rho,
        gamma_lower=col("gamma_lower"), margin=col("margin"),
        satisfied_so_far=col("satisfied_so_far"),
        metadata={"source": str(path)},
    )


def export_funnel_csv(schedule: FunnelSchedule, path):
    """Per-step funnel data: one row per (step, active segment)."""
    header = ["t", "segment", "psi_index", "gamma", "lower_bound", "rho_max"]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for t in range(schedule.horizon + 1):
            for seg in schedule.active_segments(t):
                seg_id = schedule.segments.index(seg)
                fh.write(",".join([
                    str(t), str(seg_id), str(seg.psi_index),
                    _FMT % seg.gamma(t), _FMT % seg.lower_bound(t),
                    _FMT % seg.params.rho_max,
                ]) + "\n")
