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

from .dqn import TrainingDiverged, epsilon_greedy
from .envs import Environment
from .funnel import FunnelSchedule
from .reward import RewardSpec, funnel_columns, robustness_columns
# The per-step reward under the name the benchmark's traced run wraps
# (perfbench/tracing.py); rollouts compute the reward column with funnel_columns.
from .reward import reward as reward_fn  # noqa: F401
from .robustness import rho_trace, violation_step
from .stl.formula import Formula, FragmentError, classify_fragment, formula_horizon

__all__ = [
    "Trajectory", "TrajectoryError", "SatisfactionReport", "rollout", "check_satisfaction",
    "export_csv", "export_funnel_csv", "read_trajectory_csv",
]

_FMT = "%.17g"


class TrajectoryError(ValueError):
    """A trajectory cannot be monitored: malformed CSV or too short for the formula."""


@dataclass
class Trajectory:
    """States of one episode and, from a rollout, its monitor columns.

    A rollout fills every field; read_trajectory_csv fills only schema,
    states and metadata and leaves the monitor columns None.
    """

    schema: tuple[str, ...]
    states: np.ndarray                       # (H+1, d)
    actions: np.ndarray | None = None        # (H+1,), last entry -1
    rewards: np.ndarray | None = None        # (H+1,)
    rho_psi: np.ndarray | None = None        # (H+1, n_psi)
    gamma_lower: np.ndarray | None = None    # (H+1,), NaN where no segment is active
    margin: np.ndarray | None = None         # (H+1,), funnel margin, NaN where inactive
    satisfied_so_far: np.ndarray | None = None  # (H+1,) of 0/1
    metadata: dict = field(default_factory=dict)

    @property
    def horizon(self) -> int:
        return len(self.states) - 1


@dataclass(frozen=True)
class SatisfactionReport:
    satisfied: bool
    robustness: float
    obligation_min: float


def rollout(agent, env: Environment, spec: RewardSpec, seed=0,
            greedy: bool = True, epsilon: float = 0.0,
            phi: Formula | None = None) -> Trajectory:
    """Roll the policy out for one episode, recording monitor fields.

    The loop only steps the policy; the reward, robustness and margin columns
    are computed once from the state array afterwards. Raises
    TrainingDiverged at the first non-finite state.
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
            raise TrainingDiverged(f"non-finite state at step {t}: dynamics diverged")
        states[t] = s
        if t == horizon:
            break
        if greedy:
            a = int(agent.q_values(s, t).argmax())
        else:
            a = epsilon_greedy(lambda: agent.q_values(s, t), epsilon, rng, env.n_actions)
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
    """satisfied_so_far: 1 before the first step whose prefix already violates phi, 0
    from it on (the verdict once the formula horizon is covered); all ones outside the fragment."""
    try:
        classify_fragment(phi)
    except FragmentError:  # e.g. a negated temporal operator has no violation step
        first_bad = np.inf
    else:
        columns = {name: traj.states[:, j] for j, name in enumerate(traj.schema)}
        first_bad = violation_step(phi, columns)
    traj.satisfied_so_far = (np.arange(traj.horizon + 1) < first_bad).astype(float)


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
    """Load the t and state columns of a trajectory CSV, as monitoring needs.

    Only t and the columns named in schema are required or converted: other
    columns are neither parsed nor checked, and every field of the result but
    schema, states and metadata is None. Raises TrajectoryError for a file
    that does not decode as text, a missing column, no data rows, a row whose
    field count differs from the header's, a t column that is not 0, 1, ...,
    n-1 in order, or a state cell that is not a finite number.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:  # drops a leading byte-order mark
            header, *lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise TrajectoryError(f"trajectory CSV is not text: {exc}") from None
    header = [name.strip() for name in header.split(",")]
    for name in ("t", *schema):
        if name not in header:
            raise TrajectoryError(f"trajectory CSV is missing column {name!r}")
    rows = [line for line in map(str.strip, lines) if line]
    if not rows:
        raise TrajectoryError("trajectory CSV has no data rows")
    commas = [row.count(",") for row in rows]
    if commas.count(len(header) - 1) != len(rows):
        i = next(i for i, c in enumerate(commas) if c != len(header) - 1)
        raise TrajectoryError(
            f"trajectory CSV data row {i + 1} has {commas[i] + 1} fields, "
            f"the header has {len(header)}")
    t_col, *state_cols = [header.index(name) for name in ("t", *schema)]
    # Split each row only as far as the last column that is read.
    last = max(t_col, *state_cols)
    columns = list(zip(*[row.split(",", last + 1) for row in rows]))
    t, steps = columns[t_col], tuple(map(str, range(len(rows))))
    if t != steps:  # compare again without the blanks a ", " separator leaves
        t = tuple(map(str.strip, t))
    if t != steps:
        i = next(i for i, (got, want) in enumerate(zip(t, steps)) if got != want)
        raise TrajectoryError(
            f"trajectory CSV column 't' reads {t[i]!r} at data row {i + 1}, expected {i}")
    states = np.empty((len(rows), len(schema)))
    for j, (name, k) in enumerate(zip(schema, state_cols)):
        try:
            states[:, j] = np.fromiter(map(float, columns[k]), float, len(rows))
        except ValueError as exc:
            raise TrajectoryError(f"trajectory CSV column {name!r}: {exc}") from None
    bad = np.argwhere(~np.isfinite(states))
    if len(bad):
        i, j = bad[0]
        raise TrajectoryError(
            f"trajectory CSV has non-finite {schema[j]!r} value "
            f"{columns[state_cols[j]][i]!r} at data row {i + 1}")
    return Trajectory(schema=tuple(schema), states=states, metadata={"source": str(path)})


def export_funnel_csv(schedule: FunnelSchedule, path):
    """Per-step funnel data: one row per (step, active segment), in step order."""
    steps, seg_ids = np.nonzero(schedule.active_mask.T)
    segments = schedule.segments
    gamma = np.empty(len(steps))
    for j, seg in enumerate(segments):
        rows = seg_ids == j
        gamma[rows] = seg.gamma_table[steps[rows] - seg.t_begin]
    psi_index = np.array([seg.psi_index for seg in segments])[seg_ids]
    rho_max = np.array([seg.params.rho_max for seg in segments])[seg_ids]
    table = np.column_stack([steps, seg_ids, psi_index, gamma, -gamma + rho_max, rho_max])
    row = ",".join(["%d", "%d", "%d", _FMT, _FMT, _FMT]) + "\n"
    with open(path, "w") as fh:
        fh.write("t,segment,psi_index,gamma,lower_bound,rho_max\n")
        fh.write("".join([row % tuple(r) for r in table.tolist()]))
