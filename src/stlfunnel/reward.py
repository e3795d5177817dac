"""Time-dependent shaped rewards built from a funnel schedule.

In funnel mode the reward at step t is rho_psi(s) + gamma(t) - rho_max for
the active segment, i.e. the margin above the funnel's moving lower bound; it
is positive exactly while the state is inside the funnel. When several
segments are active (overlapping intervals) the reward is the minimum of the
per-segment rewards. The ablation mode drops the funnel term and returns the
raw robustness of the segment owning the current step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .funnel import FunnelSchedule, FunnelSegment
from .robustness import StateVector, rho_pointwise
from .stl.formula import Formula

__all__ = [
    "RewardSpec", "reward", "reward_sign_check", "NoActiveSegmentError", "segment_margin",
    "per_psi_robustness", "robustness_columns", "funnel_columns",
]

MODE_FUNNEL = "funnel"
MODE_ABLATION = "ablation-no-funnel"


class NoActiveSegmentError(ValueError):
    pass


@dataclass(frozen=True)
class RewardSpec:
    schedule: FunnelSchedule
    psis: tuple[Formula, ...]
    mode: str = MODE_FUNNEL

    def __post_init__(self):
        if self.mode not in (MODE_FUNNEL, MODE_ABLATION):
            raise ValueError(f"unknown reward mode {self.mode!r}")
        for seg in self.schedule.segments:
            if not (0 <= seg.psi_index < len(self.psis)):
                raise ValueError(f"segment references missing sub-formula {seg.psi_index}")

    @property
    def horizon(self) -> int:
        return self.schedule.horizon


def segment_margin(seg: FunnelSegment, rho, t):
    """Funnel margin rho + gamma(t) - rho_max of one segment at step t.

    The single definition of the funnel term. rho and t may be scalars or
    equal-length arrays; every t must lie in [seg.t_begin, seg.t_end].
    """
    return rho + seg.gamma_table[t - seg.t_begin] - seg.params.rho_max


def _margin(spec: RewardSpec, seg: FunnelSegment, s: StateVector, t: int) -> float:
    return float(segment_margin(seg, float(rho_pointwise(spec.psis[seg.psi_index], s)), t))


def reward(spec: RewardSpec, s: StateVector, t: int) -> float:
    """Shaped reward at (s, t); steps covered by no segment yield 0."""
    if t < 0 or t > spec.horizon:
        raise ValueError(f"step {t} beyond horizon {spec.horizon}")
    active = spec.schedule.active_segments(t)
    if not active:
        return 0.0
    if spec.mode == MODE_ABLATION:
        # Raw robustness of the first owning segment; no funnel term.
        seg = active[0]
        return float(rho_pointwise(spec.psis[seg.psi_index], s))
    return min(_margin(spec, seg, s, t) for seg in active)


def reward_sign_check(spec: RewardSpec, s: StateVector, t: int) -> tuple[str, float]:
    """Diagnostic: is the state inside the funnel's lower bound at step t?

    Returns ("inside" | "below", margin) where margin is the funnel-mode
    reward; a zero margin sits on the boundary and counts as inside.
    """
    active = spec.schedule.active_segments(t)
    if not active:
        raise NoActiveSegmentError(f"no active segment at step {t}")
    margin = min(_margin(spec, seg, s, t) for seg in active)
    return ("inside" if margin >= 0 else "below"), margin


def per_psi_robustness(spec: RewardSpec, s: StateVector) -> list[float]:
    """Pointwise robustness of every sub-formula at state s."""
    return [float(rho_pointwise(p, s)) for p in spec.psis]


def robustness_columns(spec: RewardSpec, states: np.ndarray,
                       schema: Sequence[str]) -> np.ndarray:
    """(n, n_psi) pointwise robustness of every sub-formula at each row of states.

    Expression evaluation broadcasts over the state columns and uses only
    correctly rounded operations, so row t equals per_psi_robustness of
    state t bit for bit.
    """
    columns = {name: states[:, i] for i, name in enumerate(schema)}
    out = np.empty((len(states), len(spec.psis)))
    for i, psi in enumerate(spec.psis):
        out[:, i] = rho_pointwise(psi, columns)
    return out


def funnel_columns(spec: RewardSpec, rho_psi: np.ndarray):
    """Reward, funnel margin and lower bound at every step 0..horizon.

    rho_psi is robustness_columns over horizon+1 states. Returns (rewards,
    margin, gamma_lower): margin is the minimum over the active segments'
    margins and gamma_lower the lower bound of the segment attaining it (the
    first on ties), both NaN where no segment is active; rewards equal
    reward() at each step, whatever the mode.
    """
    schedule = spec.schedule
    mask = schedule.active_mask
    n_seg, n = mask.shape
    margins = np.full((n_seg, n), np.inf)
    lower = np.full((n_seg, n), np.nan)
    for j, seg in enumerate(schedule.segments):
        t = np.flatnonzero(mask[j])
        margins[j, t] = segment_margin(seg, rho_psi[t, seg.psi_index], t)
        lower[j, t] = -seg.gamma_table[t - seg.t_begin] + seg.params.rho_max
    steps = np.arange(n)
    any_active = mask.any(axis=0)
    first = mask.argmax(axis=0)
    best = margins.argmin(axis=0)
    # Inactive entries hold +inf: when every active margin is +inf too, the
    # tie goes to the first active segment, not to an inactive one.
    best = np.where(mask[best, steps], best, first)
    margin = np.where(any_active, margins[best, steps], np.nan)
    gamma_lower = lower[best, steps]
    if spec.mode == MODE_ABLATION:
        psi_index = np.array([seg.psi_index for seg in schedule.segments])
        rewards = np.where(any_active, rho_psi[steps, psi_index[first]], 0.0)
    else:
        rewards = np.where(any_active, margin, 0.0)
    return rewards, margin, gamma_lower
