"""Funnel parameter synthesis and piecewise funnel schedules.

A funnel is the exponential envelope gamma(t) = (gamma0 - gamma_inf) *
exp(-l * t) + gamma_inf. The decay rate l is chosen so that the envelope
crosses rho_max exactly at the closure step t*: from then on the induced lower
robustness bound -gamma(t) + rho_max is nonnegative, so staying inside the
funnel forces the scored sub-formula to hold.

For a top-level conjunction with disjoint, ordered intervals the schedule is
piecewise: each temporal conjunct gets a segment whose local clock restarts at
the previous conjunct's interval end, re-opening the funnel at gamma0. For
overlapping intervals every conjunct keeps an independent funnel over its own
interval and rewards compose later by pointwise minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .robustness import RhoBounds
from .stl.formula import (
    FG, Formula, FragmentClass, Interval, TemporalConjunct, conjunction_class,
    temporal_conjuncts,
)

__all__ = [
    "FunnelParams", "FunnelSegment", "FunnelSchedule", "FunnelSynthesisError",
    "synth_l", "gamma_eval", "build_schedule",
]


class FunnelSynthesisError(ValueError):
    pass


@dataclass(frozen=True)
class FunnelParams:
    gamma0: float
    gamma_inf: float
    l: float
    rho_max: float
    t_star: int

    def gamma(self, local_t: float) -> float:
        return (self.gamma0 - self.gamma_inf) * math.exp(-self.l * local_t) + self.gamma_inf


@dataclass(frozen=True)
class FunnelSegment:
    """One funnel with a segment-local clock.

    t_begin is the clock origin (gamma re-opens at gamma0 there), t_end the
    inclusive last step the segment can be evaluated at. obligation is the
    global interval of the temporal operator this segment enforces, and
    psi_index names the non-temporal sub-formula it scores.
    """

    t_begin: int
    t_end: int
    params: FunnelParams
    psi_index: int
    kind: str  # "F" | "G" | "FG"
    obligation: Interval

    @cached_property
    def gamma_table(self) -> np.ndarray:
        """gamma at global steps t_begin..t_end, indexed by t - t_begin.

        Built with FunnelParams.gamma (math.exp), so every entry equals
        gamma_eval bit for bit; np.exp can differ in the last ulp.
        """
        table = np.array([self.params.gamma(k)
                          for k in range(self.t_end - self.t_begin + 1)])
        table.flags.writeable = False
        return table


def synth_l(gamma0: float, gamma_inf: float, rho_max: float, t_star: int) -> float:
    """Decay rate l that makes the funnel reach rho_max at the closure step t_star."""
    if not (gamma_inf > 0):
        raise FunnelSynthesisError(f"gamma_inf must be positive, got {gamma_inf}")
    if not (rho_max > gamma_inf):
        raise FunnelSynthesisError(
            f"need rho_max > gamma_inf, got rho_max={rho_max}, gamma_inf={gamma_inf}")
    if not (gamma0 > rho_max):
        raise FunnelSynthesisError(
            f"need gamma0 > rho_max, got gamma0={gamma0}, rho_max={rho_max}; "
            "the funnel would start below its target (override rho bounds if the "
            "state region is too tight)")
    return math.log((gamma0 - gamma_inf) / (rho_max - gamma_inf)) / t_star


def gamma_eval(seg: FunnelSegment, t: int) -> float:
    """Funnel value at global step t; the segment clock starts at t_begin."""
    if not (seg.t_begin <= t <= seg.t_end):
        raise ValueError(
            f"step {t} outside segment [{seg.t_begin},{seg.t_end}]")
    return seg.params.gamma(t - seg.t_begin)


@dataclass(frozen=True)
class FunnelSchedule:
    segments: tuple[FunnelSegment, ...]
    horizon: int
    fragment_class: FragmentClass

    @property
    def overlapping(self) -> bool:
        return self.fragment_class is FragmentClass.OVERLAPPING_CONJUNCTION

    def active_segments(self, t: int) -> list[FunnelSegment]:
        """Segments whose reward applies at step t.

        Sequential schedules assign each step to exactly one segment (a
        boundary step belongs to the closing segment, not the re-opening one);
        overlapping schedules may return several.
        """
        if t < 0 or t > self.horizon:
            raise ValueError(f"step {t} outside [0,{self.horizon}]")
        return [seg for seg, on in zip(self.segments, self.active_mask[:, t]) if on]

    @cached_property
    def active_mask(self) -> np.ndarray:
        """(segments, horizon+1) flags: segment j's reward applies at step t."""
        t = np.arange(self.horizon + 1)
        claimed = np.zeros(len(t), dtype=bool)
        rows = []
        for seg in self.segments:
            if self.overlapping:
                on = (seg.t_begin <= t) & (t <= seg.t_end)
            else:
                # A step belongs to the first segment that has not closed by then.
                on = (t <= seg.t_end) & ~claimed
                claimed |= on
            rows.append(on)
        mask = np.array(rows, dtype=bool)
        mask.flags.writeable = False
        return mask

    def to_json_dict(self) -> dict:
        return {
            "fragment_class": self.fragment_class.value,
            "horizon": self.horizon,
            "segments": [
                {
                    "t_begin": s.t_begin,
                    "t_end": s.t_end,
                    "psi_index": s.psi_index,
                    "kind": s.kind,
                    "obligation": [s.obligation.lo, s.obligation.hi],
                    "params": {
                        "gamma0": s.params.gamma0,
                        "gamma_inf": s.params.gamma_inf,
                        "l": s.params.l,
                        "rho_max": s.params.rho_max,
                        "t_star": s.params.t_star,
                    },
                }
                for s in self.segments
            ],
        }


def _closure_steps(c: TemporalConjunct, shift: int) -> tuple[int, int, int]:
    """(default, lo, hi) closure steps of a conjunct on a segment clock that
    starts at global step shift.

    F over [a,b] closes at b by default, the latest admissible step and hence
    the most feasible; G closes at a, or at any positive step up to b; the F-G
    form F[a,c1]G[c2,b] closes at c1 + c2, or from a + c2 on.
    """
    a, b = c.footprint.lo, c.footprint.hi
    if c.kind == "F":
        default, lo, hi = b, a, b
    elif c.kind == "G":
        default, lo, hi = a, shift + 1, b
    else:
        node: FG = c.node  # type: ignore[assignment]
        default, lo, hi = node.c1 + node.c2, a + node.c2, node.c1 + node.c2
    return default - shift, lo - shift, hi - shift


def build_schedule(phi: Formula, rho_bounds: Sequence[RhoBounds], horizon: int,
                   gamma_inf_overrides: Mapping[int, float] | None = None,
                   t_star_overrides: Mapping[int, int] | None = None) -> FunnelSchedule:
    """Build the funnel schedule for a fragment formula.

    rho_bounds gives, per top-level conjunct (source order), the robustness
    extrema of its non-temporal body over the relevant state region.
    gamma_inf_overrides and t_star_overrides are keyed the same way; t*
    overrides are segment-local steps (measured from the segment clock
    origin).
    """
    conjuncts = temporal_conjuncts(phi)
    cls = conjunction_class(conjuncts)
    gamma_inf_overrides = dict(gamma_inf_overrides or {})
    t_star_overrides = dict(t_star_overrides or {})

    max_end = max(c.footprint.hi for c in conjuncts)
    if horizon < max_end:
        raise FunnelSynthesisError(
            f"horizon {horizon} shorter than the latest obligation end {max_end}")

    if len(rho_bounds) < len(conjuncts):
        raise FunnelSynthesisError(f"missing rho bounds for sub-formula {len(rho_bounds)}")

    overlapping = cls is FragmentClass.OVERLAPPING_CONJUNCTION
    order = sorted(range(len(conjuncts)),
                   key=lambda i: (conjuncts[i].footprint.lo, conjuncts[i].footprint.hi, i))
    segments: list[FunnelSegment] = []
    prev_end = 0
    for pos, idx in enumerate(order):
        c, bounds = conjuncts[idx], rho_bounds[idx]
        # An overlapping funnel opens where its own obligation starts; a
        # sequential one re-opens where the previous obligation ended, and the
        # last one runs to the horizon.
        t_begin = c.footprint.lo if overlapping else prev_end
        t_end = horizon if not overlapping and pos == len(order) - 1 else c.footprint.hi
        prev_end = c.footprint.hi
        if bounds.rho_max <= 0:
            raise FunnelSynthesisError(
                f"sub-formula {idx} ({c.body.pretty()}) has rho_max={bounds.rho_max} <= 0 "
                "over the given state region; a funnel cannot enforce it")
        default, lo, hi = _closure_steps(c, t_begin)
        t_star = t_star_overrides.get(idx, default)
        if t_star <= 0:
            raise FunnelSynthesisError(
                f"closure step t*={t_star} for {c.node.pretty()} on the segment clock from "
                f"step {t_begin} must be positive; supply a t* override or use an "
                "interval that starts later")
        if not (lo <= t_star <= hi):
            raise FunnelSynthesisError(
                f"t*={t_star} outside the admissible range [{lo},{hi}] for "
                f"{c.node.pretty()} on the segment clock from step {t_begin}")
        gamma0 = bounds.rho_max - bounds.rho_min
        gamma_inf = gamma_inf_overrides.get(idx, min(gamma0, bounds.rho_max) / 100.0)
        try:
            l = synth_l(gamma0, gamma_inf, bounds.rho_max, t_star)
        except FunnelSynthesisError as exc:
            raise FunnelSynthesisError(f"sub-formula {idx} ({c.body.pretty()}): {exc}") from None
        params = FunnelParams(gamma0=gamma0, gamma_inf=gamma_inf, l=l,
                              rho_max=bounds.rho_max, t_star=t_star)
        segments.append(FunnelSegment(t_begin=t_begin, t_end=t_end, params=params,
                                      psi_index=idx, kind=c.kind, obligation=c.footprint))
    return FunnelSchedule(segments=tuple(segments), horizon=horizon, fragment_class=cls)
