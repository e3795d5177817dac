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


def synth_l(kind: str, interval: Interval, gamma0: float, gamma_inf: float,
            rho_max: float, t_star: int | None = None,
            c1: int | None = None, c2: int | None = None) -> tuple[float, int]:
    """Choose the funnel decay rate for one temporal operator.

    Returns (l, t_star). For F over [a,b] the default closure is t* = b (the
    latest admissible, hence most feasible); for G it is t* = a; for the F-G
    form (pass interval=[a,b] plus c1, c2) it is c1 + c2. The closure step
    must be positive: a funnel cannot close instantly.
    """
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

    a, b = interval.lo, interval.hi
    if kind == "G":
        default = a
        lo_ok, hi_ok = 1, b
    elif kind == "F":
        default = b
        lo_ok, hi_ok = a, b
    elif kind == "FG":
        if c1 is None or c2 is None:
            raise FunnelSynthesisError("FG synthesis requires c1 and c2")
        default = c1 + c2
        lo_ok, hi_ok = a + c2, c1 + c2
    else:
        raise FunnelSynthesisError(f"unknown operator kind {kind!r}")

    ts = default if t_star is None else t_star
    if ts <= 0:
        raise FunnelSynthesisError(
            f"closure step t*={ts} for {kind}{interval.pretty()} must be positive; "
            "supply a t* override or use an interval with a > 0")
    if t_star is not None and kind != "G" and not (lo_ok <= ts <= hi_ok):
        raise FunnelSynthesisError(
            f"t*={ts} outside the admissible range [{lo_ok},{hi_ok}] for {kind}{interval.pretty()}")
    if kind == "G" and ts > b:
        raise FunnelSynthesisError(
            f"t*={ts} beyond the interval end {b} for G{interval.pretty()}")

    l = math.log((gamma0 - gamma_inf) / (rho_max - gamma_inf)) / ts
    return l, ts


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


def _conjunct_locals(c: TemporalConjunct, shift: int) -> dict:
    """Interval data of a conjunct with the segment clock shifted by -shift."""
    if c.kind == "FG":
        node: FG = c.node  # type: ignore[assignment]
        return {
            "interval": Interval(max(node.a - shift, 0), node.c1 + node.b - shift),
            "c1": node.c1 - shift,
            "c2": node.c2,
        }
    iv = c.footprint
    if iv.lo - shift < 0 or iv.hi - shift <= 0:
        raise FunnelSynthesisError(
            f"segment clock shift {shift} exceeds interval {iv.pretty()}")
    return {"interval": Interval(iv.lo - shift, iv.hi - shift), "c1": None, "c2": None}


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

    def params_for(idx: int, c: TemporalConjunct, shift: int) -> FunnelParams:
        b = rho_bounds[idx]
        if b.rho_max <= 0:
            raise FunnelSynthesisError(
                f"sub-formula {idx} ({c.body.pretty()}) has rho_max={b.rho_max} <= 0 "
                "over the given state region; a funnel cannot enforce it")
        gamma0 = b.rho_max - b.rho_min
        gamma_inf = gamma_inf_overrides.get(idx, min(gamma0, b.rho_max) / 100.0)
        if not (0 < gamma_inf < min(gamma0, b.rho_max)):
            raise FunnelSynthesisError(
                f"gamma_inf={gamma_inf} for sub-formula {idx} outside "
                f"(0, {min(gamma0, b.rho_max)})")
        loc = _conjunct_locals(c, shift)
        l, ts = synth_l(c.kind, loc["interval"], gamma0, gamma_inf, b.rho_max,
                        t_star=t_star_overrides.get(idx), c1=loc["c1"], c2=loc["c2"])
        return FunnelParams(gamma0=gamma0, gamma_inf=gamma_inf, l=l,
                            rho_max=b.rho_max, t_star=ts)

    segments: list[FunnelSegment] = []
    if cls is FragmentClass.OVERLAPPING_CONJUNCTION:
        for idx, c in enumerate(conjuncts):
            params = params_for(idx, c, shift=c.footprint.lo)
            segments.append(FunnelSegment(
                t_begin=c.footprint.lo, t_end=c.footprint.hi, params=params,
                psi_index=idx, kind=c.kind, obligation=c.footprint))
        segments.sort(key=lambda s: (s.t_begin, s.t_end, s.psi_index))
    else:
        order = sorted(range(len(conjuncts)), key=lambda i: conjuncts[i].footprint.lo)
        prev_end = 0
        for pos, idx in enumerate(order):
            c = conjuncts[idx]
            params = params_for(idx, c, shift=prev_end)
            t_end = c.footprint.hi if pos < len(order) - 1 else horizon
            segments.append(FunnelSegment(
                t_begin=prev_end, t_end=t_end, params=params,
                psi_index=idx, kind=c.kind, obligation=c.footprint))
            prev_end = c.footprint.hi

    return FunnelSchedule(segments=tuple(segments), horizon=horizon, fragment_class=cls)
