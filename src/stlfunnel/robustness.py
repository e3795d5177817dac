"""Quantitative (robust) semantics for the temporal-logic fragment.

Robustness is a signed satisfaction margin: positive means the formula holds,
and the magnitude measures how far the signal is from the satisfaction
boundary. Atoms evaluate their predicate expression directly; Boolean
connectives map to min/max; temporal operators take min/max over the discrete
steps of their (inclusive) interval.

A trace is evaluated node by node over all of its steps at once: atoms on the
state columns, connectives elementwise, and temporal operators as sliding-window
min/max, so the cost is linear in the trace length (times the log of the
widest window) instead of the window-nested recursion of the definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .stl.formula import (
    FG, And, Atom, F, Formula, G, Interval, Not, Or, TrueFormula, formula_horizon,
    is_nontemporal,
)

__all__ = ["RhoBounds", "rho_pointwise", "rho_trace", "violation_step", "estimate_rho_bounds",
           "TemporalInPointwiseError"]

StateVector = Mapping[str, float]
# A trace: one column array per variable name, with one entry per step.
Trace = Mapping[str, np.ndarray]


class TemporalInPointwiseError(ValueError):
    """A temporal operator reached the pointwise evaluator."""


@dataclass(frozen=True)
class RhoBounds:
    """Extrema of a non-temporal sub-formula's robustness over a state region."""

    rho_min: float
    rho_max: float

    def __post_init__(self):
        if not -math.inf < self.rho_min <= self.rho_max < math.inf:
            raise ValueError(f"need finite rho_min <= rho_max: [{self.rho_min}, {self.rho_max}]")


def rho_pointwise(psi: Formula, s: StateVector) -> float:
    """Robustness of a non-temporal formula at a single state.

    Accepts numpy arrays as state components and broadcasts elementwise.
    """
    if isinstance(psi, TrueFormula):
        return math.inf
    if isinstance(psi, Atom):
        return psi.h.eval(s)
    if isinstance(psi, Not):
        return -rho_pointwise(psi.arg, s)
    if isinstance(psi, And):
        return np.minimum(rho_pointwise(psi.left, s), rho_pointwise(psi.right, s))
    if isinstance(psi, Or):
        return np.maximum(rho_pointwise(psi.left, s), rho_pointwise(psi.right, s))
    raise TemporalInPointwiseError(
        f"temporal operator {type(psi).__name__} in pointwise evaluation")


def rho_trace(phi: Formula, trace: Trace, t: int = 0) -> float:
    """Robustness of an arbitrary fragment formula over a discrete trace.

    trace maps each variable name to a column array with one entry per step.
    The trace must extend to t + formula_horizon(phi); both interval endpoints
    are inclusive.
    """
    if t < 0:
        raise ValueError(f"evaluation step must be nonnegative, got t={t}")
    n = _length(trace)
    need = t + formula_horizon(phi)
    if need > n - 1:
        raise ValueError(
            f"trace of length {n} too short: formula requires step {need} "
            f"when evaluated at t={t}")
    return float(_signal(phi, trace, n, rho_pointwise)[t])


def violation_step(phi: Formula, trace: Trace) -> float:
    """First step k whose prefix 0..k already violates phi at step 0, or inf.

    Non-temporal sub-formulas are valued at the steps where their robustness is
    negative, +inf where they hold or past the trace; G's window minimum is then
    the first violating step and F's maximum the step by which every candidate
    has failed. phi must not negate a temporal operator (no violation step then).
    """
    n = _length(trace)
    steps = np.arange(n + formula_horizon(phi), dtype=float)

    def failure_steps(psi, cols):
        violated = np.zeros(len(steps), dtype=bool)
        violated[:n] = np.asarray(rho_pointwise(psi, cols)) < 0
        return np.where(violated, steps, np.inf)

    return float(_signal(phi, trace, len(steps), failure_steps)[0])


def _length(trace: Trace) -> int:
    lengths = {len(v) for v in trace.values()}
    if len(lengths) != 1:
        raise ValueError(f"trace columns need one common length, got lengths {sorted(lengths)}")
    return lengths.pop()


def _signal(phi: Formula, columns: Mapping[str, np.ndarray], n: int, leaf) -> np.ndarray:
    """phi at every step t whose horizon fits in the n steps (an array of length
    n - formula_horizon(phi)); leaf(psi, columns) values each non-temporal psi.
    Every operation selects or negates operand values, so with leaf = rho_pointwise
    entry t equals the recursive definition at step t (up to the sign of a zero)."""
    if is_nontemporal(phi):
        return np.broadcast_to(np.asarray(leaf(phi, columns), dtype=float), (n,))
    if isinstance(phi, Not):
        return -_signal(phi.arg, columns, n, leaf)
    if isinstance(phi, (And, Or)):
        left, right = _signal(phi.left, columns, n, leaf), _signal(phi.right, columns, n, leaf)
        m = min(len(left), len(right))
        op = np.minimum if isinstance(phi, And) else np.maximum
        return op(left[:m], right[:m])
    if isinstance(phi, G):
        return _window(_signal(phi.body, columns, n, leaf), phi.interval, np.minimum)
    if isinstance(phi, F):
        return _window(_signal(phi.body, columns, n, leaf), phi.interval, np.maximum)
    if isinstance(phi, FG):
        inner = _window(_signal(phi.body, columns, n, leaf), Interval(phi.c2, phi.b), np.minimum)
        return _window(inner, Interval(phi.a, phi.c1), np.maximum)
    raise TypeError(f"unknown formula node {type(phi).__name__}")


def _window(x: np.ndarray, interval: Interval, op) -> np.ndarray:
    """out[t] = op over x[t+lo .. t+hi] for every t whose window fits in x.

    Log-doubling: after k passes x[t] covers the 2**k steps from t, and two
    overlapping windows of the largest such span cover any width. That is
    O(len(x) * log(width)) elementwise work in about log2(width) numpy calls.
    """
    x = x[interval.lo:]
    width = interval.hi - interval.lo + 1
    span = 1
    while 2 * span <= width:
        x = op(x[:len(x) - span], x[span:])
        span *= 2
    return op(x[:len(x) - (width - span)], x[width - span:])


def estimate_rho_bounds(psi: Formula, box: Mapping[str, tuple[float, float]],
                        grid_n: int) -> RhoBounds:
    """Min/max robustness of a non-temporal formula over a uniform grid.

    box maps every free variable of psi to a finite [lo, hi] range; the grid
    has grid_n points per dimension. Callers with analytic extrema should
    bypass this and supply bounds directly.
    """
    if not is_nontemporal(psi):
        raise TemporalInPointwiseError("bounds estimation requires a non-temporal formula")
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")

    names = sorted(_free_variables(psi))
    for name in names:
        if name not in box:
            raise ValueError(f"box is missing variable {name!r}")
    for name, (lo, hi) in box.items():
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
            raise ValueError(f"invalid box for {name!r}: [{lo}, {hi}]")

    axes = [np.linspace(box[n][0], box[n][1], grid_n) for n in names]
    grids = np.meshgrid(*axes, indexing="ij")
    env = {n: g for n, g in zip(names, grids)}
    values = np.asarray(rho_pointwise(psi, env), dtype=float)
    return RhoBounds(float(values.min()), float(values.max()))


def _free_variables(psi: Formula) -> frozenset[str]:
    if isinstance(psi, TrueFormula):
        return frozenset()
    if isinstance(psi, Atom):
        return psi.h.variables()
    if isinstance(psi, Not):
        return _free_variables(psi.arg)
    if isinstance(psi, (And, Or)):
        return _free_variables(psi.left) | _free_variables(psi.right)
    raise TypeError(f"unknown formula node {type(psi).__name__}")
