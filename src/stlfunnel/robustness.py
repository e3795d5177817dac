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
from typing import Mapping, Sequence, Union

import numpy as np

from .stl.formula import (
    FG, And, Atom, F, Formula, G, Interval, Not, Or, TrueFormula, formula_horizon,
    is_nontemporal,
)

__all__ = ["RhoBounds", "rho_pointwise", "rho_trace", "estimate_rho_bounds", "TemporalInPointwiseError"]

StateVector = Mapping[str, float]
# A trace as column arrays by variable name, or as a sequence of states.
Trace = Union[Mapping[str, np.ndarray], Sequence[StateVector]]


class TemporalInPointwiseError(ValueError):
    """A temporal operator reached the pointwise evaluator."""


@dataclass(frozen=True)
class RhoBounds:
    """Extrema of a non-temporal sub-formula's robustness over a state region."""

    rho_min: float
    rho_max: float

    def __post_init__(self):
        if self.rho_min > self.rho_max:
            raise ValueError(f"rho_min {self.rho_min} exceeds rho_max {self.rho_max}")


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

    trace is either a mapping from variable name to a column array with one
    entry per step, or a sequence of per-step state mappings, which is
    converted to columns once. The trace must extend to t + formula_horizon(phi);
    both interval endpoints are inclusive.
    """
    if t < 0:
        raise ValueError(f"evaluation step must be nonnegative, got t={t}")
    columns, n = _columns(trace)
    need = t + formula_horizon(phi)
    if need > n - 1:
        raise ValueError(
            f"trace of length {n} too short: formula requires step {need} "
            f"when evaluated at t={t}")
    return float(_signal(phi, columns, n)[t])


def _columns(trace: Trace) -> tuple[Mapping[str, np.ndarray], int]:
    if isinstance(trace, Mapping):
        lengths = {len(v) for v in trace.values()}
        if len(lengths) != 1:
            raise ValueError(f"trace columns need one common length, got lengths {sorted(lengths)}")
        return trace, lengths.pop()
    names = trace[0].keys() if len(trace) else ()
    return {name: np.array([s[name] for s in trace], dtype=float) for name in names}, len(trace)


def _signal(phi: Formula, columns: Mapping[str, np.ndarray], n: int) -> np.ndarray:
    """Robustness of phi at every step t whose horizon fits in the n steps,
    i.e. an array of length n - formula_horizon(phi).

    Every operation selects or negates values of its operands, so entry t
    equals the recursive definition at step t (up to the sign of a zero).
    """
    if is_nontemporal(phi):
        return np.broadcast_to(np.asarray(rho_pointwise(phi, columns), dtype=float), (n,))
    if isinstance(phi, Not):
        return -_signal(phi.arg, columns, n)
    if isinstance(phi, (And, Or)):
        left, right = _signal(phi.left, columns, n), _signal(phi.right, columns, n)
        m = min(len(left), len(right))
        op = np.minimum if isinstance(phi, And) else np.maximum
        return op(left[:m], right[:m])
    if isinstance(phi, G):
        return _window(_signal(phi.body, columns, n), phi.interval, np.minimum)
    if isinstance(phi, F):
        return _window(_signal(phi.body, columns, n), phi.interval, np.maximum)
    if isinstance(phi, FG):
        inner = _window(_signal(phi.body, columns, n), Interval(phi.c2, phi.b), np.minimum)
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

    if not names:
        value = float(rho_pointwise(psi, {}))
        return RhoBounds(value, value)

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
    if isinstance(psi, (F, G)):
        return _free_variables(psi.body)
    if isinstance(psi, FG):
        return _free_variables(psi.body)
    raise TypeError(f"unknown formula node {type(psi).__name__}")
