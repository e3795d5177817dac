"""Brute-force robustness reference for the benchmark's output checks.

The reference evaluates a parsed formula over a whole trace by scanning every
window of every temporal operator. It walks the formula and expression trees
by node type name and evaluates the predicates itself, so it shares no code
with ``stlfunnel.robustness`` or with ``Expr.eval``.
"""

from __future__ import annotations

import numpy as np

# Relative tolerance between the reference and the program. Both select the
# same floating-point values through min/max; only predicate arithmetic may
# round differently.
RTOL = 1e-9


def _expr(node, env):
    kind = type(node).__name__
    if kind == "Var":
        return env[node.name]
    if kind == "Const":
        return float(node.value)
    if kind == "Neg":
        return -_expr(node.arg, env)
    if kind == "Add":
        return _expr(node.left, env) + _expr(node.right, env)
    if kind == "Sub":
        return _expr(node.left, env) - _expr(node.right, env)
    if kind == "Scale":
        return node.coef * _expr(node.arg, env)
    if kind == "Abs":
        return np.abs(_expr(node.arg, env))
    if kind == "Norm2":
        total = 0.0
        for arg in node.args:
            v = _expr(arg, env)
            total = total + v * v
        return np.sqrt(total)
    if kind == "NormInf":
        out = np.abs(_expr(node.args[0], env))
        for arg in node.args[1:]:
            out = np.maximum(out, np.abs(_expr(arg, env)))
        return out
    raise TypeError(f"reference has no rule for expression node {kind}")


def _window(x: np.ndarray, lo: int, hi: int, op) -> np.ndarray:
    """out[t] = op over x[t+lo .. t+hi], for every t whose window fits."""
    m = len(x) - hi
    if m <= 0:
        raise ValueError(f"trace of {len(x)} steps too short for window [{lo},{hi}]")
    out = x[lo:lo + m].copy()
    for off in range(lo + 1, hi + 1):
        op(out, x[off:off + m], out=out)
    return out


def _signal(phi, env, n: int) -> np.ndarray:
    kind = type(phi).__name__
    if kind == "TrueFormula":
        return np.full(n, np.inf)
    if kind == "Atom":
        return np.broadcast_to(np.asarray(_expr(phi.h, env), dtype=float), (n,)).copy()
    if kind == "Not":
        return -_signal(phi.arg, env, n)
    if kind in ("And", "Or"):
        left, right = _signal(phi.left, env, n), _signal(phi.right, env, n)
        m = min(len(left), len(right))
        op = np.minimum if kind == "And" else np.maximum
        return op(left[:m], right[:m])
    if kind == "G":
        return _window(_signal(phi.body, env, n), phi.interval.lo, phi.interval.hi, np.minimum)
    if kind == "F":
        return _window(_signal(phi.body, env, n), phi.interval.lo, phi.interval.hi, np.maximum)
    if kind == "FG":
        inner = _window(_signal(phi.body, env, n), phi.c2, phi.b, np.minimum)
        return _window(inner, phi.a, phi.c1, np.maximum)
    raise TypeError(f"reference has no rule for formula node {kind}")


def _conjuncts(phi) -> list:
    if type(phi).__name__ == "And":
        return _conjuncts(phi.left) + _conjuncts(phi.right)
    return [phi]


def reference(phi, states: np.ndarray, schema) -> tuple[float, float]:
    """(robustness at step 0, minimum over top-level conjuncts at step 0)."""
    states = np.asarray(states, dtype=float)
    env = {name: states[:, j] for j, name in enumerate(schema)}
    n = len(states)
    rho = float(_signal(phi, env, n)[0])
    obligation = min(float(_signal(c, env, n)[0]) for c in _conjuncts(phi))
    return rho, obligation


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= RTOL * max(1.0, abs(a), abs(b))


def mismatch(phi, states, schema, report) -> str | None:
    """Describe how a SatisfactionReport disagrees with the reference, or None."""
    rho, obligation = reference(phi, states, schema)
    if not _close(report.robustness, rho):
        return f"robustness {report.robustness!r} != reference {rho!r}"
    if not _close(report.obligation_min, obligation):
        return f"obligation_min {report.obligation_min!r} != reference {obligation!r}"
    if abs(rho) > RTOL and bool(report.satisfied) != (rho >= 0):
        return f"verdict {bool(report.satisfied)} != reference sign of {rho!r}"
    return None
