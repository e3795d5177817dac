import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stlfunnel.robustness import (
    RhoBounds, TemporalInPointwiseError, estimate_rho_bounds, rho_pointwise, rho_trace,
)
from stlfunnel.stl.expr import Abs, Const, Norm2, Sub, Var
from stlfunnel.stl.formula import (
    FG, And, Atom, F, Formula, G, Interval, Not, Or, TrueFormula, formula_horizon,
)
from stlfunnel.stl.parser import parse_formula

SCHEMA = ["theta", "omega", "x", "y"]


# Independent oracles: written directly from the semantics definitions and
# deliberately separate from the module implementation.

def oracle_rho(phi, trace, t, memo=None):
    """Robustness of phi at step t by the recursive definition.

    memo, when given, is a dict shared by calls on one trace; it caches each
    (node, step) value so that nested windows cost their sum, not their product.
    """
    if memo is not None:
        key = (id(phi), t)
        if key not in memo:
            memo[key] = _oracle_rho(phi, trace, t, memo)
        return memo[key]
    return _oracle_rho(phi, trace, t, memo)


def _oracle_rho(phi, trace, t, memo):
    if isinstance(phi, TrueFormula):
        return math.inf
    if isinstance(phi, Atom):
        return float(phi.h.eval(trace[t]))
    if isinstance(phi, Not):
        return -oracle_rho(phi.arg, trace, t, memo)
    if isinstance(phi, And):
        return min(oracle_rho(phi.left, trace, t, memo), oracle_rho(phi.right, trace, t, memo))
    if isinstance(phi, Or):
        return max(oracle_rho(phi.left, trace, t, memo), oracle_rho(phi.right, trace, t, memo))
    if isinstance(phi, F):
        best = -math.inf
        for u in range(t + phi.interval.lo, t + phi.interval.hi + 1):
            best = max(best, oracle_rho(phi.body, trace, u, memo))
        return best
    if isinstance(phi, G):
        worst = math.inf
        for u in range(t + phi.interval.lo, t + phi.interval.hi + 1):
            worst = min(worst, oracle_rho(phi.body, trace, u, memo))
        return worst
    if isinstance(phi, FG):
        best = -math.inf
        for u in range(t + phi.a, t + phi.c1 + 1):
            worst = math.inf
            for v in range(u + phi.c2, u + phi.b + 1):
                worst = min(worst, oracle_rho(phi.body, trace, v, memo))
            best = max(best, worst)
        return best
    raise TypeError(type(phi))


def oracle_bool(phi, trace, t):
    if isinstance(phi, TrueFormula):
        return True
    if isinstance(phi, Atom):
        return float(phi.h.eval(trace[t])) >= 0
    if isinstance(phi, Not):
        return not oracle_bool(phi.arg, trace, t)
    if isinstance(phi, And):
        return oracle_bool(phi.left, trace, t) and oracle_bool(phi.right, trace, t)
    if isinstance(phi, Or):
        return oracle_bool(phi.left, trace, t) or oracle_bool(phi.right, trace, t)
    if isinstance(phi, F):
        return any(oracle_bool(phi.body, trace, u)
                   for u in range(t + phi.interval.lo, t + phi.interval.hi + 1))
    if isinstance(phi, G):
        return all(oracle_bool(phi.body, trace, u)
                   for u in range(t + phi.interval.lo, t + phi.interval.hi + 1))
    if isinstance(phi, FG):
        return any(
            all(oracle_bool(phi.body, trace, v) for v in range(u + phi.c2, u + phi.b + 1))
            for u in range(t + phi.a, t + phi.c1 + 1))
    raise TypeError(type(phi))


def random_formula(rng, depth, max_interval=8) -> Formula:
    if depth == 0:
        var = SCHEMA[rng.integers(len(SCHEMA))]
        c = float(rng.uniform(-2, 2))
        return Atom(h=Sub(Var(var), Const(c)))
    kind = rng.integers(6)
    if kind == 0:
        return Not(random_formula(rng, depth - 1, max_interval))
    if kind == 1:
        return And(random_formula(rng, depth - 1, max_interval),
                   random_formula(rng, depth - 1, max_interval))
    if kind == 2:
        return Or(random_formula(rng, depth - 1, max_interval),
                  random_formula(rng, depth - 1, max_interval))
    lo = int(rng.integers(0, max_interval))
    hi = int(rng.integers(lo, max_interval))
    if kind == 3:
        return F(Interval(lo, hi), random_formula(rng, depth - 1, max_interval))
    if kind == 4:
        return G(Interval(lo, hi), random_formula(rng, depth - 1, max_interval))
    c1 = int(rng.integers(lo, max_interval))
    c2 = int(rng.integers(0, max_interval))
    b = int(rng.integers(c2, max_interval))
    return FG(a=lo, c1=c1, c2=c2, b=b, body=random_formula(rng, depth - 1, max_interval))


def random_trace(rng, length):
    return [{n: float(rng.uniform(-3, 3)) for n in SCHEMA} for _ in range(length)]


# Pointwise examples -----------------------------------------------------------

def test_atom_pointwise():
    atom = parse_formula("abs(theta) <= 0.05", ["theta"])
    assert math.isclose(rho_pointwise(atom, {"theta": 0.02}), 0.03)


def test_and_is_min():
    psi = parse_formula("abs(theta) <= 0.05 & abs(omega) <= 0.05", ["theta", "omega"])
    assert math.isclose(rho_pointwise(psi, {"theta": 0.02, "omega": 0.06}), -0.01)


def test_or_is_max_integrator_predicates():
    psi = parse_formula("abs(x-5) <= 5 | abs(x-45) <= 5", ["x"])
    # By hand at x = 5: max(5 - 0, 5 - 40) = 5.
    assert math.isclose(rho_pointwise(psi, {"x": 5.0}), 5.0)


def test_pointwise_rejects_temporal():
    phi = parse_formula("G[0,5](x >= 0)", ["x"])
    with pytest.raises(TemporalInPointwiseError):
        rho_pointwise(phi, {"x": 1.0})


# Trace examples ---------------------------------------------------------------

def _ramp_trace(values):
    return [{"x": v} for v in values]


def test_g_is_min_over_window():
    phi = G(Interval(0, 2), Atom(h=Var("x")))
    assert rho_trace(phi, _ramp_trace([1, 2, 0.5]), 0) == 0.5


def test_f_is_max_over_window():
    phi = F(Interval(0, 2), Atom(h=Var("x")))
    assert rho_trace(phi, _ramp_trace([1, 2, 0.5]), 0) == 2


def test_fg_example_brute_forced():
    phi = FG(a=0, c1=2, c2=0, b=1, body=Atom(h=Var("x")))
    trace = _ramp_trace([-1, 3, 1, -2])
    # Oracle: max over t' in {0,1,2} of min over [t', t'+1].
    assert oracle_rho(phi, trace, 0) == 1
    assert rho_trace(phi, trace, 0) == 1


def test_trace_too_short_raises():
    phi = G(Interval(0, 5), Atom(h=Var("x")))
    with pytest.raises(ValueError, match="too short"):
        rho_trace(phi, _ramp_trace([1, 2]), 0)


def test_shifted_evaluation_time():
    phi = F(Interval(1, 2), Atom(h=Var("x")))
    trace = _ramp_trace([0, 0, 5, -1, 7])
    assert rho_trace(phi, trace, 2) == 7


# Oracle equivalence and soundness (spot version of acceptance criterion 1) ----

def test_oracle_equivalence_small():
    rng = np.random.default_rng(7)
    for _ in range(200):
        phi = random_formula(rng, int(rng.integers(1, 5)))
        trace = random_trace(rng, formula_horizon(phi) + int(rng.integers(1, 10)))
        got = rho_trace(phi, trace, 0)
        want = oracle_rho(phi, trace, 0)
        assert got == want or math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)
        if got != 0:
            assert (got > 0) == oracle_bool(phi, trace, 0)


def test_negation_duality():
    rng = np.random.default_rng(11)
    for _ in range(100):
        phi = random_formula(rng, 3)
        trace = random_trace(rng, formula_horizon(phi) + 3)
        assert rho_trace(Not(phi), trace, 0) == -rho_trace(phi, trace, 0)


MAX_WINDOW = 40


@st.composite
def formulas(draw, depth):
    """Nested F/G/FG/Not/And/Or over atoms, windows up to MAX_WINDOW steps."""
    kind = draw(st.sampled_from(
        ["atom"] if depth == 0 else ["atom", "true", "not", "and", "or", "F", "G", "FG"]))
    if kind == "atom":
        var = draw(st.sampled_from(SCHEMA))
        # Thresholds on the trace's half-step grid make ties and zero margins.
        c = draw(st.integers(-4, 4)) / 2
        return Atom(h=Sub(Var(var), Const(c)))
    if kind == "true":
        return TrueFormula()
    if kind == "not":
        return Not(draw(formulas(depth - 1)))
    if kind in ("and", "or"):
        left, right = draw(formulas(depth - 1)), draw(formulas(depth - 1))
        return And(left, right) if kind == "and" else Or(left, right)
    lo = draw(st.integers(0, MAX_WINDOW))
    hi = draw(st.integers(lo, lo + MAX_WINDOW))
    body = draw(formulas(depth - 1))
    if kind == "F":
        return F(Interval(lo, hi), body)
    if kind == "G":
        return G(Interval(lo, hi), body)
    c2 = draw(st.integers(0, MAX_WINDOW))
    b = draw(st.integers(c2, c2 + MAX_WINDOW))
    return FG(a=lo, c1=hi, c2=c2, b=b, body=body)


@settings(max_examples=150, deadline=None)
@given(phi=formulas(3), extra=st.integers(0, 30), seed=st.integers(0, 2**32 - 1),
       quantized=st.booleans())
def test_array_evaluator_equals_recursion_at_every_step(phi, extra, seed, quantized):
    rng = np.random.default_rng(seed)
    n = formula_horizon(phi) + 1 + extra
    values = rng.integers(-6, 7, size=(n, len(SCHEMA))) / 2 if quantized \
        else rng.uniform(-3, 3, size=(n, len(SCHEMA)))
    trace = [dict(zip(SCHEMA, row.tolist())) for row in values]
    columns = {name: values[:, j] for j, name in enumerate(SCHEMA)}
    memo = {}
    for t in range(extra + 1):
        want = oracle_rho(phi, trace, t, memo)
        assert rho_trace(phi, trace, t) == want
        assert rho_trace(phi, columns, t) == want
    with pytest.raises(ValueError, match="too short"):
        rho_trace(phi, columns, extra + 1)


def test_wide_fg_window_is_fast():
    phi = parse_formula("F[0,1000]G[0,1000](abs(x - 0.5) <= 3)", ["x"])
    x = np.cumsum(np.random.default_rng(3).normal(size=2001))
    start = time.perf_counter()
    got = rho_trace(phi, [{"x": v} for v in x.tolist()], 0)
    elapsed = time.perf_counter() - start
    margin = 3.0 - np.abs(x - 0.5)
    assert got == max(margin[u:u + 1001].min() for u in range(1001))
    assert elapsed < 1.0


def test_column_trace_lengths_must_agree():
    phi = G(Interval(0, 1), Atom(h=Var("x")))
    with pytest.raises(ValueError, match="one common length"):
        rho_trace(phi, {"x": np.zeros(3), "y": np.zeros(4)}, 0)


def test_negative_evaluation_step_rejected():
    phi = G(Interval(0, 1), Atom(h=Var("x")))
    with pytest.raises(ValueError, match="nonnegative"):
        rho_trace(phi, _ramp_trace([1, 2, 3]), -1)


# Bound estimation -------------------------------------------------------------

def test_bounds_pendulum_atom():
    atom = parse_formula("abs(theta) <= 0.05", ["theta"])
    bounds = estimate_rho_bounds(atom, {"theta": (-math.pi, math.pi)}, 10001)
    assert math.isclose(bounds.rho_max, 0.05, abs_tol=1e-9)
    assert math.isclose(bounds.rho_min, 0.05 - math.pi, abs_tol=2 * math.pi / 10000)
    # gamma0 default = rho_max - rho_min matches the reported pendulum pi.
    assert math.isclose(bounds.rho_max - bounds.rho_min, math.pi, abs_tol=1e-3)


def test_bounds_constant_atom():
    atom = Atom(h=Const(1.0))
    bounds = estimate_rho_bounds(atom, {}, 2)
    assert bounds == RhoBounds(1.0, 1.0)


def test_bounds_refinement_is_monotone_within_lipschitz():
    atom = parse_formula("norm2(x-3, y-1) <= 0.3", ["x", "y"])
    coarse = estimate_rho_bounds(atom, {"x": (0, 10), "y": (0, 10)}, 11)
    fine = estimate_rho_bounds(atom, {"x": (0, 10), "y": (0, 10)}, 21)
    # Lipschitz constant of a 2-d euclidean distance is 1 per coordinate.
    spacing = 10 / 10
    assert fine.rho_max <= coarse.rho_max + spacing
    assert fine.rho_min >= coarse.rho_min - spacing
    # Refinement can only widen towards the true extrema.
    assert fine.rho_max >= coarse.rho_max - 1e-12
    assert fine.rho_min <= coarse.rho_min + 1e-12


def test_bounds_require_box_for_free_variables():
    atom = parse_formula("x >= 0", ["x"])
    with pytest.raises(ValueError, match="missing variable"):
        estimate_rho_bounds(atom, {}, 10)


def test_bounds_reject_bad_grid():
    atom = parse_formula("x >= 0", ["x"])
    with pytest.raises(ValueError, match="grid_n"):
        estimate_rho_bounds(atom, {"x": (0, 1)}, 1)
