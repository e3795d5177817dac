import math

import pytest
from hypothesis import given, settings, strategies as st

from stlfunnel.stl.expr import Abs, Add, Const, Neg, Norm2, NormInf, Scale, Sub, Var
from stlfunnel.stl.formula import (
    FG, And, Atom, F, FragmentClass, FragmentError, G, Interval, Not, Or,
    TrueFormula, classify_fragment,
)
from stlfunnel.stl.parser import ParseError, parse_formula

SCHEMA = ["theta", "omega", "x", "y", "p"]


def test_pendulum_always_example():
    phi = parse_formula("G[400,700](abs(theta) <= 0.05 & abs(omega) <= 0.05)",
                        ["theta", "omega"])
    assert isinstance(phi, G)
    assert phi.interval == Interval(400, 700)
    assert isinstance(phi.body, And)
    left = phi.body.left
    assert isinstance(left, Atom)
    # e <= c normalizes to h = c - e
    assert left.h == Sub(Const(0.05), Abs(Var("theta")))


def test_reach_norm_example():
    phi = parse_formula("F[0,50](norm2(x-3, y-1) <= 0.3)", ["x", "y"])
    assert isinstance(phi, F)
    assert phi.interval == Interval(0, 50)
    atom = phi.body
    assert isinstance(atom, Atom)
    assert atom.h == Sub(Const(0.3), Norm2((Sub(Var("x"), Const(3.0)),
                                           Sub(Var("y"), Const(1.0)))))


def test_interval_lo_greater_than_hi_rejected():
    with pytest.raises(ParseError) as err:
        parse_formula("G[700,400](p >= 0)", ["p"])
    assert "interval" in str(err.value)
    assert err.value.line == 1


def test_unknown_variable_reports_position():
    with pytest.raises(ParseError) as err:
        parse_formula("G[0,5](q >= 0)", ["p"])
    assert "unknown variable 'q'" in str(err.value)


def test_syntax_error_has_line_and_column():
    with pytest.raises(ParseError) as err:
        parse_formula("G[0,5](p >= )", ["p"])
    assert err.value.line == 1 and err.value.col > 0


def test_fg_form_parses():
    phi = parse_formula("F[0,10]G[2,5](p >= 1)", ["p"])
    assert isinstance(phi, FG)
    assert (phi.a, phi.c1, phi.c2, phi.b) == (0, 10, 2, 5)


def test_ge_zero_atoms_keep_expression():
    phi = parse_formula("p >= 0", ["p"])
    assert phi == Atom(h=Var("p"))


def test_strict_and_nonstrict_comparisons_identical():
    assert parse_formula("p > 1", ["p"]) == parse_formula("p >= 1", ["p"])
    assert parse_formula("p < 1", ["p"]) == parse_formula("p <= 1", ["p"])


def test_true_keyword():
    assert parse_formula("True", []) == TrueFormula()


def test_boolean_structure_and_parens():
    phi = parse_formula("!(p >= 0) | (p >= 1 & p <= 2)", ["p"])
    assert isinstance(phi, Or)
    assert isinstance(phi.left, Not)
    assert isinstance(phi.right, And)


def test_scale_requires_constant_factor():
    assert parse_formula("2 * p >= 0", ["p"]).h == Scale(2.0, Var("p"))
    with pytest.raises(ParseError):
        parse_formula("p * p >= 0", ["p"])


# Fragment classification ------------------------------------------------------

def test_classify_pendulum_sequential():
    spec = ("G[400,700](abs(theta)<=0.05 & abs(omega)<=0.05)"
            " & G[1000,1200](abs(1.57-theta)<=0.05 & abs(omega)<=0.05)"
            " & G[1700,2000](abs(-1.57-theta)<=0.05 & abs(omega)<=0.05)")
    phi = parse_formula(spec, ["theta", "omega"])
    assert classify_fragment(phi) is FragmentClass.SEQUENTIAL_CONJUNCTION


def test_classify_overlapping():
    spec = ("G[0,100](norminf(x-2, y-2) <= 2)"
            " & F[0,50](norm2(x-3, y-1) <= 0.3)"
            " & F[50,90](norm2(x-1, y-3) <= 0.3)")
    phi = parse_formula(spec, ["x", "y"])
    assert classify_fragment(phi) is FragmentClass.OVERLAPPING_CONJUNCTION


def test_classify_nested_temporal_is_fragment_error():
    phi = parse_formula("F[0,10](G[0,5](F[0,2](p >= 0)))", ["p"])
    with pytest.raises(FragmentError):
        classify_fragment(phi)


def test_classify_disjunction_of_temporal_is_fragment_error():
    phi = parse_formula("F[0,10](p >= 0) | G[0,5](p >= 0)", ["p"])
    with pytest.raises(FragmentError):
        classify_fragment(phi)


def test_classify_nontemporal():
    phi = parse_formula("p >= 0 & p <= 1", ["p"])
    assert classify_fragment(phi) is FragmentClass.NON_TEMPORAL


def test_touching_intervals_count_as_overlapping():
    phi = parse_formula("G[0,100](p >= 0) & G[100,200](p <= 5)", ["p"])
    assert classify_fragment(phi) is FragmentClass.OVERLAPPING_CONJUNCTION


# Round-trip property ----------------------------------------------------------

def _exprs(depth):
    leaf = st.one_of(
        st.sampled_from(SCHEMA).map(Var),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(Const),
    )
    if depth == 0:
        return leaf
    sub = _exprs(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(sub, sub).map(lambda p: Add(*p)),
        st.tuples(sub, sub).map(lambda p: Sub(*p)),
        sub.map(Neg),
        sub.map(Abs),
        st.floats(min_value=-10, max_value=10, allow_nan=False).flatmap(
            lambda c: sub.map(lambda e: Scale(c, e))),
        st.lists(sub, min_size=1, max_size=3).map(lambda a: Norm2(tuple(a))),
        st.lists(sub, min_size=1, max_size=3).map(lambda a: NormInf(tuple(a))),
    )


def _intervals():
    return st.tuples(st.integers(0, 50), st.integers(0, 50)).map(
        lambda p: Interval(min(p), max(p)))


def _formulas(depth):
    atoms = _exprs(2).map(lambda e: Atom(h=e))
    if depth == 0:
        return st.one_of(atoms, st.just(TrueFormula()))
    sub = _formulas(depth - 1)
    return st.one_of(
        atoms,
        sub.map(Not),
        st.tuples(sub, sub).map(lambda p: And(*p)),
        st.tuples(sub, sub).map(lambda p: Or(*p)),
        st.tuples(_intervals(), sub).map(lambda p: F(*p)),
        st.tuples(_intervals(), sub).map(lambda p: G(*p)),
    )


@settings(max_examples=200, deadline=None)
@given(_formulas(3))
def test_pretty_print_reparse_fixed_point(phi):
    assert parse_formula(phi.pretty(), SCHEMA) == phi


@settings(max_examples=200, deadline=None)
@given(_formulas(3))
def test_classify_total_on_parser_output(phi):
    reparsed = parse_formula(phi.pretty(), SCHEMA)
    try:
        classify_fragment(reparsed)
    except FragmentError:
        pass  # a classification or a fragment error, never a crash


@settings(max_examples=100, deadline=None)
@given(_exprs(2), st.floats(min_value=-50, max_value=50, allow_nan=False),
       st.integers(0, 2 ** 32 - 1))
def test_le_normalization_pointwise(e, c, seed):
    import numpy as np
    atom = parse_formula(f"{e.pretty()} <= {c!r}", SCHEMA)
    assert isinstance(atom, Atom)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        s = {n: rng.uniform(-10, 10) for n in SCHEMA}
        expected = c - e.eval(s)
        assert math.isclose(atom.h.eval(s), expected, rel_tol=1e-12, abs_tol=1e-12)
