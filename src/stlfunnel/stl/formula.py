"""Typed AST for the supported temporal-logic fragment.

The fragment: Boolean combinations of predicate atoms at the bottom, a single
layer of time-bounded temporal operators (F, G, or the combined F-G form)
above them, and a top-level conjunction of those temporal formulas. Atoms are
canonical: an atom holds iff its expression h evaluates to a value >= 0.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .expr import Expr

__all__ = [
    "Interval", "Formula", "TrueFormula", "Atom", "Not", "And", "Or",
    "F", "G", "FG", "FragmentClass", "FragmentError", "classify_fragment",
    "conjunction_class", "formula_horizon", "is_nontemporal", "top_level_conjuncts",
    "temporal_conjuncts", "TemporalConjunct",
]


class FragmentError(ValueError):
    """Formula is grammatical but falls outside the supported fragment."""


@dataclass(frozen=True)
class Interval:
    """Discrete time interval [lo, hi] in environment steps, both inclusive."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo < 0 or self.hi < 0:
            raise ValueError(f"interval bounds must be nonnegative, got [{self.lo},{self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"interval lower bound exceeds upper bound: [{self.lo},{self.hi}]")

    def pretty(self) -> str:
        return f"[{self.lo},{self.hi}]"


class Formula:
    """Base class for formula nodes."""

    def pretty(self) -> str:
        raise NotImplementedError

    def __str__(self):
        return self.pretty()


@dataclass(frozen=True)
class TrueFormula(Formula):
    def pretty(self):
        return "True"


@dataclass(frozen=True)
class Atom(Formula):
    """Canonical predicate: holds iff h(s) >= 0."""

    h: Expr

    def pretty(self):
        return f"{self.h.pretty()} >= 0"


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula

    def pretty(self):
        return f"!({self.arg.pretty()})"


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula

    def pretty(self):
        return f"({self.left.pretty()} & {self.right.pretty()})"


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula

    def pretty(self):
        return f"({self.left.pretty()} | {self.right.pretty()})"


@dataclass(frozen=True)
class F(Formula):
    interval: Interval
    body: Formula

    def pretty(self):
        return f"F{self.interval.pretty()}({self.body.pretty()})"


@dataclass(frozen=True)
class G(Formula):
    interval: Interval
    body: Formula

    def pretty(self):
        return f"G{self.interval.pretty()}({self.body.pretty()})"


@dataclass(frozen=True)
class FG(Formula):
    """F over [a, c1] of G over [c2, b]: the body must hold on some window
    [t'+c2, t'+b] with t' in [a, c1]."""

    a: int
    c1: int
    c2: int
    b: int
    body: Formula

    def __post_init__(self):
        if not (0 <= self.a <= self.c1):
            raise ValueError(f"FG requires 0 <= a <= c1, got a={self.a}, c1={self.c1}")
        if not (0 <= self.c2 <= self.b):
            raise ValueError(f"FG requires 0 <= c2 <= b, got c2={self.c2}, b={self.b}")

    def pretty(self):
        return f"F[{self.a},{self.c1}]G[{self.c2},{self.b}]({self.body.pretty()})"


class FragmentClass(enum.Enum):
    NON_TEMPORAL = "non-temporal"
    SINGLE_TEMPORAL = "single-temporal"
    SEQUENTIAL_CONJUNCTION = "sequential-conjunction"
    OVERLAPPING_CONJUNCTION = "overlapping-conjunction"


def is_nontemporal(f: Formula) -> bool:
    if isinstance(f, (TrueFormula, Atom)):
        return True
    if isinstance(f, Not):
        return is_nontemporal(f.arg)
    if isinstance(f, (And, Or)):
        return is_nontemporal(f.left) and is_nontemporal(f.right)
    return False


def formula_horizon(f: Formula) -> int:
    """Largest time offset the formula can look ahead from its evaluation step."""
    if isinstance(f, (TrueFormula, Atom)):
        return 0
    if isinstance(f, Not):
        return formula_horizon(f.arg)
    if isinstance(f, (And, Or)):
        return max(formula_horizon(f.left), formula_horizon(f.right))
    if isinstance(f, (F, G)):
        return f.interval.hi + formula_horizon(f.body)
    if isinstance(f, FG):
        return f.c1 + f.b + formula_horizon(f.body)
    raise TypeError(f"unknown formula node {type(f).__name__}")


@dataclass(frozen=True)
class TemporalConjunct:
    """One temporal operator at the top level of a conjunction.

    footprint is the span of steps the operator can obligate when the whole
    formula is evaluated at step 0: [a, b] for F/G and [a, c1+b] for FG.
    """

    kind: str  # "F" | "G" | "FG"
    footprint: Interval
    body: Formula
    node: Formula


def top_level_conjuncts(f: Formula) -> list[Formula]:
    if isinstance(f, And):
        return top_level_conjuncts(f.left) + top_level_conjuncts(f.right)
    return [f]


def _as_temporal_conjunct(f: Formula) -> TemporalConjunct:
    if isinstance(f, F) or isinstance(f, G):
        if not is_nontemporal(f.body):
            raise FragmentError(
                f"nested temporal operator inside {type(f).__name__}{f.interval.pretty()} "
                "is outside the fragment")
        return TemporalConjunct(
            kind=type(f).__name__, footprint=f.interval, body=f.body, node=f)
    if isinstance(f, FG):
        if not is_nontemporal(f.body):
            raise FragmentError("nested temporal operator inside F-G form is outside the fragment")
        return TemporalConjunct(
            kind="FG", footprint=Interval(f.a, f.c1 + f.b), body=f.body, node=f)
    if is_nontemporal(f):
        raise FragmentError(
            f"top-level conjunct {f.pretty()} has no temporal operator; the fragment "
            "needs each conjunct to be one F, G or F-G operator")
    # f is one top-level conjunct, so no And: an Or or a Not over a temporal operator.
    kind = "disjunction" if isinstance(f, Or) else "negation"
    raise FragmentError(
        f"top-level conjunct {f.pretty()} is a {kind} over a temporal operator, "
        "which is outside the fragment")


def temporal_conjuncts(f: Formula) -> list[TemporalConjunct]:
    """Top-level temporal conjuncts in source order; raises FragmentError if
    the formula is not a conjunction of temporal operators."""
    return [_as_temporal_conjunct(c) for c in top_level_conjuncts(f)]


def classify_fragment(f: Formula) -> FragmentClass:
    """Classify a parsed formula against the supported fragment.

    A formula with a temporal operator is classified from its
    temporal_conjuncts, which raise FragmentError for structures outside the
    fragment: disjunction or negation over temporal operators, nesting of
    temporal operators beyond the single F-G form, or a conjunct with no
    temporal operator.
    """
    if is_nontemporal(f):
        return FragmentClass.NON_TEMPORAL
    return conjunction_class(temporal_conjuncts(f))


def conjunction_class(conjuncts: list[TemporalConjunct]) -> FragmentClass:
    """Class of a formula whose temporal_conjuncts are conjuncts."""
    if len(conjuncts) == 1:
        return FragmentClass.SINGLE_TEMPORAL
    ordered = sorted(conjuncts, key=lambda c: (c.footprint.lo, c.footprint.hi))
    sequential = all(
        ordered[i].footprint.hi < ordered[i + 1].footprint.lo
        for i in range(len(ordered) - 1))
    if sequential:
        return FragmentClass.SEQUENTIAL_CONJUNCTION
    return FragmentClass.OVERLAPPING_CONJUNCTION
