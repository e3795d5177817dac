from .expr import Abs, Add, Const, Expr, Neg, Norm2, NormInf, Scale, Sub, Var
from .formula import (
    FG, And, Atom, F, Formula, FragmentClass, FragmentError, G, Interval, Not,
    Or, TrueFormula, classify_fragment, formula_horizon, is_nontemporal,
    temporal_conjuncts, top_level_conjuncts,
)
from .parser import ParseError, parse_formula
