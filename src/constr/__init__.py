"""Toolkit for conditional strategic reasoning over concurrent game models:
parsing, model checking, bisimulations, distinguishing formulas and
empirical axiom validation."""

from .model import (
    Coalition,
    GameModel,
    InputError,
    JointAction,
    ParseError,
    Violation,
    disjoint_union,
    joint_actions,
    merge,
    outcome_set,
    validate_model,
)
from .formula import (
    And,
    Atom,
    Formula,
    Not,
    Obeta,
    Oalpha,
    Oc,
    TOP,
    Top,
    bottom,
    box,
    cond_box,
    cond_diamond,
    iff,
    implies,
    or_,
    parse_formula,
    random_formula,
    render,
)
from .textio import parse_model, parse_relation, render_model, render_relation
from .semantics import Extension, explain, extension, holds
from .bisim import (
    BisimFailure,
    BisimVerdict,
    check_cl_bisim,
    check_constr_bisim,
    distinguishing_formula,
    greatest_cl_bisim,
    greatest_constr_bisim,
)
from .validity import (
    GeneratorBounds,
    SCHEMES,
    SuiteConfig,
    check_scheme,
    enumerate_models,
    model_count,
    random_model,
    run_suite,
)
from .corpus import FIXTURES, corpus_models, run_corpus

__version__ = "0.1.0"
