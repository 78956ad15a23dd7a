"""Formula parsing, printing, desugaring and structural equality."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from constr.formula import (
    And,
    Atom,
    Not,
    Obeta,
    Oalpha,
    Oc,
    TOP,
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
from constr.model import ParseError

p, q = Atom("p"), Atom("q")
A = frozenset("a")
B = frozenset("b")


def test_direct_constructors():
    assert parse_formula("Oc[{a},{b}](p, q)") == Oc(A, B, p, q)
    assert parse_formula("Oa[{},{a,b}](true, p)") == Oalpha(frozenset(), A | B, TOP, p)
    assert parse_formula("Ob[{a},{}](p, q)") == Obeta(A, frozenset(), p, q)


def test_box_desugars_to_proactive_form():
    assert parse_formula("[{b}] q") == Oalpha(frozenset(), B, TOP, q)
    assert parse_formula("[{}] p") == box((), p)


def test_boolean_desugaring():
    assert parse_formula("p -> q") == Not(And(p, Not(q)))
    assert parse_formula("p | q") == or_(p, q)
    assert parse_formula("p <-> q") == iff(p, q)
    assert parse_formula("false") == Not(TOP)
    assert bottom() == Not(TOP)


def test_conditional_forms_desugar():
    assert parse_formula("<<{a}>>b(p, q)") == Obeta(A, frozenset(), p, q)
    assert parse_formula("<<{a}>>d(p, q)") == Not(Obeta(A, frozenset(), p, Not(q)))
    assert cond_box(A, p, q) == Obeta(A, frozenset(), p, q)
    assert cond_diamond(A, p, q) == Not(Obeta(A, frozenset(), p, Not(q)))


def test_precedence():
    assert parse_formula("~p & q") == And(Not(p), q)
    assert parse_formula("~(p & q)") == Not(And(p, q))
    assert parse_formula("p & q | p") == or_(And(p, q), p)
    assert parse_formula("p | q -> p & q") == implies(or_(p, q), And(p, q))
    # implication is right-associative, box binds like negation
    assert parse_formula("p -> q -> p") == implies(p, implies(q, p))
    assert parse_formula("[{a}] p & q") == And(box(A, p), q)


def test_rendering_examples():
    assert render(Oc(A, B, p, q)) == "Oc[{a},{b}](p, q)"
    assert render(Not(Not(p))) == "~~p"
    assert render(Oc(frozenset(), frozenset(), TOP, p)) == "Oc[{},{}](true, p)"
    assert render(And(p, And(q, p))) == "p & (q & p)"
    assert render(And(And(p, q), p)) == "p & q & p"


@pytest.mark.parametrize("text", [
    "", "p &", "Oc[{a}](p, q)", "Oc[{a},{b}](p)", "[{a} p", "p q",
    "Oc[{a},{b}](p, q) q", "<<{a}>>x(p, q)", "{a}", "p & (q", "Oc[{a,a},{b}](p, q)",
])
def test_syntax_errors(text):
    with pytest.raises(ParseError):
        parse_formula(text)


@pytest.mark.parametrize("text", [
    "~" * 1000 + "p", "~" * 10_000 + "p", "(" * 300 + "p" + ")" * 300,
], ids=["not1000", "not10000", "parens300"])
def test_deep_nesting_is_a_parse_error(text):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_formula(text)


def test_reserved_words_are_not_atoms():
    with pytest.raises(ParseError):
        parse_formula("Oc & p")


def test_round_trip_seeded_sample():
    rng = random.Random(7)
    for _ in range(500):
        f = random_formula(rng, ["p", "q", "r"], ["a", "b", "c"], depth=4)
        assert parse_formula(render(f)) == f


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(1, 4))
def test_round_trip_property(seed, depth):
    rng = random.Random(seed)
    f = random_formula(rng, ["p", "q"], ["a", "b"], depth=depth)
    assert parse_formula(render(f)) == f


def test_structural_equality_and_hash():
    f1 = parse_formula("Oc[{a},{b}](p, q) & ~p")
    f2 = parse_formula("Oc[{a},{b}](p, q) & ~p")
    assert f1 == f2 and hash(f1) == hash(f2)
    assert f1 != parse_formula("Oc[{b},{a}](p, q) & ~p")
    assert len({f1, f2}) == 1
