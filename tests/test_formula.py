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


def test_rendering_deep_formulas():
    # far deeper than the interpreter's recursion limit
    f = p
    for _ in range(10_000):
        f = Not(f)
    assert render(f) == "~" * 10_000 + "p"
    right = left = p
    for _ in range(10_000):
        right, left = And(q, right), And(left, q)
    assert render(right) == "q & (" * 9_999 + "q & p" + ")" * 9_999
    assert render(left) == "p" + " & q" * 10_000
    strategic = p
    for _ in range(10_000):
        strategic = Oc(A, B, Not(And(strategic, q)), TOP)
    assert render(strategic) == "Oc[{a},{b}](~(" * 10_000 + "p" + " & q), true)" * 10_000


def test_rendering_a_non_formula_raises_type_error():
    for f in ("p", Not("p"), And(p, 5)):
        with pytest.raises(TypeError, match="^not a formula: "):
            render(f)


@pytest.mark.parametrize("text", [
    "", "p &", "Oc[{a}](p, q)", "Oc[{a},{b}](p)", "[{a} p", "p q",
    "Oc[{a},{b}](p, q) q", "<<{a}>>x(p, q)", "{a}", "p & (q", "Oc[{a,a},{b}](p, q)",
])
def test_syntax_errors(text):
    with pytest.raises(ParseError):
        parse_formula(text)


@pytest.mark.parametrize("text", ["(" * 300 + "p" + ")" * 300], ids=["parens300"])
def test_deep_nesting_is_a_parse_error(text):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_formula(text)


@pytest.mark.parametrize("depth", [1000, 10_000], ids=["not1000", "not10000"])
def test_deep_prefix_runs_parse(depth):
    # a run of prefixes is read in a loop, so its length is not bounded by
    # the recursion limit; rendered text is compared, since == on two
    # unshared chains this deep recurses
    text = "~" * depth + "p"
    assert render(parse_formula(text)) == text
    want = p
    for i in range(depth):
        want = Not(want) if i % 3 else box(("a", "b")[i % 2:], want)
    mixed = "".join("~" if i % 3 else "[" + ("{a,b}", "{b}")[i % 2] + "]"
                    for i in reversed(range(depth)))
    assert render(parse_formula(mixed + "p")) == render(want)


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


def _doubling(leaf, depth):
    f = leaf
    for _ in range(depth):
        f = And(f, f)
    return f


def test_unshared_trees_compare_structurally():
    # built twice from fresh atoms: no node is shared between the two
    f1, f2 = _doubling(Atom("p"), 12), _doubling(Atom("p"), 12)
    assert f1 == f2 and hash(f1) == hash(f2)
    assert f1 != _doubling(Atom("q"), 12)
    g1 = Obeta(A, B, Not(f1), f1)
    g2 = Obeta(A, B, Not(f2), f2)
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1 != Oalpha(A, B, Not(f2), f2)


def test_formulas_sharing_deep_subformulas_compare_at_once():
    # doubling depth 64: a tree of 2**65 - 1 nodes over 65 distinct ones;
    # each pair below is built separately over that one shared DAG
    f = _doubling(p, 64)
    pairs = [(And(f.left, f.right), f), (Not(f), Not(f)), (And(f, q), And(f, q)),
             (Oc(A, B, f, f), Oc(A, B, f, f)), (Obeta(A, B, q, f), Obeta(A, B, q, f))]
    for x, y in pairs:
        assert x is not y
        assert x == y and hash(x) == hash(y)
    assert And(f, p) != And(f, q)
    assert Oc(A, B, f, p) != Oalpha(A, B, f, p)
