"""Model and relation text formats: parsing, rendering, round-trips."""

import pytest

from constr.corpus import FIXTURES, fixture_text
from constr.model import ParseError
from constr.textio import parse_model, parse_relation, render_model, render_relation
from constr.validity import GeneratorBounds, random_model


def test_fixture_files_round_trip():
    for f in FIXTURES:
        m = parse_model(fixture_text(f.model_file))
        again = parse_model(render_model(m))
        assert again.agents == m.agents
        assert again.states == m.states
        assert again.avail == m.avail
        assert again.outcome == m.outcome
        assert again.valuation == m.valuation


def test_random_models_round_trip():
    for i in range(80):
        m = random_model(GeneratorBounds(agents=1 + i % 3, states=1 + i % 4, actions=2), i)
        assert parse_model(render_model(m)) == m


def test_render_is_idempotent():
    text = fixture_text("exA.cgm")
    once = render_model(parse_model(text))
    assert render_model(parse_model(once)) == once


def test_comments_and_blanks_ignored():
    m = parse_model(
        "# header\n"
        "agents: a\n"
        "\n"
        "states: s0  # trailing comment\n"
        "actions s0 a: a1\n"
        "go s0 (a1) -> s0\n")
    assert m.states == ("s0",)


@pytest.mark.parametrize("line,fragment", [
    ("go s0 (a1,b1) -> s1\ngo s0 (a1,b1) -> s0", "duplicate go"),
    ("labels s9: p", "unknown state"),
    ("actions s0 z: z1", "unknown agent"),
    ("actions s1 a: a1 a1", "repeated action"),
    ("go s0 (a1) -> s1", "one action per agent"),
    ("nonsense here", "unrecognized"),
])
def test_parse_errors(line, fragment):
    base = "agents: a b\nstates: s0 s1\nactions s0 a: a1\nactions s0 b: b1\n"
    with pytest.raises(ParseError) as exc:
        parse_model(base + line + "\n")
    assert fragment in str(exc.value)


BASE = "agents: a b\nstates: s0 s1\nactions s0 a: a1\nactions s0 b: b1\n"


@pytest.mark.parametrize("text,message", [
    ("agents: a\nagents: b\n", "line 2: duplicate agents line"),
    ("agents:\n", "line 1: agents line declares no agents"),
    ("agents: a b a\n", "line 1: repeated agent name"),
    ("states: s0\n\nstates: s1\n", "line 3: duplicate states line"),
    ("states:  # none\n", "line 1: states line declares no states"),
    ("states: s0 s1 s0\n", "line 1: repeated state name"),
    ("agents: a\nlabels s0: p\nstates: s0\n",
     "line 2: agents: and states: must be declared first"),
    (BASE + "go s0 a1,b1 -> s1\n", "line 5: expected 'go STATE (a1,b1,...) -> STATE'"),
    (BASE + "go s9 (a1,b1) -> s1\n", "line 5: unknown state 's9'"),
    (BASE + "go s0 (a1,b1) -> s9\n", "line 5: unknown state 's9'"),
    (BASE + "go s0 (a1) -> s1\n", "line 5: profile must list one action per agent (2 expected)"),
    (BASE + "go s0 (a1, ) -> s1\n",
     "line 5: profile must list one action per agent (2 expected)"),
    (BASE + "go s0 (a1,b1) -> s1\ngo s0 ( a1 , b1 ) -> s0\n",
     "line 6: duplicate go line for (a1,b1) at s0"),
    (BASE + "labels s0 p\n", "line 5: labels line needs a ':'"),
    (BASE + "labels s9: p\n", "line 5: unknown state 's9'"),
    (BASE + "labels s1: p\nlabels s1: q\n", "line 6: duplicate labels line for s1"),
    (BASE + "actions s1 a a1\n", "line 5: actions line needs a ':'"),
    (BASE + "actions s1: a1\n", "line 5: expected 'actions STATE AGENT: ...'"),
    (BASE + "actions s9 a: a1\n", "line 5: unknown state 's9'"),
    (BASE + "actions s1 z: z1\n", "line 5: unknown agent 'z'"),
    (BASE + "actions s0 a: a2\n", "line 5: duplicate actions line for s0 a"),
    (BASE + "actions s1 a: a1 a2 a1\n", "line 5: repeated action name"),
    (BASE + "nonsense here  # trailing\n", "line 5: unrecognized line 'nonsense here'"),
    ("# only a comment\n", "model text must declare agents: and states:"),
])
def test_parse_error_texts(text, message):
    with pytest.raises(ParseError) as exc:
        parse_model(text)
    assert str(exc.value) == message


@pytest.mark.parametrize("text,message", [
    ("s0 ~ t0\ns0 t0\n", "line 2: expected 's ~ t'"),
    ("s0 ~ t0 ~ t1\n", "line 1: expected 's ~ t'"),
    ("s0 ~  # no right side\n", "line 1: expected 's ~ t'"),
    ("s0 ~ zz\n", "line 1: unknown state 'zz'"),
])
def test_relation_error_texts(text, message):
    m = parse_model(fixture_text("exA.cgm"))
    with pytest.raises(ParseError) as exc:
        parse_relation(text, m)
    assert str(exc.value) == message


def test_large_random_model_round_trip():
    m = random_model(GeneratorBounds(agents=4, states=200, actions=2, atoms=("p", "q")), 7)
    text = render_model(m)
    assert len(text.splitlines()) > 200 * 16
    again = parse_model(text)
    assert again == m
    assert render_model(again) == text


def test_declarations_must_come_first():
    with pytest.raises(ParseError):
        parse_model("labels s0: p\nagents: a\nstates: s0\n")


def test_duplicate_declarations_rejected():
    with pytest.raises(ParseError):
        parse_model("agents: a\nagents: b\nstates: s0\n")


def test_relation_round_trip():
    text = "s0 ~ t0\ns1 ~ t1\n"
    rel = parse_relation(text)
    assert rel == frozenset({("s0", "t0"), ("s1", "t1")})
    assert parse_relation(render_relation(rel)) == rel


def test_relation_checks_states_against_model():
    m = parse_model(fixture_text("exA.cgm"))
    with pytest.raises(ParseError):
        parse_relation("s0 ~ zz\n", m)


def test_relation_bad_syntax():
    with pytest.raises(ParseError):
        parse_relation("s0 t0\n")
