"""Model and relation text formats: parsing, rendering, round-trips."""

import random

import pytest

from constr.corpus import FIXTURES, fixture_text
from constr.formula import parse_formula
from constr.model import GameModel, InputError, ParseError, validate_model
from constr.textio import parse_model, parse_relation, render_model, render_relation
from constr.validity import GeneratorBounds, random_model

from oracles import irregular_model, reference_parse_model, reference_validate_model


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


def test_render_keeps_every_entry_of_an_invalid_model():
    # as many product lines as entries, but repeated states or actions
    # print some entries twice: the entries off the product still follow
    repeated_states = GameModel(
        ("a",), ("s0", "s1", "s0", "s0"), {("s0", "a"): ("a1",), ("s1", "a"): ("a1", "a2")},
        {("s0", ("a1",)): "s1", ("s1", ("a1",)): "s0", ("zz", ("a1",)): "s0",
         ("s1", ("a3",)): "s1"},
        {"p": frozenset({"s1"})})
    assert render_model(repeated_states) == (
        "agents: a\nstates: s0 s1 s0 s0\nlabels s1: p\nactions s0 a: a1\n"
        "actions s1 a: a1 a2\nactions s0 a: a1\nactions s0 a: a1\ngo s0 (a1) -> s1\n"
        "go s1 (a1) -> s0\ngo s0 (a1) -> s1\ngo s0 (a1) -> s1\ngo s1 (a3) -> s1\n"
        "go zz (a1) -> s0\n")
    repeated_actions = GameModel(
        ("a", "b"), ("s0",), {("s0", "a"): ("a1", "a1"), ("s0", "b"): ("b1",)},
        {("s0", ("a1", "b1")): "s0", ("s0", ("a2", "b1")): "s0"}, {})
    assert render_model(repeated_actions) == (
        "agents: a b\nstates: s0\nactions s0 a: a1 a1\nactions s0 b: b1\n"
        "go s0 (a1,b1) -> s0\ngo s0 (a1,b1) -> s0\ngo s0 (a2,b1) -> s0\n")


def test_comments_and_blanks_ignored():
    m = parse_model(
        "# header\n"
        "agents: a\n"
        "\n"
        "states: s0 s1  # trailing comment\n"
        "labels s1: p # comment\n"
        "actions s0 a: a1\n"
        "actions s1 a: a1 a2 # comment\n"
        "go s0 (a1) -> s0\n")
    assert m.states == ("s0", "s1")
    # canonical lines but for a trailing comment are read without it
    assert m.valuation == {"p": frozenset({"s1"})}
    assert m.avail == {("s0", "a"): ("a1",), ("s1", "a"): ("a1", "a2")}


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
    ("states: s0\nlabels s0: p\nagents: a\n",
     "line 2: agents: and states: must be declared first"),
    ("states: s0\nactions s0 a: a1\nagents: a\n",
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
    (BASE + "actions s1 a:\nactions s1 b\n", "line 6: actions line needs a ':'"),
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


@pytest.mark.parametrize("parse", [parse_model, parse_relation, parse_formula])
@pytest.mark.parametrize("text", [b"agents: a\n", None], ids=["bytes", "None"])
def test_text_that_is_not_a_str_is_an_input_error(parse, text):
    with pytest.raises(InputError, match="text must be a str"):
        parse(text)


def test_equal_profiles_and_action_lists_share_one_tuple():
    m = parse_model(render_model(random_model(GeneratorBounds(3, 20, 2), 5)))
    profiles = [profile for _, profile in m.outcome]
    assert len({id(p) for p in profiles}) == len(set(profiles)) == 8
    acts = list(m.avail.values())
    assert len({id(a) for a in acts}) == len(set(acts)) == 3


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


# -- differential test against the line-by-line referees ---------------

# blanks the parser reads as whitespace: tab, two spaces, and Unicode
# spaces that str.strip(), str.split() and the go-line pattern's \s all take
_BLANKS = ("\t", "  ", "\u00a0", "\u2003", "\u3000", "\x1f")


def _swap_token(line, pos, new):
    tokens = line.split(" ")
    if len(tokens) > pos:
        tokens[pos] = new
    return [" ".join(tokens)]


def _blank(line, rng):
    spaces = [i for i, ch in enumerate(line) if ch == " "]
    if not spaces:
        return [line]
    i = rng.choice(spaces)
    return [line[:i] + rng.choice(_BLANKS) + line[i + 1:]]


_MUTATIONS = (
    _blank,
    lambda line, rng: [rng.choice(_BLANKS) + line],
    lambda line, rng: [line + rng.choice((" # note", "# note", "\t#"))],
    lambda line, rng: [line.replace(*rng.choice((("(", "(#"), (",", "#,"), (")", "#)"),
                                                  (",", ")#("))), 1)],
    lambda line, rng: ["go\t" + line[3:] if line.startswith("go ") else line],
    lambda line, rng: [line.replace(",", ", ")],
    lambda line, rng: [line.replace("(", "( ").replace(")", " )")],
    lambda line, rng: [line.replace(" -> ", rng.choice(("->", " ->", "-> ")))],
    lambda line, rng: [line.replace(",", ",,", 1)],
    lambda line, rng: [line.replace(")", ",a1)")],
    lambda line, rng: [line.replace(",", "", 1)],
    lambda line, rng: [line.replace("(", "((", 1)],
    # five tokens with `->` fourth that are not `go S (a1,b1,...) -> T`
    lambda line, rng: [line.replace("(", "x(", 1)],
    lambda line, rng: [line.replace(",", ",(", 1)],
    lambda line, rng: [line.replace(" -> ", "->").replace("(", "( ").replace(")", " )")],
    # a profile read across tokens, then a line whose third token is its first
    lambda line, rng: [line.replace(",", " -> x,", 1).replace(") -> ", ")->"),
                       line.partition(",")[0] + " -> s0"],
    lambda line, rng: [line + rng.choice(_BLANKS)],
    lambda line, rng: [line, "go" + rng.choice(_BLANKS)],
    lambda line, rng: _swap_token(line, 1, "zz"),
    lambda line, rng: _swap_token(line, 4, rng.choice(("zz", "s0"))),
    lambda line, rng: [line, line],
    lambda line, rng: [line, line.rpartition(" ")[0] + " s0"],
    lambda line, rng: [],
)


def _variants(text, rng, count):
    """The text, its `\\r\\n` copy, its go lines moved before every actions
    line, and `count` copies with one to three lines respelled or corrupted."""
    lines = text.splitlines()
    head = [ln for ln in lines if not ln.startswith(("actions ", "go "))]
    yield text
    yield text.replace("\n", "\r\n")
    yield "\n".join(head + [ln for ln in lines if ln.startswith("go ")]
                    + [ln for ln in lines if ln.startswith("actions ")]) + "\n"
    for _ in range(count):
        out = list(lines)
        for _ in range(rng.randint(1, 3)):
            if out:
                i = rng.randrange(len(out))
                out[i:i + 1] = rng.choice(_MUTATIONS)(out[i], rng)
        yield "\n".join(out) + "\n"


def _parsed(parse, text):
    try:
        m = parse(text)
    except ParseError as exc:
        return str(exc), None
    fields = (m.agents, m.states, list(m.avail.items()), list(m.outcome.items()),
              list(m.valuation.items()))
    return fields, m


def test_parser_and_validation_agree_with_line_by_line_referees():
    rng = random.Random(20261019)
    texts = [fixture_text(f.model_file) for f in FIXTURES]
    for k in range(20):
        bounds = GeneratorBounds(agents=rng.randint(1, 4), states=rng.randint(1, 50),
                                 actions=rng.randint(1, 2), atoms=("p", "q"))
        texts.append(render_model(random_model(bounds, k)))
    texts += [render_model(irregular_model(k, agentless_state=k % 2 == 1)) for k in range(6)]
    checked = rejected = 0
    for text in texts:
        for variant in _variants(text, rng, 20):
            mine, model = _parsed(parse_model, variant)
            ref, ref_model = _parsed(reference_parse_model, variant)
            assert mine == ref, variant
            checked += 1
            if model is None:
                rejected += 1
            else:
                assert validate_model(model) == reference_validate_model(ref_model), variant
    # both outcomes are exercised: texts that parse and texts that do not
    assert 0.2 * checked < rejected < 0.8 * checked
