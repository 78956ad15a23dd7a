"""Game model structure: validation, joint actions, merge, outcome sets."""

import random

import pytest

from constr.bisim import distinguishing_formula, greatest_cl_bisim
from constr.corpus import fixture_model, fixture_text
from constr.formula import parse_formula
from constr.model import (
    GameModel,
    InputError,
    JointAction,
    coalitions,
    disjoint_union,
    joint_actions,
    merge,
    outcome_set,
    validate_model,
)
from constr.semantics import holds
from constr.textio import parse_model, render_model
from constr.validity import GeneratorBounds, random_model

from oracles import (
    brute_merge,
    brute_outcome_set,
    irregular_model,
    joint_assignments,
    reference_validate_model,
)


def ja(state, **moves):
    return JointAction.of(state, moves)


def test_equal_models_hash_equal():
    for name in ("ex1", "exA", "antimono"):
        m = fixture_model(name)
        copy = parse_model(render_model(m))
        assert copy == m and copy is not m, name
        assert hash(copy) == hash(m), name
        assert len({m, copy}) == 1, name


def test_coalitions_canonical_order():
    assert coalitions(("a", "b", "c")) == (
        frozenset(), frozenset("a"), frozenset("b"), frozenset("c"),
        frozenset("ab"), frozenset("ac"), frozenset("bc"), frozenset("abc"))


def test_corpus_models_validate_clean():
    for name in ("ex1", "ex2", "exA", "exB", "exC", "antimono"):
        assert validate_model(fixture_model(name)) == []


def test_empty_action_set_reported():
    m = parse_model("agents: a\nstates: s0\n")
    kinds = {v.kind for v in validate_model(m)}
    assert "empty action set" in kinds


def test_missing_outcome_reported():
    # drop one edge from the first corpus model
    text = fixture_text("ex1.cgm").replace("go s0 (a2,b1) -> s3\n", "")
    m = parse_model(text)
    report = validate_model(m)
    assert any(v.kind == "outcome not total" and v.state == "s0"
               and v.profile == ("a2", "b1") for v in report)


def test_missing_outcomes_reported_in_sorted_order():
    # availability order is not sorted order: a2 and b3 are declared first
    m = parse_model("agents: a b\nstates: s0 s1\n"
                    "actions s0 a: a2 a1\nactions s0 b: b3 b2 b1\n"
                    "actions s1 a: a1\nactions s1 b: b1\n"
                    "go s0 (a2,b1) -> s1\n")
    report = [(v.state, v.profile) for v in validate_model(m) if v.kind == "outcome not total"]
    assert report == [("s0", ("a1", "b1")), ("s0", ("a1", "b2")), ("s0", ("a1", "b3")),
                      ("s0", ("a2", "b2")), ("s0", ("a2", "b3")), ("s1", ("a1", "b1"))]


def test_unavailable_profile_reported():
    text = fixture_text("ex1.cgm") + "go s1 (a9,b1) -> s1\n"
    m = parse_model(text)
    assert any(v.kind == "unavailable profile" for v in validate_model(m))


def _malformed_fields(model, rng):
    """The model's fields with one to three structural defects."""
    agents, states = list(model.agents), list(model.states)
    avail, outcome = dict(model.avail), dict(model.outcome)
    valuation = dict(model.valuation)
    for _ in range(rng.randint(1, 3)):
        s, profile = rng.choice(list(model.outcome) or [(model.states[0], ())])
        agent = rng.choice(model.agents)
        kind = rng.randrange(13)
        if kind == 0:
            outcome.pop((s, profile), None)
        elif kind == 1:
            outcome[(s, profile)] = "zz"
        elif kind == 2:
            outcome[("zz", profile)] = s
        elif kind == 3:
            outcome[(s, profile[:-1] + ("x9",))] = s
        elif kind == 4:
            outcome[(s, profile + ("x9",))] = s
        elif kind == 5:
            avail[(s, agent)] = avail.get((s, agent), ()) + avail.get((s, agent), ())[:1]
        elif kind == 6:
            avail[(s, agent)] = avail.get((s, agent), ()) + ("x9",)
        elif kind == 7:
            avail[(s, agent)] = ()
        elif kind == 8:
            states.append(s)
        elif kind == 9:
            avail[("zz", agent)] = avail[(s, "zz")] = ("x1",)
        elif kind == 10:
            valuation["p"] = valuation.get("p", frozenset()) | {"zz"}
        elif kind == 11:
            agents.append(agent)
        else:
            del (agents if rng.random() < 0.5 else states)[:]
    return tuple(agents), tuple(states), avail, outcome, valuation


def test_validation_agrees_with_entry_by_entry_referee():
    rng = random.Random(1019)
    bases = [random_model(GeneratorBounds(rng.randint(1, 3), rng.randint(1, 6), 2), k)
             for k in range(20)]
    bases += [irregular_model(k, agentless_state=k % 3 == 0) for k in range(20)]
    kinds = set()
    for base in bases:
        for _ in range(10):
            fields = _malformed_fields(base, rng)
            report = validate_model(GameModel(*fields))
            assert report == reference_validate_model(GameModel(*fields)), fields
            kinds |= {v.kind for v in report}
    assert kinds == {"duplicate agent", "duplicate state", "no states", "no agents",
                     "unknown state", "unknown agent", "duplicate action",
                     "empty action set", "unavailable profile", "unknown target",
                     "outcome not total"}


def test_unknown_target_is_parse_error():
    with pytest.raises(InputError):
        parse_model("agents: a\nstates: s0\nactions s0 a: a1\ngo s0 (a1) -> s9\n")


def _undeclared_successor_model():
    return GameModel(agents=("a",), states=("s0", "s1"),
                     avail={("s0", "a"): ("a1",), ("s1", "a"): ("a1",)},
                     outcome={("s0", ("a1",)): "zz", ("s1", ("a1",)): "s0"},
                     valuation={"p": frozenset({"s0"})})


@pytest.mark.parametrize("entry", [
    lambda m: holds(m, "s0", parse_formula("Oc[{a},{}](p, p)")),
    greatest_cl_bisim,
    lambda m: distinguishing_formula(m, "s0", "s1"),
], ids=["holds", "greatest_cl_bisim", "distinguishing_formula"])
def test_undeclared_successor_is_input_error(entry):
    # a model built in code skips the parser's target check
    with pytest.raises(InputError, match="outcome at s0 leads to undeclared state 'zz'"):
        entry(_undeclared_successor_model())


def test_joint_actions_shapes():
    m = fixture_model("ex2")
    singles = joint_actions(m, frozenset("a"), "s0")
    assert {j.assignment["a"] for j in singles} == {"a1", "a2", "a3"}
    assert joint_actions(m, frozenset(), "s0") == {ja("s0")}
    m1 = fixture_model("ex1")
    assert len(joint_actions(m1, frozenset("ab"), "s0")) == 4


def test_joint_actions_rejects_unknowns():
    m = fixture_model("ex1")
    with pytest.raises(InputError):
        joint_actions(m, frozenset("a"), "nowhere")
    with pytest.raises(InputError):
        joint_actions(m, frozenset("z"), "s0")


def test_merge_rules():
    left = ja("s0", a="a1")
    right = ja("s0", b="b2")
    assert merge(left, right) == ja("s0", a="a1", b="b2")
    # second argument contained in the first: the first wins outright
    big = ja("s0", a="a1", b="b1")
    assert merge(big, ja("s0", b="b2")) == big
    # overlap resolves in favour of the first argument
    overlapped = merge(ja("s0", a="a1"), ja("s0", a="a2", b="b1"))
    assert overlapped.assignment == {"a": "a1", "b": "b1"}
    assert merge(left, left) == left
    with pytest.raises(InputError):
        merge(ja("s0", a="a1"), ja("s1", b="b1"))


def test_outcome_set_matches_figures():
    m = fixture_model("ex1")
    assert outcome_set(m, "s0", ja("s0", a="a1")) == {"s1", "s2"}
    assert outcome_set(m, "s0", ja("s0")) == {"s1", "s2", "s3", "s4"}
    assert outcome_set(m, "s0", ja("s0", a="a1", b="b2")) == {"s2"}


def test_outcome_set_input_errors():
    m = fixture_model("ex1")
    with pytest.raises(InputError):
        outcome_set(m, "s1", ja("s0", a="a1"))
    with pytest.raises(InputError):
        outcome_set(m, "s0", ja("s0", a="a7"))


def test_outcome_set_equals_brute_union():
    for i in range(60):
        m = random_model(GeneratorBounds(agents=2, states=1 + i % 4, actions=2), 500 + i)
        for state in m.states:
            for coalition in (frozenset(), frozenset("a"), frozenset("b"), frozenset("ab")):
                for assignment in joint_assignments(m, state, coalition):
                    got = outcome_set(m, state, JointAction.of(state, assignment))
                    assert got == brute_outcome_set(m, state, assignment)


def test_outcome_tables_equal_brute_force_tables():
    # 1-3 actions per (state, agent), every (A, B) including overlapping
    # ones, and models where one agent has no action at one state
    models = [irregular_model(seed) for seed in range(30)]
    models += [irregular_model(seed, agentless_state=True) for seed in range(100, 115)]
    assert any(() in m.avail.values() for m in models)
    for m in models:
        subsets = coalitions(m.agents)
        for s in m.states:
            def out(assignment):
                return m.bits_of(brute_outcome_set(m, s, assignment))

            for a in subsets:
                choices_a = joint_assignments(m, s, a)
                assert m.out_bits_table(s, a) == tuple(map(out, choices_a))
                for b in subsets:
                    choices_b = joint_assignments(m, s, b)
                    assert m.merged_out_bits(s, a, b) == tuple(
                        tuple(out(brute_merge(x, y)) for y in choices_b)
                        for x in choices_a), (s, a, b)


def test_extending_coalition_shrinks_outcomes():
    for i in range(40):
        m = random_model(GeneratorBounds(agents=3, states=3, actions=2), 900 + i)
        for state in m.states:
            for partial in joint_assignments(m, state, frozenset("a")):
                wide = outcome_set(m, state, JointAction.of(state, partial))
                for extended in joint_assignments(m, state, frozenset("ab")):
                    if extended["a"] == partial["a"]:
                        narrow = outcome_set(m, state, JointAction.of(state, extended))
                        assert narrow <= wide


def test_disjoint_union_keeps_structure():
    m1 = fixture_model("ex1")
    u = disjoint_union(m1, m1, "L.", "R.")
    assert validate_model(u) == []
    assert len(u.states) == 2 * len(m1.states)
    assert outcome_set(u, "L.s0", JointAction.of("L.s0", {"a": "a1"})) == {"L.s1", "L.s2"}


def test_disjoint_union_rejects_collisions():
    m1 = fixture_model("ex1")
    with pytest.raises(InputError):
        disjoint_union(m1, m1)
