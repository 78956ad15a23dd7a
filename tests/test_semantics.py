"""Truth clauses: fixture verdicts, boolean algebra, definability identities,
and agreement with the responder-minus-actor restatement."""

import collections
import gc
import itertools
import random
import weakref
from dataclasses import replace

import pytest

from constr.corpus import FIXTURES, core_models, fixture_model, fixture_text
from constr.formula import (
    And,
    Atom,
    Not,
    Obeta,
    Oalpha,
    Oc,
    Strategic,
    TOP,
    box,
    parse_formula,
    random_formula,
)
from constr import semantics
from constr.model import GameModel, InputError
from constr.semantics import (
    INDEX_CUTOFF_STATES,
    explain,
    extension,
    extension_bits,
    holds,
    operator_evaluator,
)
from constr.textio import parse_model
from constr.validity import GeneratorBounds, random_model

from oracles import (
    brute_extension,
    brute_holds,
    brute_operator_states,
    holds_via_b_minus_a,
    irregular_model,
)

p, q = Atom("p"), Atom("q")


def test_example_fixture_verdicts():
    ex1 = fixture_model("ex1")
    assert holds(ex1, "s0", parse_formula("Oc[{a},{b}](p, q)"))
    assert not holds(ex1, "s0", parse_formula("[{b}] q"))
    ex2 = fixture_model("ex2")
    assert holds(ex2, "s0", parse_formula("Ob[{a},{b}](p, q)"))
    assert not holds(ex2, "s0", parse_formula("Oa[{a},{b}](p, q)"))
    assert holds(fixture_model("ex2_swapped"), "s0", parse_formula("Oa[{a},{b}](p, q)"))


def test_vacuous_reactive_truth():
    for name, model in core_models().items():
        for s in model.states:
            assert holds(model, s, Obeta(frozenset("a"), frozenset("b"), Not(TOP), q)), name


def test_extension_examples():
    ex1 = fixture_model("ex1")
    assert extension(ex1, p).states == {"s0", "s1", "s2", "s4"}
    assert extension(ex1, TOP).states == set(ex1.states)
    exA = fixture_model("exA")
    ext = extension(exA, parse_formula("Oc[{a},{b}](p, q)")).states
    assert "s0" in ext and "t0" not in ext


def test_boolean_clauses_are_set_algebra():
    for i in range(30):
        m = random_model(GeneratorBounds(agents=2, states=3, actions=2), 40 + i)
        rng = random.Random(i)
        f = random_formula(rng, ["p", "q"], ["a", "b"], 2)
        g = random_formula(rng, ["p", "q"], ["a", "b"], 2)
        states = set(m.states)
        ef, eg = extension(m, f).states, extension(m, g).states
        assert extension(m, Not(f)).states == states - ef
        assert extension(m, And(f, g)).states == ef & eg


def test_unknown_agent_rejected():
    m = fixture_model("ex1")
    with pytest.raises(InputError):
        holds(m, "s0", Oc(frozenset("z"), frozenset("b"), p, q))
    with pytest.raises(InputError):
        holds(m, "zz", p)


def _box_variants(agents, coalition, goal):
    # the complementary-coalition variant needs the proactive operator; the
    # reactive one is refuted below (see the decisions notes)
    others = frozenset(agents) - coalition
    return [
        box(coalition, goal),
        Oc(coalition, coalition, goal, goal),
        Oc(coalition, coalition, goal, TOP),
        Obeta(frozenset(), coalition, TOP, goal),
        Oalpha(others, coalition, TOP, goal),
    ]


def _all_coalitions(agents):
    out = []
    for r in range(len(agents) + 1):
        for combo in itertools.combinations(agents, r):
            out.append(frozenset(combo))
    return out


def definability_violations(model, goal=p):
    """Extension mismatches among the box definitions and the
    responder-reduction biconditionals; empty on a healthy build."""
    bad = []
    coalitions = _all_coalitions(model.agents)
    for c in coalitions:
        exts = [extension(model, f).states for f in _box_variants(model.agents, c, goal)]
        if any(e != exts[0] for e in exts[1:]):
            bad.append(("box", c))
    for a in coalitions:
        for b in coalitions:
            if not (a & b):
                continue
            for cls in (Oc, Obeta):
                left = extension(model, cls(a, b, p, q)).states
                right = extension(model, cls(a, b - a, p, q)).states
                if left != right:
                    bad.append((cls.token, a, b))
    return bad


def test_definability_on_corpus():
    for name, model in core_models().items():
        assert definability_violations(model) == [], name


def test_definability_on_random_sample():
    for i in range(120):
        m = random_model(GeneratorBounds(agents=2 + i % 2, states=2 + i % 3, actions=2), 7000 + i)
        assert definability_violations(m) == []


MATCHING_PENNIES = """
agents: a b
states: s0 w l
labels w: p
actions s0 a: h t
actions s0 b: h t
actions w a: h
actions w b: h
actions l a: h
actions l b: h
go s0 (h,h) -> w
go s0 (h,t) -> l
go s0 (t,h) -> l
go s0 (t,t) -> w
go w (h,h) -> w
go l (h,h) -> l
"""


def test_literal_reactive_complement_form_is_refuted():
    # the reactive operator over the complementary coalition expresses a
    # for-all-exists response pattern, strictly weaker than the box: a can
    # always answer the already-seen move, yet has no uniform winning move
    mp = parse_model(MATCHING_PENNIES)
    a = frozenset("a")
    literal = Obeta(frozenset("b"), a, TOP, p)
    assert not holds(mp, "s0", box(a, p))
    assert holds(mp, "s0", literal)
    exC = fixture_model("exC")
    lhs = extension(exC, box(a, p)).states
    rhs = extension(exC, Obeta(frozenset("bc"), a, TOP, p)).states
    assert lhs != rhs
    assert extension(exC, Oalpha(frozenset("bc"), a, TOP, p)).states == lhs


def test_proactive_implies_reactive_globally():
    for i in range(80):
        m = random_model(GeneratorBounds(agents=2, states=2 + i % 3, actions=2), 300 + i)
        for a in _all_coalitions(m.agents):
            for b in _all_coalitions(m.agents):
                alpha = extension(m, Oalpha(a, b, p, q)).states
                beta = extension(m, Obeta(a, b, p, q)).states
                assert alpha <= beta


def _first_strategic(f):
    # the first strategic subformula in postorder (children before
    # parents), or None
    if isinstance(f, Not):
        children = (f.sub,)
    elif isinstance(f, And):
        children = (f.left, f.right)
    elif isinstance(f, Strategic):
        children = (f.phi, f.psi)
    else:
        children = ()
    for child in children:
        found = _first_strategic(child)
        if found is not None:
            return found
    return f if isinstance(f, Strategic) else None


def test_b_minus_a_restatement_agrees_on_corpus():
    for name, model in core_models().items():
        for a_sub in _all_coalitions(model.agents):
            for b_sub in _all_coalitions(model.agents):
                for cls in (Oc, Oalpha, Obeta):
                    f = cls(a_sub, b_sub, p, q)
                    for s in model.states:
                        assert holds_via_b_minus_a(model, s, f) == holds(model, s, f), name


def test_b_minus_a_reduces_to_empty_responder():
    m = fixture_model("ex1")
    f = Oalpha(frozenset("ab"), frozenset("a"), p, q)  # responder inside actor
    g = Oalpha(frozenset("ab"), frozenset(), p, q)
    for s in m.states:
        assert holds_via_b_minus_a(m, s, f) == holds(m, s, g)


def test_b_minus_a_randomized_equivalence():
    rng = random.Random(99)
    checked = 0
    while checked < 1000:
        m = random_model(GeneratorBounds(agents=2 + checked % 2, states=2 + checked % 3,
                                         actions=2), 5000 + checked)
        f = random_formula(rng, ["p", "q"], m.agents, 2)
        target = _first_strategic(f)
        if target is None:
            f = Oc(frozenset(m.agents[:1]), frozenset(m.agents[1:]), f, q)
            target = f
        state = m.states[rng.randrange(len(m.states))]
        assert holds_via_b_minus_a(m, state, target) == holds(m, state, target)
        checked += 1


def test_b_minus_a_requires_strategic_formula():
    with pytest.raises(InputError):
        holds_via_b_minus_a(fixture_model("ex1"), "s0", p)


def test_engine_agrees_with_brute_force_spot_checks():
    rng = random.Random(3)
    for i in range(150):
        m = random_model(GeneratorBounds(agents=2, states=1 + i % 3, actions=2), 600 + i)
        f = random_formula(rng, ["p", "q"], ["a", "b"], 2)
        for s in m.states:
            assert holds(m, s, f) == brute_holds(m, s, f)


def test_brute_extension_agrees_with_brute_holds():
    # the two oracles share the quantifier nest but not the outcome sets
    rng = random.Random(5)
    models = [irregular_model(seed) for seed in range(30)]
    models += [irregular_model(seed, agentless_state=True) for seed in range(200, 210)]
    models += [random_model(GeneratorBounds(2, 1 + i % 3, 2), 700 + i) for i in range(20)]
    models += [parse_model(fixture_text(f.model_file)) for f in FIXTURES]
    for m in models:
        memo: dict = {}
        extensions: dict = {}
        formulas = [random_formula(rng, ["p", "q"], m.agents, 2) for _ in range(8)]
        # a formula over earlier ones, so that the shared dict is read
        formulas.append(Not(And(formulas[0], formulas[1])))
        for f in formulas:
            want = frozenset(s for s in m.states if brute_holds(m, s, f))
            assert brute_extension(m, f, memo) == want, (m.states, f)
            assert brute_extension(m, f, memo, extensions) == want, (m.states, f)
        assert all(extensions[id(node)][0] is node for node in formulas)


def test_operator_evaluator_agrees_with_brute_force():
    # (agents, states, actions): every value of 1-3 agents, 1-4 states and
    # 1-3 actions, kept small enough for the oracle to take every
    # condition/goal pair
    shapes = [(1, 1, 1), (1, 4, 3), (2, 1, 3), (2, 2, 3), (2, 3, 2), (2, 4, 1),
              (3, 1, 3), (3, 2, 2), (3, 3, 1), (3, 4, 1)]
    rng = random.Random(17)
    models = [random_model(GeneratorBounds(*shape), rng.randrange(10 ** 6))
              for shape in shapes]
    for m in models:
        O = operator_evaluator(m)
        sets = [(bits, m.states_of(bits)) for bits in range(1 << len(m.states))]
        coalitions = _all_coalitions(m.agents)
        for op in (Oc, Oalpha, Obeta):
            for a in coalitions:
                # largest responders first, so that some kernel tables are
                # first built for a responder coalition overlapping a
                for b in reversed(coalitions):
                    for cond_bits, cond in sets:
                        for goal_bits, goal in sets:
                            want = brute_operator_states(m, op, a, b, cond, goal)
                            assert O(op, a, b, cond_bits, goal_bits) == m.bits_of(want), \
                                (m.states, op.token, a, b, cond, goal)


def test_operator_evaluator_names_first_state_without_outcome():
    # s1 and s2 both lack the outcome of profile (a2); s1 comes first
    m = GameModel(
        agents=("a",), states=("s0", "s1", "s2"),
        avail={(s, "a"): ("a1", "a2") for s in ("s0", "s1", "s2")},
        outcome={("s0", ("a1",)): "s0", ("s0", ("a2",)): "s1",
                 ("s1", ("a1",)): "s2", ("s2", ("a1",)): "s0"},
        valuation={})
    # the evaluator reads every successor row when it is made; a failed
    # construction is not kept, so a second one fails the same way
    for _ in range(2):
        with pytest.raises(InputError, match=r"^outcome map is not total at s1$"):
            operator_evaluator(m)
    for op in (Oc, Oalpha, Obeta):
        with pytest.raises(InputError, match=r"^outcome map is not total at s1$"):
            holds(m, "s0", op(frozenset(), frozenset("a"), TOP, p))


def test_agent_without_actions_answers_everywhere():
    # b has no action at s0, so no profile exists and a1 is played by none
    m = GameModel(agents=("a", "b"), states=("s0",),
                  avail={("s0", "a"): ("a1",), ("s0", "b"): ()},
                  outcome={}, valuation={"p": frozenset({"s0"})})
    f = Oc(frozenset("a"), frozenset("b"), p, p)
    assert holds(m, "s0", f) is False
    assert explain(m, "s0", f).value is False
    assert holds_via_b_minus_a(m, "s0", f) is False
    # b has no joint action, so no uniform response exists; the b - a
    # restatement of holds_via_b_minus_a reads true here
    g = Oalpha(frozenset("b"), frozenset("b"), p, p)
    assert holds(m, "s0", g) is False
    assert explain(m, "s0", g).value is False


def test_operator_evaluator_on_irregular_availability():
    # the kernel tables map profiles to cells through one projection per
    # availability shape; random_model only makes uniform shapes
    models = [irregular_model(seed) for seed in range(24)]
    models += [irregular_model(seed, agentless_state=True) for seed in range(100, 112)]
    models += [parse_model(fixture_text(f.model_file)) for f in FIXTURES]
    assert any(len(set(m.avail.values())) > 1 for m in models)
    rng = random.Random(23)
    for m in models:
        O = operator_evaluator(m)
        sets = [(bits, m.states_of(bits)) for bits in range(1 << len(m.states))]
        coalitions = _all_coalitions(m.agents)
        for op in (Oc, Oalpha, Obeta):
            for a in coalitions:
                for b in coalitions:
                    for (cond_bits, cond), (goal_bits, goal) in (
                            (rng.choice(sets), rng.choice(sets)) for _ in range(3)):
                        want = brute_operator_states(m, op, a, b, cond, goal)
                        got = O(op, a, b, cond_bits, goal_bits)
                        assert got == m.bits_of(want), \
                            (m.states, m.avail, op.token, a, b, cond, goal)


def test_overlapping_call_after_its_disjoint_one():
    # an evaluator shares one answer between (a, b) and (a, b - a), except
    # where an agent has no action somewhere: there Oalpha over (a, b) is
    # false where an agent of both lacks an action, whatever (a, b - a)
    # says, so an answer kept for the disjoint call must not be reused
    models = [irregular_model(seed, agentless_state=True) for seed in range(100, 124)]
    models += [parse_model(fixture_text(f.model_file)) for f in FIXTURES]
    rng = random.Random(31)
    told_apart = 0
    for m in models:
        O = operator_evaluator(m)
        sets = [(bits, m.states_of(bits)) for bits in range(1 << len(m.states))]
        coalitions = _all_coalitions(m.agents)
        for op in (Oc, Oalpha, Obeta):
            for a in coalitions:
                for b in coalitions:
                    if not a & b:
                        continue
                    (cond_bits, cond), (goal_bits, goal) = rng.choice(sets), rng.choice(sets)
                    disjoint = O(op, a, b - a, cond_bits, goal_bits)
                    got = O(op, a, b, cond_bits, goal_bits)
                    copy = replace(m)  # with an evaluator of its own
                    fresh = operator_evaluator(copy)(op, a, b, cond_bits, goal_bits)
                    want = m.bits_of(brute_operator_states(m, op, a, b, cond, goal))
                    assert got == fresh == want, (m.states, m.avail, op.token, a, b, cond, goal)
                    told_apart += got != disjoint
    assert told_apart


@pytest.mark.parametrize("build", [
    lambda: replace(fixture_model("ex1")),
    lambda: random_model(GeneratorBounds(2, INDEX_CUTOFF_STATES + 5, 2), 3),
], ids=["kernel", "index"])
def test_evaluator_outlives_its_model(build):
    # the evaluator keeps no reference to its model, so reference counting
    # alone frees the model, and the evaluator builds its tables or index
    # afterwards from the successor rows it read when it was made
    gc.collect()
    gc.disable()
    try:
        m = build()
        O = operator_evaluator(m)
        a, b, full = frozenset({"a"}), frozenset({"b"}), m.full_bits
        sets = [full, 0, full & 0x5555555, full & 0x3333333]
        ref = weakref.ref(m)
        del m
        assert ref() is None
        equal = build()
        fresh = operator_evaluator(equal)
        for op in (Oc, Oalpha, Obeta):
            for cond_bits in sets:
                for goal_bits in sets:
                    got = O(op, a, b, cond_bits, goal_bits)
                    assert got == fresh(op, a, b, cond_bits, goal_bits), \
                        (op.token, cond_bits, goal_bits)
        del equal, fresh, O
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_index_path_agrees_with_kernel_and_brute_force(monkeypatch):
    # above the cutoff every call is answered from the preimage index; a
    # copy of the model made under a raised cutoff answers from kernel tables
    above = (INDEX_CUTOFF_STATES + 1, INDEX_CUTOFF_STATES + 5)
    models = [random_model(GeneratorBounds(agents, INDEX_CUTOFF_STATES + agents, 2), 900 + agents)
              for agents in (2, 3, 4)]
    models += [irregular_model(seed, sizes=above) for seed in range(4)]
    models += [irregular_model(seed, agentless_state=True, sizes=above)
               for seed in range(100, 104)]
    assert any(len(set(m.avail.values())) > 1 for m in models)
    rng = random.Random(29)
    for m in models:
        assert len(m.states) > INDEX_CUTOFF_STATES
        O = operator_evaluator(m)
        copy = replace(m)
        with monkeypatch.context() as patch:
            patch.setattr(semantics, "INDEX_CUTOFF_STATES", len(m.states))
            K = operator_evaluator(copy)
        coalitions = _all_coalitions(m.agents)
        pairs = [(a, b) for a in coalitions for b in coalitions]
        for op in (Oc, Oalpha, Obeta):
            for a, b in rng.sample(pairs, min(len(pairs), 6)):
                for density in (0.2, 0.5, 0.8):
                    cond, goal = (frozenset(s for s in m.states if rng.random() < density)
                                  for _ in range(2))
                    want = m.bits_of(brute_operator_states(m, op, a, b, cond, goal))
                    got = [E(op, a, b, m.bits_of(cond), m.bits_of(goal)) for E in (O, O, K)]
                    assert got == [want] * 3, (m.states, m.avail, op.token, a, b, cond, goal)


def test_index_path_names_first_state_without_outcome():
    n = INDEX_CUTOFF_STATES + 5
    states = tuple(f"s{i}" for i in range(n))
    avail = {(s, ag): ("x", "y") for s in states for ag in "ab"}
    outcome = {(s, profile): states[(i + 1) % n]
               for i, s in enumerate(states)
               for profile in itertools.product("xy", repeat=2)}
    del outcome["s7", ("y", "x")], outcome["s3", ("x", "y")]
    m = GameModel(("a", "b"), states, avail, outcome, {"p": frozenset(states[:4])})
    # a failed construction is not kept: the next one fails the same way
    for _ in range(2):
        with pytest.raises(InputError, match=r"^outcome map is not total at s3$"):
            operator_evaluator(m)
    for op in (Oc, Oalpha, Obeta):
        with pytest.raises(InputError, match=r"^outcome map is not total at s3$"):
            holds(m, "s0", op(frozenset("b"), frozenset("ab"), TOP, p))


def test_kernel_tables_and_index_are_shared(monkeypatch):
    # one kernel table per (operator kind, a, b - a), Oc and Obeta sharing
    # theirs; above the cutoff, one preimage index answers every call
    built = collections.Counter()
    for name in ("_kernel_table", "_preimage_index"):
        def counting(*args, real=getattr(semantics, name), name=name):
            built[name] += 1
            return real(*args)
        monkeypatch.setattr(semantics, name, counting)
    a, b = frozenset("a"), frozenset("ab")
    small = random_model(GeneratorBounds(2, 3, 2), 1)
    O = operator_evaluator(small)
    for op in (Oc, Obeta):
        for responders in (b, b - a):
            O(op, a, responders, small.full_bits, 1)
    assert built == {"_kernel_table": 1}
    for responders in (b, b - a):
        O(Oalpha, a, responders, small.full_bits, 1)
    assert built == {"_kernel_table": 2}
    large = random_model(GeneratorBounds(2, INDEX_CUTOFF_STATES + 1, 2), 1)
    O = operator_evaluator(large)
    for op in (Oc, Oalpha, Obeta):
        for responders in (b, b - a):
            O(op, a, responders, large.full_bits, 1)
    assert built == {"_kernel_table": 2, "_preimage_index": 1}


def test_deeply_nested_negation_answers():
    m = fixture_model("ex1")
    f = p
    for _ in range(10 ** 4):
        f = Not(f)
    assert extension_bits(m, f) == extension_bits(m, p)
    for s in m.states:
        assert holds(m, s, f) == holds(m, s, p)
        assert holds(m, s, Not(f)) != holds(m, s, p)
