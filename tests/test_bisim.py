"""Bisimulation checkers, greatest fixpoints and distinguishing formulas."""

import itertools
import random

import pytest

from constr import bisim
from constr.corpus import corpus_models, fixture_model, fixture_relation
from constr.formula import parse_formula, random_formula
from constr.model import GameModel, InputError, coalitions, disjoint_union
from constr.semantics import extension_bits, holds
from constr.textio import parse_model
from constr.validity import GeneratorBounds, random_model

import oracles
from oracles import brute_holds, exhaustive_greatest


def identity_relation(model):
    return frozenset((s, s) for s in model.states)


def test_fixture_relations_are_cl_bisimulations():
    for name in ("exA", "exB", "exC"):
        m = fixture_model(name)
        assert bisim.check_cl_bisim(m, fixture_relation(name)).ok, name


def test_identity_always_passes_both_checkers():
    for name, m in corpus_models().items():
        assert bisim.check_cl_bisim(m, identity_relation(m)).ok, name
        assert bisim.check_constr_bisim(m, identity_relation(m)).ok, name


def test_atom_mismatch_reported_first():
    m = fixture_model("ex1")
    verdict = bisim.check_cl_bisim(m, {("s1", "s3")})
    assert not verdict.ok
    assert verdict.failure.condition == "AtomEq"
    assert verdict.failure.pair == ("s1", "s3")


def test_constr_failures_on_union_fixtures():
    for name, family in (("exA", "c"), ("exB", "beta"), ("exC", "alpha")):
        m = fixture_model(name)
        rel = fixture_relation(name)
        verdict = bisim.check_constr_bisim(m, rel)
        assert not verdict.ok and verdict.failure.pair == ("s0", "t0"), name
        probe = bisim.check_constr_bisim(m, rel, families=(family,))
        assert not probe.ok, name
        assert probe.failure.condition.endswith(family), name


def test_families_are_read_once():
    m = fixture_model("exA")
    rel = fixture_relation("exA")
    listed = bisim.check_constr_bisim(m, rel, families=["c"])
    assert str(listed).startswith("fail: A-Forth_c")
    assert bisim.check_constr_bisim(m, rel, families=(f for f in ["c"])) == listed


def test_families_as_a_bare_string_rejected():
    m = fixture_model("exA")
    with pytest.raises(InputError, match="not the string 'alpha'"):
        bisim.check_constr_bisim(m, fixture_relation("exA"), families="alpha")


def test_failure_reports_are_reproducible():
    m = fixture_model("exA")
    rel = fixture_relation("exA")
    first = bisim.check_constr_bisim(m, rel)
    second = bisim.check_constr_bisim(m, rel)
    assert first == second
    assert first.failure.witness is not None
    assert first.to_json()["condition"] == first.failure.condition


# identity plus one extra pair on a seeded 3-state model: the first
# failure of each verdict is a Back clause
BACK_FAILURES = [
    (("s1", "s2"), None,
     {"ok": False, "pair": ["s1", "s2"], "condition": "Back", "coalition_a": ["a"],
      "coalition_b": None, "witness": "(a:a1)@s2"}),
    (("s1", "s2"), "c",
     {"ok": False, "pair": ["s1", "s2"], "condition": "A-Back_c", "coalition_a": [],
      "coalition_b": ["a"], "witness": "()@s2"}),
    (("s1", "s2"), "alpha",
     {"ok": False, "pair": ["s1", "s2"], "condition": "B-Back_alpha", "coalition_a": [],
      "coalition_b": ["a"], "witness": "(a:a1)@s2"}),
    (("s2", "s1"), "beta",
     {"ok": False, "pair": ["s2", "s1"], "condition": "A-Back_beta", "coalition_a": [],
      "coalition_b": ["a"], "witness": "()@s1"}),
]


@pytest.mark.parametrize("extra, family, expected", BACK_FAILURES)
def test_back_clause_failures_are_reported(extra, family, expected):
    m = random_model(GeneratorBounds(agents=2, states=3, actions=2), 103)
    rel = identity_relation(m) | {extra}
    if family is None:
        verdict = bisim.check_cl_bisim(m, rel)
    else:
        verdict = bisim.check_constr_bisim(m, rel, families=(family,))
    assert verdict.to_json() == expected


def test_unknown_state_in_relation():
    m = fixture_model("ex1")
    with pytest.raises(InputError):
        bisim.check_cl_bisim(m, {("s0", "zz")})
    with pytest.raises(InputError):
        bisim.check_constr_bisim(m, {("zz", "s0")})


def test_malformed_relation_entry_is_named():
    m = fixture_model("ex1")
    for bad in (("s0",), ("s0", "s1", "s2"), "s0", ("s0", 1)):
        for checker in (bisim.check_cl_bisim, bisim.check_constr_bisim):
            with pytest.raises(InputError, match="is not a pair of states") as exc:
                checker(m, [("s0", "s0"), bad])
            assert repr(bad) in str(exc.value)


# fails the CL Back clause and the ConStR A-Back_c clause at (s0, s1)
EX1_RELATION = frozenset({("s0", "s1"), ("s0", "s4"), ("s1", "s0"), ("s1", "s1"),
                          ("s2", "s2"), ("s4", "s4")})


def checker_subjects():
    """(model, relation) pairs: the fixtures with their relations, ex1's
    relation above, and seeded random, irregular and two-model-union
    models with relations drawn inside atom classes, since relations
    drawn at random mostly fail at AtomEq."""
    subjects = [(fixture_model(name), fixture_relation(name)) for name in ("exA", "exB", "exC")]
    subjects.append((fixture_model("ex1"), EX1_RELATION))
    models = []
    for i in range(5):
        bounds = GeneratorBounds(1 + i % 3, 3 + i % 2, 1 + (i + 1) % 2, ("p",))
        models.append(random_model(bounds, 4100 + i))
        models.append(oracles.irregular_model(4200 + i, sizes=(2, 5)))
        models.append(disjoint_union(random_model(bounds, 4300 + i),
                                     random_model(bounds, 4400 + i), "l", "r"))
    for i, m in enumerate(models):
        rng = random.Random(4500 + i)
        labels = bisim._labels(m)
        inside = [(s, t) for s in m.states for t in m.states if labels[s] == labels[t]]
        subjects.append((m, frozenset(p for p in inside if rng.random() < 0.5)))
        subjects.append((m, bisim.greatest_cl_bisim(m) | {rng.choice(inside)}))
    return subjects


def test_checkers_match_reference_loops():
    # one Forth/Back driver behind both checkers must report what the
    # separate loops did: the same first failing clause, tag, coalitions
    # and witness, for all condition families and for each alone
    conditions = set()
    for m, rel in checker_subjects():
        verdicts = [(bisim.check_cl_bisim(m, rel), oracles.reference_check_cl_bisim(m, rel))]
        for families in (bisim.ALL_FAMILIES, *((f,) for f in bisim.ALL_FAMILIES)):
            verdicts.append((bisim.check_constr_bisim(m, rel, families),
                             oracles.reference_check_constr_bisim(m, rel, families)))
        for got, want in verdicts:
            assert (got.to_json(), str(got)) == (want.to_json(), str(want)), (m.states, rel)
            conditions.add(got.failure.condition if got.failure else "ok")
    assert {"Back", "A-Back_c", "B-Back_alpha", "A-Back_beta", "ok"} <= conditions


def test_greatest_on_single_state_model():
    m = parse_model("agents: a\nstates: s0\nactions s0 a: a1\ngo s0 (a1) -> s0\n")
    assert bisim.greatest_constr_bisim(m) == {("s0", "s0")}
    assert bisim.greatest_cl_bisim(m) == {("s0", "s0")}


def test_greatest_fixpoints_on_union_fixtures():
    for name in ("exA", "exB", "exC"):
        m = fixture_model(name)
        gcl = bisim.greatest_cl_bisim(m)
        gcs = bisim.greatest_constr_bisim(m)
        for i in range(4):
            assert (f"s{i}", f"t{i}") in gcl, name
        assert ("s0", "t0") not in gcs, name
        assert gcs <= gcl, name


def test_greatest_constr_contained_in_cl_everywhere():
    for name, m in corpus_models().items():
        assert bisim.greatest_constr_bisim(m) <= bisim.greatest_cl_bisim(m), name


def test_greatest_never_relates_differently_labelled_states():
    for name, m in corpus_models().items():
        sig = {s: frozenset(a for a, ss in m.valuation.items() if s in ss)
               for s in m.states}
        for s, t in bisim.greatest_cl_bisim(m):
            assert sig[s] == sig[t], name


def test_greatest_is_reflexive_and_symmetric():
    # an equivalence: transitivity too, which block refinement relies on
    for name, m in corpus_models().items():
        for greatest in (bisim.greatest_cl_bisim, bisim.greatest_constr_bisim):
            rel = greatest(m)
            for s in m.states:
                assert (s, s) in rel, name
            assert {(t, s) for s, t in rel} == set(rel), name
            related = {s: {t for x, t in rel if x == s} for s in m.states}
            for s, t in rel:
                assert related[t] <= related[s], (name, s, t)


def test_fixpoint_is_sound():
    for name, m in corpus_models().items():
        assert bisim.check_constr_bisim(m, bisim.greatest_constr_bisim(m)).ok, name
        assert bisim.check_cl_bisim(m, bisim.greatest_cl_bisim(m)).ok, name


def test_isomorphic_copies_are_related():
    base = fixture_model("ex1")
    union = disjoint_union(base, base, "L.", "R.")
    rel = bisim.greatest_constr_bisim(union)
    for s in base.states:
        assert (f"L.{s}", f"R.{s}") in rel


def test_maximality_against_exhaustive_search():
    subjects = [corpus_models()["ex1"], corpus_models()["exA"], corpus_models()["exB"]]
    for i in range(30):
        subjects.append(random_model(
            GeneratorBounds(agents=2, states=3 + i % 2, actions=2), 2400 + i))
    for m in subjects:
        expected = exhaustive_greatest(m, bisim.check_constr_bisim)
        assert bisim.greatest_constr_bisim(m) == expected


def test_cl_maximality_against_exhaustive_search():
    for i in range(15):
        m = random_model(GeneratorBounds(agents=2, states=3, actions=2), 4400 + i)
        assert bisim.greatest_cl_bisim(m) == exhaustive_greatest(m, bisim.check_cl_bisim)


def chain_model(n):
    """c0 -> c1 -> ... -> c(n-1), which loops; one action per agent and
    p only at the last state, so no two states are bisimilar."""
    states = [f"c{i}" for i in range(n)]
    lines = ["agents: a b", "states: " + " ".join(states), f"labels {states[-1]}: p"]
    for i, s in enumerate(states):
        lines += [f"actions {s} a: a1", f"actions {s} b: b1",
                  f"go {s} (a1,b1) -> {states[min(i + 1, n - 1)]}"]
    return parse_model("\n".join(lines) + "\n")


def pair_deletion_greatest(m, check):
    """Greatest fixpoint through the public checker alone: start from atom
    equivalence and drop each reported failing pair.  Every clause is
    monotone in the relation, so a pair failing under a superset of the
    greatest bisimulation is outside it."""
    sig = {s: frozenset(a for a, ss in m.valuation.items() if s in ss) for s in m.states}
    rel = {(s, t) for s in m.states for t in m.states if sig[s] == sig[t]}
    while True:
        verdict = check(m, rel)
        if verdict.ok:
            return rel
        rel.remove(verdict.failure.pair)


def test_greatest_against_pair_deletion_beyond_exhaustive_reach():
    subjects = [chain_model(n) for n in (8, 10, 12)]
    for i in range(8):
        base = random_model(GeneratorBounds(agents=2, states=6, actions=2, atoms=("p",)),
                            6600 + i)
        subjects.append(disjoint_union(base, base, "l", "r"))
    for m in subjects:
        assert bisim.greatest_cl_bisim(m) == pair_deletion_greatest(m, bisim.check_cl_bisim)
        assert bisim.greatest_constr_bisim(m) == pair_deletion_greatest(
            m, bisim.check_constr_bisim)


def test_greatest_on_long_chains():
    m = chain_model(64)
    assert bisim.greatest_cl_bisim(m) == identity_relation(m)
    assert bisim.greatest_constr_bisim(m) == identity_relation(m)
    base = chain_model(32)
    union = disjoint_union(base, base, "l", "r")
    expected = {(x + s, y + s) for s in base.states for x in "lr" for y in "lr"}
    assert bisim.greatest_constr_bisim(union) == expected


def test_greatest_names_first_incomplete_state():
    # s1 and s2 lack their (a2) outcome; the error names s1 whether or
    # not s1 shares an atom class with another state
    for labelled in (("s0", "s2"), ("s1",)):
        lines = ["agents: a", "states: s0 s1 s2"]
        lines += [f"labels {s}: p" for s in labelled]
        for s in ("s0", "s1", "s2"):
            lines += [f"actions {s} a: a1 a2", f"go {s} (a1) -> s0"]
        lines.append("go s0 (a2) -> s1")
        for greatest in (bisim.greatest_cl_bisim, bisim.greatest_constr_bisim):
            with pytest.raises(InputError, match="not total at s1$"):
                greatest(parse_model("\n".join(lines) + "\n"))


def reference_refinement(m, blocks, pair_fails):
    """The grouping loop without keys: every state of a multi-state block
    is compared with the group representatives in turn."""
    idx = m.state_index
    log = []
    while True:
        rows = [0] * len(m.states)
        for block in blocks:
            bits = m.bits_of(block)
            for s in block:
                rows[idx[s]] = bits
        check = bisim._Cover(rows).check
        rel = (check, check)
        refined = []
        splits = []
        for block in blocks:
            if len(block) < 2:
                refined.append(block)
                continue
            groups = []
            for s in block:
                reasons = []
                for members, _ in groups:
                    reason = pair_fails(rel, members[0], s)
                    if reason is None:
                        members.append(s)
                        break
                    reasons.append(reason)
                else:
                    groups.append(([s], reasons))
            refined.extend(tuple(members) for members, _ in groups)
            if len(groups) > 1:
                splits.append((block, groups))
        if not splits:
            return blocks, log
        log.append((blocks, splits))
        blocks = refined


def comparable(refinement):
    """Final blocks and log, with each reason as (kind, A, B, side, witness text)."""
    blocks, log = refinement
    return [tuple(b) for b in blocks], [
        ([tuple(b) for b in partition],
         [(tuple(block), [(tuple(members),
                           [(r.kind, sorted(r.a), sorted(r.b), r.side, str(r.witness))
                            for r in reasons])
                          for members, reasons in groups])
          for block, groups in splits])
        for partition, splits in log]


def irregular_model(seed):
    """A seeded model whose (state, agent) pairs have 1-3 actions each."""
    rng = random.Random(seed)
    agents = ("a", "b", "c")[:rng.randint(1, 3)]
    states = tuple(f"s{i}" for i in range(rng.randint(2, 5)))
    avail = {(s, ag): tuple(f"{ag}{j}" for j in range(rng.randint(1, 3)))
             for s in states for ag in agents}
    outcome = {(s, profile): rng.choice(states)
               for s in states
               for profile in itertools.product(*(avail[s, ag] for ag in agents))}
    valuation = {"p": frozenset(s for s in states if rng.random() < 0.5)}
    return GameModel(agents, states, avail, outcome, valuation)


def test_refinement_logs_match_plain_grouping():
    # states with equal (shape, successor blocks) join a group without a
    # clause check; blocks, groups, members and reasons must still be
    # those of the plain loop, which synthesis replays
    subjects = [chain_model(8), chain_model(16)]
    subjects += [fixture_model(name) for name in ("exA", "exB", "exC")]
    subjects.append(parse_model(SHAPES_DIFFER))
    for agents in (2, 3):
        for i in range(3):
            base = random_model(GeneratorBounds(agents, 6, 2, ("p",)), 7700 + 10 * agents + i)
            subjects.append(disjoint_union(base, base, "l", "r"))
    for i in range(6):
        bounds = GeneratorBounds(1 + i % 3, 4, 1 + i % 2, ("p",))
        subjects.append(disjoint_union(random_model(bounds, 7800 + i),
                                       random_model(bounds, 7900 + i), "l", "r"))
    for i in range(6):
        m = irregular_model(8000 + i)
        subjects += [m, disjoint_union(m, m, "l", "r")]
    assert any(len({len(acts) for acts in m.avail.values()}) > 1 for m in subjects)
    for m in subjects:
        labels = bisim._labels(m)
        cl_fails = bisim._pair_fails(
            m, [(bisim._CL, c, frozenset()) for c in coalitions(m.agents)])
        cl = reference_refinement(m, bisim._classes(m.states, labels.__getitem__), cl_fails)
        constr_fails = bisim._pair_fails(
            m, [(f, a, b) for a, b in bisim._coalition_pairs(m.agents, disjoint_only=True)
                for f in bisim.ALL_FAMILIES])
        constr = reference_refinement(m, cl[0], constr_fails)
        assert comparable(bisim._cl_refinement(m)) == comparable(cl), m.states
        assert comparable(bisim._constr_refinement(m)) == comparable(constr), m.states


def counted_pair_checks(monkeypatch):
    """Record every pair test the refinements make from now on."""
    calls = []
    plain = bisim._pair_fails

    def counting(m, tests):
        fails = plain(m, tests)

        def counted(rel, s, t):
            calls.append((s, t))
            return fails(rel, s, t)

        return counted

    monkeypatch.setattr(bisim, "_pair_fails", counting)
    return calls


def test_structural_copies_join_without_pair_checks(monkeypatch):
    base = random_model(GeneratorBounds(3, 10, 2, ("p",)), 1)
    m = disjoint_union(base, base, "l", "r")
    calls = counted_pair_checks(monkeypatch)
    cl = bisim.greatest_cl_bisim(m)
    expected = {(x + s, y + s) for s in base.states for x in "lr" for y in "lr"}
    assert cl == expected
    calls.clear()
    assert bisim.greatest_constr_bisim(m) == expected
    assert calls == []


# x and y send their profiles to u and v alike, but at x agent a picks
# the successor and at y agent b does
SHAPES_DIFFER = """
agents: a b
states: x y u v
labels u: p
actions x a: a1 a2
actions x b: b1
actions y a: a1
actions y b: b1 b2
actions u a: a1
actions u b: b1
actions v a: a1
actions v b: b1
go x (a1,b1) -> u
go x (a2,b1) -> v
go y (a1,b1) -> u
go y (a1,b2) -> v
go u (a1,b1) -> u
go v (a1,b1) -> v
"""


def test_equal_successor_blocks_with_different_shapes_are_checked():
    m = parse_model(SHAPES_DIFFER)
    assert ("x", "y") not in bisim.greatest_cl_bisim(m)
    assert holds(m, "x", parse_formula("Oc[{a},{}](p, p)"))
    assert not holds(m, "y", parse_formula("Oc[{a},{}](p, p)"))
    for s, t in (("x", "y"), ("y", "x")):
        f = bisim.distinguishing_formula(m, s, t)
        assert holds(m, s, f) and not holds(m, t, f)


def test_invariance_spot_check():
    rng = random.Random(17)
    for name, m in corpus_models().items():
        rel = bisim.greatest_constr_bisim(m)
        pairs = [pr for pr in rel if pr[0] != pr[1]]
        for _ in range(60):
            f = random_formula(rng, m.atoms or ["p"], m.agents, 3)
            ext = extension_bits(m, f)
            for s, t in pairs:
                assert bool(ext >> m.state_index[s] & 1) == bool(ext >> m.state_index[t] & 1), (name, f)


def test_distinguishing_formula_contract():
    for name, m in corpus_models().items():
        rel = bisim.greatest_constr_bisim(m)
        for s in m.states:
            for t in m.states:
                f = bisim.distinguishing_formula(m, s, t)
                if (s, t) in rel:
                    assert f is None, (name, s, t)
                else:
                    assert f is not None, (name, s, t)
                    assert holds(m, s, f) and not holds(m, t, f), (name, s, t)


def test_distinguishing_formula_on_self_is_none():
    m = fixture_model("exA")
    assert bisim.distinguishing_formula(m, "s0", "s0") is None


def test_distinguishing_formula_unknown_state():
    with pytest.raises(InputError):
        bisim.distinguishing_formula(fixture_model("ex1"), "s0", "zz")


def test_distinguishers_take_one_model_checker_call_per_table_formula(monkeypatch):
    # each table formula keeps the extension bits synthesis computed for
    # it, so answering all 132 unrelated pairs re-runs no model check
    from constr import semantics
    m = chain_model(12)
    calls = []

    def counted(model, f):
        calls.append(f)
        return extension_bits(model, f)

    answers = {}
    with monkeypatch.context() as patch:
        patch.setattr(semantics, "extension_bits", counted)
        patch.setattr(bisim, "extension_bits", counted)
        for s in m.states:
            for t in m.states:
                answers[s, t] = bisim.distinguishing_formula(m, s, t)
    # each of the 12 states is a block of its own, so the answers hold
    # every table formula
    distinct = set(answers.values()) - {None}
    assert 0 < len(calls) <= len(distinct)
    for (s, t), f in answers.items():
        assert (f is None) == (s == t)
        if f is not None:
            assert holds(m, s, f) and not holds(m, t, f)


def test_related_pair_is_answered_before_synthesis(monkeypatch):
    def no_synthesis(model):
        raise AssertionError("synthesis ran for a related pair")

    monkeypatch.setattr(bisim, "_synthesis_table", no_synthesis)
    m = fixture_model("exA")
    related = bisim.greatest_constr_bisim(m)
    assert any(s != t for s, t in related)
    for s, t in related:
        assert bisim.distinguishing_formula(m, s, t) is None


IRREGULAR = """
agents: a b
states: s0 s1 s2
labels s1: p
labels s2: p
actions s0 a: x y z
actions s0 b: u v
actions s1 a: x
actions s1 b: u v w
actions s2 a: x y
actions s2 b: u
go s0 (x,u) -> s1
go s0 (x,v) -> s2
go s0 (y,u) -> s0
go s0 (y,v) -> s1
go s0 (z,u) -> s2
go s0 (z,v) -> s2
go s1 (x,u) -> s1
go s1 (x,v) -> s2
go s1 (x,w) -> s1
go s2 (x,u) -> s2
go s2 (y,u) -> s1
"""


def test_irregular_action_counts():
    # per-state per-agent action sets of different sizes
    m = parse_model(IRREGULAR)
    rel = bisim.greatest_constr_bisim(m)
    assert rel == exhaustive_greatest(m, bisim.check_constr_bisim)
    for s in m.states:
        for t in m.states:
            f = bisim.distinguishing_formula(m, s, t)
            assert (f is None) == ((s, t) in rel)
            if f is not None:
                assert holds(m, s, f) and not holds(m, t, f)


def test_distinguishers_on_random_models():
    # exA/exB/exC have pairs that the conditional clauses split and the
    # coalition-logic ones do not, so they exercise the family search;
    # every formula there is also confirmed by the brute-force oracle.
    # The self-union is perfbench's 20-state `union.a2s10/6` job; its
    # formulas are too deep for the oracle, so `holds` confirms them.
    brute = [fixture_model(name) for name in ("exA", "exB", "exC")]
    brute += [random_model(GeneratorBounds(agents=2, states=4, actions=2), 8800 + i)
              for i in range(25)]
    base = random_model(GeneratorBounds(2, 10, 2, ("p",)), 2_000_000 + 20_000 + 1_000 + 6)
    cliff = disjoint_union(base, base, "l", "r")
    for m in brute + [cliff]:
        rel = bisim.greatest_constr_bisim(m)
        for s in m.states:
            for t in m.states:
                f = bisim.distinguishing_formula(m, s, t)
                assert (f is None) == ((s, t) in rel)
                if f is not None:
                    assert holds(m, s, f) and not holds(m, t, f)
                    if m is not cliff:
                        assert brute_holds(m, s, f) and not brute_holds(m, t, f), (s, t, f)
