"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  Stated time budgets are asserted, not just observed.
"""

import itertools
import random
import time

from constr import bisim
from constr.corpus import core_models, corpus_models, fixture_model, fixture_relation
from constr.formula import And, Atom, Not, Obeta, Oalpha, Oc, TOP, box, parse_formula, random_formula
from constr.semantics import extension_bits, holds
from constr.validity import (
    SCHEMES,
    GeneratorBounds,
    SuiteConfig,
    check_scheme,
    enumerate_models,
    random_model,
    run_suite,
    verify_counterexample,
)

from oracles import brute_extension, exhaustive_greatest

p, q = Atom("p"), Atom("q")


def _verdict(number, ok, detail):
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_fixture_verdict_reproduction():
    """Exact reproduction of every headline fixture verdict, under one second."""
    start = time.perf_counter()
    ex1 = fixture_model("ex1")
    ok = holds(ex1, "s0", parse_formula("Oc[{a},{b}](p, q)"))
    ok &= not holds(ex1, "s0", parse_formula("[{b}] q"))
    ex2 = fixture_model("ex2")
    ok &= holds(ex2, "s0", parse_formula("Ob[{a},{b}](p, q)"))
    ok &= not holds(ex2, "s0", parse_formula("Oa[{a},{b}](p, q)"))
    ok &= holds(fixture_model("ex2_swapped"), "s0", parse_formula("Oa[{a},{b}](p, q)"))
    for name, formula in (("exA", "Oc[{a},{b}](p, q)"),
                          ("exB", "<<{a}>>b(p, q)"),
                          ("exC", "Oa[{b},{a}](q, p)")):
        m = fixture_model(name)
        ok &= bisim.check_cl_bisim(m, fixture_relation(name)).ok
        f = parse_formula(formula)
        ok &= holds(m, "s0", f) and not holds(m, "t0", f)
    am = fixture_model("antimono")
    ok &= holds(am, "s0", parse_formula("Ob[{a,c},{b}](p, q)"))
    ok &= not holds(am, "s0", parse_formula("Ob[{a},{b}](p, q)"))
    elapsed = time.perf_counter() - start
    _verdict(1, ok and elapsed < 1.0,
             f"fixture verdicts exact, {elapsed:.2f}s (< 1s)")


def _all_coalitions(agents):
    out = []
    for r in range(len(agents) + 1):
        for combo in itertools.combinations(agents, r):
            out.append(frozenset(combo))
    return out


def _definability_violations(model):
    # five box definitions (complementary-coalition variant in its sound
    # proactive form, see the project notes) plus the responder reductions
    bad = 0
    coalitions = _all_coalitions(model.agents)
    everyone = frozenset(model.agents)
    for c in coalitions:
        forms = [
            box(c, p),
            Oc(c, c, p, p),
            Oc(c, c, p, TOP),
            Obeta(frozenset(), c, TOP, p),
            Oalpha(everyone - c, c, TOP, p),
        ]
        exts = [extension_bits(model, f) for f in forms]
        bad += sum(e != exts[0] for e in exts[1:])
    for a in coalitions:
        for b in coalitions:
            if not (a & b):
                continue
            for cls in (Oc, Obeta):
                if extension_bits(model, cls(a, b, p, q)) != \
                        extension_bits(model, cls(a, b - a, p, q)):
                    bad += 1
    return bad


def test_criterion_2_definability_suite():
    """Box definitions and responder reductions: extension equalities on the
    six corpus models and 1000 random models, zero violations, within 30s."""
    start = time.perf_counter()
    violations = 0
    models = list(core_models().values())
    for i in range(1000):
        bounds = GeneratorBounds(agents=2 + i % 2, states=2 + i % 3, actions=2)
        models.append(random_model(bounds, 20_000 + i))
    for m in models:
        violations += _definability_violations(m)
    # the literal reactive-complement variant stays refuted (spec-defect pin)
    exC = fixture_model("exC")
    a = frozenset("a")
    literal_refuted = (extension_bits(exC, Obeta(frozenset("bc"), a, TOP, p))
                       != extension_bits(exC, box(a, p)))
    elapsed = time.perf_counter() - start
    _verdict(2, violations == 0 and literal_refuted and elapsed < 30.0,
             f"{len(models)} models, {violations} violations, "
             f"literal fifth form refuted on exC, {elapsed:.1f}s (< 30s)")


def test_criterion_3_axiom_suite():
    """Every registered valid scheme survives the bounded-exhaustive family
    plus 10,000 random models; the invalid scheme is refuted from both the
    embedded model and random search; all inside 60 seconds."""
    start = time.perf_counter()
    report = run_suite(SuiteConfig(random_models=10_000, budget=1, seed=0))
    suite_ok = report.ok
    valid_outcomes = [o for o in report.outcomes if o.expected_valid]
    tried = valid_outcomes[0].verdict.models_tried
    embedded = next(o for o in report.outcomes if o.tag == "ObAntiMon")
    embedded_ok = embedded.passed and embedded.verdict.models_tried == 1

    random_only = check_scheme(
        SCHEMES["ObAntiMon"],
        (random_model(GeneratorBounds(3, 3 + i % 3, 2), 300_000 + i)
         for i in range(5000)))
    random_ok = random_only.found and verify_counterexample(random_only.counterexample)
    elapsed = time.perf_counter() - start
    _verdict(3, suite_ok and embedded_ok and random_ok and elapsed < 60.0,
             f"{len(valid_outcomes)} valid schemes clean over {tried} models; "
             f"invalid scheme refuted by embedded model and by random search "
             f"({random_only.models_tried} models), {elapsed:.1f}s (< 60s)")


def test_criterion_4_bisimulation_invariance():
    """Every pair of the computed greatest bisimulation agrees on 500
    sampled formulas of depth three, on every corpus model."""
    start = time.perf_counter()
    disagreements = 0
    checked = 0
    for name, m in corpus_models().items():
        rel = bisim.greatest_constr_bisim(m)
        pairs = [pr for pr in rel if pr[0] != pr[1]]
        rng = random.Random(f"invariance-{name}")
        idx = m.state_index
        for _ in range(500):
            f = random_formula(rng, m.atoms or ["p"], m.agents, 3)
            ext = extension_bits(m, f)
            for s, t in pairs:
                checked += 1
                if bool(ext >> idx[s] & 1) != bool(ext >> idx[t] & 1):
                    disagreements += 1
    elapsed = time.perf_counter() - start
    _verdict(4, disagreements == 0,
             f"{checked} pair-formula checks, {disagreements} disagreements, "
             f"{elapsed:.1f}s")


def test_criterion_5_verified_distinguishers():
    """Non-bisimilar pairs always get a checker-verified distinguishing
    formula; bisimilar pairs never do."""
    start = time.perf_counter()
    produced = refused = bad = 0
    for name, m in corpus_models().items():
        rel = bisim.greatest_constr_bisim(m)
        for s in m.states:
            for t in m.states:
                f = bisim.distinguishing_formula(m, s, t)
                if (s, t) in rel:
                    refused += 1
                    if f is not None:
                        bad += 1
                else:
                    produced += 1
                    if f is None or not holds(m, s, f) or holds(m, t, f):
                        bad += 1
    elapsed = time.perf_counter() - start
    _verdict(5, bad == 0,
             f"{produced} verified distinguishers, {refused} bisimilar pairs "
             f"refused, {bad} contract violations, {elapsed:.1f}s")


def _depth2_family(agents):
    """Canonical bounded family: all operators over all disjoint coalition
    pairs with literal arguments, their negations, and one level of
    strategic nesting in either argument position."""
    ops = (Oc, Oalpha, Obeta)
    subs = _all_coalitions(agents)
    pairs = [(a, b) for a in subs for b in subs if not (a & b)]
    lits = [p, q, Not(p), And(p, q), TOP]
    lvl1 = [cls(a, b, f, g) for cls in ops for a, b in pairs for f in (p, q) for g in (p, q)]
    negs = [Not(f) for f in lvl1]
    first = frozenset(agents[:1])
    rest = frozenset(agents[1:])
    nest_pairs = [(first, rest), (frozenset(), frozenset(agents)),
                  (frozenset(agents), frozenset())]
    inner = [cls(first, rest, p, q) for cls in ops]
    lvl2 = ([cls(a, b, f, q) for cls in ops for a, b in nest_pairs for f in inner]
            + [cls(a, b, p, f) for cls in ops for a, b in nest_pairs for f in inner]
            + [And(f, Not(q)) for f in inner])
    return lits + lvl1 + negs + lvl2


def test_criterion_6_oracle_equivalence():
    """(a) the memoized engine matches the brute-force evaluator over the
    full small-model enumeration; (b) the greatest-bisimulation fixpoint
    matches exhaustive relation search on models with up to four states."""
    start = time.perf_counter()
    mismatches = 0
    formula_checks = 0
    model_total = 0
    for n_agents in (1, 2):
        agents = ("a",) if n_agents == 1 else ("a", "b")
        family = _depth2_family(agents)
        for n_states in (1, 2):
            for n_actions in (1, 2):
                bounds = GeneratorBounds(n_agents, n_states, n_actions)
                outcome = None
                for m in enumerate_models(bounds):
                    model_total += 1
                    # the oracle's outcome sets hold for every labeling of
                    # one outcome map; its results, for one model only
                    if m.outcome != outcome:
                        outcome, memo = m.outcome, {}
                    extensions: dict = {}
                    for f in family:
                        ext = extension_bits(m, f)
                        want = brute_extension(m, f, memo, extensions)
                        for i, s in enumerate(m.states):
                            formula_checks += 1
                            if (s in want) != bool(ext >> i & 1):
                                mismatches += 1

    relation_subjects = []
    two_state = list(enumerate_models(GeneratorBounds(2, 2, 2)))
    relation_subjects.extend(two_state[::50])
    for i in range(60):
        relation_subjects.append(random_model(GeneratorBounds(2, 3, 2), 40_000 + i))
    for i in range(40):
        relation_subjects.append(random_model(GeneratorBounds(2, 4, 2), 41_000 + i))
    fixpoint_bad = 0
    for m in relation_subjects:
        if bisim.greatest_constr_bisim(m) != exhaustive_greatest(m, bisim.check_constr_bisim):
            fixpoint_bad += 1
    elapsed = time.perf_counter() - start
    _verdict(6, mismatches == 0 and fixpoint_bad == 0,
             f"{formula_checks} oracle comparisons over {model_total} models, "
             f"{mismatches} mismatches; fixpoint equals exhaustive search on "
             f"{len(relation_subjects)} models, {fixpoint_bad} diffs, {elapsed:.1f}s")
