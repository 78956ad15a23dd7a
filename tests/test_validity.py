"""Model generators and the axiom-scheme machinery."""

import collections
import gc
import inspect
import itertools
import random
import re
import weakref

import pytest

from constr import semantics, validity
from constr.corpus import embedded_falsifier
from constr.formula import Oalpha, Obeta, Oc, implies, parse_formula
from constr.model import GameModel, InputError, coalitions, validate_model
from constr.semantics import extension_bits, holds, operator_evaluator
from constr.textio import render_model
from constr.validity import (
    DEFAULT_EXHAUSTIVE,
    EXPECTED_INVALID_TAGS,
    EXPECTED_VALID_TAGS,
    SCHEMES,
    GeneratorBounds,
    Scheme,
    SuiteConfig,
    axiom_substitutions,
    check_scheme,
    enumerate_models,
    model_count,
    random_model,
    rule_substitutions,
    run_suite,
    verify_counterexample,
)

from oracles import (
    brute_holds,
    irregular_model,
    reference_growing_sweep,
    reference_shrinking_sweep,
)

# frozen tag list; the registry must match it exactly or the suite is lying
ALL_TAGS = (
    "Oc1", "Oc2", "Oc3", "Oc4", "Oc5", "Oc6", "Oc7",
    "Ob1", "Ob2", "Ob3", "Ob4", "Ob5", "Ob6",
    "Oa1", "Oa2", "Oa3", "Oa4", "Oa5", "Oa6", "OaStar",
    "ConStR1", "ConStR2",
    "ObAntiMon",
    "RuleOcMon", "RuleObMon", "RuleOaMon",
)

# frozen registry: (tag, kind, expected_valid, description) of every scheme
REGISTRY = (
    ("Oc1", "axiom", True, "cooperation is monotone in the acting coalition"),
    ("Oc2", "axiom", True, "cooperation is monotone in the responding coalition"),
    ("Oc3", "axiom", True, "cooperation collapses to joint unconditional ability"),
    ("Oc4", "axiom", True, "with no responder, splitting the goals is immaterial"),
    ("Oc5", "axiom", True, "an unsatisfiable condition rules cooperation out"),
    ("Oc6", "axiom", True, "only responders outside the acting coalition matter"),
    ("Oc7", "axiom", True, "the condition can be folded into the goal"),
    ("Ob1", "axiom", True, "reactive ability is monotone in the responding coalition"),
    ("Ob2", "axiom", True, "securing a condition secures it"),
    ("Ob3", "axiom", True, "an unsatisfiable condition makes the claim vacuous"),
    ("Ob4", "axiom", True, "a securable condition cannot force the responder into absurdity"),
    ("Ob5", "axiom", True, "only responders outside the acting coalition matter"),
    ("Ob6", "axiom", True, "the condition can be folded into the goal"),
    ("Oa1", "axiom", True, "proactive ability is monotone in the responding coalition"),
    ("Oa2", "axiom", True, "securing a condition secures it"),
    ("Oa3", "axiom", True, "an unsatisfiable condition makes the claim vacuous"),
    ("Oa4", "axiom", True, "a securable condition cannot force the responder into absurdity"),
    ("Oa5", "axiom", True, "only responders outside the acting coalition matter"),
    ("Oa6", "axiom", True, "the condition can be folded into the goal"),
    ("OaStar", "axiom", True, "proactive ability is anti-monotone in the acting coalition"),
    ("ConStR1", "axiom", True, "proactive ability implies reactive ability"),
    ("ConStR2", "axiom", True, "securable condition plus reactive ability yields cooperation"),
    ("ObAntiMon", "axiom", False, "reactive ability is NOT anti-monotone in the acting coalition"),
    ("RuleOcMon", "rule", True, "cooperation is monotone in both arguments"),
    ("RuleObMon", "rule", True, "reactive ability: anti-monotone condition, monotone goal"),
    ("RuleOaMon", "rule", True, "proactive ability: anti-monotone condition, monotone goal"),
)


def _rebuilt(model, **changes):
    # a new model object with the given fields changed, with none of the
    # derived state of `model`
    fields = {"agents": model.agents, "states": model.states, "avail": model.avail,
              "outcome": model.outcome, "valuation": model.valuation}
    return GameModel(**{**fields, **changes})


def test_registry_matches_frozen_tag_list():
    assert tuple(SCHEMES) == ALL_TAGS
    assert tuple((t, s.kind, s.expected_valid, s.description)
                 for t, s in SCHEMES.items()) == REGISTRY
    assert set(EXPECTED_INVALID_TAGS) == {"ObAntiMon"}
    assert set(EXPECTED_VALID_TAGS) == set(ALL_TAGS) - {"ObAntiMon"}
    assert all(SCHEMES[t].kind == "rule" for t in ALL_TAGS if t.startswith("Rule"))


def test_bounds_must_be_positive():
    with pytest.raises(InputError):
        GeneratorBounds(agents=0, states=1, actions=1)
    with pytest.raises(InputError):
        GeneratorBounds(agents=1, states=1, actions=0)


def test_bounds_reject_repeated_and_empty_atom_names():
    # a repeated name would sweep each labeling more than once, and an
    # empty one is an atom no formula can name
    for atoms in (("p", "p"), ("",), ("p", "")):
        with pytest.raises(InputError):
            GeneratorBounds(2, 1, 1, atoms)
    assert model_count(GeneratorBounds(2, 1, 1, ())) == 1


@pytest.mark.parametrize("args, message", [
    ((1.5, 1, 1), "agents must be an integer, not 1.5"),
    (("2", 1, 1), "agents must be an integer, not '2'"),
    ((True, 1, 1), "agents must be an integer, not True"),
    ((2, 1.0, 1), "states must be an integer, not 1.0"),
    ((2, 1, None), "actions must be an integer, not None"),
    ((2, 1, 1, ["p"]), "atoms must be a tuple of strings, not ['p']"),
    ((2, 1, 1, "pq"), "atoms must be a tuple of strings, not 'pq'"),
    ((2, 1, 1, ("p", 1)), "atoms must be a tuple of strings, not ('p', 1)"),
])
def test_bounds_reject_non_integer_counts_and_non_string_atoms(args, message):
    # a bool would be read as one agent, a float or a string would fail
    # with a bare TypeError, and a list of atoms only when enumerated
    with pytest.raises(InputError) as exc:
        GeneratorBounds(*args)
    assert str(exc.value) == message


def test_enumeration_counts():
    assert model_count(GeneratorBounds(1, 1, 1, ("p",))) == 2
    assert len(list(enumerate_models(GeneratorBounds(1, 1, 1, ("p",))))) == 2
    assert model_count(GeneratorBounds(1, 2, 1, ())) == 4
    assert len(list(enumerate_models(GeneratorBounds(1, 2, 1, ())))) == 4
    # outcome functions times labelings: (2^4)^2 * 4^2
    assert model_count(GeneratorBounds(2, 2, 2)) == (2 ** 4) ** 2 * 4 ** 2


def test_enumeration_cap_reports_count():
    bounds = GeneratorBounds(2, 3, 2)
    with pytest.raises(InputError) as exc:
        next(enumerate_models(bounds, cap=1000))
    assert str(model_count(bounds)) in str(exc.value)


def test_enumeration_is_deterministic_and_valid():
    a = [render_model(m) for m in itertools.islice(enumerate_models(GeneratorBounds(2, 2, 1)), 40)]
    b = [render_model(m) for m in itertools.islice(enumerate_models(GeneratorBounds(2, 2, 1)), 40)]
    assert a == b
    assert len(set(a)) == 40
    for m in enumerate_models(GeneratorBounds(1, 2, 2, ("p",))):
        assert validate_model(m) == []


def test_random_model_determinism():
    bounds = GeneratorBounds(2, 3, 2)
    assert random_model(bounds, 5) == random_model(bounds, 5)
    renders = {render_model(random_model(bounds, seed)) for seed in range(100)}
    assert len(renders) > 95
    for seed in range(30):
        assert validate_model(random_model(bounds, seed)) == []


def test_oc5_has_no_counterexample_on_tiny_family():
    verdict = check_scheme(SCHEMES["Oc5"], enumerate_models(GeneratorBounds(2, 2, 1)))
    assert not verdict.found
    assert verdict.models_tried == model_count(GeneratorBounds(2, 2, 1))


def test_constr1_over_random_family():
    models = (random_model(GeneratorBounds(2, 1 + i % 3, 2), i) for i in range(400))
    assert not check_scheme(SCHEMES["ConStR1"], models).found


def _refuted_by_oracle(cx):
    # verify_counterexample reads the kernel tables the sweep built; the
    # brute-force oracle shares nothing with the engine
    return not brute_holds(cx.model, cx.state, cx.formula)


def test_antimono_counterexample_from_embedded_model():
    verdict = check_scheme(SCHEMES["ObAntiMon"], [embedded_falsifier()])
    assert verdict.found
    assert verify_counterexample(verdict.counterexample)
    assert _refuted_by_oracle(verdict.counterexample)
    # the canonical instance is itself false at the root
    m = embedded_falsifier()
    instance = parse_formula("Ob[{a,c},{b}](p, q) -> Ob[{a},{b}](p, q)")
    assert not holds(m, "s0", instance)


def test_antimono_counterexample_from_random_search():
    models = (random_model(GeneratorBounds(3, 3 + i % 3, 2), 100 + i) for i in range(2000))
    verdict = check_scheme(SCHEMES["ObAntiMon"], models)
    assert verdict.found
    assert verify_counterexample(verdict.counterexample)
    assert _refuted_by_oracle(verdict.counterexample)


def test_every_counterexample_reverifies():
    # sample: run the invalid scheme over a few random models and re-check
    models = [random_model(GeneratorBounds(3, 4, 2), 50 + i) for i in range(300)]
    verdict = check_scheme(SCHEMES["ObAntiMon"], models)
    if verdict.found:
        assert verify_counterexample(verdict.counterexample)
        assert _refuted_by_oracle(verdict.counterexample)


def _stream(shape, first_seed, count):
    return [random_model(GeneratorBounds(*shape), first_seed + i) for i in range(count)]


def _forward_condition_sweep(O, coalitions, P, P2, Q, Q2, full):
    # the reactive operator read as monotone in its condition: not a
    # valid rule, so the sweep reports instances
    if P & ~P2 or Q & ~Q2:
        return None
    for a in coalitions:
        for b in coalitions:
            bad = O(Obeta, a, b, P, Q) & ~O(Obeta, a, b, P2, Q2)
            if bad:
                return (a, b), bad
    return None


def test_axiom_sweeps_on_models_with_an_idle_agent():
    # an agent without actions somewhere breaks the sweep's reading of
    # Oalpha over (a, b) as over (a, b - a); each sweep must still find a
    # violating instance exactly where one exists.  Rules are model-global
    # and left out.
    p, q = parse_formula("p"), parse_formula("q")
    for seed in range(100, 110):
        m = irregular_model(seed, agentless_state=True)
        subsets = coalitions(m.agents)
        for tag, scheme in SCHEMES.items():
            if scheme.kind != "axiom":
                continue
            arity = len(inspect.signature(scheme.build).parameters) - 2
            want = any(not holds(m, state, scheme.build(*combo, p, q))
                       for combo in itertools.product(subsets, repeat=arity)
                       for state in m.states)
            assert check_scheme(scheme, [m]).found == want, (seed, tag)


# the coalition-monotonicity schemes and their triple-loop referees
MONOTONE = {
    "Oc1": reference_growing_sweep(Oc, grow_first=True),
    "Oc2": reference_growing_sweep(Oc, grow_first=False),
    "Ob1": reference_growing_sweep(Obeta, grow_first=False),
    "Oa1": reference_growing_sweep(Oalpha, grow_first=False),
    "OaStar": reference_shrinking_sweep(Oalpha),
    "ObAntiMon": reference_shrinking_sweep(Obeta),
}


def _perturbed_evaluator(seed, agents, full, anti):
    # answers monotone in both coalitions (with anti, anti-monotone), one
    # in eight with a bit flipped, so that violations come at every width
    # and position; each answer is drawn from its own key alone, so the
    # order of the calls does not matter
    masks = dict(zip(agents, random.Random(seed).choices(range(full + 1), k=len(agents))))

    def O(op, a, b, P, Q):
        rng = random.Random(f"{seed} {op.__name__} {sorted(a)} {sorted(b)} {P} {Q}")
        answer = P & Q
        for agent in a | b:
            answer |= masks[agent]
        if anti:
            answer = full & ~answer
        if rng.random() < 1 / 8:
            answer ^= 1 << rng.randrange(full.bit_length())
        return answer

    return O


@pytest.mark.parametrize("agents", [2, 3])
def test_monotone_sweeps_agree_with_the_triple_loop_referee(agents):
    hits = collections.Counter()
    for seed in range(12):
        m = random_model(GeneratorBounds(agents, 1 + seed % 3, 2), seed)
        subsets, full = coalitions(m.agents), m.full_bits
        O = operator_evaluator(m)
        masks = (0, full, extension_bits(m, parse_formula("p")), seed % (full + 1))
        for tag, referee in MONOTONE.items():
            sweep = SCHEMES[tag].sweep
            for P, Q in itertools.product(masks, repeat=2):
                got = sweep(O, subsets, P, Q, full)
                assert got == referee(O, subsets, P, Q, full), (seed, tag, P, Q)
                hits[tag] += got is not None
            stub = _perturbed_evaluator(seed, m.agents, full, anti=tag.endswith(("Star", "Mon")))
            got = sweep(stub, subsets, 1, full, full)
            assert got == referee(stub, subsets, 1, full, full), (seed, tag)
            hits[tag, "stub"] += got is not None
    # every sweep found violations to report, and the valid schemes none
    # on the models themselves
    assert all(hits[tag, "stub"] for tag in MONOTONE)
    assert all(not hits[tag] for tag in MONOTONE if tag != "ObAntiMon")
    assert hits["ObAntiMon"] or agents == 2


def test_monotone_sweeps_report_the_first_triple_not_the_tripping_step():
    # O keeps state s0 at {a} and at {b} but drops it at {a, b}: the first
    # violating triple in canonical order is (∅, ∅, {a, b}), while the
    # one-agent step that trips the check is {a} -> {a, b}
    subsets = coalitions(("a", "b"))
    empty, both = subsets[0], subsets[-1]
    for tag, grown in (("Oc1", 0), ("Oc2", 1), ("Ob1", 1), ("OaStar", 0), ("ObAntiMon", 0)):
        anti = tag.endswith(("Star", "Mon"))

        def O(op, a, b, P, Q):
            dropped = (a, b)[grown] == both
            return int(dropped if anti else not dropped)

        assert SCHEMES[tag].sweep(O, subsets, 1, 1, 1) == ((empty, empty, both), 1), tag
        assert MONOTONE[tag](O, subsets, 1, 1, 1) == ((empty, empty, both), 1), tag


def _counted(scheme, calls):
    # the scheme, its sweep recording the instance bits of every call
    def sweep(O, coalitions, *bits):
        calls.append(bits[:-1])
        return scheme.sweep(O, coalitions, *bits)
    return scheme._replace(sweep=sweep)


def test_passed_instances_are_not_swept_again_on_the_same_structure():
    # p and q swapped: the sixteen rule instances over {p, q} have the
    # same argument sets on both labelings
    base = random_model(GeneratorBounds(2, 2, 2), 1)
    swapped = [_rebuilt(base, valuation={"p": frozenset({s}), "q": frozenset({t})})
               for s, t in (("s0", "s1"), ("s1", "s0"))]
    substitutions = validity._read_substitutions({"rule": rule_substitutions()})
    for tag in ("RuleOcMon", "RuleObMon", "RuleOaMon"):
        calls = []
        scheme = _counted(SCHEMES[tag], calls)
        first = validity._ModelSweep(swapped[0], substitutions)
        second = validity._ModelSweep(swapped[1], substitutions, first)
        listed = [bits for _, bits in first.instances("rule")]
        assert sorted(listed) == sorted(bits for _, bits in second.instances("rule"))
        assert validity._scheme_counterexample(scheme, first) is None
        assert calls == listed
        assert validity._scheme_counterexample(scheme, second) is None
        assert calls == listed
        for m in swapped:
            fresh = validity._ModelSweep(_rebuilt(m), substitutions)
            assert validity._scheme_counterexample(SCHEMES[tag], fresh) is None
        calls.clear()
        assert not check_scheme(scheme, swapped).found
        assert calls == listed


def test_a_failing_instance_is_swept_again():
    calls = []
    scheme = _counted(Scheme("OcAntiMon", "axiom", False, "cooperation read as anti-monotone "
                             "in the acting coalition", _anti_monotone_cooperation_sweep,
                             lambda A, B, C, p, q: implies(Oc(A | C, B, p, q), Oc(A, B, p, q))),
                      calls)
    m = _stream((2, 2, 2), 0, 1)[0]
    substitutions = validity._read_substitutions({"axiom": axiom_substitutions()})
    first = validity._ModelSweep(m, substitutions)
    found = validity._scheme_counterexample(scheme, first)
    again = validity._scheme_counterexample(scheme, validity._ModelSweep(_rebuilt(m),
                                                                          substitutions, first))
    assert (found.state, found.instance) == (again.state, again.instance)
    assert len(calls) == 2 and not first.passed[scheme.sweep]


def test_stress_sweeps_report_the_first_instance_in_order():
    # expected values recorded from the sweep that evaluated every
    # substitution, before repeated argument sets were skipped
    verdict = check_scheme(SCHEMES["ObAntiMon"], _stream((2, 2, 2), 300, 300),
                           axiom_substitutions(True))
    assert verdict.models_tried == 13
    assert verdict.counterexample.state == "s1"
    assert verdict.counterexample.instance == "A={} B={a} C={b} phi=~(~p & ~~q) psi=p"
    assert _refuted_by_oracle(verdict.counterexample)

    verdict = check_scheme(SCHEMES["RuleObMon"], _stream((2, 2, 2), 300, 40),
                           rule_substitutions(True))
    assert (verdict.models_tried, verdict.found) == (40, False)

    forward = Scheme("ObCondMon", "rule", False, "reactive ability read as monotone "
                     "in the condition", _forward_condition_sweep,
                     lambda A, B, p, p2, q, q2: implies(Obeta(A, B, p, q), Obeta(A, B, p2, q2)))
    verdict = check_scheme(forward, _stream((2, 3, 2), 300, 300), rule_substitutions(True))
    assert verdict.models_tried == 1
    assert verdict.counterexample.state == "s0"
    assert verdict.counterexample.instance == "A={} B={} phi=p phi'=~(~p & ~~q) psi=p psi'=p"
    assert _refuted_by_oracle(verdict.counterexample)


def _structure(model):
    return model.agents, model.states, model.avail, model.outcome


def _sweep_inputs(model, formulas):
    # what a sweep reads of a model, spelled out as plain tuples
    return (model.agents, model.shapes, tuple(model.successor_row(s) for s in model.states),
            tuple(extension_bits(model, f) for f in formulas))


@pytest.mark.parametrize("family", ["random", "enumerated"])
def test_each_model_is_freed_once_swept(family):
    # a model's sweep state lives only while it is swept: the evaluator
    # the sweeps of one transition structure share keeps no model; a
    # repeat of a model swept before is swept again; nothing holds a
    # reference cycle, so reference counting alone frees each model
    if family == "random":
        source = (random_model(GeneratorBounds(2, 1 + seed % 3, 2), seed) for seed in range(20))
    else:
        source = enumerate_models(GeneratorBounds(2, 2, 1))
    formulas = (parse_formula("p"), parse_formula("q"))
    refs, alive, inputs = [], [], set()

    def models():
        for model in source:
            alive.append({i for i, ref in enumerate(refs) if ref() is not None})
            refs.append(weakref.ref(model))
            inputs.add(_sweep_inputs(model, formulas))
            yield model

    gc.collect()
    gc.disable()
    try:
        assert not check_scheme(SCHEMES["RuleOaMon"], models()).found
        # at each hand-over only the model read last is alive: the
        # caller's loop and its sweep hold it
        assert alive == [set()] + [{i} for i in range(len(refs) - 1)]
        if family == "random":
            assert len(inputs) < len(refs)
        else:
            assert len(inputs) == len(refs) == model_count(GeneratorBounds(2, 2, 1))
        assert all(ref() is None for ref in refs)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _relabeled(model, k):
    # the same transition structure, with p on the first k states and q
    # on the rest
    return _rebuilt(model, valuation={"p": frozenset(model.states[:k]),
                                      "q": frozenset(model.states[k:])})


def _mixed_stream():
    # runs of one structure, idle agents, neighbours that differ only in
    # their outcome map, and a structure that comes back after another one
    models = []
    for seed in range(10):
        m = irregular_model(seed, agentless_state=seed % 2 == 0)
        models += [m] + [_relabeled(m, k) for k in range(len(m.states) + 1)]
        models += [random_model(GeneratorBounds(2, 2, 2), seed + k) for k in (0, 100)]
    models += [_relabeled(models[0], 0), models[1]]
    return models


@pytest.mark.parametrize("stream", ["enumerated", "mixed"])
def test_shared_sweeps_answer_as_fresh_ones(stream):
    if stream == "enumerated":
        models = list(itertools.islice(enumerate_models(GeneratorBounds(2, 2, 2)), 400))
    else:
        models = _mixed_stream()
    substitutions = validity._read_substitutions({"axiom": axiom_substitutions(),
                                                  "rule": rule_substitutions()})
    first_hits = {}
    sweep = None
    shared = 0
    for tried, m in enumerate(models, 1):
        previous = sweep
        sweep = validity._ModelSweep(m, substitutions, sweep)
        shared += previous is not None and sweep.O is previous.O
        # a copy of the model has none of its evaluator state
        fresh = validity._ModelSweep(_rebuilt(m), substitutions)
        for tag, scheme in SCHEMES.items():
            validity._scheme_counterexample(scheme, sweep)
            if tag not in first_hits:
                cx = validity._scheme_counterexample(scheme, fresh)
                if cx is not None:
                    first_hits[tag] = (tried, cx.state, cx.instance)
        [(_, (P, Q))] = fresh.instances("axiom")
        for op in (Oc, Oalpha, Obeta):
            for a in fresh.subsets:
                for b in fresh.subsets:
                    for args in ((P, Q), (Q, P), (0, Q), (fresh.full, P), (P, 0)):
                        assert sweep.O(op, a, b, *args) == fresh.O(op, a, b, *args), (
                            tried, op, a, b, args)
    # a sweep shares exactly where its model follows one of equal structure
    assert shared == sum(_structure(m) == _structure(n) for m, n in zip(models, models[1:]))
    assert shared > len(models) // 2
    for tag, scheme in SCHEMES.items():
        verdict = check_scheme(scheme, models)
        cx = verdict.counterexample
        got = (verdict.models_tried, cx.state, cx.instance) if cx else verdict.models_tried
        assert got == first_hits.get(tag, len(models)), tag


def test_valid_schemes_on_sliced_family():
    models = list(itertools.islice(enumerate_models(GeneratorBounds(2, 2, 2)), 250))
    for tag in ("Oc3", "Oc6", "Ob4", "Oa5", "ConStR2", "RuleObMon"):
        assert not check_scheme(SCHEMES[tag], models).found, tag


def test_budget_semantics():
    missing = run_suite(SuiteConfig(include=("ObAntiMon",), budget=0, random_models=0))
    assert not missing.ok
    found = run_suite(SuiteConfig(include=("ObAntiMon",), budget=1, random_models=0))
    assert found.ok
    assert found.outcomes[0].verdict.models_tried == 1
    for counts in ({"budget": -5}, {"random_models": -1}):
        with pytest.raises(InputError):
            SuiteConfig(**counts)


def test_unknown_scheme_tag_rejected():
    with pytest.raises(InputError):
        run_suite(SuiteConfig(include=("NotAScheme",)))
    with pytest.raises(InputError):
        SuiteConfig(include=(5, "Oc5"))


def test_include_exclude_selection():
    report = run_suite(SuiteConfig(
        include=("Oc5", "Ob3"), exclude=("Ob3",),
        exhaustive=(GeneratorBounds(2, 1, 2),), random_models=0, budget=0))
    assert [o.tag for o in report.outcomes] == ["Oc5"]
    assert report.ok


def test_stress_substitutions_on_small_family():
    # expected values recorded before the schemes of a model shared one
    # instance list and one dict of operator answers
    report = run_suite(SuiteConfig(
        include=("Oc7", "Ob6", "OaStar", "ObAntiMon"), stress=True,
        exhaustive=(GeneratorBounds(2, 1, 2), GeneratorBounds(2, 2, 1)),
        random_models=40, budget=2))
    clean = {"expected_valid": True, "passed": True, "models_tried": 108,
             "counterexample": None}
    assert report.to_json() == {"ok": True, "schemes": [
        {"tag": "Oc7", **clean},
        {"tag": "Ob6", **clean},
        {"tag": "OaStar", **clean},
        {"tag": "ObAntiMon", "expected_valid": False, "passed": True, "models_tried": 1,
         "counterexample": {"state": "s0", "instance": "A={} B={b} C={c} phi=p psi=q"}},
    ]}


def test_substitutions_are_read_once():
    subs = axiom_substitutions(True)
    listed = check_scheme(SCHEMES["ObAntiMon"], _stream((2, 2, 2), 300, 300), subs)
    generated = check_scheme(SCHEMES["ObAntiMon"], _stream((2, 2, 2), 300, 300),
                             (sub for sub in subs))
    assert listed.models_tried == 13
    assert (generated.models_tried, generated.counterexample.state,
            generated.counterexample.instance) == (
        listed.models_tried, listed.counterexample.state, listed.counterexample.instance)


@pytest.mark.parametrize("stress, exhaustive, seeds", [
    (False, (), range(60)),
    (True, (), range(6)),
    (False, (GeneratorBounds(2, 1, 2), GeneratorBounds(2, 2, 1)), range(6)),
], ids=["random", "random-stress", "exhaustive"])
def test_suite_evaluates_each_distinct_operator_call_once(monkeypatch, stress, exhaustive,
                                                          seeds):
    # a model is swept unless it comes after the exhaustive families and
    # has the sweep inputs of one of their models; an evaluator is made
    # for the first model of each run of swept models with one transition
    # structure, and evaluates each distinct (operator, a, b - a,
    # condition, goal) once, from the kernel table of (operator kind, a,
    # b - a)
    evaluations = collections.Counter()
    models = []  # kept alive with their tables, so that no two tables share an id
    streamed = []
    real = validity.operator_evaluator
    real_answer = semantics._table_answer
    real_stream = validity.valid_model_stream

    def made(model):
        models.append(model)
        return real(model)

    def counted(table, proactive, want_answered, full, cond_bits, goal_bits):
        evaluations[id(table), proactive, want_answered, cond_bits, goal_bits] += 1
        return real_answer(table, proactive, want_answered, full, cond_bits, goal_bits)

    def recorded(config):
        for model in real_stream(config):
            streamed.append(model)
            yield model

    monkeypatch.setattr(validity, "operator_evaluator", made)
    monkeypatch.setattr(semantics, "_table_answer", counted)
    monkeypatch.setattr(validity, "valid_model_stream", recorded)
    report = run_suite(SuiteConfig(exhaustive=exhaustive, seeds=tuple(seeds), stress=stress,
                                   include=EXPECTED_VALID_TAGS))
    assert report.ok
    formulas = tuple(dict.fromkeys(f for sub in [*axiom_substitutions(stress),
                                                 *rule_substitutions(stress)] for f in sub))
    enumerated = sum(model_count(bounds) for bounds in exhaustive)
    family = {_sweep_inputs(m, formulas) for m in streamed[:enumerated]}
    swept = streamed[:enumerated] + [m for m in streamed[enumerated:]
                                     if _sweep_inputs(m, formulas) not in family]
    runs = [m for i, m in enumerate(swept)
            if i == 0 or _structure(swept[i - 1]) != _structure(m)]
    assert len(models) == len(runs) and all(m is r for m, r in zip(models, runs))
    assert {len(m.states) for m in models} == {1, 2, 3}
    assert evaluations and set(evaluations.values()) == {1}
    assert report.outcomes[0].verdict.models_tried == len(streamed)
    if exhaustive:
        # one outcome map for (2, 1, 2), four for (2, 2, 1); the one-state
        # random models are models of (2, 1, 2)
        assert len(runs) == 1 + 4 + len(seeds) - 2 < len(swept) < len(streamed)


def _count_sweeps(monkeypatch) -> list:
    made = []

    class Counted(validity._ModelSweep):
        def __init__(self, model, *args):
            made.append(len(model.states))
            super().__init__(model, *args)

    monkeypatch.setattr(validity, "_ModelSweep", Counted)
    return made


def test_default_suite_sweeps_each_distinct_model_once(monkeypatch):
    # the 667 one-state and 667 two-state random models are models of
    # the (2, 1, 2) and (2, 2, 2) families; they are counted, not swept
    made = _count_sweeps(monkeypatch)
    report = run_suite()
    assert report.ok
    tried = {o.tag: o.verdict.models_tried for o in report.outcomes}
    assert tried == {**{tag: 6168 for tag in EXPECTED_VALID_TAGS}, "ObAntiMon": 1}
    # the valid pass, then ObAntiMon's sweep of the embedded falsifier
    assert len(made) == 4834 + 1
    family = sum(model_count(bounds) for bounds in DEFAULT_EXHAUSTIVE)
    assert made[family:-1] == [3] * 666


def test_repeated_seeds_report_as_distinct_ones(monkeypatch):
    made = _count_sweeps(monkeypatch)
    family = (GeneratorBounds(2, 1, 2),)
    repeated = run_suite(SuiteConfig(exhaustive=family, seeds=(5,) * 9, budget=1))
    # the family's 4 models, the three two-state and three three-state
    # draws of seed 5 (its one-state draws are in the family), and the
    # embedded falsifier
    assert len(made) == 4 + 6 + 1
    distinct = run_suite(SuiteConfig(exhaustive=family, seeds=tuple(range(5, 14)), budget=1))
    assert repeated.to_json() == distinct.to_json()
    assert repeated.outcomes[0].verdict.models_tried == 4 + 9


def test_draws_from_an_enumerated_family_are_counted_not_swept(monkeypatch):
    # after the exhaustive pass, a draw from one of its families cannot
    # change a verdict: the pass swept a model with its sweep inputs; a
    # scheme the suite expects to hold but that fails makes the report
    # carry a counterexample
    scheme = Scheme("OcAntiMon", "axiom", True, "cooperation read as anti-monotone in "
                    "the acting coalition", _anti_monotone_cooperation_sweep,
                    lambda A, B, C, p, q: implies(Oc(A | C, B, p, q), Oc(A, B, p, q)))
    monkeypatch.setitem(validity.SCHEMES, scheme.tag, scheme)
    config = SuiteConfig(exhaustive=(GeneratorBounds(2, 2, 2),), random_models=9,
                         include=("OcAntiMon", *EXPECTED_VALID_TAGS), budget=0)
    stream = list(validity.valid_model_stream(config))
    substitutions = validity._read_substitutions({"axiom": axiom_substitutions(),
                                                  "rule": rule_substitutions()})
    valid = [SCHEMES[tag] for tag in config.include]
    found = {}
    sweep = None
    for m in stream:
        sweep = validity._ModelSweep(m, substitutions, sweep)
        for s in valid:
            if s.tag not in found:
                cx = validity._scheme_counterexample(s, sweep)
                if cx is not None:
                    found[s.tag] = cx
    assert list(found) == ["OcAntiMon"]

    made = _count_sweeps(monkeypatch)
    report = run_suite(config)
    # the 4,096 models of the family, then the one- and three-state
    # draws; the two-state draws are counted but not swept
    family = model_count(GeneratorBounds(2, 2, 2))
    assert made == [2] * family + [1, 3] * 3
    assert len(stream) == family + 9
    for outcome in report.outcomes:
        assert outcome.verdict == validity.SchemeVerdict(outcome.tag, len(stream),
                                                         found.get(outcome.tag))
    assert [o.passed for o in report.outcomes] == [False] + [True] * len(EXPECTED_VALID_TAGS)


def _anti_monotone_cooperation_sweep(O, coalitions, P, Q, full):
    # cooperation read as anti-monotone in the acting coalition: not a
    # valid scheme, so the sweep reports instances
    for a in coalitions:
        for b in coalitions:
            for c in coalitions:
                bad = O(Oc, a | c, b, P, Q) & ~O(Oc, a, b, P, Q)
                if bad:
                    return (a, b, c), bad
    return None


def _renamed_actions(model):
    # the same sweep inputs under other action names
    avail = {key: tuple("x" + act for act in acts) for key, acts in model.avail.items()}
    outcome = {(s, tuple("x" + act for act in profile)): t
               for (s, profile), t in model.outcome.items()}
    return _rebuilt(model, avail=avail, outcome=outcome)


def test_repeats_before_the_first_violation_leave_the_verdict_unchanged(monkeypatch):
    scheme = Scheme("OcAntiMon", "axiom", False, "cooperation read as anti-monotone in "
                    "the acting coalition", _anti_monotone_cooperation_sweep,
                    lambda A, B, C, p, q: implies(Oc(A | C, B, p, q), Oc(A, B, p, q)))
    draws = _stream((2, 2, 2), 0, 4)  # only the first violates the scheme
    head = list(enumerate_models(GeneratorBounds(2, 1, 2))) + draws[1:]
    repeats = [head[5], _rebuilt(head[4]), _renamed_actions(head[6]), head[0],
               _relabeled(head[1], 1), head[4]]
    models = head + repeats + [draws[0], draws[0]]

    substitutions = validity._read_substitutions({"axiom": axiom_substitutions()})
    unskipped = None
    for tried, m in enumerate(models, 1):
        cx = validity._scheme_counterexample(scheme, validity._ModelSweep(m, substitutions))
        if cx is not None:
            unskipped = (tried, cx.state, cx.instance)
            break
    assert unskipped[0] == len(head) + len(repeats) + 1

    made = _count_sweeps(monkeypatch)
    verdict = check_scheme(scheme, models)
    cx = verdict.counterexample
    assert (verdict.models_tried, cx.state, cx.instance) == unskipped
    assert len(made) == unskipped[0]
    assert _refuted_by_oracle(cx)


@pytest.mark.parametrize("case, message", [
    ("tag", "scheme must be a Scheme of kind 'axiom' or 'rule', not 'Oc1'"),
    ("bare-model", "models must be an iterable, not GameModel"),
    ("non-model", "models must be GameModel instances, not tuple"),
    ("rule-pair", "rule substitutions must be tuples of 4 formulas, not (<Atom p>, <Atom q>)"),
    ("axiom-single", "axiom substitutions must be tuples of 2 formulas, not (<Atom p>,)"),
    ("strings", "axiom substitutions must be tuples of 2 formulas, not ('p', 'q')"),
])
def test_check_scheme_rejects_malformed_arguments(case, message):
    # these gave a bare AttributeError, TypeError, AttributeError, and a
    # TypeError from inside a sweep for each substitution
    m = embedded_falsifier()
    p, q = parse_formula("p"), parse_formula("q")
    args = {
        "tag": ("Oc1", [m]),
        "bare-model": (SCHEMES["Oc1"], m),
        "non-model": (SCHEMES["Oc1"], [m, (m.agents, m.states)]),
        "rule-pair": (SCHEMES["RuleOcMon"], [m], [(p, q)]),
        "axiom-single": (SCHEMES["Oc1"], [m], [(p,)]),
        "strings": (SCHEMES["Oc1"], [m], [("p", "q")]),
    }[case]
    with pytest.raises(InputError, match=rf"^{re.escape(message)}$"):
        check_scheme(*args)


@pytest.mark.parametrize("case, message", [
    ("run_suite", "config must be a SuiteConfig, not dict"),
    ("enumerate_models", "bounds must be a GeneratorBounds, not (2, 1, 1)"),
    ("model_count", "bounds must be a GeneratorBounds, not (2, 1, 1)"),
    ("random_model", "bounds must be a GeneratorBounds, not (2, 1, 1)"),
    ("float-seed", "seed must be an integer, not 1.5"),
    ("string-seed", "seed must be an integer, not '7'"),
])
def test_generators_and_suite_reject_malformed_arguments(case, message):
    # the first four gave a bare AttributeError; a float or string seed
    # seeded a model
    call = {
        "run_suite": lambda: run_suite({"budget": 1}),
        "enumerate_models": lambda: list(enumerate_models((2, 1, 1))),
        "model_count": lambda: model_count((2, 1, 1)),
        "random_model": lambda: random_model((2, 1, 1), 1),
        "float-seed": lambda: random_model(GeneratorBounds(2, 1, 1), 1.5),
        "string-seed": lambda: random_model(GeneratorBounds(2, 1, 1), "7"),
    }[case]
    with pytest.raises(InputError, match=rf"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("field, value", [
    ("random_models", 1.5), ("random_models", True), ("seed", 1.9), ("seed", "1"),
    ("seed", None), ("budget", True), ("budget", 2.0), ("seeds", (1.5,)),
    ("seeds", (1, False)),
])
def test_suite_config_rejects_non_integer_counts(field, value):
    # a float would be truncated or fail deep inside the run, and a bool
    # would be read as 0 or 1
    with pytest.raises(InputError, match=rf"^{field} must be an integer, not "):
        SuiteConfig(**{field: value})


@pytest.mark.parametrize("field, value, message", [
    ("exhaustive", [(2, 1, 1)], "exhaustive must hold GeneratorBounds, not "),
    ("exhaustive", GeneratorBounds(2, 1, 1), "exhaustive must be a tuple, not "),
    ("include", "Oc5", "include must be a tuple, not 'Oc5'"),
    ("exclude", "Oc5", "exclude must be a tuple, not 'Oc5'"),
    ("seeds", iter([1, 2]), "seeds must be a tuple, not "),
    ("seeds", 5, "seeds must be a tuple, not 5"),
], ids=["exhaustive-of-tuples", "exhaustive-one-bounds", "include-string", "exclude-string",
        "seeds-iterator", "seeds-int"])
def test_suite_config_rejects_malformed_collections(field, value, message):
    # these gave a bare AttributeError, a bare TypeError, tags read one
    # letter at a time, seeds spent by the checks, so no random model was
    # swept, and a bare TypeError
    with pytest.raises(InputError, match=rf"^{re.escape(message)}"):
        SuiteConfig(**{field: value})


def test_exhaustive_bounds_label_only_atoms_the_instances_read():
    # every labeling of an atom no instance reads sweeps the same instances
    for atoms in (("1", "x"), ("p", "r"), ("q", "p", "s")):
        with pytest.raises(InputError, match=r"^no scheme instance reads the atoms \["):
            SuiteConfig(exhaustive=(GeneratorBounds(2, 1, 1, atoms),))
    # fewer atoms are fine: q is then false everywhere
    report = run_suite(SuiteConfig(exhaustive=(GeneratorBounds(2, 1, 1, ("p",)),),
                                   include=("Oc5",), random_models=0, budget=0))
    assert report.ok and report.outcomes[0].verdict.models_tried == 2


def test_suite_report_json_shape():
    report = run_suite(SuiteConfig(
        include=("Oc5", "ObAntiMon"),
        exhaustive=(GeneratorBounds(2, 1, 1),), random_models=0, budget=1))
    data = report.to_json()
    assert data["ok"] is True
    tags = {entry["tag"] for entry in data["schemes"]}
    assert tags == {"Oc5", "ObAntiMon"}
