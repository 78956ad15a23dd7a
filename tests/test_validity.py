"""Model generators and the axiom-scheme machinery."""

import itertools

import pytest

from constr.corpus import embedded_falsifier
from constr.formula import parse_formula
from constr.model import InputError, validate_model
from constr.semantics import holds
from constr.textio import render_model
from constr.validity import (
    EXPECTED_INVALID_TAGS,
    EXPECTED_VALID_TAGS,
    SCHEMES,
    GeneratorBounds,
    SuiteConfig,
    check_scheme,
    enumerate_models,
    model_count,
    random_model,
    run_suite,
    verify_counterexample,
)

from oracles import brute_holds

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
    # verify_counterexample reads operator results the sweep cached; the
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


def test_unknown_scheme_tag_rejected():
    with pytest.raises(InputError):
        run_suite(SuiteConfig(include=("NotAScheme",)))


def test_include_exclude_selection():
    report = run_suite(SuiteConfig(
        include=("Oc5", "Ob3"), exclude=("Ob3",),
        exhaustive=(GeneratorBounds(2, 1, 2),), random_models=0, budget=0))
    assert [o.tag for o in report.outcomes] == ["Oc5"]
    assert report.ok


def test_stress_substitutions_on_small_family():
    report = run_suite(SuiteConfig(
        include=("Oc7", "Ob6", "OaStar"), stress=True,
        exhaustive=(GeneratorBounds(2, 1, 2), GeneratorBounds(2, 2, 1)),
        random_models=40, budget=0))
    assert report.ok


def test_suite_report_json_shape():
    report = run_suite(SuiteConfig(
        include=("Oc5", "ObAntiMon"),
        exhaustive=(GeneratorBounds(2, 1, 1),), random_models=0, budget=1))
    data = report.to_json()
    assert data["ok"] is True
    tags = {entry["tag"] for entry in data["schemes"]}
    assert tags == {"Oc5", "ObAntiMon"}
