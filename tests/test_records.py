"""The public record types: construction, equality, hashing, immutability
and text, and an import of the package that generates no code."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import constr
from constr.bisim import BisimFailure, BisimVerdict
from constr.corpus import CheckResult, CorpusReport, Fixture, FormulaCheck, RelationCheck
from constr.formula import Atom
from constr.model import GameModel, InputError, JointAction, Violation
from constr.semantics import Explanation, Extension
from constr.validity import (
    DEFAULT_EXHAUSTIVE,
    Counterexample,
    GeneratorBounds,
    Scheme,
    SchemeOutcome,
    SchemeVerdict,
    SuiteConfig,
    SuiteReport,
)

MODEL_FIELDS = {"agents": ("a",), "states": ("s0",), "avail": {("s0", "a"): ("a1",)},
                "outcome": {("s0", ("a1",)): "s0"}, "valuation": {"p": frozenset({"s0"})}}
VERDICT = SchemeVerdict("Oc5", 3)

# (type, required fields, optional fields at their defaults, frozen and hashable)
RECORDS = [
    (JointAction, {"state": "s0", "moves": (("a", "a1"),)}, {}, True),
    (Violation, {"kind": "no states", "detail": "none"},
     {"state": None, "agent": None, "profile": None}, True),
    (GameModel, MODEL_FIELDS, {}, True),
    (Extension, {"formula": Atom("p"), "states": frozenset({"s0"})}, {}, True),
    (Explanation, {"value": True},
     {"operator": None, "negated": False, "detail": "", "witnesses": {}}, False),
    (BisimFailure, {"pair": ("s0", "t0"), "condition": "Forth"},
     {"coalition_a": None, "coalition_b": None, "witness": None}, True),
    (BisimVerdict, {"ok": True}, {"failure": None}, True),
    (FormulaCheck, {"state": "s0", "formula": "p", "expected": True}, {}, True),
    (RelationCheck, {"cl_ok": True, "constr_ok": False},
     {"failure_pair": None, "failing_families": ()}, True),
    (Fixture, {"name": "ex1", "note": "", "model_file": "ex1.cgm"},
     {"relation_file": None, "formula_checks": (), "relation_check": None}, True),
    (CheckResult, {"fixture": "ex1", "description": "ok", "passed": True}, {"detail": ""}, True),
    (CorpusReport, {}, {"results": []}, False),
    (GeneratorBounds, {"agents": 2, "states": 1, "actions": 2}, {"atoms": ("p", "q")}, True),
    (Scheme, {"tag": "T", "kind": "axiom", "expected_valid": True, "description": "",
              "sweep": min, "build": max}, {}, True),
    (Counterexample, {"model": GameModel(**MODEL_FIELDS), "state": "s0", "instance": "p",
                      "formula": Atom("p")}, {}, True),
    (SchemeVerdict, {"tag": "Oc5", "models_tried": 3}, {"counterexample": None}, True),
    (SchemeOutcome, {"tag": "Oc5", "expected_valid": True, "verdict": VERDICT},
     {"verified": None}, False),
    (SuiteConfig, {}, {"exhaustive": DEFAULT_EXHAUSTIVE, "random_models": 2000, "seed": 0,
                       "seeds": None, "include": None, "exclude": (), "budget": 2000,
                       "stress": False}, False),
    (SuiteReport, {}, {"outcomes": []}, False),
]


@pytest.mark.parametrize("cls, required, defaults, frozen", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, required, defaults, frozen):
    positional = cls(*required.values())
    keyword = cls(**required, **defaults)
    assert positional == keyword == cls(*required.values(), *defaults.values())
    assert [getattr(keyword, name) for name in {**required, **defaults}] == \
        [*required.values(), *defaults.values()]
    if frozen:
        assert hash(positional) == hash(keyword)
        for name in {**required, **defaults}:
            with pytest.raises(AttributeError):
                setattr(positional, name, None)


def test_records_differing_in_a_field_differ():
    assert GameModel(**{**MODEL_FIELDS, "valuation": {}}) != GameModel(**MODEL_FIELDS)
    assert GeneratorBounds(2, 1, 2) != GeneratorBounds(2, 1, 2, ("p",))
    assert SuiteConfig(seed=1) != SuiteConfig()
    assert Explanation(True, detail="x") != Explanation(True)
    assert CorpusReport([CheckResult("ex1", "ok", True)]) != CorpusReport()
    assert SuiteReport([SchemeOutcome("Oc5", True, VERDICT)]) != SuiteReport()


def test_record_texts():
    assert str(JointAction.of("s0", {"b": "b2", "a": "a1"})) == "(a:a1,b:b2)@s0"
    assert str(JointAction("s1", ())) == "()@s1"
    assert str(Violation("outcome not total", "no successor for profile", state="s0",
                         profile=("a1", "b2"))) == \
        "outcome not total: no successor for profile [state=s0, profile=(a1,b2)]"
    assert str(Violation("unknown agent", "action set declared for 'z'", state="s0",
                         agent="z")) == "unknown agent: action set declared for 'z' [state=s0, agent=z]"
    assert str(Violation("no states", "model must have at least one state")) == \
        "no states: model must have at least one state"
    assert str(BisimVerdict(True)) == "ok"
    failure = BisimFailure(("s0", "t0"), "A-Forth_c", frozenset("ba"), frozenset(), "(a:a1)@s0")
    assert str(BisimVerdict(False, failure)) == \
        "fail: A-Forth_c fails at (s0, t0) A={a,b} B={} unmatched (a:a1)@s0"
    assert str(BisimVerdict(False, BisimFailure(("s0", "t0"), "Back"))) == \
        "fail: Back fails at (s0, t0)"
    assert str(CheckResult("ex1", "model validates", True, "unshown")) == "pass ex1: model validates"
    assert str(CheckResult("ex1", "p at s0 expected true", False, "got false")) == \
        "FAIL ex1: p at s0 expected true (got false)"
    # the bounds show as their fields in the config's error text
    with pytest.raises(InputError) as exc:
        SuiteConfig(exhaustive=(GeneratorBounds(2, 1, 1), (2, 1, 1)))
    assert str(exc.value) == ("exhaustive must hold GeneratorBounds, not (GeneratorBounds("
                              "agents=2, states=1, actions=1, atoms=('p', 'q')), (2, 1, 1))")


def test_mutable_defaults_are_not_shared():
    for make, name in ((SuiteReport, "outcomes"), (CorpusReport, "results"),
                       (lambda: Explanation(True), "witnesses")):
        first, second = make(), make()
        assert getattr(first, name) is not getattr(second, name)


def test_importing_the_package_generates_no_dataclass_code():
    # generating dataclass methods was most of the import time of a CLI call
    src = Path(constr.__file__).resolve().parent.parent
    code = "import sys, constr, constr.cli; sys.exit('dataclasses' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert done.returncode == 0, done.stderr
