"""Embedded fixture models and their expected verdicts.

The fixtures ship in the public text formats under constr/fixtures so
they can be replayed through the CLI; this module loads them and runs
the frozen expectations through the checking engines.
"""

from __future__ import annotations

from importlib import resources
from typing import NamedTuple

from . import bisim
from .formula import parse_formula
from .model import GameModel, _Record, validate_model
from .semantics import holds
from .textio import parse_model, parse_relation


class FormulaCheck(NamedTuple):
    state: str
    formula: str
    expected: bool


class RelationCheck(NamedTuple):
    cl_ok: bool
    constr_ok: bool
    failure_pair: tuple[str, str] | None = None
    failing_families: tuple[str, ...] = ()


class Fixture(NamedTuple):
    name: str
    note: str
    model_file: str
    relation_file: str | None = None
    formula_checks: tuple[FormulaCheck, ...] = ()
    relation_check: RelationCheck | None = None


FIXTURES: tuple[Fixture, ...] = (
    Fixture(
        name="ex1",
        note="cooperative ability present while unconditional ability is absent",
        model_file="ex1.cgm",
        formula_checks=(
            FormulaCheck("s0", "Oc[{a},{b}](p, q)", True),
            FormulaCheck("s0", "[{b}] q", False),
        ),
    ),
    Fixture(
        name="ex2",
        note="reactive ability without proactive ability",
        model_file="ex2.cgm",
        formula_checks=(
            FormulaCheck("s0", "Ob[{a},{b}](p, q)", True),
            FormulaCheck("s0", "Oa[{a},{b}](p, q)", False),
        ),
    ),
    Fixture(
        name="ex2_swapped",
        note="after exchanging two successors the proactive reading holds",
        model_file="ex2_swapped.cgm",
        formula_checks=(
            FormulaCheck("s0", "Oa[{a},{b}](p, q)", True),
        ),
    ),
    Fixture(
        name="exA",
        note="cooperation separates two roots the plain bisimulation relates",
        model_file="exA.cgm",
        relation_file="exA.rel",
        formula_checks=(
            FormulaCheck("s0", "Oc[{a},{b}](p, q)", True),
            FormulaCheck("t0", "Oc[{a},{b}](p, q)", False),
        ),
        relation_check=RelationCheck(
            cl_ok=True, constr_ok=False, failure_pair=("s0", "t0"),
            failing_families=(bisim.FAMILY_COOP,),
        ),
    ),
    Fixture(
        name="exB",
        note="a one-coalition conditional separates two plainly bisimilar roots",
        model_file="exB.cgm",
        relation_file="exB.rel",
        formula_checks=(
            FormulaCheck("s0", "<<{a}>>b(p, q)", True),
            FormulaCheck("t0", "<<{a}>>b(p, q)", False),
        ),
        relation_check=RelationCheck(
            cl_ok=True, constr_ok=False, failure_pair=("s0", "t0"),
            failing_families=(bisim.FAMILY_REACTIVE,),
        ),
    ),
    Fixture(
        name="exC",
        note="a proactive conditional separates two plainly bisimilar roots",
        model_file="exC.cgm",
        relation_file="exC.rel",
        formula_checks=(
            FormulaCheck("s0", "Oa[{b},{a}](q, p)", True),
            FormulaCheck("t0", "Oa[{b},{a}](q, p)", False),
        ),
        relation_check=RelationCheck(
            cl_ok=True, constr_ok=False, failure_pair=("s0", "t0"),
            failing_families=(bisim.FAMILY_PROACTIVE,),
        ),
    ),
    Fixture(
        name="antimono",
        note="a larger acting coalition has the reactive ability, a smaller one has not",
        model_file="antimono.cgm",
        formula_checks=(
            FormulaCheck("s0", "Ob[{a,c},{b}](p, q)", True),
            FormulaCheck("s0", "Ob[{a},{b}](p, q)", False),
        ),
    ),
)

CORE_MODEL_NAMES = ("ex1", "ex2", "exA", "exB", "exC", "antimono")

_BY_NAME = {f.name: f for f in FIXTURES}


def fixture(name: str) -> Fixture:
    return _BY_NAME[name]


def fixture_text(filename: str) -> str:
    return resources.files("constr.fixtures").joinpath(filename).read_text("utf-8")


def fixture_model(name: str) -> GameModel:
    return parse_model(fixture_text(_BY_NAME[name].model_file))


def fixture_relation(name: str):
    f = _BY_NAME[name]
    if f.relation_file is None:
        raise KeyError(f"fixture {name} has no relation file")
    return parse_relation(fixture_text(f.relation_file))


def corpus_models() -> dict[str, GameModel]:
    return {f.name: fixture_model(f.name) for f in FIXTURES}


def core_models() -> dict[str, GameModel]:
    return {name: fixture_model(name) for name in CORE_MODEL_NAMES}


def embedded_falsifier() -> GameModel:
    """The shipped model falsifying anti-monotonicity of the reactive form."""
    return fixture_model("antimono")


# -- execution ---------------------------------------------------------------


class CheckResult(NamedTuple):
    fixture: str
    description: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "pass" if self.passed else "FAIL"
        tail = f" ({self.detail})" if self.detail and not self.passed else ""
        return f"{mark} {self.fixture}: {self.description}{tail}"


class CorpusReport(_Record):
    _fields = ("results",)

    def __init__(self, results: list[CheckResult] | None = None):
        self.results = [] if results is None else results

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        return [str(r) for r in self.results]

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {"fixture": r.fixture, "description": r.description,
                 "passed": r.passed, "detail": r.detail}
                for r in self.results
            ],
        }


def run_corpus() -> CorpusReport:
    """Run every frozen expectation; all of them must pass on a healthy build."""
    report = CorpusReport()
    add = report.results.append
    for f in FIXTURES:
        model = fixture_model(f.name)
        violations = validate_model(model)
        add(CheckResult(f.name, "model validates", not violations,
                        "; ".join(map(str, violations))))
        if violations:
            continue
        for check in f.formula_checks:
            got = holds(model, check.state, parse_formula(check.formula))
            add(CheckResult(
                f.name,
                f"{check.formula} at {check.state} expected {str(check.expected).lower()}",
                got == check.expected, f"got {str(got).lower()}"))
        if f.relation_check is None:
            continue
        relation = fixture_relation(f.name)
        expect = f.relation_check
        cl = bisim.check_cl_bisim(model, relation)
        add(CheckResult(f.name, f"relation CL verdict expected ok={expect.cl_ok}",
                        cl.ok == expect.cl_ok, str(cl)))
        constr = bisim.check_constr_bisim(model, relation)
        add(CheckResult(f.name, f"relation ConStR verdict expected ok={expect.constr_ok}",
                        constr.ok == expect.constr_ok, str(constr)))
        if not expect.constr_ok and expect.failure_pair is not None:
            got_pair = constr.failure.pair if constr.failure else None
            add(CheckResult(f.name, f"first failing pair is {expect.failure_pair}",
                            got_pair == expect.failure_pair, str(constr)))
        for family in expect.failing_families:
            probe = bisim.check_constr_bisim(model, relation, families=(family,))
            add(CheckResult(f.name, f"condition family '{family}' fails on its own",
                            not probe.ok, str(probe)))
    return report
