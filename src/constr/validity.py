"""Model-family generation and empirical axiom-scheme checking.

Axiom schemes are checked by searching generated model families for a
falsifying (model, state, instantiation); inference rules are checked in
model-global form: wherever the premise implications hold at every state
of a model, the conclusion implication must too.  One scheme in the
registry is expected to be invalid; for it, finding a counterexample is
the passing outcome.

Scheme instances are evaluated set-level (operator applied to state
sets) through the model's operator evaluator, whose one cache is shared
by every scheme and by model checking, which keeps sweeping all schemes
over tens of thousands of generated models cheap; reported
counterexamples are re-verified through the formula engine.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Iterator

from .formula import And, Atom, Formula, Not, Obeta, Oalpha, Oc, TOP, bottom, iff, implies
from .model import GameModel, InputError, State, coalitions
from .semantics import extension_bits, holds, operator_evaluator
# perfbench/tracing.py wraps this binding; nothing here calls it
from .semantics import strategic_holds_at  # noqa: F401

_EMPTY = frozenset()


@dataclass(frozen=True)
class GeneratorBounds:
    """Exact shape of a generated family: every agent has exactly
    `actions` actions at every state."""

    agents: int
    states: int
    actions: int
    atoms: tuple[str, ...] = ("p", "q")

    def __post_init__(self):
        if self.agents < 1 or self.states < 1 or self.actions < 1:
            raise InputError("generator bounds must be at least 1")
        if self.agents > 8:
            raise InputError("at most 8 agents are supported by the generators")


@lru_cache(maxsize=None)
def _skeleton(bounds: GeneratorBounds):
    agents = tuple("abcdefgh"[: bounds.agents])
    states = tuple(f"s{i}" for i in range(bounds.states))
    avail = {
        (s, a): tuple(f"{a}{i + 1}" for i in range(bounds.actions))
        for s in states for a in agents
    }
    profiles = tuple(itertools.product(*(avail[(states[0], a)] for a in agents)))
    slots = tuple((s, profile) for s in states for profile in profiles)
    shared_caches: dict = {"_ja_cache": {}, "_mask_cache": {}}
    return agents, states, avail, slots, shared_caches


def _assemble(bounds: GeneratorBounds, outcome, valuation) -> GameModel:
    agents, states, avail, _, shared = _skeleton(bounds)
    model = GameModel(agents=agents, states=states, avail=avail,
                      outcome=outcome, valuation=valuation)
    # availability-derived tables are identical across the family; share them
    model.__dict__.update(shared)
    if "_profile_table" not in shared:
        shared["_profile_table"] = model._profile_table
    return model


def model_count(bounds: GeneratorBounds) -> int:
    """How many models enumerate_models would yield for these bounds."""
    profiles = bounds.actions ** bounds.agents
    outcomes = bounds.states ** (profiles * bounds.states)
    labelings = 2 ** (len(bounds.atoms) * bounds.states)
    return outcomes * labelings


def enumerate_models(bounds: GeneratorBounds, cap: int = 10 ** 6) -> Iterator[GameModel]:
    """Every model of the exact shape, in a fixed deterministic order.

    Refuses to start when the family size exceeds `cap`.
    """
    count = model_count(bounds)
    if count > cap:
        raise InputError(
            f"family of {count} models exceeds the cap of {cap}; tighten the bounds")
    _, states, _, slots, _ = _skeleton(bounds)
    label_slots = [(atom, s) for atom in bounds.atoms for s in states]
    for targets in itertools.product(range(bounds.states), repeat=len(slots)):
        outcome = {slot: states[t] for slot, t in zip(slots, targets)}
        for labels in itertools.product((False, True), repeat=len(label_slots)):
            valuation: dict = {}
            for (atom, s), on in zip(label_slots, labels):
                if on:
                    valuation[atom] = valuation.get(atom, frozenset()) | {s}
            yield _assemble(bounds, outcome, valuation)


def random_model(bounds: GeneratorBounds, seed: int) -> GameModel:
    """One model of the exact shape, outcomes and labels drawn uniformly
    and independently; the same seed always yields the same model."""
    rng = random.Random(seed)
    _, states, _, slots, _ = _skeleton(bounds)
    outcome = {slot: states[rng.randrange(bounds.states)] for slot in slots}
    valuation = {}
    for atom in bounds.atoms:
        marked = frozenset(s for s in states if rng.random() < 0.5)
        if marked:
            valuation[atom] = marked
    return _assemble(bounds, outcome, valuation)


# -- scheme registry ----------------------------------------------------------


@dataclass(frozen=True)
class Scheme:
    """One axiom scheme or inference rule.

    `sweep` hunts one model for a violating instantiation and returns
    (coalition combo, violating-states bitmask) or None; `build`
    materializes the instance (for rules: the conclusion implication) as
    a checkable formula.
    """

    tag: str
    kind: str  # "axiom" | "rule"
    expected_valid: bool
    description: str
    sweep: Callable
    build: Callable


def _pair_sweep(body):
    def sweep(O, coalitions, P, Q, full):
        for a in coalitions:
            for b in coalitions:
                bad = body(O, a, b, P, Q, full)
                if bad:
                    return (a, b), bad
        return None
    return sweep


def _single_sweep(body):
    # schemes whose instances mention only the acting coalition
    def sweep(O, coalitions, P, Q, full):
        for a in coalitions:
            bad = body(O, a, P, Q, full)
            if bad:
                return (a, _EMPTY), bad
        return None
    return sweep


def _growing_sweep(cls, grow_first: bool):
    # monotone-union schemes: the base set must transfer to the union
    def sweep(O, coalitions, P, Q, full):
        for a in coalitions:
            for b in coalitions:
                base = O(cls, a, b, P, Q)
                if not base:
                    continue
                for c in coalitions:
                    a2 = a | c if grow_first else a
                    b2 = b if grow_first else b | c
                    bad = base & ~O(cls, a2, b2, P, Q)
                    if bad:
                        return (a, b, c), bad
        return None
    return sweep


def _shrinking_sweep(cls):
    # anti-monotone schemes: the union's set must transfer to the base
    def sweep(O, coalitions, P, Q, full):
        for a in coalitions:
            for b in coalitions:
                target = O(cls, a, b, P, Q)
                if target == full:
                    continue
                for c in coalitions:
                    bad = O(cls, a | c, b, P, Q) & ~target
                    if bad:
                        return (a, b, c), bad
        return None
    return sweep


def _mk_registry() -> dict[str, Scheme]:
    schemes: list[Scheme] = []

    def axiom(tag, description, sweep, build, valid=True):
        schemes.append(Scheme(tag, "axiom", valid, description, sweep, build))

    # cooperation operator
    axiom("Oc1", "cooperation is monotone in the acting coalition",
          _growing_sweep(Oc, grow_first=True),
          lambda A, B, C, p, q: implies(Oc(A, B, p, q), Oc(A | C, B, p, q)))
    axiom("Oc2", "cooperation is monotone in the responding coalition",
          _growing_sweep(Oc, grow_first=False),
          lambda A, B, C, p, q: implies(Oc(A, B, p, q), Oc(A, B | C, p, q)))
    axiom("Oc3", "cooperation collapses to joint unconditional ability",
          _pair_sweep(lambda O, a, b, P, Q, full:
                      O(Oc, a, b, P, Q) & ~O(Oc, a | b, _EMPTY, P & Q, full)),
          lambda A, B, p, q: implies(Oc(A, B, p, q),
                                     Oc(A | B, _EMPTY, And(p, q), TOP)))
    axiom("Oc4", "with no responder, splitting the goals is immaterial",
          _single_sweep(lambda O, a, P, Q, full:
                        O(Oc, a, _EMPTY, P, Q) ^ O(Oc, a, _EMPTY, P & Q, full)),
          lambda A, B, p, q: iff(Oc(A, _EMPTY, p, q),
                                 Oc(A, _EMPTY, And(p, q), TOP)))
    axiom("Oc5", "an unsatisfiable condition rules cooperation out",
          _pair_sweep(lambda O, a, b, P, Q, full: O(Oc, a, b, 0, Q)),
          lambda A, B, p, q: Not(Oc(A, B, bottom(), q)))
    axiom("Oc6", "only responders outside the acting coalition matter",
          _pair_sweep(lambda O, a, b, P, Q, full:
                      0 if not (a & b) else
                      O(Oc, a, b, P, Q) ^ O(Oc, a, b - a, P, Q)),
          lambda A, B, p, q: iff(Oc(A, B, p, q), Oc(A, B - A, p, q)))
    axiom("Oc7", "the condition can be folded into the goal",
          _pair_sweep(lambda O, a, b, P, Q, full:
                      O(Oc, a, b, P, Q) ^ O(Oc, a, b, P, P & Q)),
          lambda A, B, p, q: iff(Oc(A, B, p, q), Oc(A, B, p, And(p, q))))

    # reactive and proactive operators: the same six schemes, restated
    def restate(prefix, op, reading):
        axiom(f"{prefix}1", f"{reading} ability is monotone in the responding coalition",
              _growing_sweep(op, grow_first=False),
              lambda A, B, C, p, q: implies(op(A, B, p, q), op(A, B | C, p, q)))
        axiom(f"{prefix}2", "securing a condition secures it",
              _single_sweep(lambda O, a, P, Q, full: full ^ O(op, a, _EMPTY, P, P)),
              lambda A, B, p, q: op(A, _EMPTY, p, p))
        axiom(f"{prefix}3", "an unsatisfiable condition makes the claim vacuous",
              _single_sweep(lambda O, a, P, Q, full: full ^ O(op, a, _EMPTY, 0, Q)),
              lambda A, B, p, q: op(A, _EMPTY, bottom(), q))
        axiom(f"{prefix}4", "a securable condition cannot force the responder into absurdity",
              _pair_sweep(lambda O, a, b, P, Q, full:
                          O(op, _EMPTY, a, full, P) & O(op, a, b, P, 0)),
              lambda A, B, p, q: implies(op(_EMPTY, A, TOP, p),
                                         Not(op(A, B, p, bottom()))))
        axiom(f"{prefix}5", "only responders outside the acting coalition matter",
              _pair_sweep(lambda O, a, b, P, Q, full:
                          0 if not (a & b) else
                          O(op, a, b, P, Q) ^ O(op, a, b - a, P, Q)),
              lambda A, B, p, q: iff(op(A, B, p, q), op(A, B - A, p, q)))
        axiom(f"{prefix}6", "the condition can be folded into the goal",
              _pair_sweep(lambda O, a, b, P, Q, full:
                          O(op, a, b, P, Q) ^ O(op, a, b, P, P & Q)),
              lambda A, B, p, q: iff(op(A, B, p, q), op(A, B, p, And(p, q))))

    restate("Ob", Obeta, "reactive")
    restate("Oa", Oalpha, "proactive")

    # the proactive operator only: anti-monotone in the acting coalition
    axiom("OaStar", "proactive ability is anti-monotone in the acting coalition",
          _shrinking_sweep(Oalpha),
          lambda A, B, C, p, q: implies(Oalpha(A | C, B, p, q), Oalpha(A, B, p, q)))

    # interaction
    axiom("ConStR1", "proactive ability implies reactive ability",
          _pair_sweep(lambda O, a, b, P, Q, full:
                      O(Oalpha, a, b, P, Q) & ~O(Obeta, a, b, P, Q)),
          lambda A, B, p, q: implies(Oalpha(A, B, p, q), Obeta(A, B, p, q)))
    axiom("ConStR2", "securable condition plus reactive ability yields cooperation",
          _pair_sweep(lambda O, a, b, P, Q, full:
                      (O(Obeta, _EMPTY, a, full, P) & O(Obeta, a, b, P, Q)
                       & ~O(Oc, a, b, P, Q))),
          lambda A, B, p, q: implies(And(Obeta(_EMPTY, A, TOP, p),
                                         Obeta(A, B, p, q)),
                                     Oc(A, B, p, q)))

    # the deliberately invalid scheme: anti-monotonicity for the reactive form
    axiom("ObAntiMon", "reactive ability is NOT anti-monotone in the acting coalition",
          _shrinking_sweep(Obeta),
          lambda A, B, C, p, q: implies(Obeta(A | C, B, p, q), Obeta(A, B, p, q)),
          valid=False)

    # monotonicity rules, model-global reading; flip_condition: the
    # condition premise reads backwards (phi' -> phi)
    def rule(tag, cls, flip_condition, description):
        def sweep(O, coalitions, P, P2, Q, Q2, full):
            # an instance whose premises fail somewhere is vacuous
            if (P2 & ~P if flip_condition else P & ~P2) or Q & ~Q2:
                return None
            for a in coalitions:
                for b in coalitions:
                    base = O(cls, a, b, P, Q)
                    if not base:
                        continue
                    bad = base & ~O(cls, a, b, P2, Q2)
                    if bad:
                        return (a, b), bad
            return None

        def build(A, B, p, p2, q, q2):
            return implies(cls(A, B, p, q), cls(A, B, p2, q2))

        schemes.append(Scheme(tag, "rule", True, description, sweep, build))

    rule("RuleOcMon", Oc, False, "cooperation is monotone in both arguments")
    rule("RuleObMon", Obeta, True,
         "reactive ability: anti-monotone condition, monotone goal")
    rule("RuleOaMon", Oalpha, True,
         "proactive ability: anti-monotone condition, monotone goal")

    return {s.tag: s for s in schemes}


SCHEMES: dict[str, Scheme] = _mk_registry()

EXPECTED_VALID_TAGS = tuple(tag for tag, s in SCHEMES.items() if s.expected_valid)
EXPECTED_INVALID_TAGS = tuple(tag for tag, s in SCHEMES.items() if not s.expected_valid)


# -- instance sweeps ---------------------------------------------------------


@dataclass(frozen=True)
class Counterexample:
    model: GameModel
    state: State
    instance: str
    formula: Formula


@dataclass(frozen=True)
class SchemeVerdict:
    tag: str
    models_tried: int
    counterexample: Counterexample | None = None

    @property
    def found(self) -> bool:
        return self.counterexample is not None


def _stress_pool() -> list[Formula]:
    from .formula import or_
    p, q = Atom("p"), Atom("q")
    return [p, q, Not(p), And(p, q), or_(p, Not(q)), TOP, bottom()]


def axiom_substitutions(stress: bool = False) -> list[tuple[Formula, Formula]]:
    if not stress:
        return [(Atom("p"), Atom("q"))]
    pool = _stress_pool()
    return [(f, g) for f in pool for g in pool]


def rule_substitutions(stress: bool = False) -> list[tuple[Formula, ...]]:
    pool = _stress_pool() if stress else [Atom("p"), Atom("q")]
    return list(itertools.product(pool, repeat=4))


def _coalition_desc(combo) -> str:
    names = "ABC"
    return " ".join(f"{n}={{{','.join(sorted(c))}}}" for n, c in zip(names, combo))


def _scheme_counterexample(scheme: Scheme, model: GameModel,
                           substitutions) -> Counterexample | None:
    """First violating (state, instantiation) of one scheme on one model."""
    O = operator_evaluator(model)
    subsets = coalitions(model.agents)
    full = model.full_bits
    if scheme.kind == "axiom":
        for phi, psi in substitutions:
            P = extension_bits(model, phi)
            Q = extension_bits(model, psi)
            hit = scheme.sweep(O, subsets, P, Q, full)
            if hit is not None:
                combo, bad = hit
                state = model.states[(bad & -bad).bit_length() - 1]
                desc = f"{_coalition_desc(combo)} phi={phi} psi={psi}"
                return Counterexample(model, state, desc,
                                      scheme.build(*combo, phi, psi))
        return None
    for phi, phi2, psi, psi2 in substitutions:
        P = extension_bits(model, phi)
        P2 = extension_bits(model, phi2)
        Q = extension_bits(model, psi)
        Q2 = extension_bits(model, psi2)
        hit = scheme.sweep(O, subsets, P, P2, Q, Q2, full)
        if hit is not None:
            combo, bad = hit
            state = model.states[(bad & -bad).bit_length() - 1]
            desc = (f"{_coalition_desc(combo)} phi={phi} phi'={phi2} "
                    f"psi={psi} psi'={psi2}")
            return Counterexample(model, state, desc,
                                  scheme.build(*combo, phi, phi2, psi, psi2))
    return None


def check_scheme(scheme: Scheme, models: Iterable[GameModel],
                 substitutions=None, stop_at_first: bool = True) -> SchemeVerdict:
    """Sweep models for a violating instance of one scheme.

    The default instantiation follows the registry kind: the atom pair
    (p, q) for axioms, all quadruples over {p, q} for rules.
    """
    if substitutions is None:
        substitutions = (axiom_substitutions() if scheme.kind == "axiom"
                         else rule_substitutions())
    tried = 0
    found = None
    for model in models:
        tried += 1
        cx = _scheme_counterexample(scheme, model, substitutions)
        if cx is not None:
            found = cx
            if stop_at_first:
                break
    return SchemeVerdict(scheme.tag, tried, found)


def verify_counterexample(cx: Counterexample) -> bool:
    """Re-check a reported counterexample through the formula engine."""
    return not holds(cx.model, cx.state, cx.formula)


# -- suite --------------------------------------------------------------------


DEFAULT_EXHAUSTIVE = tuple(
    GeneratorBounds(agents=2, states=s, actions=k)
    for s in (1, 2) for k in (1, 2)
)


@dataclass
class SuiteConfig:
    exhaustive: tuple[GeneratorBounds, ...] = DEFAULT_EXHAUSTIVE
    random_models: int = 2000
    seed: int = 0
    seeds: tuple[int, ...] | None = None  # explicit seed list wins over random_models
    include: tuple[str, ...] | None = None
    exclude: tuple[str, ...] = ()
    budget: int = 2000
    stress: bool = False
    cap: int = 10 ** 6


@dataclass
class SchemeOutcome:
    tag: str
    expected_valid: bool
    verdict: SchemeVerdict
    verified: bool | None = None

    @property
    def passed(self) -> bool:
        if self.expected_valid:
            return not self.verdict.found
        return self.verdict.found and bool(self.verified)

    def describe(self) -> str:
        status = "pass" if self.passed else "FAIL"
        if self.expected_valid:
            note = ("no counterexample" if not self.verdict.found
                    else f"counterexample: {self.verdict.counterexample.instance} "
                         f"at {self.verdict.counterexample.state}")
        else:
            note = ("counterexample found and verified" if self.passed
                    else "no counterexample within budget")
        return f"{status} {self.tag}: {note} ({self.verdict.models_tried} models)"


@dataclass
class SuiteReport:
    outcomes: list[SchemeOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(o.passed for o in self.outcomes)

    def lines(self) -> list[str]:
        return [o.describe() for o in self.outcomes]

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "schemes": [
                {
                    "tag": o.tag,
                    "expected_valid": o.expected_valid,
                    "passed": o.passed,
                    "models_tried": o.verdict.models_tried,
                    "counterexample": None if not o.verdict.found else {
                        "state": o.verdict.counterexample.state,
                        "instance": o.verdict.counterexample.instance,
                    },
                }
                for o in self.outcomes
            ],
        }


def _random_bounds_cycle(i: int) -> GeneratorBounds:
    return GeneratorBounds(agents=2, states=1 + i % 3, actions=2)


def valid_model_stream(config: SuiteConfig) -> Iterator[GameModel]:
    for bounds in config.exhaustive:
        yield from enumerate_models(bounds, cap=config.cap)
    if config.seeds is not None:
        for i, seed in enumerate(config.seeds):
            yield random_model(_random_bounds_cycle(i), seed)
    else:
        for i in range(config.random_models):
            yield random_model(_random_bounds_cycle(i), config.seed + i)


def invalid_search_stream(config: SuiteConfig) -> Iterator[GameModel]:
    """Embedded falsifying model first, then seeded random 3-agent models."""
    from .corpus import embedded_falsifier
    produced = 0
    if produced < config.budget:
        yield embedded_falsifier()
        produced += 1
    i = 0
    while produced < config.budget:
        bounds = GeneratorBounds(agents=3, states=3 + i % 3, actions=2)
        yield random_model(bounds, config.seed + 7_000_000 + i)
        produced += 1
        i += 1


def selected_schemes(config: SuiteConfig) -> list[Scheme]:
    unknown = set(config.include or ()) | set(config.exclude)
    unknown -= set(SCHEMES)
    if unknown:
        raise InputError(f"unknown scheme tags: {sorted(unknown)}")
    tags = config.include if config.include is not None else tuple(SCHEMES)
    return [SCHEMES[t] for t in tags if t not in set(config.exclude)]


def run_suite(config: SuiteConfig | None = None) -> SuiteReport:
    """Check every selected scheme against its model stream.

    Valid schemes share one pass over the generated family (and the
    model's operator evaluator); the expected-invalid schemes each hunt
    the counterexample stream until their budget runs out.
    """
    config = config or SuiteConfig()
    axiom_subs = axiom_substitutions(config.stress)
    rule_subs = rule_substitutions(config.stress)
    selected = selected_schemes(config)

    valid = [s for s in selected if s.expected_valid]
    found: dict[str, Counterexample] = {}
    tried = 0
    if valid:
        for model in valid_model_stream(config):
            tried += 1
            for scheme in valid:
                if scheme.tag in found:
                    continue
                subs = axiom_subs if scheme.kind == "axiom" else rule_subs
                cx = _scheme_counterexample(scheme, model, subs)
                if cx is not None:
                    found[scheme.tag] = cx

    report = SuiteReport()
    for scheme in selected:
        if scheme.expected_valid:
            verdict = SchemeVerdict(scheme.tag, tried, found.get(scheme.tag))
            report.outcomes.append(SchemeOutcome(scheme.tag, True, verdict))
        else:
            subs = axiom_subs if scheme.kind == "axiom" else rule_subs
            verdict = check_scheme(scheme, invalid_search_stream(config), subs)
            verified = (verify_counterexample(verdict.counterexample)
                        if verdict.found else None)
            report.outcomes.append(SchemeOutcome(scheme.tag, False, verdict, verified))
    return report
