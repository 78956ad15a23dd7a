"""Model-family generation and empirical axiom-scheme checking.

Axiom schemes are checked by searching generated model families for a
falsifying (model, state, instantiation); inference rules are checked in
model-global form: wherever the premise implications hold at every state
of a model, the conclusion implication must too.  One scheme in the
registry is expected to be invalid; for it, finding a counterexample is
the passing outcome.

Scheme instances are evaluated set-level (operator applied to state
sets) through the model's operator evaluator, which every scheme and
model checking share with the kernel tables and results it keeps.  The
schemes sweeping one model share its list of distinct instances, the
models of one run with the same transition structure share one
evaluator, so each distinct operator call is evaluated once per run.
Within such a run an instance that passed a scheme is not swept again,
and after the exhaustive families, a suite's random draw from one of
them is counted but not swept: its family already was.  The coalition
monotonicity schemes compare each answer only with the answers one
agent larger.  That keeps sweeping all schemes over tens of thousands
of generated models cheap.  Reported counterexamples are re-verified
through the formula engine.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Collection, Iterable, Iterator

from .formula import And, Atom, Formula, Not, Obeta, Oalpha, Oc, TOP, bottom, iff, implies
from .model import GameModel, InputError, State, coalitions, one_agent_supersets
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
        for name in ("agents", "states", "actions"):
            value = getattr(self, name)
            # a bool is an int to Python, and a float would fail deep inside
            if isinstance(value, bool) or not isinstance(value, int):
                raise InputError(f"{name} must be an integer, not {value!r}")
        # a list is unhashable, and a string would be read one letter at a time
        if not isinstance(self.atoms, tuple) or not all(isinstance(a, str) for a in self.atoms):
            raise InputError(f"atoms must be a tuple of strings, not {self.atoms!r}")
        if self.agents < 1 or self.states < 1 or self.actions < 1:
            raise InputError("generator bounds must be at least 1")
        if self.agents > 8:
            raise InputError("at most 8 agents are supported by the generators")
        if "" in self.atoms or len(set(self.atoms)) < len(self.atoms):
            raise InputError(f"atom names must be non-empty and distinct: {self.atoms!r}")


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
    return agents, states, avail, slots


def _in_family(model: GameModel, bounds: GeneratorBounds) -> bool:
    """Whether `enumerate_models(bounds)` yields a model with the same
    sweep inputs: the same agents, states and actions, and atoms only
    among the bounds' atoms."""
    agents, states, avail, _ = _skeleton(bounds)
    return (model.agents == agents and model.states == states and model.avail == avail
            and model.valuation.keys() <= set(bounds.atoms))


def _require_bounds(bounds) -> None:
    if not isinstance(bounds, GeneratorBounds):
        raise InputError(f"bounds must be a GeneratorBounds, not {bounds!r}")


def model_count(bounds: GeneratorBounds) -> int:
    """How many models enumerate_models would yield for these bounds."""
    _require_bounds(bounds)
    profiles = bounds.actions ** bounds.agents
    outcomes = bounds.states ** (profiles * bounds.states)
    labelings = 2 ** (len(bounds.atoms) * bounds.states)
    return outcomes * labelings


def enumerate_models(bounds: GeneratorBounds, cap: int = 10 ** 6) -> Iterator[GameModel]:
    """Every model of the exact shape, in a fixed deterministic order.

    The labelings of one outcome map come one after another, so the
    sweeps of `check_scheme` and `run_suite` share that map's operator
    evaluator.  They rely on the order for speed only, never for
    correctness.  Refuses to start when the family size exceeds `cap`.
    """
    count = model_count(bounds)
    if count > cap:
        raise InputError(
            f"family of {count} models exceeds the cap of {cap}; tighten the bounds")
    agents, states, avail, slots = _skeleton(bounds)
    label_slots = [(atom, s) for atom in bounds.atoms for s in states]
    for targets in itertools.product(range(bounds.states), repeat=len(slots)):
        outcome = {slot: states[t] for slot, t in zip(slots, targets)}
        for labels in itertools.product((False, True), repeat=len(label_slots)):
            valuation: dict = {}
            for (atom, s), on in zip(label_slots, labels):
                if on:
                    valuation[atom] = valuation.get(atom, frozenset()) | {s}
            yield GameModel(agents, states, avail, outcome, valuation)


def random_model(bounds: GeneratorBounds, seed: int) -> GameModel:
    """One model of the exact shape, outcomes and labels drawn uniformly
    and independently; the same seed always yields the same model."""
    _require_bounds(bounds)
    # random.Random would seed from a float or a string without complaint
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise InputError(f"seed must be an integer, not {seed!r}")
    rng = random.Random(seed)
    agents, states, avail, slots = _skeleton(bounds)
    outcome = {slot: states[rng.randrange(bounds.states)] for slot in slots}
    valuation = {}
    for atom in bounds.atoms:
        marked = frozenset(s for s in states if rng.random() < 0.5)
        if marked:
            valuation[atom] = marked
    return GameModel(agents, states, avail, outcome, valuation)


# -- scheme registry ----------------------------------------------------------


@dataclass(frozen=True)
class Scheme:
    """One axiom scheme or inference rule.

    `sweep` hunts one model for a violating instantiation and returns
    (coalition combo, violating-states bitmask) or None; it reads
    nothing but the operator evaluator, the coalitions, the instance's
    argument sets and the full state set, so an instance it passed
    passes again on any model of the same transition structure.
    `build` materializes the instance (for rules: the conclusion
    implication) as a checkable formula.
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


def _monotone_sweep(cls, grow_first: bool, anti: bool = False):
    """Coalition monotonicity of one operator: the answer at (A, B) must
    hold at (A | C, B), or at (A, B | C) when not `grow_first`; with
    `anti`, the answer at the union must hold at (A, B).

    Inclusion along growing coalitions is transitive, so some triple
    fails exactly when some one-agent step (C one agent outside the grown
    coalition) fails, and the check compares each answer only with the
    answers one agent larger.  Only then does the triple loop run, to
    report the first failing (A, B, C) in canonical order, which may be
    wider than the step that tripped it.  `coalitions` must be the full
    canonical powerset that `model.coalitions(agents)` gives.
    """
    def first_triple(O, coalitions, P, Q):
        for a in coalitions:
            for b in coalitions:
                base = O(cls, a, b, P, Q)
                for c in coalitions:
                    union = O(cls, a | c, b, P, Q) if grow_first else O(cls, a, b | c, P, Q)
                    bad = union & ~base if anti else base & ~union
                    if bad:
                        return (a, b, c), bad

    def sweep(O, coalitions, P, Q, full):
        steps = one_agent_supersets(coalitions)
        for i, a in enumerate(coalitions):
            for k, b in enumerate(coalitions):
                answer = O(cls, a, b, P, Q)
                if answer == (full if anti else 0):
                    continue
                for j in steps[i] if grow_first else steps[k]:
                    if grow_first:
                        union = O(cls, coalitions[j], b, P, Q)
                    else:
                        union = O(cls, a, coalitions[j], P, Q)
                    if union & ~answer if anti else answer & ~union:
                        return first_triple(O, coalitions, P, Q)
        return None
    return sweep


def _mk_registry() -> dict[str, Scheme]:
    schemes: list[Scheme] = []

    def axiom(tag, description, sweep, build, valid=True):
        schemes.append(Scheme(tag, "axiom", valid, description, sweep, build))

    # cooperation operator
    axiom("Oc1", "cooperation is monotone in the acting coalition",
          _monotone_sweep(Oc, grow_first=True),
          lambda A, B, C, p, q: implies(Oc(A, B, p, q), Oc(A | C, B, p, q)))
    axiom("Oc2", "cooperation is monotone in the responding coalition",
          _monotone_sweep(Oc, grow_first=False),
          lambda A, B, C, p, q: implies(Oc(A, B, p, q), Oc(A, B | C, p, q)))
    axiom("Oc3", "cooperation collapses to joint unconditional ability",
          _pair_sweep(lambda O, a, b, P, Q, full:
                      (x := O(Oc, a, b, P, Q)) and x & ~O(Oc, a | b, _EMPTY, P & Q, full)),
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
              _monotone_sweep(op, grow_first=False),
              lambda A, B, C, p, q: implies(op(A, B, p, q), op(A, B | C, p, q)))
        axiom(f"{prefix}2", "securing a condition secures it",
              _single_sweep(lambda O, a, P, Q, full: full ^ O(op, a, _EMPTY, P, P)),
              lambda A, B, p, q: op(A, _EMPTY, p, p))
        axiom(f"{prefix}3", "an unsatisfiable condition makes the claim vacuous",
              _single_sweep(lambda O, a, P, Q, full: full ^ O(op, a, _EMPTY, 0, Q)),
              lambda A, B, p, q: op(A, _EMPTY, bottom(), q))
        axiom(f"{prefix}4", "a securable condition cannot force the responder into absurdity",
              _pair_sweep(lambda O, a, b, P, Q, full:
                          (x := O(op, _EMPTY, a, full, P)) and x & O(op, a, b, P, 0)),
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
          _monotone_sweep(Oalpha, grow_first=True, anti=True),
          lambda A, B, C, p, q: implies(Oalpha(A | C, B, p, q), Oalpha(A, B, p, q)))

    # interaction
    axiom("ConStR1", "proactive ability implies reactive ability",
          _pair_sweep(lambda O, a, b, P, Q, full:
                      (x := O(Oalpha, a, b, P, Q)) and x & ~O(Obeta, a, b, P, Q)),
          lambda A, B, p, q: implies(Oalpha(A, B, p, q), Obeta(A, B, p, q)))
    axiom("ConStR2", "securable condition plus reactive ability yields cooperation",
          _pair_sweep(lambda O, a, b, P, Q, full:
                      (x := O(Obeta, _EMPTY, a, full, P))
                      and (x := x & O(Obeta, a, b, P, Q)) and x & ~O(Oc, a, b, P, Q)),
          lambda A, B, p, q: implies(And(Obeta(_EMPTY, A, TOP, p),
                                         Obeta(A, B, p, q)),
                                     Oc(A, B, p, q)))

    # the deliberately invalid scheme: anti-monotonicity for the reactive form
    axiom("ObAntiMon", "reactive ability is NOT anti-monotone in the acting coalition",
          _monotone_sweep(Obeta, grow_first=True, anti=True),
          lambda A, B, C, p, q: implies(Obeta(A | C, B, p, q), Obeta(A, B, p, q)),
          valid=False)

    # monotonicity rules, model-global reading; flip_condition: the
    # condition premise reads backwards (phi' -> phi)
    def rule(tag, cls, flip_condition, description):
        def sweep(O, coalitions, P, P2, Q, Q2, full):
            # an instance whose premises fail somewhere is vacuous, and
            # one whose conclusion is its premise holds
            if (P2 & ~P if flip_condition else P & ~P2) or Q & ~Q2 or (P, Q) == (P2, Q2):
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


# how many formulas one substitution of each scheme kind holds
_ARITY = {"axiom": 2, "rule": 4}


def _read_substitutions(by_kind: dict) -> tuple:
    """Each kind's substitutions, read once, each paired with the
    positions of its formulas among the distinct formulas of all kinds;
    the distinct formulas come first."""
    formulas: dict = {}
    slots: dict = {}
    for kind, subs in by_kind.items():
        arity = _ARITY[kind]
        listed = slots[kind] = []
        for sub in subs:
            if (not isinstance(sub, (tuple, list)) or len(sub) != arity
                    or not all(isinstance(f, Formula) for f in sub)):
                raise InputError(f"{kind} substitutions must be tuples of {arity} "
                                 f"formulas, not {sub!r}")
            listed.append((sub, tuple([formulas.setdefault(f, len(formulas)) for f in sub])))
    return tuple(formulas), slots


def _same_structure(m: GameModel, n: GameModel) -> bool:
    """Whether two models differ at most in their valuation."""
    return (m.agents == n.agents and m.states == n.states
            and m.avail == n.avail and m.outcome == n.outcome)


class _ModelSweep:
    """What every scheme sweeping one model shares, kept only while that
    model is swept; its operator evaluator lives on while the models
    that follow it have the same transition structure.

    `O` is the model's operator evaluator, which keeps one answer per
    distinct call, however many schemes and instances ask it.  A sweep
    handed the `previous` sweep of a model with the same transition
    structure keeps its `O`: the evaluator made for that structure's
    first model, with what it has evaluated so far.  The evaluator
    keeps no model, so a sweep holds no model but its own.  Extension
    bits and instance lists stay per model.
    `enumerate_models` yields every labeling of one outcome map in a
    row, so an enumerated family builds each kernel table once per
    outcome map, not once per model.  A default run_suite makes one
    sweep for each of 4,834 of its 6,168 models (`run_suite` says which
    it skips), 16,719 table builds and 185,880 evaluations, against
    87,027 and 489,522 when every swept model has an evaluator of its
    own.

    `passed`, kept with `O` under the same test, maps each scheme's
    sweep callable to the argument-set tuples of the instances it has
    passed on this transition structure; `_scheme_counterexample` skips
    those, since a sweep reads nothing that differs between the models
    of one structure, and never keeps a failing instance.  A default
    run_suite so runs 203,093 of its 287,441 instance sweeps.

    `instances(kind)` lists the (substitution, argument-set tuple) pairs
    of that kind, keeping a tuple only where it first appears: a later
    substitution with the same sets would sweep identically, so every
    scheme's first violating instance is unchanged.
    """

    def __init__(self, model: GameModel, substitutions: tuple,
                 previous: _ModelSweep | None = None):
        formulas, self._slots = substitutions
        self.model = model
        self.subsets = coalitions(model.agents)
        self.full = model.full_bits
        self._ext = [extension_bits(model, f) for f in formulas]
        self._instances: dict = {}
        if previous is not None and _same_structure(previous.model, model):
            self.O, self.passed = previous.O, previous.passed
        else:
            self.O, self.passed = operator_evaluator(model), {}

    def instances(self, kind: str) -> list:
        listed = self._instances.get(kind)
        if listed is None:
            ext = self._ext
            seen: set = set()
            listed = self._instances[kind] = []
            for sub, positions in self._slots[kind]:
                bits = tuple([ext[i] for i in positions])
                if bits not in seen:
                    seen.add(bits)
                    listed.append((sub, bits))
        return listed


def _scheme_counterexample(scheme: Scheme, sweep: _ModelSweep) -> Counterexample | None:
    """First violating (state, instantiation) of one scheme on the model
    of `sweep`, whose instances and operator evaluator the schemes
    sweeping that model share; instances this scheme passed on a model
    of the same transition structure are skipped."""
    passed = sweep.passed.setdefault(scheme.sweep, set())
    for sub, bits in sweep.instances(scheme.kind):
        if bits in passed:
            continue
        hit = scheme.sweep(sweep.O, sweep.subsets, *bits, sweep.full)
        if hit is None:
            passed.add(bits)
        else:
            combo, bad = hit
            model = sweep.model
            state = model.states[(bad & -bad).bit_length() - 1]
            names = ("phi", "psi") if scheme.kind == "axiom" else ("phi", "phi'", "psi", "psi'")
            args = " ".join(f"{name}={f}" for name, f in zip(names, sub))
            return Counterexample(model, state, f"{_coalition_desc(combo)} {args}",
                                  scheme.build(*combo, *sub))
    return None


def check_scheme(scheme: Scheme, models: Iterable[GameModel],
                 substitutions=None) -> SchemeVerdict:
    """Sweep models, one at a time, for a violating instance of one
    scheme; the first model with one ends the sweep, and every model
    read is swept and counted in `models_tried`.  A model of the same
    transition structure as the one swept before takes over its
    operator evaluator and the instances that passed on it.

    The default instantiation follows the registry kind: the atom pair
    (p, q) for axioms, all quadruples over {p, q} for rules.  Any
    iterable of substitutions is read once, so every model sweeps all
    of them.  A scheme that is not a `Scheme`, models that are not an
    iterable of `GameModel`, and a substitution of the wrong arity for
    the scheme's kind or holding a non-formula raise InputError.
    """
    if not isinstance(scheme, Scheme) or scheme.kind not in _ARITY:
        raise InputError(f"scheme must be a Scheme of kind 'axiom' or 'rule', not {scheme!r}")
    if not isinstance(models, Iterable):
        raise InputError(f"models must be an iterable, not {type(models).__name__}")
    if substitutions is None:
        substitutions = (axiom_substitutions() if scheme.kind == "axiom"
                         else rule_substitutions())
    elif not isinstance(substitutions, Iterable):
        raise InputError(f"substitutions must be an iterable, not {type(substitutions).__name__}")
    substitutions = _read_substitutions({scheme.kind: substitutions})
    found = sweep = None
    tried = 0
    for model in models:
        if not isinstance(model, GameModel):
            raise InputError(f"models must be GameModel instances, "
                             f"not {type(model).__name__}")
        tried += 1
        sweep = _ModelSweep(model, substitutions, sweep)
        found = _scheme_counterexample(scheme, sweep)
        if found is not None:
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

    def __post_init__(self):
        # a string would be read one letter at a time, and an iterator
        # would be spent by these checks before the sweep reads it
        fields = [("exhaustive", self.exhaustive), ("include", self.include),
                  ("exclude", self.exclude), ("seeds", self.seeds)]
        for name, value in fields:
            if value is None and name in ("include", "seeds"):
                continue
            if isinstance(value, str) or not isinstance(value, Collection):
                raise InputError(f"{name} must be a tuple, not {value!r}")
        counts = [("random_models", self.random_models), ("seed", self.seed),
                  ("budget", self.budget), *(("seeds", s) for s in self.seeds or ())]
        for name, value in counts:
            # a bool is an int to Python, and a float would be truncated
            if isinstance(value, bool) or not isinstance(value, int):
                raise InputError(f"{name} must be an integer, not {value!r}")
        if self.random_models < 0 or self.budget < 0:
            raise InputError("the random model count and the budget must be at least 0")
        if not all(isinstance(bounds, GeneratorBounds) for bounds in self.exhaustive):
            raise InputError(f"exhaustive must hold GeneratorBounds, not {self.exhaustive!r}")
        if not all(isinstance(tag, str) for tag in (*(self.include or ()), *self.exclude)):
            raise InputError("scheme tags must be strings")
        # the substitutions, stressed or not, read only the stress pool's
        # atoms; every labeling of another atom sweeps the same instances
        read = {f.name for f in _stress_pool() if isinstance(f, Atom)}
        for bounds in self.exhaustive:
            unread = sorted(set(bounds.atoms) - read)
            if unread:
                raise InputError(f"no scheme instance reads the atoms {unread}; "
                                 f"exhaustive bounds may label only {sorted(read)}")


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
        yield from enumerate_models(bounds)
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

    Valid schemes share one pass over `valid_model_stream`, taking its
    models one at a time and counting each in `models_tried`; on each
    swept model they share one `_ModelSweep`, so an instance list is
    computed once per model, and an operator answer and a passing
    instance once per run of models with one transition structure: a
    default call makes 2,689,795 calls of the operator evaluator for
    185,880 evaluations.  A model that comes after the exhaustive
    families and lies in one of them is not swept: the pass over that
    family already swept a model with the same sweep inputs, so it
    cannot change a verdict.  The default random draws of one and two
    states are such models, so 1,334 of the 6,168 models of a default
    call are skipped.  The expected-invalid schemes each hunt the
    counterexample stream through `check_scheme` until their budget
    runs out.  A config that is not a `SuiteConfig` raises InputError.
    """
    if config is None:
        config = SuiteConfig()
    elif not isinstance(config, SuiteConfig):
        raise InputError(f"config must be a SuiteConfig, not {type(config).__name__}")
    by_kind = {"axiom": axiom_substitutions(config.stress),
               "rule": rule_substitutions(config.stress)}
    substitutions = _read_substitutions(by_kind)
    selected = selected_schemes(config)

    valid = [s for s in selected if s.expected_valid]
    found: dict[str, Counterexample] = {}
    tried = 0
    if valid:
        enumerated = sum(model_count(bounds) for bounds in config.exhaustive)
        sweep = None
        for model in valid_model_stream(config):
            tried += 1
            if tried > enumerated and any(_in_family(model, b) for b in config.exhaustive):
                continue
            sweep = _ModelSweep(model, substitutions, sweep)
            for scheme in valid:
                if scheme.tag in found:
                    continue
                cx = _scheme_counterexample(scheme, sweep)
                if cx is not None:
                    found[scheme.tag] = cx

    report = SuiteReport()
    for scheme in selected:
        if scheme.expected_valid:
            verdict = SchemeVerdict(scheme.tag, tried, found.get(scheme.tag))
            report.outcomes.append(SchemeOutcome(scheme.tag, True, verdict))
        else:
            verdict = check_scheme(scheme, invalid_search_stream(config),
                                   by_kind[scheme.kind])
            verified = (verify_counterexample(verdict.counterexample)
                        if verdict.found else None)
            report.outcomes.append(SchemeOutcome(scheme.tag, False, verdict, verified))
    return report
