"""Truth evaluation of formulas over game models.

Extensions are computed bottom-up over the subformula DAG with
memoization at the model level, and every strategic operator goes
through the model's one operator evaluator, so repeated queries against
one model share work.  State sets travel as bitmasks internally; the
public API speaks frozensets of state names.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from .formula import And, Atom, Formula, Not, Obeta, Oalpha, Oc, Strategic, Top, formula_agents
from .model import Coalition, GameModel, InputError, State, per_model


@dataclass(frozen=True)
class Extension:
    """A formula together with the set of states where it holds."""

    formula: Formula
    states: frozenset


def _subset(x: int, y: int) -> bool:
    return x & ~y == 0


@per_model
def operator_evaluator(model: GameModel):
    """The model's operator evaluator, the one cache of operator results.

    `O(op, a, b, cond_bits, goal_bits)` is the bitmask of the states
    where the strategic operator `op` (one of the Oc / Oalpha / Obeta
    classes) holds, with `cond_bits` and `goal_bits` standing in for the
    extensions of its two arguments.  Model checking, the axiom sweeps
    and distinguisher synthesis all read and fill the same cache.
    """
    cache: dict = {}
    states = model.states
    holds_at = strategic_holds_at
    # the evaluator is kept with the model, so a strong reference would
    # make a cycle that only the cyclic garbage collector can free
    model_ref = weakref.ref(model)

    def O(op, a, b, cond_bits, goal_bits):
        key = (op, a, b, cond_bits, goal_bits)
        bits = cache.get(key)
        if bits is None:
            m = model_ref()
            bits = 0
            for i, s in enumerate(states):
                if holds_at(m, s, op, a, b, cond_bits, goal_bits):
                    bits |= 1 << i
            cache[key] = bits
        return bits

    return O


def strategic_states_bits(model: GameModel, op: type, a: Coalition, b: Coalition,
                          cond_bits: int, goal_bits: int) -> int:
    """States where the strategic operator holds for the given argument
    sets; one call of the model's operator evaluator."""
    return operator_evaluator(model)(op, a, b, cond_bits, goal_bits)


def strategic_holds_at(model: GameModel, state: State, op: type, a: Coalition,
                       b: Coalition, cond_bits: int, goal_bits: int) -> bool:
    """Evaluate one strategic operator at one state, on argument bitmasks."""
    outs_a = model.out_bits_table(state, a)
    merged = model.merged_out_bits(state, a, b)
    n_b = len(model.joint_action_table(state, b))

    if op is Oc:
        for ia, out_a in enumerate(outs_a):
            if _subset(out_a, cond_bits):
                row = merged[ia]
                if any(_subset(row[ib], goal_bits) for ib in range(n_b)):
                    return True
        return False

    if op is Oalpha:
        for ib in range(n_b):
            if all(not _subset(out_a, cond_bits) or _subset(merged[ia][ib], goal_bits)
                   for ia, out_a in enumerate(outs_a)):
                return True
        return False

    if op is Obeta:
        for ia, out_a in enumerate(outs_a):
            if _subset(out_a, cond_bits):
                row = merged[ia]
                if not any(_subset(row[ib], goal_bits) for ib in range(n_b)):
                    return False
        return True

    raise TypeError(f"not a strategic operator: {op!r}")


@per_model
def _extension_memo(model: GameModel) -> dict:
    return {}


def extension_bits(model: GameModel, f: Formula) -> int:
    """Bitmask of the states satisfying `f`; memoized per model."""
    memo = _extension_memo(model)
    hit = memo.get(f)
    if hit is not None:
        return hit
    if isinstance(f, Atom):
        bits = model.atom_bits.get(f.name, 0)
    elif isinstance(f, Top):
        bits = model.full_bits
    elif isinstance(f, Not):
        bits = model.full_bits ^ extension_bits(model, f.sub)
    elif isinstance(f, And):
        bits = extension_bits(model, f.left) & extension_bits(model, f.right)
    elif isinstance(f, Strategic):
        unknown = (f.a | f.b) - set(model.agents)
        if unknown:
            raise InputError(
                f"formula names agents {sorted(unknown)} not present in the model")
        cond = extension_bits(model, f.phi)
        goal = extension_bits(model, f.psi)
        bits = strategic_states_bits(model, type(f), f.a, f.b, cond, goal)
    else:
        raise TypeError(f"not a formula: {f!r}")
    memo[f] = bits
    return bits


def extension(model: GameModel, f: Formula) -> Extension:
    """The set of states of the model where the formula is true."""
    return Extension(f, model.states_of(extension_bits(model, f)))


def holds(model: GameModel, state: State, f: Formula) -> bool:
    """Truth of a formula at a single state."""
    if state not in model.state_index:
        raise InputError(f"unknown state {state!r}")
    return bool(extension_bits(model, f) >> model.state_index[state] & 1)


def holds_via_b_minus_a(model: GameModel, state: State, f: Strategic) -> bool:
    """Evaluate a strategic operator quantifying the responder over b-minus-a.

    Restating the clause over the responder coalition stripped of the
    acting coalition is equivalent to the primary clause; this
    implementation exists as an independent cross-check and is exercised
    against `holds` in the tests.
    """
    if not isinstance(f, Strategic):
        raise InputError("holds_via_b_minus_a expects a strategic formula")
    if state not in model.state_index:
        raise InputError(f"unknown state {state!r}")
    unknown = formula_agents(f) - set(model.agents)
    if unknown:
        raise InputError(
            f"formula names agents {sorted(unknown)} not present in the model")
    cond = extension_bits(model, f.phi)
    goal = extension_bits(model, f.psi)
    reduced = f.b - f.a
    return strategic_holds_at(model, state, type(f), f.a, reduced, cond, goal)


# -- witness extraction for the CLI --------------------------------------


@dataclass
class Explanation:
    """Outcome of a check plus witness joint actions for the top operator."""

    value: bool
    operator: str | None = None
    negated: bool = False
    detail: str = ""
    witnesses: dict = field(default_factory=dict)

    def lines(self) -> list[str]:
        out = []
        if self.detail:
            out.append(self.detail)
        for label, items in self.witnesses.items():
            if isinstance(items, str):
                out.append(f"  {label}: {items}")
            else:
                out.append(f"  {label}:")
                out.extend(f"    {item}" for item in items)
        return out


def explain(model: GameModel, state: State, f: Formula) -> Explanation:
    """Evaluate and, for a (possibly negated) strategic formula, report
    the joint actions behind the verdict."""
    value = holds(model, state, f)
    target = f
    negated = False
    while isinstance(target, Not):
        negated = not negated
        target = target.sub
    if not isinstance(target, Strategic):
        return Explanation(value=value, detail="no strategic operator at the top level")

    cond = extension_bits(model, target.phi)
    goal = extension_bits(model, target.psi)
    jas_a = model.joint_action_table(state, target.a)
    jas_b = model.joint_action_table(state, target.b)
    merged = model.merged_out_bits(state, target.a, target.b)
    securing = [ia for ia, ja in enumerate(jas_a)
                if _subset(model.out_bits(ja), cond)]
    op = type(target)
    inner_true = value != negated
    exp = Explanation(value=value, operator=target.token, negated=negated)

    if op is Oc:
        if inner_true:
            for ia in securing:
                for ib, jb in enumerate(jas_b):
                    if _subset(merged[ia][ib], goal):
                        exp.detail = "condition and goal both securable"
                        exp.witnesses = {"sigma_a": str(jas_a[ia]), "sigma_b": str(jb)}
                        return exp
        exp.detail = ("no joint action of the first coalition secures the condition"
                      if not securing else
                      "no condition-securing joint action leaves the goal securable")
        exp.witnesses = {"condition_securing": [str(jas_a[ia]) for ia in securing]}
        return exp

    if op is Oalpha:
        if inner_true:
            for ib, jb in enumerate(jas_b):
                if all(_subset(merged[ia][ib], goal) for ia in securing):
                    exp.detail = "one response works against every condition-securing action"
                    exp.witnesses = {"sigma_b": str(jb)}
                    return exp
        defeated = []
        for ib, jb in enumerate(jas_b):
            for ia in securing:
                if not _subset(merged[ia][ib], goal):
                    defeated.append(f"{jb} defeated by {jas_a[ia]}")
                    break
        exp.detail = "every uniform response fails against some condition-securing action"
        exp.witnesses = {"defeats": defeated}
        return exp

    # Obeta
    if inner_true:
        if not securing:
            exp.detail = "vacuously true: nothing secures the condition"
            return exp
        pairs = []
        for ia in securing:
            for ib, jb in enumerate(jas_b):
                if _subset(merged[ia][ib], goal):
                    pairs.append(f"{jas_a[ia]} answered by {jb}")
                    break
        exp.detail = "every condition-securing action has a goal-securing response"
        exp.witnesses = {"responses": pairs}
        return exp
    for ia in securing:
        if not any(_subset(merged[ia][ib], goal) for ib in range(len(jas_b))):
            exp.detail = "a condition-securing action admits no goal-securing response"
            exp.witnesses = {"sigma_a": str(jas_a[ia])}
            return exp
    return exp
