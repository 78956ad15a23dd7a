"""Truth evaluation of formulas over game models.

Extensions are computed bottom-up over the subformula DAG with
memoization at the model level, and every strategic operator goes
through the model's one operator evaluator, which keeps one answer per
distinct call.  Only the responders outside the acting coalition ever
respond, so the evaluator keeps what it reads per (operator kind,
acting coalition, responders outside it).  On a model of at most
INDEX_CUTOFF_STATES states that is a kernel table: the distinct outcome
signatures of the joint actions, with the states showing each, so one
application is one pass over those signatures.  A table is built in one
pass over each state's profiles, from the per-state cell outcomes of
model.py, which owns the profile and cell numbering.

A table pays for its build only when it is called many times, so a
larger model keeps one successor-preimage index instead.  Per
availability shape and successor state, the index packs into one int
the (profile, state) pairs leading there, so that the same quantifier
nest runs bit-parallel over all states of a shape.  Tables and index
are built from each state's availability shape and successor row, which
the evaluator reads when it is made, so it keeps no reference to its
model.
State sets travel as bitmasks internally; the public API speaks
frozensets of state names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import prod
from operator import and_, or_

from .formula import And, Atom, Formula, Not, Obeta, Oalpha, Oc, Strategic, Top
from .model import (Coalition, GameModel, InputError, State, _cell_outcomes, _cell_projection,
                    _positions, per_model)


@dataclass(frozen=True)
class Extension:
    """A formula together with the set of states where it holds."""

    formula: Formula
    states: frozenset


def _minimal(masks) -> tuple[int, ...]:
    """The subset-minimal masks, ascending; a proper subset is numerically
    smaller, so it is kept before any superset is looked at."""
    keep: list[int] = []
    for m in sorted(set(masks)):
        for k in keep:
            if not k & ~m:
                break
        else:
            keep.append(m)
    return tuple(keep)


def _kernel_table(shapes, rows, proactive: bool, actors: tuple[int, ...],
                  responders: tuple[int, ...]) -> list:
    """Distinct outcome signatures of one (operator kind, a, r), each with
    the bitmask of the states that show it; r is the responder coalition
    stripped of a, and `actors` and `responders` are the positions of a
    and r in the agent tuple.  `shapes` and `rows` are each state's
    availability shape and successor row, in state order.

    Each state takes one pass over its profiles, which gives the outcome
    of every (sigma_a, sigma_r) cell; a row's outcome is the OR of its
    cells.  Oc and Obeta share the entries
    ((sigma_a outcome, minimal merged outcomes over sigma_b), states): a
    sigma_b secures a goal exactly when some minimal merged outcome lies
    inside it.  Oalpha reads one entry per sigma_b column:
    (frozenset of (sigma_a outcome, merged outcome) pairs, states).
    """
    signatures: dict = {}
    bit = 1
    for shape, row in zip(shapes, rows):
        n_a, n_r, merged = _cell_outcomes(shape, row, actors, responders)
        by_a = [merged[k * n_r:(k + 1) * n_r] for k in range(n_a)]
        outs_a = [reduce(or_, outs, 0) for outs in by_a]
        if proactive:
            sigs = [frozenset(zip(outs_a, merged[k::n_r])) for k in range(n_r)]
        else:
            sigs = [(out_a, _minimal(outs)) for out_a, outs in zip(outs_a, by_a)]
        for sig in sigs:
            signatures[sig] = signatures.get(sig, 0) | bit
        bit <<= 1
    return list(signatures.items())


# A model with more states than this answers every operator call from the
# successor-preimage index; smaller models build kernel tables.  A key
# called k times costs k index calls I against one table build T plus k
# calls S on the table, so the index is cheaper while k < T / (I - S).
# Measured on random models with 2-4 agents (2-core VM, Python 3.11.7;
# CHANGES.md has the data), that bound is 2-4 calls at 3-5 states, 12-15
# at 20 and 36-100 at 100; the axiom sweeps, on models of 1-3 states,
# call each table about 11 times (a default run_suite: 185,880 calls,
# 16,719 tables), since they evaluate each distinct call once per run of
# models with one transition structure and sweep a repeated model only
# once, and one-shot requests call each key about once.
INDEX_CUTOFF_STATES = 20


class _PreimageGroup:
    """The states of one availability shape, numbered 0..m-1 in model
    order, with the preimage of every successor state.  `preimages` maps
    a successor's state bit to a packed int whose bit j*stride + i is set
    when profile j leads member i there; stride is m rounded up to whole
    bytes, and `packed_full` has every bit of the n_profiles slices set.
    (A plain class: a dataclass would cost its generated methods at import.)
    """

    __slots__ = ("shape", "m", "stride", "members", "targets", "preimages", "packed_full")

    def __init__(self, shape: tuple[int, ...], rows: list):
        # rows: (model-order state index, successor bits per profile)
        m = len(rows)
        width = (m + 7) // 8
        size = width * prod(shape)
        slices: dict = {}
        for i, (_, succ) in enumerate(rows):
            bit = 1 << (i & 7)
            for sb, at in zip(succ, range(i >> 3, size, width)):
                packed = slices.get(sb)
                if packed is None:
                    packed = slices[sb] = bytearray(size)
                packed[at] |= bit
        self.shape = shape
        self.m = m
        self.stride = 8 * width
        self.members = tuple(i for i, _ in rows)
        self.preimages = {sb: int.from_bytes(packed, "little") for sb, packed in slices.items()}
        self.targets = reduce(or_, self.preimages, 0)
        self.packed_full = (1 << 8 * size) - 1

    def packed_inside(self, x: int) -> int:
        """Bit j*stride + i set iff member i's profile-j successor is in x.
        Every (profile, member) has exactly one successor, so the side of
        the targets with fewer states is ORed and the other complemented."""
        inside = x & self.targets
        outside = self.targets ^ inside
        flip = inside.bit_count() > outside.bit_count()
        side = outside if flip else inside
        pre = self.preimages
        packed = 0
        while side:
            low = side & -side
            packed |= pre[low]
            side ^= low
        return self.packed_full ^ packed if flip else packed

    def spread(self, local: int) -> int:
        """Model-order state bits of the members set in `local`."""
        members = self.members
        first = members[0]
        if members[-1] - first == self.m - 1:
            return local << first
        bits = 0
        while local:
            low = local & -local
            bits |= 1 << members[low.bit_length() - 1]
            local ^= low
        return bits


def _preimage_index(shapes, rows) -> list[_PreimageGroup]:
    """The states grouped by availability shape, built in one pass over
    each state's successor row; `shapes` and `rows` are in state order."""
    by_shape: dict = {}
    for i, (shape, row) in enumerate(zip(shapes, rows)):
        by_shape.setdefault(shape, []).append((i, row))
    return [_PreimageGroup(shape, rows) for shape, rows in by_shape.items()]


def _index_answer(groups, proactive: bool, want_answered: bool, actors, responders,
                  cond_bits: int, goal_bits: int) -> int:
    """One operator call answered bit-parallel over each group's members.

    IN_j(x), the members whose profile-j successor lies in x, is one slice
    of a group's packed preimage.  A sigma_a row secures the condition on
    the AND of IN_j over its profiles, a (sigma_a, sigma_r) cell secures
    the goal on the AND over the cell's profiles; then Oc is
    OR_k (ok_k & OR_l good_kl), Obeta AND_k (~ok_k | OR_l good_kl) and
    Oalpha OR_l AND_k (~ok_k | good_kl).
    """
    held = 0
    for g in groups:
        n_a, n_r, cells = _cell_projection(g.shape, actors, responders)
        mm = (1 << g.m) - 1
        zc = g.packed_inside(cond_bits)
        zg = g.packed_inside(goal_bits)
        secure = [mm] * (n_a * n_r)
        good = secure[:]
        shift = 0
        for c in cells:
            secure[c] &= zc >> shift
            good[c] &= zg >> shift
            shift += g.stride
        ok = [reduce(and_, secure[k * n_r:(k + 1) * n_r], mm) for k in range(n_a)]
        if proactive:
            local = 0
            for l in range(n_r):
                col = mm
                for k, ok_k in enumerate(ok):
                    col &= ~ok_k | good[k * n_r + l]
                local |= col
        elif want_answered:
            local = 0
            for k, ok_k in enumerate(ok):
                local |= ok_k & reduce(or_, good[k * n_r:(k + 1) * n_r], 0)
        else:
            local = mm
            for k, ok_k in enumerate(ok):
                local &= ~ok_k | reduce(or_, good[k * n_r:(k + 1) * n_r], 0)
        if local:
            held |= g.spread(local)
    return held


def _table_answer(table, proactive: bool, want_answered: bool, full: int,
                  cond_bits: int, goal_bits: int) -> int:
    """One operator call answered by one pass over a kernel table.

    Oalpha holds on the states of a column that secures the goal against
    every condition-securing sigma_a; Oc on those of an answered
    condition-securing sigma_a, Obeta on those without an unanswered one.
    """
    outside_cond = ~cond_bits
    outside_goal = ~goal_bits
    held = 0
    if proactive:
        for column, bits in table:
            for out_a, out_ab in column:
                if not out_a & outside_cond and out_ab & outside_goal:
                    break
            else:
                held |= bits
        return held
    for (out_a, minimal), bits in table:
        if out_a & outside_cond:
            continue
        for m in minimal:
            if not m & outside_goal:
                answered = True
                break
        else:
            answered = False
        if answered is want_answered:
            held |= bits
    return held if want_answered else full & ~held


@per_model
def operator_evaluator(model: GameModel):
    """The model's operator evaluator.

    `O(op, a, b, cond_bits, goal_bits)` is the bitmask of the states
    where the strategic operator `op` (one of the Oc / Oalpha / Obeta
    classes) holds, with `cond_bits` and `goal_bits` standing in for the
    extensions of its two arguments.  Model checking, the axiom sweeps
    and distinguisher synthesis all share it, and it keeps one answer
    per distinct call.  Answers depend on the agents, states,
    availability and outcome map alone, so models with that transition
    structure may share one evaluator, the valuation entering only
    through the argument bitmasks.

    Each operator merges a's choice with b's, a winning where the two
    overlap, so only r = b - a responds.  A model with at most
    INDEX_CUTOFF_STATES states answers a call from the kernel table of
    (operator kind, a, r), built on first use; a larger one answers it
    bit-parallel from its one successor-preimage index, also built on
    first use.  A call over an overlapping (a, b) shares its answer with
    the call over (a, r); without that, a default run_suite would make
    322,670 evaluations instead of 185,880.  The exception is a model
    where an agent has no action somewhere: there Oalpha is cleared
    where an agent of both a and b has no action, since b has no joint
    action there though r may have one, so (a, b) is answered on its
    own.  Only models that validate_model rejects have such states.

    The evaluator reads, when it is made, all that its tables and index
    are built from: each state's availability shape and successor row,
    the agent tuple and the full state set.  It keeps no reference to
    the model, so keeping it with the model makes no reference cycle,
    and it answers on after the model is freed.  A model whose outcome
    map is not total raises InputError here, naming its first incomplete
    state in state order.
    """
    shapes = model.shapes
    rows = tuple(map(model.successor_row, model.states))
    agents = model.agents
    full = model.full_bits
    idle = any(0 in shape for shape in shapes)
    by_index = len(shapes) > INDEX_CUTOFF_STATES
    tables: dict = {}
    answers: dict = {}
    index = None

    def evaluate(key):
        nonlocal index
        op, a, b, cond_bits, goal_bits = key
        proactive = op is Oalpha
        if not proactive and op is not Oc and op is not Obeta:
            raise TypeError(f"not a strategic operator: {op!r}")
        r = b - a
        shared = (op, a, r, cond_bits, goal_bits) if a & b and not idle else key
        held = answers.get(shared)
        if held is None:
            if by_index:
                if index is None:
                    index = _preimage_index(shapes, rows)
                held = _index_answer(index, proactive, op is Oc, _positions(agents, a),
                                     _positions(agents, r), cond_bits, goal_bits)
            else:
                table = tables.get((proactive, a, r))
                if table is None:
                    table = tables[proactive, a, r] = _kernel_table(
                        shapes, rows, proactive, _positions(agents, a), _positions(agents, r))
                held = _table_answer(table, proactive, op is Oc, full, cond_bits, goal_bits)
            if proactive and idle and a & b:
                both = _positions(agents, a & b)
                for i, shape in enumerate(shapes):
                    if not all(shape[j] for j in both):
                        held &= ~(1 << i)
            answers[shared] = held
        answers[key] = held
        return held

    # apart from evaluate, so that a hit, most calls by far, sets up a
    # small frame: one key and one lookup
    def O(op, a, b, cond_bits, goal_bits):
        key = (op, a, b, cond_bits, goal_bits)
        try:
            return answers[key]
        except KeyError:
            pass
        return evaluate(key)

    return O


def strategic_states_bits(model: GameModel, op: type, a: Coalition, b: Coalition,
                          cond_bits: int, goal_bits: int) -> int:
    """States where the strategic operator holds for the given argument
    sets; one call of the model's operator evaluator."""
    return operator_evaluator(model)(op, a, b, cond_bits, goal_bits)


def _nest(model: GameModel, state: State, op: type, a: Coalition, b: Coalition,
          cond_bits: int, goal_bits: int):
    """The quantifier nest of one strategic operator at one state, on
    argument bitmasks: (verdict, witnesses), where each witness is a pair
    (ia, ib) of indices into the joint actions of a and of b at the state
    in joint_action_table order, or None where a side has no part.

    - Oc true: the first condition-securing sigma_a with a goal-securing
      response, and its first such response; false: every
      condition-securing sigma_a, unanswered.
    - Oalpha true: the first response that secures the goal against every
      condition-securing sigma_a; false: every response with the first
      condition-securing sigma_a it fails against.
    - Obeta true: every condition-securing sigma_a with its first
      goal-securing response; false: the first condition-securing sigma_a
      without one.
    """
    if op is not Oc and op is not Oalpha and op is not Obeta:
        raise TypeError(f"not a strategic operator: {op!r}")
    merged = model.merged_out_bits(state, a, b)
    responses = range(len(model.out_bits_table(state, b)))
    outside_goal = ~goal_bits
    securing = [ia for ia, out_a in enumerate(model.out_bits_table(state, a))
                if not out_a & ~cond_bits]
    if op is Oalpha:
        defeats = []
        for ib in responses:
            ia = next((ia for ia in securing if merged[ia][ib] & outside_goal), None)
            if ia is None:
                return True, [(None, ib)]
            defeats.append((ia, ib))
        return False, defeats
    answers = []
    for ia in securing:
        ib = next((ib for ib in responses if not merged[ia][ib] & outside_goal), None)
        if ib is not None and op is Oc:
            return True, [(ia, ib)]
        if ib is None and op is Obeta:
            return False, [(ia, None)]
        answers.append((ia, ib))
    return op is Obeta, answers


def strategic_holds_at(model: GameModel, state: State, op: type, a: Coalition,
                       b: Coalition, cond_bits: int, goal_bits: int) -> bool:
    """Evaluate one strategic operator at one state, on argument bitmasks."""
    return _nest(model, state, op, a, b, cond_bits, goal_bits)[0]


@per_model
def _extension_memo(model: GameModel) -> dict:
    return {}


def extension_bits(model: GameModel, f: Formula) -> int:
    """Bitmask of the states satisfying `f`; memoized per model.

    A miss is evaluated in post-order from an explicit stack, so the
    nesting depth a formula may have is bounded by memory, not by the
    interpreter's recursion limit.
    """
    memo = _extension_memo(model)
    hit = memo.get(f)
    if hit is not None:
        return hit
    agents = frozenset(model.agents)
    stack = [(f, False)]
    while stack:
        g, expanded = stack.pop()
        if expanded:
            if isinstance(g, Not):
                memo[g] = model.full_bits ^ memo[g.sub]
            elif isinstance(g, And):
                memo[g] = memo[g.left] & memo[g.right]
            else:
                memo[g] = strategic_states_bits(model, type(g), g.a, g.b,
                                                memo[g.phi], memo[g.psi])
        elif g in memo:
            continue
        elif isinstance(g, Atom):
            memo[g] = model.atom_bits.get(g.name, 0)
        elif isinstance(g, Top):
            memo[g] = model.full_bits
        elif isinstance(g, Not):
            stack += ((g, True), (g.sub, False))
        elif isinstance(g, And):
            stack += ((g, True), (g.right, False), (g.left, False))
        elif isinstance(g, Strategic):
            unknown = (g.a | g.b) - agents
            if unknown:
                raise InputError(
                    f"formula names agents {sorted(unknown)} not present in the model")
            stack += ((g, True), (g.psi, False), (g.phi, False))
        else:
            raise TypeError(f"not a formula: {g!r}")
    return memo[f]


def extension(model: GameModel, f: Formula) -> Extension:
    """The set of states of the model where the formula is true."""
    return Extension(f, model.states_of(extension_bits(model, f)))


def holds(model: GameModel, state: State, f: Formula) -> bool:
    """Truth of a formula at a single state."""
    if state not in model.state_index:
        raise InputError(f"unknown state {state!r}")
    return bool(extension_bits(model, f) >> model.state_index[state] & 1)


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

    op = type(target)
    verdict, pairs = _nest(model, state, op, target.a, target.b,
                           extension_bits(model, target.phi), extension_bits(model, target.psi))
    jas_a = model.joint_action_table(state, target.a)
    jas_b = model.joint_action_table(state, target.b)
    exp = Explanation(value=value, operator=target.token, negated=negated)

    if op is Oc:
        if verdict:
            ia, ib = pairs[0]
            exp.detail = "condition and goal both securable"
            exp.witnesses = {"sigma_a": str(jas_a[ia]), "sigma_b": str(jas_b[ib])}
        else:
            exp.detail = ("no joint action of the first coalition secures the condition"
                          if not pairs else
                          "no condition-securing joint action leaves the goal securable")
            exp.witnesses = {"condition_securing": [str(jas_a[ia]) for ia, _ in pairs]}
    elif op is Oalpha:
        if verdict:
            exp.detail = "one response works against every condition-securing action"
            exp.witnesses = {"sigma_b": str(jas_b[pairs[0][1]])}
        else:
            exp.detail = "every uniform response fails against some condition-securing action"
            exp.witnesses = {"defeats": [f"{jas_b[ib]} defeated by {jas_a[ia]}"
                                         for ia, ib in pairs]}
    elif verdict:
        if not pairs:
            exp.detail = "vacuously true: nothing secures the condition"
        else:
            exp.detail = "every condition-securing action has a goal-securing response"
            exp.witnesses = {"responses": [f"{jas_a[ia]} answered by {jas_b[ib]}"
                                           for ia, ib in pairs]}
    else:
        exp.detail = "a condition-securing action admits no goal-securing response"
        exp.witnesses = {"sigma_a": str(jas_a[pairs[0][0]])}
    return exp
