"""Bisimulation checking, greatest-fixpoint computation and
distinguishing-formula synthesis.

Two notions are supported: the plain coalition-logic bisimulation
(atom equivalence plus one Forth/Back pair per coalition) and its
strengthening with three nested condition families, one per strategic
operator.  Relations are sets of ordered state pairs over one model;
to relate states of two models, take their disjoint union first.

Every "Back" condition at a pair (s, t) is the corresponding "Forth"
condition at the swapped pair (t, s) under the inverse relation, so each
clause is written once; taking the inverse rather than assuming symmetry
is what makes non-symmetric relations (such as the diagonal between two
embedded models) usable.  One driver (_pair_fails) runs Forth and then
Back on the inverse for the checkers and the refinements alike, and one
table (_KINDS) gives each kind of clause its evaluator, its Forth and
Back tags and the operator that synthesis reads its failures as.

Both greatest bisimulations are computed by block refinement: the
coalition-logic one from the partition by atom valuation, the
conditional one from the coalition-logic classes, which contain it.
Each refinement logs, for every split, the first clause failing between
the new groups' representatives.  Before any clause check, a round keys
each state of a block by its availability shape and its successors'
blocks; a state whose key already appeared joins that state's group
without a check, since the clauses cannot tell such states apart, and
neither the groups nor the log change (see _greatest).  Distinguisher
synthesis replays that log, reading each failing clause as one operator
formula over the classes of its round, as in the Hennessy-Milner
argument.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .formula import And, Atom, Formula, Not, Obeta, Oalpha, Oc, TOP, bottom, or_
from .model import (Coalition, GameModel, InputError, JointAction, State, coalitions,
                    per_model)
from .semantics import extension_bits, strategic_states_bits
# perfbench/tracing.py wraps this binding; nothing here calls it
from .semantics import holds  # noqa: F401

Relation = frozenset

FAMILY_COOP = "c"
FAMILY_PROACTIVE = "alpha"
FAMILY_REACTIVE = "beta"
ALL_FAMILIES = (FAMILY_COOP, FAMILY_PROACTIVE, FAMILY_REACTIVE)
_CL = "cl"  # the coalition-logic clause, as a kind of failing clause
_EMPTY = frozenset()


@dataclass(frozen=True)
class BisimFailure:
    """First violated clause: which pair, which condition, which coalitions."""

    pair: tuple[State, State]
    condition: str
    coalition_a: Coalition | None = None
    coalition_b: Coalition | None = None
    witness: str | None = None

    def __str__(self) -> str:
        parts = [f"{self.condition} fails at ({self.pair[0]}, {self.pair[1]})"]
        if self.coalition_a is not None:
            parts.append(f"A={{{','.join(sorted(self.coalition_a))}}}")
        if self.coalition_b is not None:
            parts.append(f"B={{{','.join(sorted(self.coalition_b))}}}")
        if self.witness:
            parts.append(f"unmatched {self.witness}")
        return " ".join(parts)


@dataclass(frozen=True)
class BisimVerdict:
    ok: bool
    failure: BisimFailure | None = None

    def __str__(self) -> str:
        return "ok" if self.ok else f"fail: {self.failure}"

    def to_json(self) -> dict:
        if self.ok:
            return {"ok": True}
        f = self.failure
        return {
            "ok": False,
            "pair": list(f.pair),
            "condition": f.condition,
            "coalition_a": sorted(f.coalition_a) if f.coalition_a is not None else None,
            "coalition_b": sorted(f.coalition_b) if f.coalition_b is not None else None,
            "witness": f.witness,
        }


# -- relation plumbing ---------------------------------------------------


def _check_relation(model: GameModel, relation) -> list[tuple[State, State]]:
    pairs = []
    for pair in relation:
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                and all(isinstance(x, str) for x in pair)):
            raise InputError(f"relation entry {pair!r} is not a pair of states")
        s, t = pair
        if s not in model.state_index or t not in model.state_index:
            raise InputError(f"relation references unknown state in {pair!r}")
        pairs.append((s, t))
    idx = model.state_index
    pairs.sort(key=lambda p: (idx[p[0]], idx[p[1]]))
    return pairs


def _labels(model: GameModel):
    return {s: frozenset(a for a, ss in model.valuation.items() if s in ss)
            for s in model.states}


def _coalition_pairs(agents):
    """The disjoint (A, B) pairs in canonical order.  A clause at an
    overlapping (A, B) gives the verdict of the clause at (A, B minus A),
    which comes earlier in that order, so the checker and the fixpoint
    read only these."""
    subsets = coalitions(agents)
    return tuple((a, b) for a in subsets for b in subsets if not a & b)


class _Cover:
    """Memoized cover check over one row table: x is covered in y when
    every state of x lies in the row of some state of y.  The union of
    the rows of y's states is computed once per y, and x is covered when
    it lies inside it."""

    def __init__(self, rows):
        self.rows = rows
        self.unions: dict = {}

    def check(self, x: int, y: int) -> bool:
        union = self.unions.get(y)
        if union is None:
            rows = self.rows
            union = 0
            m = y
            while m:
                low = m & -m
                union |= rows[low.bit_length() - 1]
                m ^= low
            self.unions[y] = union
        return not x & ~union


def _relation(model: GameModel, pairs):
    """The relation as the check pair (fwd, rev): fwd(x, y) holds when every
    state of x has a successor in y, that is when x lies inside the
    predecessors of y, and rev(x, y) when every state of x has a
    predecessor in y, inside the successors of y.  The inverse relation
    is (rev, fwd)."""
    n = len(model.states)
    idx = model.state_index
    fwd = [0] * n
    rev = [0] * n
    for u, v in pairs:
        fwd[idx[u]] |= 1 << idx[v]
        rev[idx[v]] |= 1 << idx[u]
    return _Cover(rev).check, _Cover(fwd).check


# -- clause evaluators ----------------------------------------------------
#
# Each is the Forth half of its condition at (s1, s2) under rel = (fwd,
# rev); the Back half is the same function at (s2, s1) under the inverse
# (rev, fwd).  Each returns None when the clause holds, otherwise the
# joint action at s1 that cannot be matched.


def _cl_clause(model, rel, s1, s2, c, b=_EMPTY):
    # b is always empty; it keeps the signature of the family clauses
    rev = rel[1]
    outs2 = model.out_bits_table(s2, c)
    for i1, o1 in enumerate(model.out_bits_table(s1, c)):
        if not any(rev(o2, o1) for o2 in outs2):
            return model.joint_action_table(s1, c)[i1]
    return None


def _coop_clause(model, rel, s1, s2, a, b):
    rev = rel[1]
    outs2 = model.out_bits_table(s2, a)
    m1 = model.merged_out_bits(s1, a, b)
    m2 = model.merged_out_bits(s2, a, b)
    for ia1, o1 in enumerate(model.out_bits_table(s1, a)):
        row1 = m1[ia1]
        for o2, row2 in zip(outs2, m2):
            if rev(o2, o1) and all(any(rev(y2, y1) for y2 in row2) for y1 in row1):
                break
        else:
            return model.joint_action_table(s1, a)[ia1]
    return None


def _proactive_clause(model, rel, s1, s2, a, b):
    fwd, rev = rel
    outs1 = model.out_bits_table(s1, a)
    outs2 = model.out_bits_table(s2, a)
    m1 = model.merged_out_bits(s1, a, b)
    m2 = model.merged_out_bits(s2, a, b)
    nb2 = len(model.out_bits_table(s2, b))
    for ib1 in range(len(model.out_bits_table(s1, b))):
        for ib2 in range(nb2):
            if all(any(fwd(o1, o2) and rev(row2[ib2], row1[ib1])
                       for o1, row1 in zip(outs1, m1))
                   for o2, row2 in zip(outs2, m2)):
                break
        else:
            return model.joint_action_table(s1, b)[ib1]
    return None


def _reactive_clause(model, rel, s1, s2, a, b):
    fwd, rev = rel
    outs2 = model.out_bits_table(s2, a)
    m1 = model.merged_out_bits(s1, a, b)
    m2 = model.merged_out_bits(s2, a, b)
    for ia1, o1 in enumerate(model.out_bits_table(s1, a)):
        row1 = m1[ia1]
        for o2, row2 in zip(outs2, m2):
            if rev(o2, o1) and all(any(fwd(y1, y2) for y1 in row1) for y2 in row2):
                break
        else:
            return model.joint_action_table(s1, a)[ia1]
    return None


class _Kind(NamedTuple):
    """One kind of clause: its Forth evaluator, the tags its Forth and
    Back halves report, and the operator synthesis reads a failure as."""

    clause: Callable
    forth: str
    back: str
    operator: type


# the CL clause at c fails exactly where some <c>U = Oc[c,{}](U, U)
# tells the states apart, so synthesis reads it as Oc
_KINDS = {
    _CL: _Kind(_cl_clause, "Forth", "Back", Oc),
    FAMILY_COOP: _Kind(_coop_clause, "A-Forth_c", "A-Back_c", Oc),
    FAMILY_PROACTIVE: _Kind(_proactive_clause, "B-Forth_alpha", "B-Back_alpha", Oalpha),
    FAMILY_REACTIVE: _Kind(_reactive_clause, "A-Forth_beta", "A-Back_beta", Obeta),
}


class _Reason(NamedTuple):
    """The first clause failing between two states: `kind` is _CL or a
    condition family, `side` says which of the two states (0 or 1) holds
    `witness`, its joint action that the other state cannot match."""

    kind: str
    a: Coalition
    b: Coalition
    side: int
    witness: JointAction


def _pair_fails(model: GameModel, tests):
    """The pair test over the (kind, A, B) `tests` in order: the _Reason
    of the first clause failing between s and t under rel, Forth at
    (s, t) under rel or Back at (t, s) under the inverse, or None."""
    tests = [(kind, _KINDS[kind].clause, a, b) for kind, a, b in tests]

    def fails(rel, s, t):
        inv = rel[::-1]
        for kind, clause, a, b in tests:
            witness = clause(model, rel, s, t, a, b)
            if witness is not None:
                return _Reason(kind, a, b, 0, witness)
            witness = clause(model, inv, t, s, a, b)
            if witness is not None:
                return _Reason(kind, a, b, 1, witness)
        return None

    return fails


# -- checkers -------------------------------------------------------------


def _check(model: GameModel, relation, test_lists) -> BisimVerdict:
    """The verdict on a relation: atom equivalence first, then each list
    of (kind, A, B) tests over every pair in order; the first failing
    clause is reported."""
    pairs = _check_relation(model, relation)
    sig = _labels(model)
    for s, t in pairs:
        if sig[s] != sig[t]:
            return BisimVerdict(False, BisimFailure((s, t), "AtomEq"))
    rel = _relation(model, pairs)
    for tests in test_lists:
        fails = _pair_fails(model, tests)
        for pair in pairs:
            reason = fails(rel, *pair)
            if reason is not None:
                kind = _KINDS[reason.kind]
                return BisimVerdict(False, BisimFailure(
                    pair, kind.back if reason.side else kind.forth, coalition_a=reason.a,
                    coalition_b=None if reason.kind == _CL else reason.b,
                    witness=str(reason.witness)))
    return BisimVerdict(True)


def check_cl_bisim(model: GameModel, relation) -> BisimVerdict:
    """Is the relation a coalition-logic bisimulation in the model?"""
    return _check(model, relation, [[(_CL, c, _EMPTY) for c in coalitions(model.agents)]])


def check_constr_bisim(model: GameModel, relation,
                       families=ALL_FAMILIES) -> BisimVerdict:
    """Is the relation a bisimulation for the full conditional language?

    The three condition families are checked in the given order; the
    verdict reports the first violated clause.  Only the disjoint
    (A, B) of `_coalition_pairs` are checked: the clause at an
    overlapping pair gives the verdict of the earlier one at
    (A, B minus A), so the first violation is the one every (A, B)
    would give.  Restricting `families` probes a single operator's
    conditions in isolation.  `families` is read once, so any iterable
    of family names will do, but not a bare string.
    """
    if isinstance(families, str):
        raise InputError(f"families must be a collection of family names, "
                         f"not the string {families!r}")
    families = tuple(families)
    unknown = set(families) - set(ALL_FAMILIES)
    if unknown:
        raise InputError(f"unknown condition families: {sorted(unknown)}")
    pairs = _coalition_pairs(model.agents)
    return _check(model, relation, [[(f, a, b) for a, b in pairs] for f in families])


# -- greatest fixpoints ---------------------------------------------------


def _classes(states, key):
    """States grouped by key value, each group and the groups in state order."""
    groups: dict = {}
    for s in states:
        groups.setdefault(key(s), []).append(s)
    return [tuple(g) for g in groups.values()]


def _greatest(model: GameModel, blocks, pair_fails):
    """Refine the partition `blocks` until no clause is violated; return
    the final blocks and the log of the splits, which is what
    distinguisher synthesis replays.

    Each round relates two states when they share a block, so the cover
    check is the same in both directions and Forth and Back share one
    memo.  Under an equivalence each clause sees only the closures of
    the outcome sets, and "Forth and Back hold" is an equivalence inside
    a block, so grouping a block's states against one representative per
    group yields exactly the next refinement.  The rounds stop when none
    splits a block.

    The log has one entry per round that split a block: the round's
    partition and, per split block, the block and its groups as
    (states, reasons), where reasons[i] is the _Reason from
    `pair_fails` separating the group's first state from the first
    state of group i.

    Before any clause check, each state of a block gets a key for the
    round: its availability shape (per-agent action counts) and the
    block of its successor under every profile, in profile order.  A
    state whose key already appeared in the block joins that state's
    group unchecked; only the first state with each key is compared.
    Groups and log are the ones comparing every state would give: every
    table a clause reads is an OR of successor bits over profile groups
    that the shape fixes, and each cover check compares only block
    closures, so two states with equal keys get the same verdict against
    every representative and satisfy every clause against each other.

    A non-total outcome map raises InputError naming its first
    incomplete state in state order.
    """
    idx = model.state_index
    shapes = model.shapes
    succ = [[b.bit_length() - 1 for b in model.successor_row(s)] for s in model.states]
    log = []
    while True:
        rows = [0] * len(model.states)
        for block in blocks:
            bits = model.bits_of(block)
            for s in block:
                rows[idx[s]] = bits
        check = _Cover(rows).check
        rel = (check, check)
        refined = []
        splits = []
        for block in blocks:
            if len(block) < 2:
                refined.append(block)
                continue
            groups: list[tuple[list[State], list[_Reason]]] = []
            group_of: dict = {}
            for s in block:
                i = idx[s]
                key = (shapes[i], tuple(map(rows.__getitem__, succ[i])))
                members = group_of.get(key)
                if members is None:
                    reasons = []
                    for members, _ in groups:
                        reason = pair_fails(rel, members[0], s)
                        if reason is None:
                            break
                        reasons.append(reason)
                    else:
                        members = []
                        groups.append((members, reasons))
                    group_of[key] = members
                members.append(s)
            refined.extend(tuple(members) for members, _ in groups)
            if len(groups) > 1:
                splits.append((block, groups))
        if not splits:
            return blocks, log
        log.append((blocks, splits))
        blocks = refined


def _equivalence(blocks) -> Relation:
    return frozenset((s, t) for block in blocks for s in block for t in block)


@per_model
def _cl_refinement(model: GameModel):
    fails = _pair_fails(model, [(_CL, c, _EMPTY) for c in coalitions(model.agents)])
    return _greatest(model, _classes(model.states, _labels(model).__getitem__), fails)


@per_model
def _constr_refinement(model: GameModel):
    # every such bisimulation is a coalition-logic one (the coop clause
    # at coalitions (c, {}) implies the CL clause at c), so the
    # refinement starts from the classes of the greatest CL bisimulation
    pairs = _coalition_pairs(model.agents)
    fails = _pair_fails(model, [(f, a, b) for a, b in pairs for f in ALL_FAMILIES])
    return _greatest(model, _cl_refinement(model)[0], fails)


@per_model
def _final_block_of(model: GameModel) -> dict[State, int]:
    """Each state's index among the final blocks of the ConStR refinement."""
    return {s: i for i, block in enumerate(_constr_refinement(model)[0]) for s in block}


@per_model
def greatest_cl_bisim(model: GameModel) -> Relation:
    """Largest coalition-logic bisimulation in the model."""
    return _equivalence(_cl_refinement(model)[0])


@per_model
def greatest_constr_bisim(model: GameModel) -> Relation:
    """Largest bisimulation for the full conditional language."""
    return _equivalence(_constr_refinement(model)[0])


# -- distinguishing formulas ----------------------------------------------


class SynthesisError(RuntimeError):
    """A split of the refinement log could not be turned into a formula
    separating its two states."""


def _literal_pool(model: GameModel) -> dict:
    """Extension bits -> the first of true, false, the atom literals and
    their pairwise conjunctions and disjunctions having them."""
    full = model.full_bits
    literals = [(TOP, full), (bottom(), 0)]
    for atom in model.atoms:
        bits = model.atom_bits[atom]
        literals.append((Atom(atom), bits))
        literals.append((Not(Atom(atom)), full ^ bits))
    pool: dict = {}
    for f, b in literals:
        pool.setdefault(b, f)
    for (f1, b1), (f2, b2) in itertools.combinations(literals, 2):
        pool.setdefault(b1 & b2, And(f1, f2))
        pool.setdefault(b1 | b2, or_(f1, f2))
    return pool


def _atom_literal(labels, s, t) -> Formula:
    plus = sorted(labels[s] - labels[t])
    if plus:
        return Atom(plus[0])
    return Not(Atom(min(labels[t] - labels[s])))


@per_model
def _synthesis_table(model: GameModel):
    """Replay the refinement: the split by atoms, then the logged CL and
    ConStR rounds.

    Each split of a block into groups comes with one formula per pair of
    groups, true on one and false on the other.  It is built over the
    partition of its round, whose class formulas are the arguments'
    building blocks: a group's class formula is its block's conjoined
    with its formulas against the sibling groups.  States one round
    keeps together satisfy the same operator formulas over unions of
    that round's classes, so each formula holds on whole groups.  The
    result maps each ordered pair of final blocks (by _final_block_of
    index) to the formula of their lowest common split and its extension
    bits.  The model checker computes those bits once per split formula,
    whose complement gives its negation's, and once per distinct atom
    literal.
    """
    block_of = _final_block_of(model)
    idx = model.state_index
    full = model.full_bits
    pool = _literal_pool(model)
    labels = _labels(model)
    class_of = dict.fromkeys(model.states, TOP)
    table: dict[tuple[int, int], tuple[Formula, int]] = {}

    def enter(block, groups, between):
        """Enter the split of `block` into `groups`, where between[i][j]
        is a formula true on group i and false on group j, with its
        extension bits."""
        leaves = [dict.fromkeys(block_of[s] for s in g) for g in groups]
        for i, row in enumerate(between):
            for j, entry in row.items():
                for x in leaves[i]:
                    for y in leaves[j]:
                        table[x, y] = entry
        formulas = []
        for row in between:
            f = class_of[block[0]]
            for g in dict.fromkeys(g for g, _ in row.values()):
                f = g if f is TOP else And(f, g)
            formulas.append(f)
        for g, f in zip(groups, formulas):
            for s in g:
                class_of[s] = f

    literal_bits: dict[Formula, int] = {}

    def literal(s, t):
        f = _atom_literal(labels, s, t)
        bits = literal_bits.get(f)
        if bits is None:
            bits = literal_bits[f] = extension_bits(model, f)
        return f, bits

    atom_classes = _classes(model.states, labels.__getitem__)
    enter(model.states, atom_classes,
          [{j: literal(gi[0], gj[0]) for j, gj in enumerate(atom_classes) if j != i}
           for i, gi in enumerate(atom_classes)])

    for partition, splits in _cl_refinement(model)[1] + _constr_refinement(model)[1]:
        classes = [(model.bits_of(b), class_of[b[0]]) for b in partition]
        known = dict(pool)

        def closure(bits):
            mask = 0
            for class_bits, _ in classes:
                if class_bits & bits:
                    mask |= class_bits
            return mask

        def materialize(bits):
            f = known.get(bits)
            if f is None:
                for class_bits, g in classes:
                    if class_bits & bits:
                        f = g if f is None else or_(f, g)
                known[bits] = f
            return f

        def separate(reason, x, y):
            """A formula over this round's classes, true at x, false at y,
            with its extension bits."""
            op = _KINDS[reason.kind].operator
            a, b = reason.a, reason.b
            ix, iy = idx[x], idx[y]

            def differ(bits):
                return (bits >> ix ^ bits >> iy) & 1

            if reason.kind == _CL:
                u = materialize(closure(model.out_bits(reason.witness)))
                f = op(a, b, u, u)
            else:
                pool_u = list(dict.fromkeys(
                    [closure(o) for s in (x, y) for o in model.out_bits_table(s, a)]
                    + [model.full_bits]))
                pool_w = list(dict.fromkeys(
                    [closure(o) for s in (x, y) for row in model.merged_out_bits(s, a, b)
                     for o in row] + pool_u))
                found = next(((u, w) for u in pool_u for w in pool_w
                              if differ(strategic_states_bits(model, op, a, b, u, w))), None)
                if found is None:
                    raise SynthesisError(
                        f"no {op.token} formula at A={{{','.join(sorted(a))}}} "
                        f"B={{{','.join(sorted(b))}}} separates ({x}, {y})")
                f = op(a, b, materialize(found[0]), materialize(found[1]))
            bits = extension_bits(model, f)
            if not differ(bits):
                raise SynthesisError(f"split formula fails to separate ({x}, {y})")
            return (f, bits) if bits >> ix & 1 else (Not(f), full ^ bits)

        for block, groups in splits:
            between = [{} for _ in groups]
            for j, (members, reasons) in enumerate(groups):
                for i, reason in enumerate(reasons):
                    f, bits = separate(reason, groups[i][0][0], members[0])
                    between[i][j] = f, bits
                    between[j][i] = Not(f), full ^ bits
            enter(block, [members for members, _ in groups], between)

    return table


def distinguishing_formula(model: GameModel, s: State, t: State) -> Formula | None:
    """A formula true at s and false at t, or None when the states are
    bisimulation equivalent.  Every returned formula is re-verified at s
    and t against the extension bits the model checker gave it in the
    synthesis table before being handed out; an equivalent pair is
    answered from the final blocks alone, before any synthesis."""
    idx = model.state_index
    for x in (s, t):
        if x not in idx:
            raise InputError(f"unknown state {x!r}")
    block_of = _final_block_of(model)
    if block_of[s] == block_of[t]:
        return None
    f, bits = _synthesis_table(model)[block_of[s], block_of[t]]
    if not bits >> idx[s] & 1 or bits >> idx[t] & 1:
        raise SynthesisError(f"synthesized formula fails to distinguish ({s}, {t})")
    return f
