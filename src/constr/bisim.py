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
embedded models) usable.

Both greatest bisimulations are computed by block refinement: the
coalition-logic one from the partition by atom valuation, the
conditional one from the coalition-logic classes, which contain it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .formula import And, Atom, Formula, Not, Obeta, Oalpha, Oc, TOP, bottom, or_
from .model import Coalition, GameModel, InputError, State, coalitions, per_model
from .semantics import extension_bits, holds, strategic_states_bits

Relation = frozenset

FAMILY_COOP = "c"
FAMILY_PROACTIVE = "alpha"
FAMILY_REACTIVE = "beta"
ALL_FAMILIES = (FAMILY_COOP, FAMILY_PROACTIVE, FAMILY_REACTIVE)

# (Forth tag, Back tag) per condition family
_FAMILY_TAGS = {
    FAMILY_COOP: ("A-Forth_c", "A-Back_c"),
    FAMILY_PROACTIVE: ("B-Forth_alpha", "B-Back_alpha"),
    FAMILY_REACTIVE: ("A-Forth_beta", "A-Back_beta"),
}


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


def _coalition_pairs(agents, disjoint_only: bool):
    """(A, B) pairs in canonical order; responder overlap with the actor
    is redundant (the clauses only see B through B minus A), so the
    fixpoint loops use disjoint pairs only."""
    subsets = coalitions(agents)
    return tuple((a, b) for a in subsets for b in subsets
                 if not (disjoint_only and a & b))


class _Cover:
    """Memoized cover check over one row table: x is covered in y when
    every state of x has a row partner in y."""

    def __init__(self, rows):
        self.rows = rows
        self.memo: dict = {}

    def check(self, x: int, y: int) -> bool:
        key = (x, y)
        hit = self.memo.get(key)
        if hit is None:
            hit = True
            rows = self.rows
            m = x
            while m:
                low = m & -m
                if not (rows[low.bit_length() - 1] & y):
                    hit = False
                    break
                m ^= low
            self.memo[key] = hit
        return hit


def _relation(model: GameModel, pairs):
    """The relation as the check pair (fwd, rev): fwd(x, y) holds when every
    state of x has a successor in y, rev(x, y) when every state of x has a
    predecessor in y.  The inverse relation is (rev, fwd)."""
    n = len(model.states)
    idx = model.state_index
    fwd = [0] * n
    rev = [0] * n
    for u, v in pairs:
        fwd[idx[u]] |= 1 << idx[v]
        rev[idx[v]] |= 1 << idx[u]
    return _Cover(fwd).check, _Cover(rev).check


# -- clause evaluators ----------------------------------------------------
#
# Each is the Forth half of its condition at (s1, s2) under rel = (fwd,
# rev); the Back half is the same function at (s2, s1) under the inverse
# (rev, fwd).  Each returns None when the clause holds, otherwise the
# joint action at s1 that cannot be matched.


def _cl_clause(model, rel, s1, s2, c):
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
    nb2 = len(model.joint_action_table(s2, b))
    for ib1 in range(len(model.joint_action_table(s1, b))):
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


_FAMILY_CLAUSES = {
    FAMILY_COOP: _coop_clause,
    FAMILY_PROACTIVE: _proactive_clause,
    FAMILY_REACTIVE: _reactive_clause,
}


# -- checkers -------------------------------------------------------------


def _atom_check(model, pairs):
    sig = _labels(model)
    for s, t in pairs:
        if sig[s] != sig[t]:
            return BisimFailure((s, t), "AtomEq")
    return None


def check_cl_bisim(model: GameModel, relation) -> BisimVerdict:
    """Is the relation a coalition-logic bisimulation in the model?"""
    pairs = _check_relation(model, relation)
    bad = _atom_check(model, pairs)
    if bad is not None:
        return BisimVerdict(False, bad)
    rel = _relation(model, pairs)
    inv = rel[::-1]
    for s, t in pairs:
        for c in coalitions(model.agents):
            for tag, x, y, r in zip(("Forth", "Back"), (s, t), (t, s), (rel, inv)):
                witness = _cl_clause(model, r, x, y, c)
                if witness is not None:
                    return BisimVerdict(False, BisimFailure(
                        (s, t), tag, coalition_a=c, witness=str(witness)))
    return BisimVerdict(True)


def check_constr_bisim(model: GameModel, relation,
                       families=ALL_FAMILIES) -> BisimVerdict:
    """Is the relation a bisimulation for the full conditional language?

    The three condition families are checked in the given order; the
    verdict reports the first violated clause.  Restricting `families`
    probes a single operator's conditions in isolation.
    """
    unknown = set(families) - set(ALL_FAMILIES)
    if unknown:
        raise InputError(f"unknown condition families: {sorted(unknown)}")
    pairs = _check_relation(model, relation)
    bad = _atom_check(model, pairs)
    if bad is not None:
        return BisimVerdict(False, bad)
    rel = _relation(model, pairs)
    inv = rel[::-1]
    coalition_pairs = _coalition_pairs(model.agents, disjoint_only=False)
    for family in families:
        clause = _FAMILY_CLAUSES[family]
        tags = _FAMILY_TAGS[family]
        for s, t in pairs:
            for a, b in coalition_pairs:
                for tag, x, y, r in zip(tags, (s, t), (t, s), (rel, inv)):
                    witness = clause(model, r, x, y, a, b)
                    if witness is not None:
                        return BisimVerdict(False, BisimFailure(
                            (s, t), tag, coalition_a=a, coalition_b=b,
                            witness=str(witness)))
    return BisimVerdict(True)


# -- greatest fixpoints ---------------------------------------------------


def _classes(states, key):
    """States grouped by key value, each group and the groups in state order."""
    groups: dict = {}
    for s in states:
        groups.setdefault(key(s), []).append(s)
    return [tuple(g) for g in groups.values()]


def _relation_classes(model: GameModel, relation):
    """The classes of an equivalence relation over the model's states."""
    idx = model.state_index
    rows = dict.fromkeys(model.states, 0)
    for s, t in relation:
        rows[s] |= 1 << idx[t]
    return _classes(model.states, rows.__getitem__)


def _greatest(model: GameModel, blocks, pair_fails) -> Relation:
    """Refine the partition `blocks` until no clause is violated.

    Each round relates two states when they share a block, so the cover
    check is the same in both directions and Forth and Back share one
    memo.  Under an equivalence each clause sees only the closures of
    the outcome sets, and "Forth and Back hold" is an equivalence inside
    a block, so grouping a block's states against one representative per
    group yields exactly the next refinement.  The rounds stop when none
    splits a block.

    A non-total outcome map raises InputError naming its first
    incomplete state in state order.
    """
    for s in model.states:
        # the empty coalition's one outcome set covers every profile at s
        model.out_bits_table(s, frozenset())
    idx = model.state_index
    while True:
        rows = [0] * len(model.states)
        for block in blocks:
            bits = model.bits_of(block)
            for s in block:
                rows[idx[s]] = bits
        check = _Cover(rows).check
        rel = (check, check)
        refined = []
        for block in blocks:
            if len(block) < 2:
                refined.append(block)
                continue
            groups: list[list[State]] = []
            for s in block:
                for group in groups:
                    if not pair_fails(rel, group[0], s):
                        group.append(s)
                        break
                else:
                    groups.append([s])
            refined.extend(tuple(g) for g in groups)
        if len(refined) == len(blocks):
            break
        blocks = refined
    return frozenset((s, t) for block in blocks for s in block for t in block)


@per_model
def greatest_cl_bisim(model: GameModel) -> Relation:
    """Largest coalition-logic bisimulation in the model."""
    subsets = coalitions(model.agents)

    def fails(rel, s, t):
        for c in subsets:
            if (_cl_clause(model, rel, s, t, c) is not None
                    or _cl_clause(model, rel, t, s, c) is not None):
                return True
        return False

    blocks = _classes(model.states, _labels(model).__getitem__)
    return _greatest(model, blocks, fails)


@per_model
def greatest_constr_bisim(model: GameModel) -> Relation:
    """Largest bisimulation for the full conditional language.

    Every such bisimulation is a coalition-logic one (the coop clause at
    coalitions (c, {}) implies the CL clause at c), so the refinement
    starts from the classes of the greatest CL bisimulation.
    """
    coalition_pairs = _coalition_pairs(model.agents, disjoint_only=True)
    clauses = [_FAMILY_CLAUSES[f] for f in ALL_FAMILIES]

    def fails(rel, s, t):
        for a, b in coalition_pairs:
            for clause in clauses:
                if (clause(model, rel, s, t, a, b) is not None
                        or clause(model, rel, t, s, a, b) is not None):
                    return True
        return False

    blocks = _relation_classes(model, greatest_cl_bisim(model))
    return _greatest(model, blocks, fails)


# -- distinguishing formulas ----------------------------------------------


class SynthesisError(RuntimeError):
    """The synthesizer could not separate a pair the fixpoint says is
    separable (or separated a pair it says is not)."""


class _Synthesizer:
    """Partition refinement where every split is justified by a concrete
    formula, evaluated set-level and memoized through the semantics cache.

    Candidate arguments are unions of current classes: primarily closures
    of outcome sets of the block's own joint actions, with an exhaustive
    union sweep as fallback.  Each recorded split formula's extension is
    asserted against the set used to split, so the table stays honest.
    """

    _WIDE_LIMIT = 8  # classes; 2^k unions is the fallback search space

    def __init__(self, model: GameModel):
        self.model = model
        self.ops = (Oc, Oalpha, Obeta)
        self.coalition_pairs = _coalition_pairs(model.agents, disjoint_only=True)
        sig = _labels(model)
        self.blocks = _classes(model.states, sig.__getitem__)
        self.dist: dict[tuple, Formula] = {}
        self._literals = self._literal_pool()
        for b1 in self.blocks:
            for b2 in self.blocks:
                if b1 != b2:
                    self.dist[(b1, b2)] = self._atom_split(sig, b1, b2)

    # - initial atom distinguishers -

    def _atom_split(self, sig, b1, b2) -> Formula:
        s1, s2 = sig[b1[0]], sig[b2[0]]
        plus = sorted(s1 - s2)
        if plus:
            return Atom(plus[0])
        minus = sorted(s2 - s1)
        return Not(Atom(minus[0]))

    def _literal_pool(self):
        model = self.model
        full = model.full_bits
        pool = [(TOP, full), (bottom(), 0)]
        for atom in model.atoms:
            bits = model.atom_bits[atom]
            pool.append((Atom(atom), bits))
            pool.append((Not(Atom(atom)), full ^ bits))
        return pool

    # - class formulas -

    def _gamma(self, block) -> Formula:
        others = [b for b in self.blocks if b != block]
        if not others:
            return TOP
        f = self.dist[(block, others[0])]
        for other in others[1:]:
            f = And(f, self.dist[(block, other)])
        return f

    def _block_bits(self, block) -> int:
        return self.model.bits_of(block)

    def _closure(self, bits: int) -> int:
        mask = 0
        for block in self.blocks:
            bb = self._block_bits(block)
            if bb & bits:
                mask |= bb
        return mask

    def _materialize(self, bits: int) -> Formula:
        """A formula whose extension is exactly `bits` (a union of classes)."""
        for f, b in self._literals:
            if b == bits:
                return f
        for (f1, b1), (f2, b2) in itertools.combinations(self._literals, 2):
            if b1 & b2 == bits:
                return And(f1, f2)
            if b1 | b2 == bits:
                return or_(f1, f2)
        parts = [self._gamma(b) for b in self.blocks if self._block_bits(b) & bits]
        f = parts[0]
        for part in parts[1:]:
            f = or_(f, part)
        got = extension_bits(self.model, f)
        if got != bits:
            raise SynthesisError("materialized class union drifted from its set")
        return f

    # - candidate enumeration -

    def _pools(self, block, a, b):
        model = self.model
        seen_u, seen_w = [], []

        def add(pool, bits):
            if bits not in pool:
                pool.append(bits)

        for s in block:
            for o in model.out_bits_table(s, a):
                add(seen_u, self._closure(o))
            for row in model.merged_out_bits(s, a, b):
                for o in row:
                    add(seen_w, self._closure(o))
        add(seen_u, model.full_bits)
        add(seen_w, model.full_bits)
        for bits in seen_u:
            add(seen_w, bits)
        return seen_u, seen_w

    def _try_split(self, block, candidates):
        block_bits = self._block_bits(block)
        for op, a, b, u, w in candidates:
            bits = strategic_states_bits(self.model, op, a, b, u, w)
            inside = bits & block_bits
            if inside and inside != block_bits:
                theta = op(a, b, self._materialize(u), self._materialize(w))
                got = extension_bits(self.model, theta)
                if got != bits:
                    raise SynthesisError("split formula drifted from its set evaluation")
                return theta, bits
        return None

    def _narrow_candidates(self, block):
        for a, b in self.coalition_pairs:
            pool_u, pool_w = self._pools(block, a, b)
            for op in self.ops:
                for u in pool_u:
                    for w in pool_w:
                        yield op, a, b, u, w

    def _wide_candidates(self, block):
        if len(self.blocks) > self._WIDE_LIMIT:
            return
        block_masks = [self._block_bits(b) for b in self.blocks]
        unions = [0]
        for mask in block_masks:
            unions += [u | mask for u in unions]
        unions.sort(key=lambda u: (bin(u).count("1"), u))
        for a, b in self.coalition_pairs:
            for op in self.ops:
                for u in unions:
                    for w in unions:
                        yield op, a, b, u, w

    # - refinement -

    def _split_block(self, block, theta, bits):
        idx = self.model.state_index
        inside = tuple(s for s in block if bits >> idx[s] & 1)
        outside = tuple(s for s in block if not bits >> idx[s] & 1)
        new_dist = {}
        for (b1, b2), f in self.dist.items():
            n1 = (inside, outside) if b1 == block else (b1,)
            n2 = (inside, outside) if b2 == block else (b2,)
            for x in n1:
                for y in n2:
                    new_dist[(x, y)] = f
        new_dist[(inside, outside)] = theta
        new_dist[(outside, inside)] = Not(theta)
        self.dist = new_dist
        self.blocks = sorted(
            [b for b in self.blocks if b != block] + [inside, outside],
            key=lambda b: idx[b[0]])

    def refine(self, target: Relation):
        """Split blocks until the partition matches the target equivalence."""
        while True:
            split_done = False
            for block in list(self.blocks):
                if len(block) < 2:
                    continue
                found = self._try_split(block, self._narrow_candidates(block))
                if found is None and any((s, t) not in target
                                         for s in block for t in block):
                    found = self._try_split(block, self._wide_candidates(block))
                if found is not None:
                    self._split_block(block, *found)
                    split_done = True
                    break
            if not split_done:
                return

    def table(self):
        block_of = {s: b for b in self.blocks for s in b}
        return block_of, self.dist


@per_model
def _synthesis_table(model: GameModel):
    target = greatest_constr_bisim(model)
    synth = _Synthesizer(model)
    synth.refine(target)
    block_of, dist = synth.table()
    for s in model.states:
        for t in model.states:
            same_block = block_of[s] is block_of[t]
            related = (s, t) in target
            if same_block != related:
                raise SynthesisError(
                    f"partition disagrees with the greatest bisimulation at ({s}, {t})")
    return block_of, dist


def distinguishing_formula(model: GameModel, s: State, t: State) -> Formula | None:
    """A formula true at s and false at t, or None when the states are
    bisimulation equivalent.  Every returned formula is re-verified
    through the model checker before being handed out."""
    for x in (s, t):
        if x not in model.state_index:
            raise InputError(f"unknown state {x!r}")
    if (s, t) in greatest_constr_bisim(model):
        return None
    block_of, dist = _synthesis_table(model)
    f = dist[(block_of[s], block_of[t])]
    if not holds(model, s, f) or holds(model, t, f):
        raise SynthesisError(f"synthesized formula fails to distinguish ({s}, {t})")
    return f
