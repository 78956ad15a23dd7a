"""Finite concurrent game models.

A model is a set of states, a per-state non-empty action set for every
agent, a total local outcome function on full action profiles, and a
valuation of atomic propositions.  Models are immutable once built and
safe to share between threads.

This module owns the numbering of profiles and joint actions and the
projection of profile indices onto (joint action, joint action) cells;
every outcome table, here and in the operator evaluator, is read
through it.  Derived tables are cached lazily per model, except the
availability-only profile products, which are cached by value, so that
models with equal action sets (such as a generated family) share them.

The first of those tables is the successor table: one outcome lookup
per profile of each state's availability product.  validate_model reads
totality from it, and the kernel tables and the preimage index that
answer later operator calls reuse it; the outcome map is scanned entry
by entry only when the table does not account for every entry.  Every
reader of a whole row (the cell tables, the preimage index, the
bisimulation fixpoint) takes it from successor_row, which raises when
the outcome map is not total at the state; out_bits checks only the
profiles of its joint action.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
from math import prod
from typing import Iterable, Mapping

Agent = str
State = str
Action = str
Coalition = frozenset


class InputError(ValueError):
    """Raised for references to unknown states/agents/actions or malformed input."""


class ParseError(InputError):
    """Malformed model, relation or formula text; message carries the position."""


@dataclass(frozen=True)
class JointAction:
    """A choice of one available action per agent of a coalition, at a state.

    The empty tuple of moves is the unique joint action of the empty
    coalition.  Moves are kept sorted by agent name so that equal
    assignments compare and hash equal.
    """

    state: State
    moves: tuple[tuple[Agent, Action], ...]

    @staticmethod
    def of(state: State, assignment: Mapping[Agent, Action]) -> "JointAction":
        return JointAction(state, tuple(sorted(assignment.items())))

    @property
    def coalition(self) -> Coalition:
        return frozenset(agent for agent, _ in self.moves)

    @property
    def assignment(self) -> dict[Agent, Action]:
        return dict(self.moves)

    def __str__(self) -> str:
        if not self.moves:
            return f"()@{self.state}"
        inner = ",".join(f"{agent}:{act}" for agent, act in self.moves)
        return f"({inner})@{self.state}"


@dataclass(frozen=True)
class Violation:
    """One structural defect found by validate_model."""

    kind: str
    detail: str
    state: State | None = None
    agent: Agent | None = None
    profile: tuple[Action, ...] | None = None

    def __str__(self) -> str:
        where = []
        if self.state is not None:
            where.append(f"state={self.state}")
        if self.agent is not None:
            where.append(f"agent={self.agent}")
        if self.profile is not None:
            where.append(f"profile=({','.join(self.profile)})")
        loc = " [" + ", ".join(where) + "]" if where else ""
        return f"{self.kind}: {self.detail}{loc}"


@dataclass(frozen=True, eq=True)
class GameModel:
    """A finite concurrent game model.

    agents:    canonical agent order; action profiles are tuples in this order
    states:    canonical state order
    avail:     (state, agent) -> declared actions, non-empty once valid
    outcome:   (state, full profile) -> successor state, total once valid
    valuation: atom -> states where the atom is true
    """

    agents: tuple[Agent, ...]
    states: tuple[State, ...]
    avail: dict[tuple[State, Agent], tuple[Action, ...]]
    outcome: dict[tuple[State, tuple[Action, ...]], State]
    valuation: dict[str, frozenset]

    def __hash__(self) -> int:
        # the generated hash would hash the dict fields; equal models
        # agree on these two, so this is consistent with ==
        return hash((self.agents, self.states))

    # -- basic lookups ------------------------------------------------

    @cached_property
    def state_index(self) -> dict[State, int]:
        return {s: i for i, s in enumerate(self.states)}

    @cached_property
    def agent_index(self) -> dict[Agent, int]:
        return {a: i for i, a in enumerate(self.agents)}

    @cached_property
    def atoms(self) -> tuple[str, ...]:
        return tuple(sorted(self.valuation))

    @cached_property
    def full_bits(self) -> int:
        return (1 << len(self.states)) - 1

    def has_state(self, state: State) -> bool:
        return state in self.state_index

    def profiles(self, state: State) -> tuple[tuple[Action, ...], ...]:
        """All full action profiles available at a state, in canonical order."""
        return _profile_product(tuple(self.avail.get((state, a), ()) for a in self.agents))

    # -- bitmask helpers (states as bit positions in canonical order) --

    def bits_of(self, states: Iterable[State]) -> int:
        idx = self.state_index
        mask = 0
        for s in states:
            mask |= 1 << idx[s]
        return mask

    def states_of(self, bits: int) -> frozenset:
        return frozenset(s for i, s in enumerate(self.states) if bits >> i & 1)

    @cached_property
    def atom_bits(self) -> dict[str, int]:
        return {p: self.bits_of(ss) for p, ss in self.valuation.items()}

    @cached_property
    def _per_model(self) -> dict:
        # results of the functions decorated with per_model, by function
        return {}

    # -- derived tables ------------------------------------------------
    #
    # Profiles and joint actions are numbered in mixed radix with the
    # first agent most significant, as itertools.product does; every
    # outcome table below is read through _cell_projection in that order.

    @cached_property
    def shapes(self) -> tuple[tuple[int, ...], ...]:
        """Each state's availability shape, in state order: its per-agent
        action counts, in agent order."""
        return tuple(tuple(len(self.avail.get((s, a), ())) for a in self.agents)
                     for s in self.states)

    def joint_action_table(self, state: State, coalition: Coalition) -> tuple[JointAction, ...]:
        """All joint actions of a coalition at a state, in canonical order."""
        members = tuple(a for a in self.agents if a in coalition)
        pools = [self.avail.get((state, a), ()) for a in members]
        return tuple(
            JointAction.of(state, dict(zip(members, choice)))
            for choice in itertools.product(*pools)
        )

    @cached_property
    def _succ_cache(self) -> dict:
        return {}

    def _succ_bits(self, state: State):
        """Successor state bit per profile index, one outcome lookup per
        profile of the availability product; None where the outcome map
        has a hole.  A successor outside the states raises InputError."""
        cached = self._succ_cache.get(state)
        if cached is not None:
            return cached
        idx = self.state_index
        get = self.outcome.get
        succ = []
        try:
            for profile in self.profiles(state):
                target = get((state, profile))
                succ.append(None if target is None else 1 << idx[target])
        except KeyError as exc:
            raise InputError(f"outcome at {state} leads to undeclared "
                             f"state {exc.args[0]!r}") from None
        succ = tuple(succ)
        self._succ_cache[state] = succ
        return succ

    def successor_row(self, state: State) -> tuple[int, ...]:
        """The successor state bit of every profile at a state, in profile
        order.  A hole in the outcome map there raises InputError."""
        succ = self._succ_bits(state)
        if None in succ:
            raise InputError(f"outcome map is not total at {state}")
        return succ

    def out_bits(self, sigma: JointAction) -> int:
        """Outcome set of a joint action, as a state bitmask.

        The outcome set collects the successors of every full profile
        that extends the joint action.
        """
        state = sigma.state
        if state not in self.state_index:
            raise InputError(f"unknown state {state!r}")
        moves = []
        for agent, act in sigma.moves:
            if agent not in self.agent_index:
                raise InputError(f"unknown agent {agent!r}")
            if act not in self.avail.get((state, agent), ()):
                raise InputError(
                    f"action {act!r} of agent {agent!r} not available at {state}")
            moves.append((self.agent_index[agent], act))
        bits = 0
        for profile, sb in zip(self.profiles(state), self._succ_bits(state)):
            if all(profile[i] == act for i, act in moves):
                if sb is None:
                    raise InputError(f"outcome map is not total at {state}")
                bits |= sb
        return bits

    @cached_property
    def _tables(self) -> dict:
        # out_bits_table results by (state, coalition), merged_out_bits
        # results by (state, a, b)
        return {}

    def out_bits_table(self, state: State, coalition: Coalition) -> tuple[int, ...]:
        """Outcome bitmasks of every joint action of a coalition at a state,
        aligned with joint_action_table order."""
        key = (state, coalition)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = tuple(_cell_outcomes(
                self.shapes[self.state_index[state]], self.successor_row(state),
                _positions(self.agents, coalition), ())[2])
        return table

    def merged_out_bits(self, state: State, a: Coalition, b: Coalition):
        """Outcome bitmask of merge(ja_a, ja_b) for every pair of joint actions.

        Indexed [ia][ib] following joint_action_table order; the first
        coalition's choices win on any overlap.
        """
        key = (state, a, b)
        table = self._tables.get(key)
        if table is not None:
            return table
        r = b - a
        shape = self.shapes[self.state_index[state]]
        n_a, n_r, outs = _cell_outcomes(shape, self.successor_row(state),
                                        _positions(self.agents, a), _positions(self.agents, r))
        rows = [outs[k * n_r:(k + 1) * n_r] for k in range(n_a)]
        if r != b:
            # a joint action of b plays the cell of its moves outside a
            members = _positions(self.agents, b)
            _, _, columns = _cell_projection(
                tuple(shape[i] for i in members),
                tuple(j for j, i in enumerate(members) if self.agents[i] in a),
                tuple(j for j, i in enumerate(members) if self.agents[i] in r))
            rows = [[row[c % n_r] for c in columns] for row in rows]
        table = self._tables[key] = tuple(map(tuple, rows))
        return table


@lru_cache(maxsize=1024)
def _profile_product(pools: tuple[tuple[Action, ...], ...]) -> tuple[tuple[Action, ...], ...]:
    # keyed by value, so models with the same action sets at a state
    # (such as a generated family) share one profile tuple
    return tuple(itertools.product(*pools))


@lru_cache(maxsize=None)
def _cell_projection(shape: tuple[int, ...], actors: tuple[int, ...],
                     responders: tuple[int, ...]) -> tuple[int, int, tuple[int, ...]]:
    """The cell layout of one availability shape (the per-agent action
    counts at a state) for the agents at the given positions: the numbers
    of actor and of responder joint actions, and for every profile index
    the index of its (actor joint action, responder joint action) cell,
    row-major.  Joint actions and profiles are numbered in mixed radix
    with the first agent most significant, as itertools.product does."""
    n_a = prod(shape[i] for i in actors)
    n_r = prod(shape[i] for i in responders)
    weights = [0] * len(shape)
    stride = 1
    for i in reversed(responders):
        weights[i] = stride
        stride *= shape[i]
    stride = n_r
    for i in reversed(actors):
        weights[i] = stride
        stride *= shape[i]
    cells = [0]
    for size, weight in zip(shape, weights):
        cells = [c + d * weight for c in cells for d in range(size)]
    return n_a, n_r, tuple(cells)


def _positions(agents: tuple[Agent, ...], coalition: Coalition) -> tuple[int, ...]:
    """The ascending positions of a coalition's members in the agent tuple."""
    return tuple(i for i, a in enumerate(agents) if a in coalition)


def _cell_outcomes(shape: tuple[int, ...], row: tuple[int, ...], actors: tuple[int, ...],
                   responders: tuple[int, ...]) -> tuple[int, int, list[int]]:
    """The outcome of every (actor joint action, responder joint action)
    cell at a state of the given availability shape and successor row,
    for the agents at the given ascending positions: (n_a, n_r, outs)
    with outs[k * n_r + l] the outcome bitmask of cell (k, l).  Every
    successor is ORed into its profile's cell."""
    n_a, n_r, cells = _cell_projection(shape, actors, responders)
    outs = [0] * (n_a * n_r)
    for c, sb in zip(cells, row):
        outs[c] |= sb
    return n_a, n_r, outs


# -- module-level operations on models ---------------------------------


def per_model(fn):
    """Decorator: compute `fn(model)` once per model and keep the result
    with the model."""

    @wraps(fn)
    def memoized(model: GameModel):
        memo = model._per_model
        try:
            return memo[fn]
        except KeyError:
            result = memo[fn] = fn(model)
            return result

    return memoized


@lru_cache(maxsize=None)
def coalitions(agents: tuple[Agent, ...]) -> tuple[Coalition, ...]:
    """Every coalition over the agents in canonical order: by size, then
    in combinations order over the agent tuple."""
    return tuple(frozenset(combo) for r in range(len(agents) + 1)
                 for combo in itertools.combinations(agents, r))


@lru_cache(maxsize=None)
def one_agent_supersets(subsets: tuple[Coalition, ...]) -> tuple[tuple[int, ...], ...]:
    """For each coalition of `subsets`, the positions in `subsets` of the
    coalitions that have exactly one agent more and contain it."""
    return tuple(tuple(j for j, d in enumerate(subsets) if len(d) == len(c) + 1 and c < d)
                 for c in subsets)


def joint_actions(model: GameModel, coalition: Coalition, state: State) -> set[JointAction]:
    """All joint actions of a coalition at a state.

    The empty coalition has exactly one joint action, the empty assignment.
    """
    if state not in model.state_index:
        raise InputError(f"unknown state {state!r}")
    unknown = coalition - set(model.agents)
    if unknown:
        raise InputError(f"unknown agents {sorted(unknown)} in coalition")
    return set(model.joint_action_table(state, frozenset(coalition)))


def merge(sigma_a: JointAction, sigma_b: JointAction) -> JointAction:
    """Combine two joint actions into one for the union coalition.

    On the overlap the first argument wins; outside its coalition the
    second argument fills in.  Both must be anchored at the same state.
    """
    if sigma_a.state != sigma_b.state:
        raise InputError(
            f"cannot merge joint actions at different states "
            f"({sigma_a.state} vs {sigma_b.state})"
        )
    combined = sigma_b.assignment
    combined.update(sigma_a.assignment)
    return JointAction.of(sigma_a.state, combined)


def outcome_set(model: GameModel, state: State, sigma: JointAction) -> frozenset:
    """The set of states reachable when the coalition plays sigma at state."""
    if state not in model.state_index:
        raise InputError(f"unknown state {state!r}")
    if sigma.state != state:
        raise InputError(f"joint action is anchored at {sigma.state}, not {state}")
    unknown = sigma.coalition - set(model.agents)
    if unknown:
        raise InputError(f"unknown agents {sorted(unknown)} in joint action")
    return model.states_of(model.out_bits(sigma))


def validate_model(model: GameModel) -> list[Violation]:
    """Check every structural invariant; an empty report means the model is valid."""
    report: list[Violation] = []
    states = set(model.states)
    agents = set(model.agents)

    if len(set(model.agents)) != len(model.agents):
        report.append(Violation("duplicate agent", "agent list contains repeats"))
    if len(states) != len(model.states):
        report.append(Violation("duplicate state", "state list contains repeats"))
    if not model.states:
        report.append(Violation("no states", "model must have at least one state"))
    if not model.agents:
        report.append(Violation("no agents", "model must have at least one agent"))

    for (s, a), acts in model.avail.items():
        if s not in states:
            report.append(Violation("unknown state", f"action set declared for {s!r}", state=s, agent=a))
        if a not in agents:
            report.append(Violation("unknown agent", f"action set declared for {a!r}", state=s, agent=a))
        if len(set(acts)) != len(acts):
            report.append(Violation("duplicate action", "repeated action name", state=s, agent=a))

    for s in model.states:
        for a in model.agents:
            if not model.avail.get((s, a)):
                report.append(Violation(
                    "empty action set", "every agent needs at least one action", state=s, agent=a))

    # outcome entries must sit exactly on the availability product.  With
    # distinct states and actions, the successor table the evaluator reads
    # holds one lookup per product profile; when its successors account
    # for every entry, no entry lies off the product or leads outside the
    # states, and its holes are the missing profiles.
    rows = None
    if not any(v.kind in ("duplicate state", "duplicate action") for v in report):
        try:
            rows = [model._succ_bits(s) for s in model.states]
        except InputError:
            pass  # a successor outside the states; the scan below names it
    if rows is not None and sum(len(r) - r.count(None) for r in rows) == len(model.outcome):
        for s, row in zip(model.states, rows):
            if None in row:
                holes = sorted(p for p, sb in zip(model.profiles(s), row) if sb is None)
                report.extend(Violation("outcome not total", "no successor for profile",
                                        state=s, profile=p) for p in holes)
    else:
        product = {s: set(model.profiles(s)) for s in model.states}
        for (s, profile), target in model.outcome.items():
            if s not in states:
                report.append(Violation("unknown state", f"outcome declared at {s!r}", state=s, profile=profile))
                continue
            if profile not in product[s]:
                report.append(Violation(
                    "unavailable profile", "outcome declared for a profile outside the availability product",
                    state=s, profile=profile))
            if target not in states:
                report.append(Violation(
                    "unknown target", f"outcome leads to undeclared state {target!r}", state=s, profile=profile))
        for s in model.states:
            for profile in sorted(p for p in product[s] if (s, p) not in model.outcome):
                report.append(Violation("outcome not total", "no successor for profile", state=s, profile=profile))

    for atom, ss in model.valuation.items():
        for s in sorted(ss):
            if s not in states:
                report.append(Violation("unknown state", f"atom {atom!r} labels undeclared state", state=s))

    return report


def disjoint_union(left: GameModel, right: GameModel,
                   left_prefix: str = "", right_prefix: str = "") -> GameModel:
    """Combine two models over the same agents into one, renaming states by prefix.

    Used to run in-model bisimulation machinery across two models.
    """
    if left.agents != right.agents:
        raise InputError("disjoint union requires identical agent lists")

    def rename(m: GameModel, prefix: str):
        states = tuple(prefix + s for s in m.states)
        avail = {(prefix + s, a): acts for (s, a), acts in m.avail.items()}
        outcome = {(prefix + s, p): prefix + t for (s, p), t in m.outcome.items()}
        valuation = {atom: frozenset(prefix + s for s in ss) for atom, ss in m.valuation.items()}
        return states, avail, outcome, valuation

    ls, la, lo, lv = rename(left, left_prefix)
    rs, ra, ro, rv = rename(right, right_prefix)
    overlap = set(ls) & set(rs)
    if overlap:
        raise InputError(f"state names collide in union: {sorted(overlap)}")
    valuation = {}
    for atom in set(lv) | set(rv):
        valuation[atom] = lv.get(atom, frozenset()) | rv.get(atom, frozenset())
    return GameModel(
        agents=left.agents,
        states=ls + rs,
        avail={**la, **ra},
        outcome={**lo, **ro},
        valuation=valuation,
    )
