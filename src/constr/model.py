"""Finite concurrent game models.

A model is a set of states, a per-state non-empty action set for every
agent, a total local outcome function on full action profiles, and a
valuation of atomic propositions.  Models are immutable once built and
safe to share between threads; all derived tables are cached lazily.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
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

    def actions(self, state: State, agent: Agent) -> tuple[Action, ...]:
        if state not in self.state_index:
            raise InputError(f"unknown state {state!r}")
        if agent not in self.agent_index:
            raise InputError(f"unknown agent {agent!r}")
        return self.avail.get((state, agent), ())

    def profiles(self, state: State) -> tuple[tuple[Action, ...], ...]:
        """All full action profiles available at a state, in canonical order."""
        return self._profile_table[state]

    def successor(self, state: State, profile: tuple[Action, ...]) -> State:
        try:
            return self.outcome[(state, profile)]
        except KeyError:
            raise InputError(f"no outcome for profile ({','.join(profile)}) at {state}") from None

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

    @cached_property
    def _profile_table(self) -> dict[State, tuple[tuple[Action, ...], ...]]:
        table = {}
        for s in self.states:
            pools = [self.avail.get((s, a), ()) for a in self.agents]
            table[s] = tuple(itertools.product(*pools))
        return table

    @cached_property
    def _ja_cache(self) -> dict:
        return {}

    def joint_action_table(self, state: State, coalition: Coalition) -> tuple[JointAction, ...]:
        """All joint actions of a coalition at a state, in canonical order."""
        key = (state, coalition)
        cached = self._ja_cache.get(key)
        if cached is not None:
            return cached
        members = tuple(a for a in self.agents if a in coalition)
        pools = [self.avail.get((state, a), ()) for a in members]
        table = tuple(
            JointAction.of(state, dict(zip(members, choice)))
            for choice in itertools.product(*pools)
        )
        self._ja_cache[key] = table
        return table

    @cached_property
    def _mask_cache(self) -> dict:
        return {}

    def _profile_masks(self, state: State):
        """Per (agent, action): bitmask over profile indices playing it,
        plus the all-profiles mask.  Depends on availability only."""
        cached = self._mask_cache.get(state)
        if cached is not None:
            return cached
        if state not in self.state_index:
            raise InputError(f"unknown state {state!r}")
        profiles = self.profiles(state)
        masks: dict[tuple[Agent, Action], int] = {}
        for j, profile in enumerate(profiles):
            bit = 1 << j
            for i, a in enumerate(self.agents):
                key = (a, profile[i])
                masks[key] = masks.get(key, 0) | bit
        result = (masks, (1 << len(profiles)) - 1)
        self._mask_cache[state] = result
        return result

    @cached_property
    def _succ_cache(self) -> dict:
        return {}

    def _succ_bits(self, state: State):
        """Successor state bit per profile index; None where the outcome
        map has a hole (only valid models get evaluated)."""
        cached = self._succ_cache.get(state)
        if cached is not None:
            return cached
        idx = self.state_index
        succ = []
        for profile in self.profiles(state):
            target = self.outcome.get((state, profile))
            succ.append(None if target is None else 1 << idx[target])
        succ = tuple(succ)
        self._succ_cache[state] = succ
        return succ

    def _collect_out(self, state: State, profile_mask: int) -> int:
        succ = self._succ_bits(state)
        bits = 0
        m = profile_mask
        while m:
            low = m & -m
            sb = succ[low.bit_length() - 1]
            if sb is None:
                raise InputError(f"outcome map is not total at {state}")
            bits |= sb
            m ^= low
        return bits

    @cached_property
    def _out_cache(self) -> dict:
        return {}

    def out_bits(self, sigma: JointAction) -> int:
        """Outcome set of a joint action, as a state bitmask.

        The outcome set collects the successors of every full profile
        that extends the joint action.
        """
        key = (sigma.state, sigma.moves)
        cached = self._out_cache.get(key)
        if cached is not None:
            return cached
        state = sigma.state
        masks, pmask = self._profile_masks(state)
        for agent, act in sigma.moves:
            m = masks.get((agent, act))
            if m is None:
                if agent not in self.agent_index:
                    raise InputError(f"unknown agent {agent!r}")
                raise InputError(
                    f"action {act!r} of agent {agent!r} not available at {state}")
            pmask &= m
        bits = self._collect_out(state, pmask)
        self._out_cache[key] = bits
        return bits

    @cached_property
    def _outs_cache(self) -> dict:
        return {}

    def out_bits_table(self, state: State, coalition: Coalition) -> tuple[int, ...]:
        """Outcome bitmasks of every joint action of a coalition at a state,
        aligned with joint_action_table order."""
        key = (state, coalition)
        cached = self._outs_cache.get(key)
        if cached is not None:
            return cached
        table = tuple(self.out_bits(ja) for ja in self.joint_action_table(state, coalition))
        self._outs_cache[key] = table
        return table

    @cached_property
    def _merged_cache(self) -> dict:
        return {}

    def merged_out_bits(self, state: State, a: Coalition, b: Coalition):
        """Outcome bitmask of merge(ja_a, ja_b) for every pair of joint actions.

        Indexed [ia][ib] following joint_action_table order; the first
        coalition's choices win on any overlap.
        """
        key = (state, a, b)
        cached = self._merged_cache.get(key)
        if cached is not None:
            return cached
        jas_a = self.joint_action_table(state, a)
        jas_b = self.joint_action_table(state, b)
        masks, full = self._profile_masks(state)
        b_restricted = [
            [(ag, act) for ag, act in jb.moves if ag not in a]
            for jb in jas_b
        ]
        out_of: dict[int, int] = {}
        rows = []
        for ja in jas_a:
            base = full
            for move in ja.moves:
                base &= masks[move]
            row = []
            for moves_b in b_restricted:
                m = base
                for move in moves_b:
                    m &= masks[move]
                bits = out_of.get(m)
                if bits is None:
                    bits = self._collect_out(state, m)
                    out_of[m] = bits
                row.append(bits)
            rows.append(tuple(row))
        table = tuple(rows)
        self._merged_cache[key] = table
        return table


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

    # outcome entries must sit exactly on the availability product
    product: dict[State, set[tuple[Action, ...]]] = {}
    for s in model.states:
        pools = [model.avail.get((s, a), ()) for a in model.agents]
        product[s] = set(itertools.product(*pools)) if all(pools) else set()

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
        for profile in sorted(product[s]):
            if (s, profile) not in model.outcome:
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
