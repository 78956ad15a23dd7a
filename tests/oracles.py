"""Independent re-implementations used as oracles by the test suite.

Everything here deliberately avoids the package's evaluation machinery:
no bitmasks and no engine tables.  Joint actions, outcome
sets and the operator quantifier nests are spelled out directly over the
model's raw fields.  brute_holds recomputes every outcome set it needs;
brute_extension collects the outcome sets of each (state, acting
coalition, responders) once, keeping them in a dict its caller may share
across formulas of one model, and may keep its own results in a second,
per-model dict.
reference_parse_model and reference_validate_model read model text line
by line and check the outcome map entry by entry, one branch per case.
Three kinds of referee are the exception.  reference_check_cl_bisim and
reference_check_constr_bisim call the engine's bisimulation clauses and
pin only the checkers' loops around them.  holds_via_b_minus_a reads the
engine's extensions and one-state quantifier nest, and pins only the
responder rule of the operator evaluator: on valid models, the clause
over b, the acting coalition winning the overlap, is the clause over
b - a.
reference_growing_sweep and reference_shrinking_sweep take the
evaluator's answers as bitmasks and pin only the search of the
coalition (anti-)monotonicity sweeps: plain triple loops over every
(A, B, C), against which the one-agent-step sweeps are compared.
"""

import itertools
import random
import re

from constr import bisim
from constr.formula import And, Atom, Not, Obeta, Oalpha, Oc, Strategic, Top, formula_agents
from constr.model import GameModel, InputError, ParseError, State, Violation, coalitions
from constr.semantics import extension_bits, strategic_holds_at

# every full profile, by the tuple of per-agent action pools it is the
# product of; keyed by value, so that no model is kept alive
_PROFILES = {}


def profiles_at(model, state):
    pools = tuple(model.avail.get((state, a), ()) for a in model.agents)
    got = _PROFILES.get(pools)
    if got is None:
        got = _PROFILES[pools] = list(itertools.product(*pools))
    return got


def brute_outcome_set(model, state, assignment):
    """Successors of every full profile extending the partial assignment."""
    out = set()
    for profile in profiles_at(model, state):
        if all(assignment[a] == profile[i]
               for i, a in enumerate(model.agents) if a in assignment):
            out.add(model.outcome[(state, profile)])
    return out


def joint_assignments(model, state, coalition):
    members = [a for a in model.agents if a in coalition]
    pools = [model.avail.get((state, a), ()) for a in members]
    return [dict(zip(members, choice)) for choice in itertools.product(*pools)]


def brute_merge(first, second):
    combined = dict(second)
    combined.update(first)
    return combined


def _brute_operator_at(model, state, op, a, b, in_cond, in_goal, memo=None):
    """The quantifier nest of one strategic operator at one state; the
    condition and goal are tests on states.  Each outcome set is
    collected on first use, a winning where it overlaps b; with a `memo`
    dict, those of (state, a, b) are looked up there first and kept."""
    got = None if memo is None else memo.get((state, a, b))
    if got is None:
        got = (joint_assignments(model, state, a), joint_assignments(model, state, b), {})
        if memo is not None:
            memo[state, a, b] = got
    a_choices, b_choices, outcomes = got

    def secures(i, j, test):
        # j is None for a's assignment alone
        out = outcomes.get((i, j))
        if out is None:
            assignment = a_choices[i] if j is None else brute_merge(a_choices[i], b_choices[j])
            out = outcomes[i, j] = brute_outcome_set(model, state, assignment)
        return all(map(test, out))

    rows, columns = range(len(a_choices)), range(len(b_choices))
    if op is Oc:
        return any(
            secures(i, None, in_cond) and any(secures(i, j, in_goal) for j in columns)
            for i in rows)
    if op is Oalpha:
        return any(
            all(not secures(i, None, in_cond) or secures(i, j, in_goal) for i in rows)
            for j in columns)
    if op is Obeta:
        return all(
            not secures(i, None, in_cond) or any(secures(i, j, in_goal) for j in columns)
            for i in rows)
    raise TypeError(f"not a strategic operator: {op!r}")


def brute_holds(model, state, f):
    """Literal quantifier nest; recomputes everything on every call."""
    if isinstance(f, Atom):
        return state in model.valuation.get(f.name, frozenset())
    if isinstance(f, Top):
        return True
    if isinstance(f, Not):
        return not brute_holds(model, state, f.sub)
    if isinstance(f, And):
        return brute_holds(model, state, f.left) and brute_holds(model, state, f.right)
    return _brute_operator_at(model, state, type(f), f.a, f.b,
                              lambda u: brute_holds(model, u, f.phi),
                              lambda u: brute_holds(model, u, f.psi))


def brute_operator_states(model, op, a, b, cond_states, goal_states):
    """States where the operator holds when its condition and goal are
    true exactly at the given states."""
    return frozenset(
        s for s in model.states
        if _brute_operator_at(model, s, op, a, b,
                              cond_states.__contains__, goal_states.__contains__))


def brute_extension(model, f, memo=None, extensions=None):
    """The states where f holds, evaluated bottom-up over f's syntax tree.

    Outcome sets are collected from the raw model fields on first use
    and kept in `memo`; a caller evaluating many formulas on one model,
    or on models that differ only in their valuation, may pass the same
    dict to every call.  That dict holds static structure only.  A caller may also pass one `extensions` dict per
    model, which keeps this function's own results: the states of every
    subformula node it evaluates, keyed by the node's id() and holding
    the node itself, so that an id is never reused while the entry
    lives; and the states of every operator application, keyed by its
    operator, coalitions and argument state sets.  Neither key reads the
    package's formula equality or hashing.
    """
    if memo is None:
        memo = {}
    everything = frozenset(model.states)

    def ext(g):
        if extensions is None:
            return evaluate(g)
        hit = extensions.get(id(g))
        if hit is None:
            hit = extensions[id(g)] = (g, evaluate(g))
        return hit[1]

    def evaluate(g):
        if isinstance(g, Atom):
            return frozenset(model.valuation.get(g.name, frozenset()))
        if isinstance(g, Top):
            return everything
        if isinstance(g, Not):
            return everything - ext(g.sub)
        if isinstance(g, And):
            return ext(g.left) & ext(g.right)
        cond, goal = ext(g.phi), ext(g.psi)
        applied = (type(g), g.a, g.b, cond, goal)
        held = None if extensions is None else extensions.get(applied)
        if held is None:
            held = frozenset(s for s in model.states
                             if _brute_operator_at(model, s, type(g), g.a, g.b,
                                                   cond.__contains__, goal.__contains__, memo))
            if extensions is not None:
                extensions[applied] = held
        return held

    return ext(f)


def holds_via_b_minus_a(model: GameModel, state: State, f: Strategic) -> bool:
    """Evaluate a strategic operator quantifying the responder over b-minus-a.

    On valid models, restating the clause over the responder coalition
    stripped of the acting coalition is equivalent to the primary clause;
    this implementation exists as an independent cross-check and is
    exercised against `holds` in the tests.  Where an agent of both
    coalitions has no action (a model validate_model rejects), Oalpha
    differs: b has no joint action, so the clause is false, while b - a
    may have one.
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


def reference_growing_sweep(cls, grow_first):
    """The coalition-monotonicity sweep of `constr.validity` as one plain
    triple loop: the first (A, B, C) in canonical order where the answer
    at (A, B) is not kept at (A | C, B), or at (A, B | C) when not
    `grow_first`, with its violating states, or None."""
    def sweep(O, coalitions, P, Q, full):
        for a in coalitions:
            for b in coalitions:
                base = O(cls, a, b, P, Q)
                if not base:
                    continue
                for c in coalitions:
                    union = O(cls, a | c, b, P, Q) if grow_first else O(cls, a, b | c, P, Q)
                    bad = base & ~union
                    if bad:
                        return (a, b, c), bad
        return None
    return sweep


def reference_shrinking_sweep(cls):
    """The anti-monotonicity sweep of `constr.validity` as one plain
    triple loop: the first (A, B, C) where the answer at (A | C, B) is
    not kept at (A, B)."""
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


def irregular_model(seed, agentless_state=False, sizes=(1, 4)):
    """A seeded model whose (state, agent) pairs have 1-3 actions each and
    whose state count lies in sizes; with agentless_state, one agent has
    no action at one state."""
    rng = random.Random(seed)
    agents = ("a", "b", "c")[:rng.randint(1, 3)]
    states = tuple(f"s{i}" for i in range(rng.randint(*sizes)))
    avail = {(s, ag): tuple(f"{ag}{j}" for j in range(rng.randint(1, 3)))
             for s in states for ag in agents}
    if agentless_state:
        avail[rng.choice(states), rng.choice(agents)] = ()
    outcome = {(s, profile): rng.choice(states)
               for s in states
               for profile in itertools.product(*(avail[s, ag] for ag in agents))}
    valuation = {atom: frozenset(s for s in states if rng.random() < 0.5)
                 for atom in ("p", "q")}
    return GameModel(agents, states, avail, outcome, valuation)


# -- exhaustive relation search ------------------------------------------


def _label_groups(model):
    sig = {s: frozenset(a for a, ss in model.valuation.items() if s in ss)
           for s in model.states}
    return sig


def exhaustive_greatest(model, checker):
    """Union of every relation the checker accepts, searched exhaustively.

    Only symmetric supersets of the diagonal inside atom equivalence need
    to be enumerated: any accepted relation stays accepted after adding
    its inverse and the diagonal, so the union over this class is the
    overall greatest fixed point.
    """
    sig = _label_groups(model)
    diagonal = frozenset((s, s) for s in model.states)
    orbits = [
        (s, t)
        for i, s in enumerate(model.states)
        for t in model.states[i + 1:]
        if sig[s] == sig[t]
    ]
    union: set = set()
    for k in range(len(orbits) + 1):
        for combo in itertools.combinations(orbits, k):
            pairs = set(diagonal)
            for s, t in combo:
                pairs.add((s, t))
                pairs.add((t, s))
            candidate = frozenset(pairs)
            if candidate <= union:
                continue
            if checker(model, candidate).ok:
                union |= candidate
    return frozenset(union)


# -- model text and validation referees ---------------------------------
#
# The parser and the validator as they were before the engine gained its
# canonical go-line branch and its successor-table totality check: one
# branch per line kind, one scan per outcome entry.

_GO_RE = re.compile(r"^go\s+(\S+)\s+\(([^()]*)\)\s*->\s*(\S+)$")


def _fail(lineno, msg):
    raise ParseError(f"line {lineno}: {msg}")


def reference_parse_model(text: str) -> GameModel:
    """The line-by-line model parser: every line goes through one branch.

    Declaration lines (`agents:`, `states:`) must precede any use.
    Duplicate `labels`, `actions` or `go` lines for the same key are
    rejected; totality of the outcome map is left to validate_model so
    that partial files can still be loaded and diagnosed.
    """
    agents: tuple[str, ...] | None = None
    states: tuple[str, ...] | None = None
    agent_set: frozenset = frozenset()
    state_set: frozenset = frozenset()
    avail: dict[tuple[str, str], tuple[str, ...]] = {}
    outcome: dict[tuple[str, tuple[str, ...]], str] = {}
    labels: dict[str, tuple[str, ...]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue

        if line.startswith("agents:"):
            if agents is not None:
                _fail(lineno, "duplicate agents line")
            agents = tuple(line[len("agents:"):].split())
            if not agents:
                _fail(lineno, "agents line declares no agents")
            agent_set = frozenset(agents)
            if len(agent_set) != len(agents):
                _fail(lineno, "repeated agent name")
            continue

        if line.startswith("states:"):
            if states is not None:
                _fail(lineno, "duplicate states line")
            states = tuple(line[len("states:"):].split())
            if not states:
                _fail(lineno, "states line declares no states")
            state_set = frozenset(states)
            if len(state_set) != len(states):
                _fail(lineno, "repeated state name")
            continue

        if agents is None or states is None:
            _fail(lineno, "agents: and states: must be declared first")

        if line.startswith("go "):
            m = _GO_RE.match(line)
            if not m:
                _fail(lineno, "expected 'go STATE (a1,b1,...) -> STATE'")
            state, profile_text, target = m.groups()
            if state not in state_set:
                _fail(lineno, f"unknown state {state!r}")
            if target not in state_set:
                _fail(lineno, f"unknown state {target!r}")
            profile = tuple(map(str.strip, profile_text.split(",")))
            if len(profile) != len(agents) or "" in profile:
                _fail(lineno, f"profile must list one action per agent ({len(agents)} expected)")
            if (state, profile) in outcome:
                _fail(lineno, f"duplicate go line for ({','.join(profile)}) at {state}")
            outcome[(state, profile)] = target
            continue

        if line.startswith("labels "):
            head, sep, rest = line[len("labels "):].partition(":")
            if not sep:
                _fail(lineno, "labels line needs a ':'")
            state = head.strip()
            if state not in state_set:
                _fail(lineno, f"unknown state {state!r}")
            if state in labels:
                _fail(lineno, f"duplicate labels line for {state}")
            labels[state] = tuple(rest.split())
            continue

        if line.startswith("actions "):
            head, sep, rest = line[len("actions "):].partition(":")
            if not sep:
                _fail(lineno, "actions line needs a ':'")
            parts = head.split()
            if len(parts) != 2:
                _fail(lineno, "expected 'actions STATE AGENT: ...'")
            state, agent = parts
            if state not in state_set:
                _fail(lineno, f"unknown state {state!r}")
            if agent not in agent_set:
                _fail(lineno, f"unknown agent {agent!r}")
            if (state, agent) in avail:
                _fail(lineno, f"duplicate actions line for {state} {agent}")
            acts = tuple(rest.split())
            if len(set(acts)) != len(acts):
                _fail(lineno, "repeated action name")
            avail[(state, agent)] = acts
            continue

        _fail(lineno, f"unrecognized line {line!r}")

    if agents is None or states is None:
        raise ParseError("model text must declare agents: and states:")

    labelled: dict[str, list[str]] = {}
    for state, atoms in labels.items():
        for atom in atoms:
            labelled.setdefault(atom, []).append(state)
    valuation = {atom: frozenset(ss) for atom, ss in labelled.items()}

    return GameModel(agents=agents, states=states, avail=avail,
                     outcome=outcome, valuation=valuation)


def reference_validate_model(model: GameModel) -> list[Violation]:
    """Every structural invariant checked entry by entry over the raw fields."""
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


# -- bisimulation checker referees ---------------------------------------
#
# The two checkers as they were before they shared one Forth/Back driver
# and one clause-kind table: each loop spells out its pairs, coalitions
# and Forth/Back halves, with its own tag table.  The clauses themselves
# are the engine's.

_REFERENCE_TAGS = {
    "c": ("A-Forth_c", "A-Back_c"),
    "alpha": ("B-Forth_alpha", "B-Back_alpha"),
    "beta": ("A-Forth_beta", "A-Back_beta"),
}
_REFERENCE_CLAUSES = {
    "c": bisim._coop_clause,
    "alpha": bisim._proactive_clause,
    "beta": bisim._reactive_clause,
}


def _reference_atom_check(model, pairs):
    sig = bisim._labels(model)
    for s, t in pairs:
        if sig[s] != sig[t]:
            return bisim.BisimFailure((s, t), "AtomEq")
    return None


def reference_check_cl_bisim(model, relation):
    pairs = bisim._check_relation(model, relation)
    bad = _reference_atom_check(model, pairs)
    if bad is not None:
        return bisim.BisimVerdict(False, bad)
    rel = bisim._relation(model, pairs)
    inv = rel[::-1]
    for s, t in pairs:
        for c in coalitions(model.agents):
            for tag, x, y, r in zip(("Forth", "Back"), (s, t), (t, s), (rel, inv)):
                witness = bisim._cl_clause(model, r, x, y, c)
                if witness is not None:
                    return bisim.BisimVerdict(False, bisim.BisimFailure(
                        (s, t), tag, coalition_a=c, witness=str(witness)))
    return bisim.BisimVerdict(True)


def reference_check_constr_bisim(model, relation, families=bisim.ALL_FAMILIES):
    pairs = bisim._check_relation(model, relation)
    bad = _reference_atom_check(model, pairs)
    if bad is not None:
        return bisim.BisimVerdict(False, bad)
    rel = bisim._relation(model, pairs)
    inv = rel[::-1]
    subsets = coalitions(model.agents)
    coalition_pairs = [(a, b) for a in subsets for b in subsets]
    for family in families:
        clause = _REFERENCE_CLAUSES[family]
        tags = _REFERENCE_TAGS[family]
        for s, t in pairs:
            for a, b in coalition_pairs:
                for tag, x, y, r in zip(tags, (s, t), (t, s), (rel, inv)):
                    witness = clause(model, r, x, y, a, b)
                    if witness is not None:
                        return bisim.BisimVerdict(False, bisim.BisimFailure(
                            (s, t), tag, coalition_a=a, coalition_b=b,
                            witness=str(witness)))
    return bisim.BisimVerdict(True)
