"""Line-oriented text formats for models and state relations.

Model format (UTF-8, `#` starts a comment):

    agents: a b
    states: s0 s1 s2
    labels s0: p q            # omitted line = no atoms true there
    actions s0 a: a1 a2       # one line per state and agent
    go s0 (a1,b1) -> s1       # one line per full profile, in agent order

A go line that starts `go ` and splits into the five tokens
render_model writes, `go S (a1,b1,...) -> T`, is read by a first
branch: one split, and a profile tuple shared by every line with the
same `(...)` token.  Every other line, and every such line that branch
would reject, goes through the general branch, which gives each error
message and line number.

Relation format: one `s ~ t` pair per line.
"""

from __future__ import annotations

import re

from .model import GameModel, ParseError

_GO_RE = re.compile(r"^go\s+(\S+)\s+\(([^()]*)\)\s*->\s*(\S+)$")


def _fail(lineno: int, msg: str):
    raise ParseError(f"line {lineno}: {msg}")


def _canonical_profile(token: str, n_agents: int) -> tuple[str, ...] | None:
    """The profile of a `(a1,b1,...)` token, or None where the general
    branch would read the line differently or reject it."""
    inner = token[1:-1]
    if (token[:1] != "(" or token[-1:] != ")"
            or "(" in inner or ")" in inner or "#" in inner):
        return None
    # a token holds no blank, so no action needs stripping
    profile = tuple(inner.split(","))
    if len(profile) != n_agents or "" in profile:
        return None
    return profile


def parse_model(text: str) -> GameModel:
    """Parse the textual model format, in time linear in its length.

    Declaration lines (`agents:`, `states:`) must precede any use.
    Duplicate `labels`, `actions` or `go` lines for the same key are
    rejected; totality of the outcome map is left to validate_model so
    that partial files can still be loaded and diagnosed.

    A go line that starts `go ` and splits into the five tokens
    `go S (a1,b1,...) -> T` is stored by a first branch that takes its
    profile tuple from a per-parse dict keyed by the `(...)` token, so
    each distinct profile is checked once and shared.  Any other line,
    and any such line that branch would reject, goes through the
    general branch, which gives every error message and line number.
    """
    agents: tuple[str, ...] | None = None
    states: tuple[str, ...] | None = None
    agent_set: frozenset = frozenset()
    state_set: frozenset = frozenset()
    avail: dict[tuple[str, str], tuple[str, ...]] = {}
    outcome: dict[tuple[str, tuple[str, ...]], str] = {}
    labels: dict[str, tuple[str, ...]] = {}
    # declared state name -> itself, so stored keys share its string
    state_of: dict[str, str] = {}
    # `(...)` token -> its profile tuple, once agents are declared
    profile_of: dict[str, tuple[str, ...]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.startswith("go "):
            tokens = raw.split()
            if len(tokens) == 5 and tokens[3] == "->":
                state = state_of.get(tokens[1])
                target = state_of.get(tokens[4])
                profile = profile_of.get(tokens[2])
                if profile is None and agents is not None:
                    profile = _canonical_profile(tokens[2], len(agents))
                    if profile is not None:
                        profile_of[tokens[2]] = profile
                if (state is not None and target is not None and profile is not None
                        and (state, profile) not in outcome):
                    outcome[(state, profile)] = target
                    continue

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
            state_of = {s: s for s in states}
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


def render_model(model: GameModel) -> str:
    """Canonical text for a model; parsing it back reproduces the model."""
    lines = [
        "agents: " + " ".join(model.agents),
        "states: " + " ".join(model.states),
    ]
    for s in model.states:
        atoms = sorted(a for a, ss in model.valuation.items() if s in ss)
        if atoms:
            lines.append(f"labels {s}: " + " ".join(atoms))
    for s in model.states:
        for a in model.agents:
            acts = model.avail.get((s, a))
            if acts:
                lines.append(f"actions {s} {a}: " + " ".join(acts))
    for s in model.states:
        for profile in model.profiles(s):
            target = model.outcome.get((s, profile))
            if target is not None:
                lines.append(f"go {s} ({','.join(profile)}) -> {target}")
    # keep any outcome entries that sit outside the availability product
    # (invalid models still round-trip through the formatter)
    listed = {(s, p) for s in model.states for p in model.profiles(s)}
    for (s, profile), target in sorted(model.outcome.items()):
        if (s, profile) not in listed:
            lines.append(f"go {s} ({','.join(profile)}) -> {target}")
    return "\n".join(lines) + "\n"


def parse_relation(text: str, model: GameModel | None = None) -> frozenset:
    """Parse `s ~ t` lines into a set of ordered state pairs."""
    pairs = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        parts = line.split("~")
        if len(parts) != 2:
            _fail(lineno, "expected 's ~ t'")
        left, right = parts[0].strip(), parts[1].strip()
        if not left or not right:
            _fail(lineno, "expected 's ~ t'")
        if model is not None:
            for s in (left, right):
                if not model.has_state(s):
                    _fail(lineno, f"unknown state {s!r}")
        pairs.add((left, right))
    return frozenset(pairs)


def render_relation(pairs, model: GameModel | None = None) -> str:
    """Canonical text for a relation, ordered by state position when known."""
    if model is not None:
        idx = model.state_index
        ordering = sorted(pairs, key=lambda p: (idx.get(p[0], -1), idx.get(p[1], -1), p))
    else:
        ordering = sorted(pairs)
    return "\n".join(f"{s} ~ {t}" for s, t in ordering) + ("\n" if ordering else "")
