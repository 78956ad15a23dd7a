"""Line-oriented text formats for models and state relations.

Model format (UTF-8, `#` starts a comment):

    agents: a b
    states: s0 s1 s2
    labels s0: p q            # omitted line = no atoms true there
    actions s0 a: a1 a2       # one line per state and agent
    go s0 (a1,b1) -> s1       # one line per full profile, in agent order

parse_model reads each line kind in one branch, which also gives every
error message with its line number.  Comments are cut from every line
before the first is read, and only when the text holds a `#`; a line
that starts `go ` is split as it stands, and every other line is
stripped first.

Relation format: one `s ~ t` pair per line.
"""

from __future__ import annotations

import re

from .model import GameModel, InputError, ParseError

_GO_RE = re.compile(r"^go\s+(\S+)\s+\(([^()]*)\)\s*->\s*(\S+)$")
_UNDECLARED = "agents: and states: must be declared first"


def _fail(lineno: int, msg: str):
    raise ParseError(f"line {lineno}: {msg}")


def parse_model(text: str) -> GameModel:
    """Parse the textual model format, in time linear in its length.

    Declaration lines (`agents:`, `states:`) must precede any use.
    Duplicate `labels`, `actions` or `go` lines for the same key are
    rejected; totality of the outcome map is left to validate_model so
    that partial files can still be loaded and diagnosed.

    Each line kind has one branch, which reads its fields, checks them in
    a fixed order and stores them.  Two per-parse caches let lines with
    the same text share one tuple and skip the checks that the text alone
    decides: a go line's `(...)` token maps to its profile, and an actions
    line's text after the `:` to its action tuple.  The action cache is
    filled once its line has passed every check; the profile cache once
    the profile has passed its own, since any later error ends the parse.
    A go line that splits into the five tokens `go S (a1,b1,...) -> T`
    with a cached third token takes its fields from those tokens; any
    other go line is matched against the go-line pattern, and its token
    is cached only when it is `(`, the matched profile text, `)`.
    """
    agents: tuple[str, ...] | None = None
    states: tuple[str, ...] | None = None
    avail: dict[tuple[str, str], tuple[str, ...]] = {}
    outcome: dict[tuple[str, tuple[str, ...]], str] = {}
    labels: dict[str, tuple[str, ...]] = {}
    # declared name -> itself, so stored keys share its string
    state_of: dict[str, str] = {}
    agent_of: dict[str, str] = {}
    # `(...)` token -> its profile tuple
    profile_of: dict[str, tuple[str, ...]] = {}
    # text after an actions line's `:` -> its action tuple
    acts_of: dict[str, tuple[str, ...]] = {}

    if not isinstance(text, str):
        raise InputError(f"model text must be a str, not {type(text).__name__}")
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.partition("#")[0] for raw in lines]
    cached_profile = profile_of.get
    for lineno, line in enumerate(lines, start=1):
        # a line that starts `go ` is split as it stands; any other line is
        # stripped, and only one that stripping changed can still be a go line
        if line.startswith("go ") or line != (line := line.strip()) and line.startswith("go "):
            tokens = line.split()
            token = tokens[2] if len(tokens) == 5 and tokens[3] == "->" else None
            profile = cached_profile(token)
            if profile is not None:
                name, target_name = tokens[1], tokens[4]
            else:
                if agents is None or states is None:
                    _fail(lineno, _UNDECLARED)
                m = _GO_RE.match(line.rstrip())
                if not m:
                    # `go ` and blanks alone strips to the unrecognized `go`
                    _fail(lineno, "expected 'go STATE (a1,b1,...) -> STATE'" if len(tokens) > 1
                          else "unrecognized line 'go'")
                name, profile_text, target_name = m.groups()
            try:
                state, target = state_of[name], state_of[target_name]
            except KeyError:
                _fail(lineno, f"unknown state {target_name if name in state_of else name!r}")
            if profile is None:
                profile = tuple(map(str.strip, profile_text.split(",")))
                if len(profile) != len(agents) or "" in profile:
                    _fail(lineno, f"profile must list one action per agent ({len(agents)} expected)")
                if token is not None and token[1:-1] == profile_text:
                    profile_of[token] = profile
            key = (state, profile)
            if key in outcome:
                _fail(lineno, f"duplicate go line for ({','.join(profile)}) at {state}")
            outcome[key] = target

        elif line.startswith("actions "):
            if agents is None or states is None:
                _fail(lineno, _UNDECLARED)
            head, sep, rest = line.partition(":")
            if not sep:
                _fail(lineno, "actions line needs a ':'")
            parts = head.split()
            if len(parts) != 3:
                _fail(lineno, "expected 'actions STATE AGENT: ...'")
            state, agent = state_of.get(parts[1]), agent_of.get(parts[2])
            if state is None:
                _fail(lineno, f"unknown state {parts[1]!r}")
            if agent is None:
                _fail(lineno, f"unknown agent {parts[2]!r}")
            if (state, agent) in avail:
                _fail(lineno, f"duplicate actions line for {state} {agent}")
            acts = acts_of.get(rest)
            if acts is None:
                acts = tuple(rest.split())
                if len(set(acts)) != len(acts):
                    _fail(lineno, "repeated action name")
                acts_of[rest] = acts
            avail[(state, agent)] = acts

        elif line.startswith("labels "):
            if agents is None or states is None:
                _fail(lineno, _UNDECLARED)
            head, sep, rest = line.partition(":")
            if not sep:
                _fail(lineno, "labels line needs a ':'")
            name = head[len("labels "):].strip()
            state = state_of.get(name)
            if state is None:
                _fail(lineno, f"unknown state {name!r}")
            if state in labels:
                _fail(lineno, f"duplicate labels line for {state}")
            labels[state] = tuple(rest.split())

        elif line.startswith("agents:"):
            if agents is not None:
                _fail(lineno, "duplicate agents line")
            agents = tuple(line[len("agents:"):].split())
            if not agents:
                _fail(lineno, "agents line declares no agents")
            agent_of = {a: a for a in agents}
            if len(agent_of) != len(agents):
                _fail(lineno, "repeated agent name")

        elif line.startswith("states:"):
            if states is not None:
                _fail(lineno, "duplicate states line")
            states = tuple(line[len("states:"):].split())
            if not states:
                _fail(lineno, "states line declares no states")
            state_of = {s: s for s in states}
            if len(state_of) != len(states):
                _fail(lineno, "repeated state name")

        elif line:
            _fail(lineno, _UNDECLARED if agents is None or states is None
                  else f"unrecognized line {line!r}")

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
    printed = 0
    for s in model.states:
        for profile in model.profiles(s):
            target = model.outcome.get((s, profile))
            if target is not None:
                lines.append(f"go {s} ({','.join(profile)}) -> {target}")
                printed += 1
    # keep any outcome entries that sit outside the availability product
    # (invalid models still round-trip through the formatter).  With
    # distinct states and actions every line above is another entry, so
    # when they are as many as the entries, none is left.
    if printed < len(model.outcome) or len(model.state_index) < len(model.states) or any(
            len(set(acts)) < len(acts) for acts in model.avail.values()):
        listed = {(s, p) for s in model.states for p in model.profiles(s)}
        for (s, profile), target in sorted(model.outcome.items()):
            if (s, profile) not in listed:
                lines.append(f"go {s} ({','.join(profile)}) -> {target}")
    return "\n".join(lines) + "\n"


def parse_relation(text: str, model: GameModel | None = None) -> frozenset:
    """Parse `s ~ t` lines into a set of ordered state pairs."""
    if not isinstance(text, str):
        raise InputError(f"relation text must be a str, not {type(text).__name__}")
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
