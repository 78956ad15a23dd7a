"""Formula AST, concrete syntax and derived operators.

The core language has atoms, truth, negation, conjunction and the three
two-coalition strategic operators Oc / Oa / Ob.  Everything else
(|, ->, <->, false, the coalition box `[{..}]`, and the one-coalition
conditional forms `<<{..}>>b` / `<<{..}>>d`) is desugared at parse time,
so the parser always returns a core AST and the printer only ever emits
core syntax.

Grammar, loosest to tightest binding:  <->  ->  |  &  ~ (and the prefix
box).  The strategic operators are self-delimiting:

    Oc[{a},{b}](p, q)     Oa[{},{a,b}](true, p)     Ob[{a},{}](p, q)
    [{a,b}] p             <<{a}>>b(p, q)            <<{a}>>d(p, q)
"""

from __future__ import annotations

import re
from typing import Iterable

from .model import Coalition, InputError, ParseError


class Formula:
    """Base class for formulas.  Instances are immutable and hashable.

    Equality is structural and returns at once on the same node, so two
    trees that share subformulas compare without walking the shared parts.
    """

    _hash: int

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {render(self)}>"

    def __str__(self) -> str:
        return render(self)


class Atom(Formula):
    def __init__(self, name: str):
        self.name = name
        self._hash = hash(("atom", name))

    def __eq__(self, other):
        return type(other) is Atom and other.name == self.name

    __hash__ = Formula.__hash__


class Top(Formula):
    def __init__(self):
        self._hash = hash("top")

    def __eq__(self, other):
        return type(other) is Top

    __hash__ = Formula.__hash__


class Not(Formula):
    def __init__(self, sub: Formula):
        self.sub = sub
        self._hash = hash(("not", sub))

    def __eq__(self, other):
        return other is self or type(other) is Not and other.sub == self.sub

    __hash__ = Formula.__hash__


class And(Formula):
    def __init__(self, left: Formula, right: Formula):
        self.left = left
        self.right = right
        self._hash = hash(("and", left, right))

    def __eq__(self, other):
        return other is self or (type(other) is And and other.left == self.left
                                 and other.right == self.right)

    __hash__ = Formula.__hash__


class Strategic(Formula):
    """Shared shape of the three conditional strategic operators.

    `a` acts towards the condition `phi`; `b` responds towards the goal
    `psi`.  The subclasses fix how the two quantifications nest.
    """

    token = ""

    def __init__(self, a: Iterable[str], b: Iterable[str], phi: Formula, psi: Formula):
        self.a = frozenset(a)
        self.b = frozenset(b)
        self.phi = phi
        self.psi = psi
        self._hash = hash((self.token, self.a, self.b, phi, psi))

    def __eq__(self, other):
        return other is self or (type(other) is type(self) and other.a == self.a
                                 and other.b == self.b and other.phi == self.phi
                                 and other.psi == self.psi)

    __hash__ = Formula.__hash__


class Oc(Strategic):
    """Cooperation: a can secure phi while leaving b a way to add psi."""
    token = "Oc"


class Oalpha(Strategic):
    """Proactive response: b commits one action up front that secures psi
    against every phi-securing action of a."""
    token = "Oa"


class Obeta(Strategic):
    """Reactive response: for each phi-securing action of a, b has some
    (possibly different) completion securing psi."""
    token = "Ob"


TOP = Top()

# -- derived forms ------------------------------------------------------


def bottom() -> Formula:
    return Not(TOP)


def or_(left: Formula, right: Formula) -> Formula:
    return Not(And(Not(left), Not(right)))


def implies(left: Formula, right: Formula) -> Formula:
    return Not(And(left, Not(right)))


def iff(left: Formula, right: Formula) -> Formula:
    return And(implies(left, right), implies(right, left))


def box(coalition: Iterable[str], goal: Formula) -> Formula:
    """Unconditional coalition ability, the classic `[C] phi`."""
    return Oalpha((), coalition, TOP, goal)


def cond_box(coalition: Iterable[str], phi: Formula, psi: Formula) -> Formula:
    """Every phi-securing action of the coalition also secures psi."""
    return Obeta(coalition, (), phi, psi)


def cond_diamond(coalition: Iterable[str], phi: Formula, psi: Formula) -> Formula:
    """Some phi-securing action of the coalition leaves psi possible."""
    return Not(Obeta(coalition, (), phi, Not(psi)))


# -- traversal helpers ---------------------------------------------------


def formula_agents(f: Formula) -> frozenset:
    """Every agent named by some coalition in the formula."""
    agents: set[str] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Not):
            stack.append(g.sub)
        elif isinstance(g, And):
            stack.extend((g.left, g.right))
        elif isinstance(g, Strategic):
            agents |= g.a | g.b
            stack.extend((g.phi, g.psi))
    return frozenset(agents)


# -- printer -------------------------------------------------------------


def _coalition_text(c: Coalition) -> str:
    return "{" + ",".join(sorted(c)) + "}"


class _Text(str):
    """Punctuation that `render` queues between subformulas, told apart
    from a string standing where a subformula should be."""


_CLOSE, _AND, _AND_OPEN, _COMMA = (_Text(t) for t in (")", " & ", " & (", ", "))


def render(f: Formula) -> str:
    """Canonical concrete syntax; `parse_formula(render(f))` equals `f`
    wherever the parser's nesting limit allows.

    Iterative, so that no depth of nesting exhausts the call stack: each
    node writes its opening text and queues its subformulas and the
    punctuation between and after them, last first.
    """
    out: list[str] = []
    todo: list = [f]
    while todo:
        g = todo.pop()
        if type(g) is _Text:
            out.append(g)
        elif isinstance(g, Atom):
            out.append(g.name)
        elif isinstance(g, Not):
            if isinstance(g.sub, And):
                out.append("~(")
                todo += (_CLOSE, g.sub)
            else:
                out.append("~")
                todo.append(g.sub)
        elif isinstance(g, And):
            if isinstance(g.right, And):
                todo += (_CLOSE, g.right, _AND_OPEN, g.left)
            else:
                todo += (g.right, _AND, g.left)
        elif isinstance(g, Strategic):
            out.append(f"{g.token}[{_coalition_text(g.a)},{_coalition_text(g.b)}](")
            todo += (_CLOSE, g.psi, _COMMA, g.phi)
        elif isinstance(g, Top):
            out.append("true")
        else:
            raise TypeError(f"not a formula: {g!r}")
    return "".join(out)


# -- parser --------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<WS>\s+)
  | (?P<IFF><->)
  | (?P<ARROW>->)
  | (?P<LL><<)
  | (?P<RR>>>)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<PUNCT>[~&|(){}\[\],])
""", re.VERBOSE)

_RESERVED = {"true", "false", "Oc", "Oa", "Ob"}


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"column {pos + 1}: unexpected character {text[pos]!r}")
        pos = m.end()
        kind = m.lastgroup
        if kind == "WS":
            continue
        value = m.group()
        if kind == "IDENT" and value in _RESERVED:
            kind = value
        elif kind == "PUNCT":
            kind = value
        tokens.append(_Token(kind, value, m.start()))
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            shown = tok.text or "end of input"
            raise ParseError(f"column {tok.pos + 1}: expected {kind!r}, found {shown!r}")
        return tok

    def parse(self) -> Formula:
        f = self.formula()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(f"column {tok.pos + 1}: unexpected {tok.text!r} after formula")
        return f

    # <-> binds loosest, left-associative
    def formula(self) -> Formula:
        f = self.imp()
        while self.peek().kind == "IFF":
            self.next()
            f = iff(f, self.imp())
        return f

    # -> binds tighter than <->, right-associative
    def imp(self) -> Formula:
        f = self.disj()
        if self.peek().kind == "ARROW":
            self.next()
            return implies(f, self.imp())
        return f

    def disj(self) -> Formula:
        f = self.conj()
        while self.peek().kind == "|":
            self.next()
            f = or_(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.unary()
        while self.peek().kind == "&":
            self.next()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        """A run of `~` and `[C]` prefixes, read in a loop, then the
        primary they apply to; the prefixes are applied innermost first,
        so a prefix run of any length costs no recursion."""
        prefixes = []
        while True:
            tok = self.peek()
            if tok.kind == "~":
                self.next()
                prefixes.append(None)
            elif tok.kind == "[":
                self.next()
                prefixes.append(self.coalition())
                self.expect("]")
            else:
                break
        f = self.primary()
        for coalition in reversed(prefixes):
            f = Not(f) if coalition is None else box(coalition, f)
        return f

    def primary(self) -> Formula:
        tok = self.next()
        if tok.kind == "IDENT":
            return Atom(tok.text)
        if tok.kind == "true":
            return TOP
        if tok.kind == "false":
            return bottom()
        if tok.kind == "(":
            f = self.formula()
            self.expect(")")
            return f
        if tok.kind in ("Oc", "Oa", "Ob"):
            self.expect("[")
            a = self.coalition()
            self.expect(",")
            b = self.coalition()
            self.expect("]")
            phi, psi = self.argument_pair()
            cls = {"Oc": Oc, "Oa": Oalpha, "Ob": Obeta}[tok.kind]
            return cls(a, b, phi, psi)
        if tok.kind == "LL":
            coalition = self.coalition()
            self.expect("RR")
            mode = self.next()
            if mode.kind != "IDENT" or mode.text not in ("b", "d"):
                raise ParseError(
                    f"column {mode.pos + 1}: expected 'b' or 'd' after '>>'")
            phi, psi = self.argument_pair()
            if mode.text == "b":
                return cond_box(coalition, phi, psi)
            return cond_diamond(coalition, phi, psi)
        shown = tok.text or "end of input"
        raise ParseError(f"column {tok.pos + 1}: unexpected {shown!r}")

    def argument_pair(self) -> tuple[Formula, Formula]:
        self.expect("(")
        phi = self.formula()
        self.expect(",")
        psi = self.formula()
        self.expect(")")
        return phi, psi

    def coalition(self) -> Coalition:
        self.expect("{")
        members = []
        if self.peek().kind != "}":
            members.append(self.expect("IDENT").text)
            while self.peek().kind == ",":
                self.next()
                members.append(self.expect("IDENT").text)
        self.expect("}")
        if len(set(members)) != len(members):
            raise ParseError("repeated agent in coalition")
        return frozenset(members)


def parse_formula(text: str) -> Formula:
    """Parse concrete syntax into a core AST, desugaring derived forms."""
    if not isinstance(text, str):
        raise InputError(f"formula text must be a str, not {type(text).__name__}")
    try:
        return _Parser(text).parse()
    except RecursionError:
        raise ParseError("formula nested too deeply") from None


# -- sampling -------------------------------------------------------------


def random_formula(rng, atoms, agents, depth: int) -> Formula:
    """Draw a random core formula of nesting depth at most `depth`.

    Used for invariance spot-checks and parser round-trip tests; the
    distribution mildly favours strategic operators so that sampled
    formulas exercise the interesting clauses.
    """
    atoms = list(atoms) or ["p"]
    agents = list(agents)
    if depth <= 0:
        return TOP if rng.random() < 0.15 else Atom(rng.choice(atoms))

    def coalition():
        return frozenset(a for a in agents if rng.random() < 0.5)

    pick = rng.random()
    if pick < 0.15:
        return TOP if rng.random() < 0.3 else Atom(rng.choice(atoms))
    if pick < 0.35:
        return Not(random_formula(rng, atoms, agents, depth - 1))
    if pick < 0.5:
        return And(random_formula(rng, atoms, agents, depth - 1),
                   random_formula(rng, atoms, agents, depth - 1))
    cls = rng.choice((Oc, Oalpha, Obeta))
    return cls(coalition(), coalition(),
               random_formula(rng, atoms, agents, depth - 1),
               random_formula(rng, atoms, agents, depth - 1))
