"""Independent answers the benchmark checks the engine against.

`brute_holds` from the test suite's oracles is the referee for small
formulas.  Synthesized distinguishers are DAGs whose trees reach millions
of nodes, so `Evaluator` evaluates them by the same literal quantifier
nest, memoized per node object and per (state, assignment) outcome set.
Neither touches the engine's bitmasks, tables or caches.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from oracles import brute_holds, brute_merge, joint_assignments  # noqa: E402

from constr.formula import And, Atom, Not, Obeta, Oalpha, Oc, Strategic, Top  # noqa: E402

__all__ = ["Evaluator", "brute_holds", "children", "strategic_depth"]


def children(f) -> tuple:
    """Direct subformulas."""
    if isinstance(f, Not):
        return (f.sub,)
    if isinstance(f, And):
        return (f.left, f.right)
    if isinstance(f, Strategic):
        return (f.phi, f.psi)
    return ()


def strategic_depth(f) -> int:
    """Nesting depth of strategic operators."""
    if isinstance(f, Not):
        return strategic_depth(f.sub)
    if isinstance(f, And):
        return max(strategic_depth(f.left), strategic_depth(f.right))
    if isinstance(f, Strategic):
        return 1 + max(strategic_depth(f.phi), strategic_depth(f.psi))
    return 0


class Evaluator:
    """Extensions of formulas over one model, as sets of state names."""

    def __init__(self, model):
        self.model = model
        self._ext: dict[int, frozenset] = {}
        self._pinned: list = []
        self._outcomes: dict = {}
        self._choices: dict = {}

    def holds(self, state, f) -> bool:
        return state in self.extension(f)

    def extension(self, f) -> frozenset:
        stack = [(f, False)]
        while stack:
            g, expanded = stack.pop()
            if id(g) in self._ext:
                continue
            kids = children(g)
            if expanded or not kids:
                self._ext[id(g)] = self._evaluate(g)
                self._pinned.append(g)
            else:
                stack.append((g, True))
                stack.extend((k, False) for k in kids)
        return self._ext[id(f)]

    def _evaluate(self, g) -> frozenset:
        model = self.model
        if isinstance(g, Atom):
            return frozenset(model.valuation.get(g.name, frozenset()))
        if isinstance(g, Top):
            return frozenset(model.states)
        if isinstance(g, Not):
            return frozenset(model.states) - self._ext[id(g.sub)]
        if isinstance(g, And):
            return self._ext[id(g.left)] & self._ext[id(g.right)]
        cond, goal = self._ext[id(g.phi)], self._ext[id(g.psi)]
        return frozenset(s for s in model.states if self._strategic(g, s, cond, goal))

    def _strategic(self, g, state, cond, goal) -> bool:
        def secures(assignment, target):
            return self._outcome(state, assignment) <= target

        a_choices = self._joint(state, g.a)
        b_choices = self._joint(state, g.b)
        if isinstance(g, Oc):
            return any(secures(sa, cond) and any(secures(brute_merge(sa, sb), goal)
                                                 for sb in b_choices)
                       for sa in a_choices)
        if isinstance(g, Oalpha):
            return any(all(not secures(sa, cond) or secures(brute_merge(sa, sb), goal)
                           for sa in a_choices)
                       for sb in b_choices)
        if isinstance(g, Obeta):
            return all(not secures(sa, cond) or any(secures(brute_merge(sa, sb), goal)
                                                    for sb in b_choices)
                       for sa in a_choices)
        raise TypeError(f"not a formula: {g!r}")

    def _joint(self, state, coalition):
        key = (state, coalition)
        got = self._choices.get(key)
        if got is None:
            got = joint_assignments(self.model, state, coalition)
            self._choices[key] = got
        return got

    def _outcome(self, state, assignment) -> frozenset:
        key = (state, tuple(sorted(assignment.items())))
        got = self._outcomes.get(key)
        if got is None:
            model = self.model
            pools = [model.avail.get((state, a), ()) for a in model.agents]
            got = frozenset(
                model.outcome[(state, profile)]
                for profile in itertools.product(*pools)
                if all(assignment.get(a, act) == act
                       for a, act in zip(model.agents, profile)))
            self._outcomes[key] = got
        return got

