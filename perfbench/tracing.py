"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: `install` builds
recording wrappers for the names a *calling* module bound at import
time (for example `constr.cli.parse_model` or
`constr.validity.strategic_holds_at`) and for the public `GameModel`
table methods; the runner swaps them in only while an op executes.
The defining modules keep their own bindings, so recursion inside a
layer (such as `semantics.extension_bits` calling itself) is one span.

Each span keeps name, start, end, parent and op id until the run ends.
Past `AGGREGATE_AFTER` calls a name is only summed per (name, parent
name).  Self time is a span's duration minus the time its children
cover; children nest strictly because the workload runs on one thread.
"""

from __future__ import annotations

import functools
import importlib
import types
from collections import Counter, defaultdict
from time import perf_counter

AGGREGATE_AFTER = 100_000

# calling module -> {bound name: span name}
BINDINGS = {
    "constr.cli": {
        "parse_model": "textio.parse_model",
        "validate_model": "model.validate_model",
        "parse_formula": "formula.parse_formula",
        "holds": "semantics.holds",
        "extension": "semantics.extension",
        "explain_fn": "semantics.explain",
    },
    "constr.corpus": {
        "parse_model": "textio.parse_model",
        "validate_model": "model.validate_model",
        "parse_formula": "formula.parse_formula",
        "holds": "semantics.holds",
    },
    "constr.bisim": {
        "extension_bits": "semantics.extension_bits",
        "strategic_states_bits": "semantics.strategic_states_bits",
        "holds": "semantics.holds",
    },
    "constr.validity": {
        "extension_bits": "semantics.extension_bits",
        "strategic_holds_at": "semantics.strategic_holds_at",
        "random_model": "validity.generate",
    },
}

# generator functions: each resumption is one span
GENERATOR_BINDINGS = {
    "constr.validity": {"enumerate_models": "validity.generate"},
}

# calling module -> {attribute holding a module: that module}; the
# attribute gets a namespace whose BISIM_SPANS functions are wrapped
MODULE_BINDINGS = {
    "constr.cli": {"bisim_mod": "constr.bisim"},
    "constr.corpus": {"bisim": "constr.bisim"},
}
BISIM_SPANS = {
    "greatest_cl_bisim": "bisim.greatest_cl_bisim",
    "greatest_constr_bisim": "bisim.greatest_constr_bisim",
    "distinguishing_formula": "bisim.distinguishing_formula",
    "check_cl_bisim": "bisim.check_bisim",
    "check_constr_bisim": "bisim.check_bisim",
}

TABLE_METHODS = ("joint_action_table", "out_bits_table", "merged_out_bits")


class Recorder:
    """Spans and per-name totals of one traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, op id)
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.aggregated: defaultdict = defaultdict(lambda: [0, 0.0])
        self.op_id = 0
        self._stack: list[list] = []  # [span id, name, child seconds]
        self._next_id = 0

    def wrap(self, name: str, fn):
        """`fn` with every call recorded as a span called `name`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open(name)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, name, start, perf_counter())

        return traced

    def wrap_generator(self, name: str, genfn):
        """Generator function whose every resumption is one span."""

        @functools.wraps(genfn)
        def traced(*args, **kwargs):
            inner = genfn(*args, **kwargs)
            while True:
                frame = self._open(name)
                start = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(frame, name, start, perf_counter())
                yield item

        return traced

    def _open(self, name):
        frame = [self._next_id, name, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame, name, start, end):
        stack = self._stack
        stack.pop()
        duration = end - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += duration
        self.self_s[name] += duration - frame[2]
        self.calls[name] += 1
        if self.calls[name] <= AGGREGATE_AFTER:
            self.spans.append((frame[0], name, start, end,
                               None if parent is None else parent[0], self.op_id))
        else:
            bucket = self.aggregated[(name, None if parent is None else parent[1])]
            bucket[0] += 1
            bucket[1] += duration

    def total_self_s(self) -> float:
        return sum(self.self_s.values())


class Bindings:
    """Swaps the calling-module bindings for recording wrappers and back."""

    def __init__(self, swaps):
        self._swaps = swaps  # (owner, attribute, original, wrapped)

    def enable(self):
        for owner, attr, _, wrapped in self._swaps:
            setattr(owner, attr, wrapped)

    def disable(self):
        for owner, attr, original, _ in self._swaps:
            setattr(owner, attr, original)


def install(recorder: Recorder) -> Bindings:
    """Wrappers for every traced binding, not yet enabled."""
    from constr.model import GameModel

    swaps = []

    def swap(owner, attr, wrapped):
        swaps.append((owner, attr, getattr(owner, attr), wrapped))

    for modname, names in BINDINGS.items():
        module = importlib.import_module(modname)
        for attr, span in names.items():
            swap(module, attr, recorder.wrap(span, getattr(module, attr)))
    for modname, names in GENERATOR_BINDINGS.items():
        module = importlib.import_module(modname)
        for attr, span in names.items():
            swap(module, attr, recorder.wrap_generator(span, getattr(module, attr)))
    for modname, attrs in MODULE_BINDINGS.items():
        module = importlib.import_module(modname)
        for attr, target in attrs.items():
            real = importlib.import_module(target)
            proxy = types.SimpleNamespace(**vars(real))
            for fn_name, span in BISIM_SPANS.items():
                setattr(proxy, fn_name, recorder.wrap(span, getattr(real, fn_name)))
            swap(module, attr, proxy)
    for method in TABLE_METHODS:
        swap(GameModel, method, recorder.wrap("model.tables", getattr(GameModel, method)))
    return Bindings(swaps)
