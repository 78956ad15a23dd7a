"""The benchmark's three workloads.

Each workload is a closed loop with one client on one thread.  Inputs
come from a fixed pool whose answers are recorded under `refs/`, so
every seed is checked against recorded answers.  A run is whole rounds,
and every round holds the same ops whatever the seed; the seed decides
their order (and, in `suite`, the random families).  Costs within a
shape vary tenfold with the drawn formula or model, so a mix sampled
per seed would move the percentiles more than any change worth seeing.

queries      one-shot CLI requests through `constr.cli.main`, in process.
             Cold tables on big models: textio, model, formula, semantics.
suite        `run_suite` on the CLI-default families, then the random-only
             ObAntiMon hunt.  Warm tables on tiny models: validity and
             semantics; no textio, cli or bisim.
equivalence  one job per fresh model: both greatest bisimulations, then a
             distinguishing formula for every ordered state pair.  The
             fixpoint and synthesis; no textio or validity.

Nothing from `constr` is imported at module load: `setup` does it, so
that the set-up time includes the imports.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_refs(name: str) -> dict:
    with gzip.open(REFS / f"{name}.json.gz", "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_refs(name: str, refs: dict):
    REFS.mkdir(exist_ok=True)
    data = json.dumps(refs, sort_keys=True, indent=0).encode()
    with open(REFS / f"{name}.json.gz", "wb") as fh:
        # mtime=0 keeps the file byte-identical when the answers are
        with gzip.GzipFile(fileobj=fh, mode="wb", mtime=0) as gz:
            gz.write(data)


def report_failure(what: str, detail: str):
    print(f"FAIL {what}: {detail}", file=sys.stderr)


class Workload:
    """One workload: seeded rounds of ops, their execution and checks.

    `execute` returns its output and, for each op it completed (a suite
    call completes one op per model), the pair of `speed.Speed` marks
    that bound it.  `check` tells whether the output matches the
    recorded answer and the independent referees; when it does not, all
    of those ops failed.
    """

    name = ""

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.rng = random.Random(f"{self.name}-{seed}")

    def setup(self):
        raise NotImplementedError

    def bind(self, recorder=None):
        """Entry points the benchmark calls, wrapped when tracing."""
        raise NotImplementedError

    def rounds(self, traced=False):
        while True:
            yield self.round(traced)

    def pool(self):
        """Every op whose answer is recorded."""
        raise NotImplementedError

    def round(self, traced=False) -> list:
        """The next round of ops; a traced run may use a lighter mix."""
        raise NotImplementedError

    def prepare(self, op):
        """The op's input, built outside the timed and traced part."""
        return op

    def execute(self, op, prepared, speed):
        raise NotImplementedError

    def check(self, op, output, refs) -> bool:
        raise NotImplementedError

    def record(self, op, output, refs):
        raise NotImplementedError

    def shape(self, op) -> str | None:
        return None

    def ref_key(self, op) -> str:
        """Where the op's recorded answer sits in `refs["ops"]`."""
        return op

    def counts(self, op, output) -> dict:
        return {}


# -- queries -------------------------------------------------------------

QUERY_SHAPES = tuple((a, s) for a in (2, 3, 4) for s in (10, 50, 100, 200))
MODELS_PER_SHAPE = 4
REQUESTS_PER_SHAPE = 24


class Queries(Workload):
    name = "queries"

    def setup(self):
        import constr.cli
        from constr.formula import random_formula, render
        from constr.textio import render_model
        from constr.validity import GeneratorBounds, random_model

        self.cli = constr.cli
        shapes = QUERY_SHAPES[:2] if self.tiny else QUERY_SHAPES
        self.model_texts = {}
        self.small = {}  # 10-state models and formulas, for the referees
        paths = {}
        for a, s in shapes:
            for k in range(MODELS_PER_SHAPE):
                mid = f"a{a}s{s}m{k}"
                model = random_model(GeneratorBounds(a, s, 2), 1_000_000 + 10_000 * a + 10 * s + k)
                text = render_model(model)
                path = self.workdir / f"{mid}.cgm"
                path.write_text(text, encoding="utf-8")
                self.model_texts[mid] = text
                paths[mid] = str(path)
                if s == 10:
                    self.small[mid] = model
        # the request pool is the same for every seed
        pool_rng = random.Random("queries-pool")
        self.by_shape = {}
        self.requests = {}
        for a, s in QUERY_SHAPES:
            agents = tuple("abcdefgh"[:a])
            keys = []
            for j in range(REQUESTS_PER_SHAPE):
                mid = f"a{a}s{s}m{pool_rng.randrange(MODELS_PER_SHAPE)}"
                f = random_formula(pool_rng, ("p", "q"), agents, pool_rng.randint(2, 4))
                if pool_rng.random() < 2 / 3:
                    argv = ["check", mid, f"s{pool_rng.randrange(s)}", render(f), "--json"]
                else:
                    argv = ["extension", mid, render(f), "--json"]
                if mid in paths:
                    key = f"a{a}s{s}/{j}"
                    self.requests[key] = (f"a{a}s{s}", argv, paths)
                    keys.append(key)
                    if s == 10:
                        self.small[key] = f
            if keys:
                self.by_shape[f"a{a}s{s}"] = keys
        fixtures = Path(constr.cli.__file__).parent / "fixtures"
        fixture_paths = {p.stem + ("_rel" if p.suffix == ".rel" else ""): str(p)
                         for p in fixtures.iterdir()}
        self.fixture_keys = []
        for argv in _fixture_requests():
            key = "fixture/" + " ".join(argv)
            self.requests[key] = ("fixture", argv, fixture_paths)
            self.fixture_keys.append(key)
        self.checked = set()

    def bind(self, recorder=None):
        main = self.cli.main
        self.main = main if recorder is None else recorder.wrap("cli.main", main)

    def pool(self):
        return list(self.requests)

    def round(self, traced=False):
        """The whole pool: every request once, fixtures included."""
        if self.tiny:
            ops = [k for keys in self.by_shape.values() for k in keys[:2]] + self.fixture_keys[:2]
        else:
            ops = [k for keys in self.by_shape.values() for k in keys] + self.fixture_keys
        self.rng.shuffle(ops)
        return ops

    def shape(self, op):
        return self.requests[op][0]

    def prepare(self, op):
        _, argv, paths = self.requests[op]
        return [paths.get(x, x) for x in argv]

    def execute(self, op, argv, speed):
        out, err = io.StringIO(), io.StringIO()
        begin = speed.mark()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                self.main(argv, standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code
        end = speed.mark()
        return (code, out.getvalue(), err.getvalue()), [(begin, end)]

    def _answer(self, op, output):
        code, stdout, _ = output
        payload = json.loads(stdout) if "--json" in self.requests[op][1] else stdout
        return {"argv": self.requests[op][1], "exit": code, "stdout": payload}

    def record(self, op, output, refs):
        problem = self._referee(op, output, thorough=True)
        if problem:
            raise AssertionError(f"referee rejects {op}: {problem}")
        refs.setdefault("ops", {})[op] = self._answer(op, output)
        refs["models"] = {mid: digest(text) for mid, text in self.model_texts.items()}

    def check(self, op, output, refs) -> bool:
        code, stdout, stderr = output
        expected = refs["ops"].get(op)
        if expected is None:
            report_failure(op, "no recorded answer")
            return False
        try:
            got = self._answer(op, output)
        except ValueError:
            report_failure(op, f"exit {code}, unparsable output {stdout[:200]!r} {stderr[:200]!r}")
            return False
        mid = next((x for x in got["argv"] if x in self.model_texts), None)
        if mid is not None and refs["models"].get(mid) != digest(self.model_texts[mid]):
            report_failure(op, f"generated model {mid} differs from the recorded one")
            return False
        if got["argv"][0] == "distinguish" and isinstance(got["stdout"], dict):
            # distinguishers are checked by meaning, not by text
            got["stdout"] = dict(got["stdout"], formula=None)
            expected = dict(expected, stdout=dict(expected["stdout"], formula=None))
        if got != expected:
            report_failure(op, f"got exit {code} {stdout[:300]!r}, recorded "
                               f"exit {expected['exit']} {str(expected['stdout'])[:300]!r}")
            return False
        if op not in self.checked:
            self.checked.add(op)
            problem = self._referee(op, output)
            if problem:
                report_failure(op, problem)
                return False
        return True

    def _referee(self, op, output, thorough=False) -> str | None:
        """Disagreement with an independent source, or None.

        Fixture requests meet the frozen corpus verdicts; requests on
        10-state models meet the memoized quantifier nest and, when
        `thorough`, also `brute_holds` at strategic depth at most two,
        both on the generated model and formula rather than their text.
        """
        from constr import corpus
        from constr.formula import parse_formula

        from referee import Evaluator, brute_holds, strategic_depth

        code, stdout, _ = output
        shape, argv, paths = self.requests[op]
        verb = argv[0]
        if shape == "fixture":
            fixture = next((f for f in corpus.FIXTURES if f.name == argv[1]), None)
            if verb == "check":
                want = next(c.expected for c in fixture.formula_checks
                            if (c.state, c.formula) == (argv[2], argv[3]))
                if code != (0 if want else 1):
                    return f"frozen verdict is {want}, exit {code}"
            elif verb == "bisim" and argv[2] != "--greatest":
                logic = argv[argv.index("--logic") + 1]
                want = getattr(fixture.relation_check, f"{logic}_ok")
                if code != (0 if want else 1):
                    return f"frozen {logic} verdict is ok={want}, exit {code}"
            elif verb == "corpus":
                if code != 0 or not json.loads(stdout)["ok"]:
                    return "corpus replay failed"
            elif verb == "distinguish":
                formula = json.loads(stdout)["formula"]
                if formula is not None:
                    ev = Evaluator(corpus.fixture_model(argv[1]))
                    f = parse_formula(formula)
                    if not ev.holds(argv[2], f) or ev.holds(argv[3], f):
                        return "distinguisher does not separate the pair"
            return None
        if op not in self.small:
            return None
        model, f = self.small[argv[1]], self.small[op]
        ev = Evaluator(model)
        referees = [ev.holds]
        if thorough and strategic_depth(f) <= 2:
            referees.append(lambda s, g: brute_holds(model, s, g))
        answer = json.loads(stdout)
        for holds in referees:
            if verb == "check":
                value = holds(argv[2], f)
                if answer["value"] != value or code != (0 if value else 1):
                    return f"referee says {value}"
            else:
                states = [s for s in model.states if holds(s, f)]
                if answer["states"] != states:
                    return f"referee says {states}"
        return None


def _fixture_requests():
    """Every non-validate subcommand, on the shipped fixtures."""
    from constr.corpus import FIXTURES

    requests = []
    for f in FIXTURES:
        for c in f.formula_checks:
            requests.append(["check", f.name, c.state, c.formula, "--explain", "--json"])
        requests.append(["fmt", f.name])
    for name in ("exA", "exB", "exC"):
        for logic in ("cl", "constr"):
            requests.append(["bisim", name, name + "_rel", "--logic", logic, "--json"])
            requests.append(["bisim", name, "--greatest", "--logic", logic, "--json"])
        requests.append(["distinguish", name, "s0", "t0", "--json"])
        requests.append(["distinguish", name, "s1", "t1", "--json"])
    requests.append(["corpus", "--json"])
    return requests


# -- suite ---------------------------------------------------------------

SUITE_SEEDS = tuple(100_000 * k for k in range(8))
RANDOM_MODELS = 2000  # `constr validate` default
HUNT_CAP = 5000


class Suite(Workload):
    name = "suite"

    def setup(self):
        import constr.corpus  # noqa: F401  (run_suite imports it on first use)
        from constr import validity

        self.validity = validity

    def bind(self, recorder=None):
        v = self.validity
        wrap = (lambda name, fn: fn) if recorder is None else recorder.wrap
        self.run_suite = wrap("validity.run_suite", v.run_suite)
        self.check_scheme = wrap("validity.check_scheme", v.check_scheme)

    def config(self, seed):
        v = self.validity
        if self.tiny:
            return v.SuiteConfig(exhaustive=(v.GeneratorBounds(2, 1, 2),), random_models=20,
                                 seed=seed, budget=1)
        return v.SuiteConfig(random_models=RANDOM_MODELS, seed=seed, budget=1)

    def pool(self):
        return list(SUITE_SEEDS)

    def round(self, traced=False):
        """Two calls, so that every run has the same number of cold and
        warm calls; a traced run takes one."""
        return self.rng.sample(SUITE_SEEDS, 1 if traced else 2)

    def execute(self, seed, _, speed):
        """One `run_suite` call and one hunt; one op per model examined.

        An op's latency runs from the hand-over of its model by the
        model stream to the hand-over of the next one.
        """
        v = self.validity
        marks = []

        def stamped(stream):
            def models(*args):
                for model in stream(*args):
                    marks.append(speed.mark())
                    yield model
            return models

        def hunt_models():
            for i in range(HUNT_CAP):
                yield v.random_model(v.GeneratorBounds(3, 3 + i % 3, 2), 300_000 + seed // 10 + i)

        valid, invalid = v.valid_model_stream, v.invalid_search_stream
        v.valid_model_stream, v.invalid_search_stream = stamped(valid), stamped(invalid)
        try:
            start = speed.mark()
            report = self.run_suite(self.config(seed))
            end = speed.mark()
        finally:
            v.valid_model_stream, v.invalid_search_stream = valid, invalid
        spans = _spans(start, marks, end)
        marks.clear()
        scheme = v.SCHEMES["ObAntiMon"]
        start = speed.mark()
        hunt = self.check_scheme(scheme, stamped(hunt_models)())
        spans += _spans(start, marks, speed.mark())
        return (report, hunt), spans

    def _answer(self, output):
        report, hunt = output
        cx = hunt.counterexample
        return {
            "report": report.to_json(),
            "hunt": {"models_tried": hunt.models_tried,
                     "state": cx and cx.state, "instance": cx and cx.instance},
        }

    def ref_key(self, seed):
        return f"{'tiny' if self.tiny else 'default'}/{seed}"

    def _referee(self, output) -> str | None:
        """Every counterexample must falsify its formula under `brute_holds`."""
        from referee import brute_holds

        report, hunt = output
        found = [o.verdict.counterexample for o in report.outcomes if o.verdict.found]
        if hunt.found:
            found.append(hunt.counterexample)
        else:
            return "the hunt found no counterexample"
        for cx in found:
            if brute_holds(cx.model, cx.state, cx.formula):
                return f"counterexample {cx.instance} at {cx.state} is not one"
        return None

    def record(self, seed, output, refs):
        problem = self._referee(output)
        if problem:
            raise AssertionError(problem)
        refs.setdefault("ops", {})[self.ref_key(seed)] = self._answer(output)

    def check(self, seed, output, refs) -> bool:
        expected = refs["ops"].get(self.ref_key(seed))
        got = self._answer(output)
        if expected is None:
            report_failure(f"suite {seed}", "no recorded answer")
            return False
        if got != expected:
            report_failure(f"suite {seed}", f"got {json.dumps(got)[:400]}, "
                                            f"recorded {json.dumps(expected)[:400]}")
            return False
        problem = self._referee(output)
        if problem:
            report_failure(f"suite {seed}", problem)
        return problem is None

    def counts(self, seed, output) -> dict:
        """Models examined: the valid schemes share one pass, each
        expected-invalid scheme hunts on its own, then the extra hunt."""
        report, hunt = output
        valid = next(o.verdict.models_tried for o in report.outcomes if o.expected_valid)
        invalid = sum(o.verdict.models_tried for o in report.outcomes if not o.expected_valid)
        return {"validity.models_tried": valid + invalid + hunt.models_tried}


def _spans(start, marks, end):
    """One span per model between hand-over marks: the first model also
    carries the call's set-up, the last its wrap-up."""
    bounds = [start] + marks[1:] + [end]
    return list(zip(bounds, bounds[1:]))


# -- equivalence ---------------------------------------------------------

CHAIN_SIZES = (8, 10, 12, 14, 16)
UNION_SHAPES = ((2, 6), (2, 8), (2, 10), (3, 6), (3, 8), (3, 10))
UNION_POOL = 8  # recorded models per union shape
# Jobs per round (100 with the cliff job below); a union shape's jobs run
# its pool models 0, 1, ... in turn.  The counts put the median in the
# middle of the 40 chain10 jobs and the 90th percentile among the 9 jobs
# of about 0.5 s (chain14, union.a2s10), each inside a cluster of like
# jobs, so that neither sits on the edge between two job sizes.
EQUIVALENCE_ROUND = {
    "chain8": 30, "chain10": 40, "chain12": 6, "chain14": 8, "chain16": 1,
    "union.a2s6": 8, "union.a2s8": 2, "union.a2s10": 1,
    "union.a3s6": 1, "union.a3s8": 1, "union.a3s10": 1,
}
# The one recorded model on which synthesis falls back to its exhaustive
# union search: its job takes about 20 s against 0.5 s for its
# shape-mates.  Every round runs it once, on top of the counts above, so
# every run measures it and no seed can leave it out.
CLIFF_JOB = "union.a2s10/6"
# Tracing slows the fixpoint about 2.5x and the cliff job makes 27M
# table calls, so a traced run takes one job of each shape and leaves
# the cliff job to the untraced runs, keeping it within the time limit.
TRACED_EQUIVALENCE_ROUND = dict.fromkeys(EQUIVALENCE_ROUND, 1)
TINY_EQUIVALENCE_ROUND = {"chain8": 1, "union.a2s6": 1}


def chain_model(n: int):
    """States c0..c(n-1), one action per agent, each state moving to the
    next and the last looping; atom p only at the end."""
    from constr.model import GameModel

    states = tuple(f"c{i}" for i in range(n))
    avail = {(s, a): (f"{a}1",) for s in states for a in ("a", "b")}
    outcome = {(s, ("a1", "b1")): states[min(i + 1, n - 1)] for i, s in enumerate(states)}
    return GameModel(agents=("a", "b"), states=states, avail=avail,
                     outcome=outcome, valuation={"p": frozenset({states[-1]})})


class Equivalence(Workload):
    name = "equivalence"

    def setup(self):
        from constr import bisim, model, textio, validity

        self.bisim = bisim
        self.model_mod = model
        self.textio = textio
        self.validity = validity

    def bind(self, recorder=None):
        b = self.bisim
        wrap = (lambda name, fn: fn) if recorder is None else recorder.wrap
        self.greatest_cl = wrap("bisim.greatest_cl_bisim", b.greatest_cl_bisim)
        self.greatest_constr = wrap("bisim.greatest_constr_bisim", b.greatest_constr_bisim)
        self.distinguish = wrap("bisim.distinguishing_formula", b.distinguishing_formula)

    def pool(self):
        ops = [f"chain{n}" for n in CHAIN_SIZES]
        ops += [f"union.a{a}s{s}/{k}" for a, s in UNION_SHAPES for k in range(UNION_POOL)]
        return ops

    def round(self, traced=False):
        weights = (TINY_EQUIVALENCE_ROUND if self.tiny
                   else TRACED_EQUIVALENCE_ROUND if traced else EQUIVALENCE_ROUND)
        ops = [] if self.tiny or traced else [CLIFF_JOB]
        for shape, count in weights.items():
            if shape.startswith("chain"):
                ops += [shape] * count
            else:
                models = [x for x in (f"{shape}/{k}" for k in range(UNION_POOL)) if x != CLIFF_JOB]
                ops += [models[j % len(models)] for j in range(count)]
        self.rng.shuffle(ops)
        return ops

    def shape(self, op):
        return op.split("/")[0]

    def prepare(self, op):
        if op.startswith("chain"):
            return chain_model(int(op[len("chain"):]))
        shape, k = op.split("/")
        a, s = (int(x) for x in shape[len("union.a"):].split("s"))
        v = self.validity
        base = v.random_model(v.GeneratorBounds(a, s, 2, ("p",)),
                              2_000_000 + 10_000 * a + 100 * s + int(k))
        return self.model_mod.disjoint_union(base, base, "l", "r")

    def execute(self, op, model, speed):
        states = model.states
        begin = speed.mark()
        cl = self.greatest_cl(model)
        constr = self.greatest_constr(model)
        dist = {(s, t): self.distinguish(model, s, t) for s in states for t in states}
        return (model, cl, constr, dist), [(begin, speed.mark())]

    def _answer(self, output):
        model, cl, constr, _ = output
        idx = model.state_index

        def pairs(rel):
            return [list(p) for p in sorted(rel, key=lambda p: (idx[p[0]], idx[p[1]]))]

        return {"model": digest(self.textio.render_model(model)),
                "cl": pairs(cl), "constr": pairs(constr)}

    def _referee(self, output) -> str | None:
        """Both relations are bisimulations, and every unrelated pair has
        a formula that the independent evaluator finds true at the first
        state and false at the second, which makes the relation greatest."""
        from referee import Evaluator

        model, cl, constr, dist = output
        if not self.bisim.check_cl_bisim(model, cl).ok:
            return "cl relation is not a bisimulation"
        if not self.bisim.check_constr_bisim(model, constr).ok:
            return "constr relation is not a bisimulation"
        ev = Evaluator(model)
        for (s, t), f in dist.items():
            if (f is None) != ((s, t) in constr):
                return f"distinguisher for ({s}, {t}) is {f is not None} on a " \
                       f"{'related' if (s, t) in constr else 'unrelated'} pair"
            if f is not None and (not ev.holds(s, f) or ev.holds(t, f)):
                return f"formula for ({s}, {t}) does not distinguish them"
        return None

    def record(self, op, output, refs):
        problem = self._referee(output)
        if problem:
            raise AssertionError(f"{op}: {problem}")
        refs.setdefault("ops", {})[op] = self._answer(output)

    def check(self, op, output, refs) -> bool:
        expected = refs["ops"].get(op)
        if expected is None:
            report_failure(op, "no recorded answer")
            return False
        got = self._answer(output)
        if got != expected:
            report_failure(op, "relations or model differ from the recorded ones")
            return False
        problem = self._referee(output)
        if problem:
            report_failure(op, problem)
        return problem is None

    def counts(self, op, output) -> dict:
        model, cl, constr, dist = output
        classes = {frozenset(t for x, t in constr if x == s) for s in model.states}
        formulas = [f for f in dist.values() if f is not None]
        dag, tree = _formula_sizes(formulas)
        return {
            "bisim.relation_pairs": len(constr),
            "bisim.classes": len(classes),
            "bisim.distinguished_pairs": len(formulas),
            "formula.distinguisher_dag_nodes": dag,
            "formula.distinguisher_tree_nodes": tree,
        }


def _formula_sizes(formulas):
    """Summed over the formulas: distinct node objects, and tree nodes."""
    from referee import children

    tree: dict[int, int] = {}
    dag_total = tree_total = 0
    for f in formulas:
        seen = set()
        stack = [f]
        while stack:
            g = stack.pop()
            if id(g) not in seen:
                seen.add(id(g))
                stack.extend(children(g))
        dag_total += len(seen)
        stack = [(f, False)]
        while stack:
            g, expanded = stack.pop()
            if id(g) in tree:
                continue
            kids = children(g)
            if expanded or not kids:
                tree[id(g)] = 1 + sum(tree[id(k)] for k in kids)
            else:
                stack.append((g, True))
                stack.extend((k, False) for k in kids)
        tree_total += tree[id(f)]
    return dag_total, tree_total


WORKLOADS = {w.name: w for w in (Queries, Suite, Equivalence)}
