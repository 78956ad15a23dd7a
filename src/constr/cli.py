"""Command-line front end.

Exit codes, uniform across subcommands: 0 when every check came out
true/ok/pass, 1 when some check came out false or failed, 2 on input or
configuration errors.
"""

from __future__ import annotations

import json as jsonlib
import os
import sys

import click

from . import bisim as bisim_mod
from . import corpus as corpus_mod
from . import validity
from .formula import parse_formula, render
from .model import GameModel, InputError, validate_model
from .semantics import explain as explain_fn
from .semantics import extension, holds
from .textio import parse_model, parse_relation, render_model, render_relation


def _fail_input(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        _fail_input(str(exc))


def _load_model(path: str) -> GameModel:
    try:
        model = parse_model(_read(path))
    except InputError as exc:
        _fail_input(f"{path}: {exc}")
    violations = validate_model(model)
    if violations:
        for v in violations:
            click.echo(f"error: {path}: {v}", err=True)
        sys.exit(2)
    return model


def _parse_formula_arg(text: str):
    try:
        return parse_formula(text)
    except InputError as exc:
        _fail_input(f"formula: {exc}")


@click.group()
@click.version_option(package_name="constr")
def main():
    """Model checking, bisimulations and axiom validation for
    conditional strategic reasoning over concurrent game models."""


@main.command()
@click.argument("model_path", metavar="MODEL")
@click.argument("state")
@click.argument("formula_text", metavar="FORMULA")
@click.option("--explain", "want_explain", is_flag=True,
              help="Show witness or counter joint actions for the top operator.")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
def check(model_path, state, formula_text, want_explain, as_json):
    """Evaluate FORMULA at STATE of MODEL; exits 0 for true, 1 for false."""
    model = _load_model(model_path)
    f = _parse_formula_arg(formula_text)
    try:
        value = holds(model, state, f)
    except InputError as exc:
        _fail_input(str(exc))
    info = explain_fn(model, state, f) if want_explain else None
    if as_json:
        payload = {"state": state, "formula": render(f), "value": value}
        if info is not None:
            payload["explain"] = {
                "operator": info.operator,
                "negated": info.negated,
                "detail": info.detail,
                "witnesses": info.witnesses,
            }
        click.echo(jsonlib.dumps(payload))
    else:
        click.echo("true" if value else "false")
        if info is not None:
            for line in info.lines():
                click.echo(line)
    sys.exit(0 if value else 1)


@main.command("extension")
@click.argument("model_path", metavar="MODEL")
@click.argument("formula_text", metavar="FORMULA")
@click.option("--json", "as_json", is_flag=True)
def extension_cmd(model_path, formula_text, as_json):
    """List the states of MODEL where FORMULA holds."""
    model = _load_model(model_path)
    f = _parse_formula_arg(formula_text)
    try:
        ext = extension(model, f)
    except InputError as exc:
        _fail_input(str(exc))
    ordered = [s for s in model.states if s in ext.states]
    if as_json:
        click.echo(jsonlib.dumps({"formula": render(f), "states": ordered}))
    else:
        click.echo(" ".join(ordered) if ordered else "(empty)")


@main.command("bisim")
@click.argument("model_path", metavar="MODEL")
@click.argument("relation_path", metavar="[RELATION]", required=False)
@click.option("--logic", type=click.Choice(["cl", "constr"]), default="constr",
              show_default=True)
@click.option("--greatest", is_flag=True,
              help="Compute the largest bisimulation instead of checking one.")
@click.option("--json", "as_json", is_flag=True)
def bisim_cmd(model_path, relation_path, logic, greatest, as_json):
    """Check a relation from RELATION against MODEL, or compute the
    greatest bisimulation with --greatest."""
    model = _load_model(model_path)
    if greatest:
        rel = (bisim_mod.greatest_cl_bisim(model) if logic == "cl"
               else bisim_mod.greatest_constr_bisim(model))
        if as_json:
            idx = model.state_index
            pairs = sorted(rel, key=lambda p: (idx[p[0]], idx[p[1]]))
            click.echo(jsonlib.dumps({"logic": logic, "pairs": [list(p) for p in pairs]}))
        else:
            click.echo(render_relation(rel, model), nl=False)
        sys.exit(0)
    if relation_path is None:
        _fail_input("a relation file is required unless --greatest is given")
    try:
        relation = parse_relation(_read(relation_path), model)
    except InputError as exc:
        _fail_input(f"{relation_path}: {exc}")
    checker = bisim_mod.check_cl_bisim if logic == "cl" else bisim_mod.check_constr_bisim
    verdict = checker(model, relation)
    if as_json:
        click.echo(jsonlib.dumps({"logic": logic, **verdict.to_json()}))
    else:
        click.echo(str(verdict))
    sys.exit(0 if verdict.ok else 1)


@main.command()
@click.argument("model_path", metavar="MODEL")
@click.argument("state_s", metavar="S")
@click.argument("state_t", metavar="T")
@click.option("--json", "as_json", is_flag=True)
def distinguish(model_path, state_s, state_t, as_json):
    """Produce a formula true at S and false at T, or report the states
    bisimulation equivalent (exit 1)."""
    model = _load_model(model_path)
    try:
        f = bisim_mod.distinguishing_formula(model, state_s, state_t)
    except (InputError, bisim_mod.SynthesisError) as exc:
        _fail_input(str(exc))
    if as_json:
        click.echo(jsonlib.dumps({
            "s": state_s, "t": state_t,
            "distinguishable": f is not None,
            "formula": None if f is None else render(f),
        }))
    else:
        click.echo("bisimilar" if f is None else render(f))
    sys.exit(1 if f is None else 0)


# the keys of a `validate --config` file, one per option of the same name
_CONFIG_KEYS = frozenset(("bounds", "random", "seed", "seeds", "schemes", "exclude", "budget",
                          "stress"))


def _parse_bounds_spec(spec: str) -> validity.GeneratorBounds:
    parts = spec.split(",")
    if len(parts) not in (3, 4):
        raise InputError(f"bounds must be AGENTS,STATES,ACTIONS[,ATOMS]: {spec!r}")
    try:
        agents, states, actions = (int(p) for p in parts[:3])
    except ValueError:
        raise InputError(f"bounds must be numeric: {spec!r}") from None
    atoms = tuple(parts[3].split("+")) if len(parts) == 4 else ("p", "q")
    return validity.GeneratorBounds(agents, states, actions, atoms)


@main.command()
@click.option("--bounds", "bounds_specs", multiple=True, metavar="A,S,K[,p+q]",
              help="Exhaustive family shape; repeatable. Default: 2 agents, "
                   "states and actions up to 2, atoms p,q.")
@click.option("--random", "random_models", type=int, default=None,
              help="Number of seeded random models for the valid schemes [default: 2000].")
@click.option("--seed", type=int, default=None,
              help="Base seed (default 0; CONSTR_SEED overrides).")
@click.option("--seeds", default=None, metavar="N,N,...",
              help="Explicit seed list for the random family.")
@click.option("--schemes", default=None, metavar="TAG,TAG,...",
              help="Only run these scheme tags.")
@click.option("--exclude", default="", metavar="TAG,TAG,...")
@click.option("--budget", type=int, default=None,
              help="Models examined while hunting the expected-invalid scheme's "
                   "counterexample; the embedded falsifier counts first [default: 2000].")
@click.option("--stress", is_flag=True, help="Add depth-1 compound instantiations.")
@click.option("--config", "config_path", default=None, type=click.Path(),
              help="JSON file with the same keys; flags override it.")
@click.option("--json", "as_json", is_flag=True)
def validate(bounds_specs, random_models, seed, seeds, schemes, exclude,
             budget, stress, config_path, as_json):
    """Run the axiom-scheme suite; exits 1 on any unexpected outcome."""
    file_cfg = {}
    if config_path is not None:
        try:
            file_cfg = jsonlib.loads(_read(config_path))
        except ValueError as exc:
            _fail_input(f"{config_path}: {exc}")
        if not isinstance(file_cfg, dict):
            _fail_input(f"{config_path}: the config must be a JSON object")
        unknown = sorted(file_cfg.keys() - _CONFIG_KEYS)
        if unknown:
            _fail_input(f"{config_path}: unknown config keys: {', '.join(unknown)}")
        if not isinstance(file_cfg.get("stress", False), bool):
            _fail_input(f"{config_path}: \"stress\" must be true or false")
        # a string would be read one character at a time
        for key in ("bounds", "seeds", "schemes", "exclude"):
            if not isinstance(file_cfg.get(key, []), list):
                _fail_input(f"{config_path}: \"{key}\" must be a list")
        if not all(isinstance(b, list) for b in file_cfg.get("bounds", [])):
            _fail_input(f"{config_path}: \"bounds\" must be a list of lists")
    try:
        if not bounds_specs and "bounds" in file_cfg:
            bounds_specs = [",".join(str(x) for x in b) for b in file_cfg["bounds"]]
        exhaustive = (tuple(_parse_bounds_spec(s) for s in bounds_specs)
                      if bounds_specs else validity.DEFAULT_EXHAUSTIVE)
        env_seed = os.environ.get("CONSTR_SEED")
        if seed is None and env_seed is not None:
            try:
                seed = int(env_seed)
            except ValueError:
                raise InputError(f"CONSTR_SEED must be an integer, not {env_seed!r}") from None
        if seed is None:
            seed = file_cfg.get("seed", 0)
        seed_list = None
        if seeds is not None:
            seed_list = tuple(int(x) for x in seeds.split(","))
        elif "seeds" in file_cfg:
            seed_list = tuple(file_cfg["seeds"])
        include = None
        if schemes is not None:
            include = tuple(schemes.split(","))
        elif "schemes" in file_cfg:
            include = tuple(file_cfg["schemes"])
        excluded = tuple(x for x in exclude.split(",") if x)
        if not excluded and "exclude" in file_cfg:
            excluded = tuple(file_cfg["exclude"])
        if random_models is None:
            random_models = file_cfg.get("random", 2000)
        if budget is None:
            budget = file_cfg.get("budget", 2000)
        config = validity.SuiteConfig(
            exhaustive=exhaustive,
            random_models=random_models,
            seed=seed,
            seeds=seed_list,
            include=include,
            exclude=excluded,
            budget=budget,
            stress=stress or file_cfg.get("stress", False),
        )
    except ValueError as exc:
        _fail_input(str(exc))
    try:
        report = validity.run_suite(config)
    except ValueError as exc:
        _fail_input(str(exc))
    if as_json:
        click.echo(jsonlib.dumps(report.to_json()))
    else:
        for line in report.lines():
            click.echo(line)
    sys.exit(0 if report.ok else 1)


@main.command("corpus")
@click.option("--json", "as_json", is_flag=True)
def corpus_cmd(as_json):
    """Replay every embedded fixture expectation."""
    report = corpus_mod.run_corpus()
    if as_json:
        click.echo(jsonlib.dumps(report.to_json()))
    else:
        for line in report.lines():
            click.echo(line)
    sys.exit(0 if report.ok else 1)


@main.command()
@click.argument("model_path", metavar="MODEL")
def fmt(model_path):
    """Reprint MODEL in canonical form (idempotent)."""
    try:
        model = parse_model(_read(model_path))
    except InputError as exc:
        _fail_input(f"{model_path}: {exc}")
    click.echo(render_model(model), nl=False)


if __name__ == "__main__":
    main()
