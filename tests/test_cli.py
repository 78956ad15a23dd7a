"""Command-line interface: exit codes, output shapes, formatter idempotence."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from constr import bisim
from constr.cli import main
from constr.corpus import fixture_text
from constr.textio import parse_relation


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def workdir(tmp_path):
    for name in ("ex1.cgm", "ex2.cgm", "exA.cgm", "exA.rel", "antimono.cgm"):
        (tmp_path / name).write_text(fixture_text(name), encoding="utf-8")
    (tmp_path / "broken.cgm").write_text("agents: a\nstates: s0\nactions s0 a: a1\n",
                                         encoding="utf-8")
    (tmp_path / "garbage.cgm").write_text("what is this\n", encoding="utf-8")
    return tmp_path


def test_check_true_false_and_errors(runner, workdir):
    ex1 = str(workdir / "ex1.cgm")
    r = runner.invoke(main, ["check", ex1, "s0", "Oc[{a},{b}](p, q)"])
    assert r.exit_code == 0 and r.output.strip() == "true"
    r = runner.invoke(main, ["check", ex1, "s0", "[{b}] q"])
    assert r.exit_code == 1 and r.output.strip() == "false"
    r = runner.invoke(main, ["check", ex1, "s9", "p"])
    assert r.exit_code == 2
    r = runner.invoke(main, ["check", ex1, "s0", "p &&& q"])
    assert r.exit_code == 2
    r = runner.invoke(main, ["check", str(workdir / "missing.cgm"), "s0", "p"])
    assert r.exit_code == 2


def test_check_explain_and_json(runner, workdir):
    ex2 = str(workdir / "ex2.cgm")
    r = runner.invoke(main, ["check", ex2, "s0", "Ob[{a},{b}](p, q)", "--explain"])
    assert r.exit_code == 0
    assert "answered by" in r.output
    r = runner.invoke(main, ["check", ex2, "s0", "Oa[{a},{b}](p, q)", "--json", "--explain"])
    assert r.exit_code == 1
    payload = json.loads(r.output)
    assert payload["value"] is False
    assert payload["explain"]["operator"] == "Oa"


@pytest.mark.parametrize("depth", [1000, 10_000], ids=["not1000", "not10000"])
def test_deep_negation_chain_answers(runner, workdir, depth):
    # an even chain of negations answers as its atom does
    ex1 = str(workdir / "ex1.cgm")
    text = "~" * depth + "p"
    for args in (["check", ex1, "s0"], ["check", ex1, "s3"], ["extension", ex1]):
        r = runner.invoke(main, args + [text])
        plain = runner.invoke(main, args + ["p"])
        assert (r.exit_code, r.output) == (plain.exit_code, plain.output), args
        assert r.exit_code in (0, 1)


@pytest.mark.parametrize("text", ["(" * 300 + "p" + ")" * 300], ids=["parens300"])
def test_deeply_nested_formula_exits_2(runner, workdir, text):
    ex1 = str(workdir / "ex1.cgm")
    for args in (["check", ex1, "s0", text], ["extension", ex1, text]):
        r = runner.invoke(main, args)
        assert r.exit_code == 2
        assert "error: formula: formula nested too deeply" in r.stderr


def test_golden_witnesses(runner, tmp_path):
    # check --explain texts and JSON, and bisim verdicts, byte for byte;
    # each case names fixture files, which live in tmp_path
    cases = json.loads((Path(__file__).parent / "golden_witness.json").read_text("utf-8"))
    for name in ("ex1.cgm", "ex2.cgm", "exA.cgm", "exA.rel", "exB.cgm", "exB.rel",
                 "exC.cgm", "exC.rel"):
        (tmp_path / name).write_text(fixture_text(name), encoding="utf-8")
    for case in cases:
        argv = [str(tmp_path / x) if x.endswith((".cgm", ".rel")) else x
                for x in case["argv"]]
        r = runner.invoke(main, argv)
        assert (r.exit_code, r.stdout) == (case["exit"], case["stdout"]), case["argv"]


def test_invalid_model_rejected(runner, workdir):
    r = runner.invoke(main, ["check", str(workdir / "broken.cgm"), "s0", "p"])
    assert r.exit_code == 2
    r = runner.invoke(main, ["check", str(workdir / "garbage.cgm"), "s0", "p"])
    assert r.exit_code == 2


def test_extension_lists_states(runner, workdir):
    r = runner.invoke(main, ["extension", str(workdir / "ex1.cgm"), "p"])
    assert r.exit_code == 0 and r.output.split() == ["s0", "s1", "s2", "s4"]
    r = runner.invoke(main, ["extension", str(workdir / "ex1.cgm"), "false"])
    assert r.output.strip() == "(empty)"


def test_bisim_check_and_greatest(runner, workdir):
    exa = str(workdir / "exA.cgm")
    rel = str(workdir / "exA.rel")
    r = runner.invoke(main, ["bisim", exa, rel, "--logic", "cl"])
    assert r.exit_code == 0 and r.output.strip() == "ok"
    r = runner.invoke(main, ["bisim", exa, rel, "--logic", "constr"])
    assert r.exit_code == 1 and "fail:" in r.output and "(s0, t0)" in r.output
    r = runner.invoke(main, ["bisim", exa, "--greatest", "--logic", "constr"])
    assert r.exit_code == 0
    pairs = parse_relation(r.output)
    for s in ("s0", "s1", "t3"):
        assert (s, s) in pairs
    assert ("s0", "t0") not in pairs
    r = runner.invoke(main, ["bisim", exa, "--logic", "cl"])
    assert r.exit_code == 2  # relation file required without --greatest


def test_bisim_json(runner, workdir):
    r = runner.invoke(main, ["bisim", str(workdir / "exA.cgm"), str(workdir / "exA.rel"),
                             "--logic", "constr", "--json"])
    payload = json.loads(r.output)
    assert payload["ok"] is False and payload["pair"] == ["s0", "t0"]


def test_distinguish(runner, workdir):
    exa = str(workdir / "exA.cgm")
    r = runner.invoke(main, ["distinguish", exa, "s0", "t0"])
    assert r.exit_code == 0 and "Oc[" in r.output
    r = runner.invoke(main, ["distinguish", exa, "s1", "t1"])
    assert r.exit_code == 1 and r.output.strip() == "bisimilar"
    r = runner.invoke(main, ["distinguish", exa, "s0", "zz"])
    assert r.exit_code == 2


def test_distinguish_synthesis_error_exits_2(runner, workdir, monkeypatch):
    def fail(model, s, t):
        raise bisim.SynthesisError("no formula separates (s0, t0)")

    monkeypatch.setattr(bisim, "distinguishing_formula", fail)
    r = runner.invoke(main, ["distinguish", str(workdir / "exA.cgm"), "s0", "t0"])
    assert r.exit_code == 2
    assert "error: no formula separates (s0, t0)" in r.output
    assert "Traceback" not in r.output and not isinstance(r.exception, bisim.SynthesisError)


def test_corpus_command(runner):
    r = runner.invoke(main, ["corpus"])
    assert r.exit_code == 0
    assert "FAIL" not in r.output
    r = runner.invoke(main, ["corpus", "--json"])
    assert json.loads(r.output)["ok"] is True


def test_validate_subsets(runner):
    r = runner.invoke(main, ["validate", "--schemes", "Oc5",
                             "--bounds", "2,1,2", "--bounds", "2,2,1",
                             "--random", "50", "--budget", "0"])
    assert r.exit_code == 0, r.output
    assert "pass Oc5" in r.output


def test_validate_budget_zero_fails(runner):
    r = runner.invoke(main, ["validate", "--schemes", "ObAntiMon", "--budget", "0",
                             "--random", "0", "--bounds", "2,1,1"])
    assert r.exit_code == 1
    assert "FAIL ObAntiMon" in r.output
    r = runner.invoke(main, ["validate", "--schemes", "ObAntiMon", "--budget", "1",
                             "--random", "0", "--bounds", "2,1,1"])
    assert r.exit_code == 0


def test_validate_config_file_and_env(runner, tmp_path, monkeypatch):
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({
        "bounds": [[2, 1, 1], [2, 1, 2]],
        "schemes": ["Ob2", "ObAntiMon"],
        "random": 20,
        "budget": 2,
    }), encoding="utf-8")
    monkeypatch.setenv("CONSTR_SEED", "12345")
    r = runner.invoke(main, ["validate", "--config", str(cfg)])
    assert r.exit_code == 0, r.output
    assert "pass Ob2" in r.output and "pass ObAntiMon" in r.output


@pytest.mark.parametrize("text", [
    "[1]", '"x"', '{"schemes": 5}', '{"bounds": 5}', '{"schemes": [5, "x"]}',
    '{"seed": null}', '{"random": -1}', '{"budget": -5}',
    '{"stress": "no"}', '{"stress": 1}', '{"json": 1}', '{"random": 0, "budgets": 1}',
    '{"random": 2.7, "seed": 1.9, "bounds": [[2, 1, 1]], "schemes": ["Oc5"]}',
    '{"seeds": [1.5, 2.9], "budget": 1, "bounds": [[2, 1, 1]], "schemes": ["Oc5"]}',
    '{"seeds": [1, 2], "budget": true, "bounds": [[2, 1, 1]], "schemes": ["Oc5"]}',
    '{"random": "3"}', '{"bounds": [[2, 1, 1, "1+x"]], "random": 0, "budget": 1}',
], ids=["list", "string", "schemes-int", "bounds-int", "schemes-mixed", "seed-null",
        "random-negative", "budget-negative", "stress-string", "stress-int",
        "unknown-key", "misspelt-key", "random-float", "seeds-float", "budget-bool",
        "random-string", "unread-atoms"])
def test_validate_bad_config_exits_2(runner, tmp_path, text):
    cfg = tmp_path / "suite.json"
    cfg.write_text(text, encoding="utf-8")
    r = runner.invoke(main, ["validate", "--config", str(cfg)])
    assert r.exit_code == 2, r.output
    assert r.output.startswith("error: ") and isinstance(r.exception, SystemExit)


def test_validate_non_integer_seed_variable_exits_2(runner, monkeypatch):
    monkeypatch.setenv("CONSTR_SEED", "abc")
    r = runner.invoke(main, ["validate", "--bounds", "2,1,1", "--random", "1", "--budget", "0"])
    assert r.exit_code == 2, r.output
    assert r.output == "error: CONSTR_SEED must be an integer, not 'abc'\n"


def test_validate_bounds_with_unread_atoms_exit_2(runner):
    # the instances read p and q only, so each labeling of x would sweep
    # the same model again
    r = runner.invoke(main, ["validate", "--bounds", "2,1,1,1+x", "--random", "0",
                             "--budget", "1", "--schemes", "Oc5"])
    assert r.exit_code == 2, r.output
    assert r.output.startswith("error: no scheme instance reads the atoms ['1', 'x']")


@pytest.mark.parametrize("key, value", [("bounds", "2,1,1"), ("bounds", ["2,1,1"]),
                                        ("seeds", "1,2"), ("schemes", "Oc1"),
                                        ("exclude", "Oc1")])
def test_validate_config_string_for_a_list_exits_2(runner, tmp_path, key, value):
    # a string would otherwise be read one character at a time
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({key: value, "random": 0, "budget": 1}), encoding="utf-8")
    r = runner.invoke(main, ["validate", "--config", str(cfg)])
    assert r.exit_code == 2, r.output
    assert r.output.startswith("error: ") and f'"{key}" must be a list' in r.output


@pytest.mark.parametrize("spec", ["2,1,1,p+p", "2,1,1,", "2,1,1,p+"])
def test_validate_repeated_or_empty_atom_names_exit_2(runner, spec):
    r = runner.invoke(main, ["validate", "--bounds", spec, "--random", "0", "--budget", "1",
                             "--schemes", "Oc5"])
    assert r.exit_code == 2, r.output
    assert r.output.startswith("error: atom names must be non-empty and distinct")


@pytest.mark.parametrize("args", [["--budget", "-5", "--random", "1"],
                                  ["--random", "-1", "--budget", "0"]],
                         ids=["budget", "random"])
def test_validate_negative_counts_exit_2(runner, args):
    r = runner.invoke(main, ["validate", "--bounds", "2,1,1", *args])
    assert r.exit_code == 2, r.output
    assert "error: the random model count and the budget must be at least 0" in r.output


def test_validate_rejects_unknown_scheme(runner):
    r = runner.invoke(main, ["validate", "--schemes", "Nope", "--random", "0"])
    assert r.exit_code == 2


def test_validate_json(runner):
    r = runner.invoke(main, ["validate", "--schemes", "Oc5", "--bounds", "2,1,1",
                             "--random", "5", "--budget", "0", "--json"])
    assert r.exit_code == 0
    assert json.loads(r.output)["ok"] is True


def test_fmt_idempotent(runner, workdir):
    path = str(workdir / "exA.cgm")
    once = runner.invoke(main, ["fmt", path])
    assert once.exit_code == 0
    again_path = workdir / "canonical.cgm"
    again_path.write_text(once.output, encoding="utf-8")
    twice = runner.invoke(main, ["fmt", str(again_path)])
    assert twice.output == once.output
    r = runner.invoke(main, ["fmt", str(workdir / "garbage.cgm")])
    assert r.exit_code == 2
