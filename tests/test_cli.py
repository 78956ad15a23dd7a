"""Command-line interface: exit codes, output shapes, formatter idempotence."""

import json

import pytest
from click.testing import CliRunner

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


@pytest.mark.parametrize("text", [
    "~" * 1000 + "p", "~" * 10_000 + "p", "(" * 300 + "p" + ")" * 300,
], ids=["not1000", "not10000", "parens300"])
def test_deeply_nested_formula_exits_2(runner, workdir, text):
    ex1 = str(workdir / "ex1.cgm")
    for args in (["check", ex1, "s0", text], ["extension", ex1, text]):
        r = runner.invoke(main, args)
        assert r.exit_code == 2
        assert "error: formula: formula nested too deeply" in r.stderr


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
