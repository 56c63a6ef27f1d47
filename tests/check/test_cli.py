"""``repro check`` CLI: exit codes, formats, the JSON golden file."""

import json
from pathlib import Path

import pytest

from repro.check.cli import check_main
from repro.cli import main as repro_main

GOLDEN = Path(__file__).parent / "golden_violations.json"


def test_exit_zero_on_clean(fixtures_dir, capsys):
    assert check_main([str(fixtures_dir / "clean")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("OK")


def test_exit_one_on_violations(fixtures_dir, capsys):
    assert check_main([str(fixtures_dir / "violations")]) == 1
    out = capsys.readouterr().out
    assert "no-wallclock" in out
    assert "error(s)" in out


def test_exit_two_on_missing_root(tmp_path, capsys):
    assert check_main([str(tmp_path / "nope")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_exit_two_on_unknown_rule(fixtures_dir, capsys):
    assert check_main([str(fixtures_dir / "clean"), "--rule", "bogus"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_rule_filter(fixtures_dir, capsys):
    assert (
        check_main(
            [str(fixtures_dir / "violations"), "--rule", "no-float-eq"]
        )
        == 1
    )
    out = capsys.readouterr().out
    assert "no-float-eq" in out
    assert "no-wallclock" not in out


def test_list_rules(capsys):
    assert check_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in (
        "no-wallclock",
        "no-unseeded-random",
        "no-unstable-order",
        "no-float-eq",
        "schema-drift",
        "lock-discipline",
    ):
        assert rule_id in out


def test_json_golden(fixtures_dir, capsys):
    assert check_main([str(fixtures_dir / "violations"), "--format", "json"]) == 1
    document = json.loads(capsys.readouterr().out)
    document.pop("root")
    golden = json.loads(GOLDEN.read_text())
    assert document == golden


def test_json_clean_shape(fixtures_dir, capsys):
    assert check_main([str(fixtures_dir / "clean"), "--format", "json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["ok"] is True
    assert document["diagnostics"] == []
    assert document["files_checked"] == 2


def test_repro_cli_dispatches_check(fixtures_dir, capsys):
    assert repro_main(["check", str(fixtures_dir / "clean")]) == 0
    assert capsys.readouterr().out.startswith("OK")


@pytest.mark.parametrize("tree,code", [("clean", 0), ("violations", 1)])
def test_exit_codes_parametrized(fixtures_dir, tree, code, capsys):
    assert check_main([str(fixtures_dir / tree)]) == code
    capsys.readouterr()
