"""Baseline gating: CI fails on new diagnostics only."""

import json

from repro.check.baseline import (
    filter_new,
    load_baseline,
    render_baseline,
)
from repro.check.cli import check_main
from repro.check.engine import Diagnostic
from tests.check.conftest import FIXTURES


def _diag(rule="lock-discipline", path="a.py", line=3, message="boom"):
    return Diagnostic(path=path, line=line, col=1, rule=rule, message=message)


def test_render_load_round_trip(tmp_path):
    diags = [_diag(), _diag(line=9), _diag(rule="schema-drift", message="x")]
    path = tmp_path / "baseline.json"
    path.write_text(render_baseline(diags))
    known = load_baseline(path)
    new, matched = filter_new(diags, known)
    assert new == [] and matched == 3


def test_line_insensitive_matching(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(render_baseline([_diag(line=3)]))
    known = load_baseline(path)
    # Same rule/path/message at a different line is still known.
    new, matched = filter_new([_diag(line=40)], known)
    assert new == [] and matched == 1


def test_counts_gate_extra_occurrences(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(render_baseline([_diag(line=3)]))
    known = load_baseline(path)
    new, matched = filter_new([_diag(line=3), _diag(line=9)], known)
    assert matched == 1
    assert len(new) == 1  # the second occurrence is new


def test_changed_message_is_new(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(render_baseline([_diag(message="old")]))
    new, matched = filter_new([_diag(message="new")], load_baseline(path))
    assert matched == 0 and len(new) == 1


def test_bad_baseline_raises(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text("{nope")
    try:
        load_baseline(path)
    except ValueError as error:
        assert "not valid JSON" in str(error)
    else:
        raise AssertionError("expected ValueError")
    path.write_text(json.dumps({"schema": 99, "entries": []}))
    try:
        load_baseline(path)
    except ValueError as error:
        assert "schema=1" in str(error)
    else:
        raise AssertionError("expected ValueError")


def test_cli_baseline_gates_on_new_only(tmp_path, capsys):
    violations = str(FIXTURES / "violations")
    baseline = tmp_path / "baseline.json"
    # Record the current findings, then gate against them: exit 0.
    assert check_main(
        [violations, "--write-baseline", "--baseline", str(baseline),
         "--no-cache"]
    ) == 0
    capsys.readouterr()
    assert check_main(
        [violations, "--baseline", str(baseline), "--no-cache"]
    ) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "known (baseline)" in out


def test_cli_baseline_with_rule_filter(tmp_path, capsys):
    # --rule + --baseline compose: the baseline recorded from a full
    # run still matches the filtered subset's findings.
    violations = str(FIXTURES / "violations")
    baseline = tmp_path / "baseline.json"
    check_main(
        [violations, "--write-baseline", "--baseline", str(baseline),
         "--no-cache"]
    )
    capsys.readouterr()
    assert check_main(
        [violations, "--baseline", str(baseline),
         "--rule", "lock-discipline", "--no-cache"]
    ) == 0


def test_cli_baseline_json_reports_matches(tmp_path, capsys):
    violations = str(FIXTURES / "violations")
    baseline = tmp_path / "baseline.json"
    check_main(
        [violations, "--write-baseline", "--baseline", str(baseline),
         "--no-cache"]
    )
    capsys.readouterr()
    assert check_main(
        [violations, "--baseline", str(baseline), "--format", "json",
         "--no-cache"]
    ) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["ok"] is True
    assert document["diagnostics"] == []
    assert document["baseline_matched"] == 10


def test_cli_bad_baseline_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert check_main(
        [str(FIXTURES / "clean"), "--baseline", str(bad), "--no-cache"]
    ) == 2
    assert "error" in capsys.readouterr().err
