"""Schema-drift rule: every consumed metric has a producer."""

from repro.check import run_checks


def _drift(result):
    return [d for d in result.diagnostics if d.rule == "schema-drift"]


def test_consumed_metric_without_producer_flagged(fixtures_dir):
    result = run_checks(fixtures_dir / "violations")
    ghost = [d for d in _drift(result) if "'ghost_metric'" in d.message]
    assert [(d.path, d.line) for d in ghost] == [("repro/obs/analyze.py", 5)]
    assert "no MetricsRegistry" in ghost[0].message
    # The produced metric read on the same line is not flagged.
    assert len(_drift(result)) == 1


def test_clean_fixture_has_no_drift(fixtures_dir):
    # The clean tree exercises every resolution path that must NOT
    # fire: literal producers, f-string metric prefixes, consumed
    # names that all exist.
    result = run_checks(fixtures_dir / "clean")
    assert not _drift(result)


def test_no_producers_no_metric_checks(tmp_path):
    # A file subset without any MetricsRegistry call sites has nothing
    # to check its metric reads against.
    obs = tmp_path / "repro" / "obs"
    obs.mkdir(parents=True)
    (obs / "a.py").write_text(
        "def f(counters):\n    return counters.get('whatever', 0)\n"
    )
    result = run_checks(tmp_path, rule_ids=["schema-drift"])
    assert result.ok


def test_real_tree_cross_checks_hold(src_cache):
    # The repo itself must satisfy the rule: every consumed metric has
    # a producer.  This is the acceptance check that the rule actually
    # reads the real tree.
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src"
    result = run_checks(src, rule_ids=["schema-drift"], cache_dir=src_cache)
    assert result.ok, [d.format() for d in result.diagnostics]
