"""Schema-drift rule: metric consumers and the sweep-store tables."""

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
    # a producer and the store tables agree with their readers.  This
    # is the acceptance check that the rule actually reads the real
    # tree.
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src"
    result = run_checks(src, rule_ids=["schema-drift"], cache_dir=src_cache)
    assert result.ok, [d.format() for d in result.diagnostics]


# ---------------------------------------------------------------------------
# Sweep-store contract tables (SWEEP_COLUMNS / QUERY_FIELDS)
# ---------------------------------------------------------------------------

_STORE_SCHEMA = """\
SWEEP_COLUMNS: dict[str, str] = {
    "bs": "float64",
    "nbs": "float64",
    "value": "float64",
}
SWEEP_META_FIELDS = ("kernel",)
QUERY_FIELDS = ("kernel", "bs", "nbs", "value")
"""

_STORE_CONSUMER = """\
def read(segment, row):
    return segment["bs"], segment["nbs"], segment["value"], row["kernel"]
"""


def _store_tree(tmp_path, schema_text, consumer_text):
    pkg = tmp_path / "repro" / "store"
    pkg.mkdir(parents=True)
    (pkg / "schema.py").write_text(schema_text)
    (pkg / "query.py").write_text(consumer_text)
    return run_checks(tmp_path, rule_ids=["schema-drift"])


def test_consistent_store_tables_pass(tmp_path):
    result = _store_tree(tmp_path, _STORE_SCHEMA, _STORE_CONSUMER)
    assert not _drift(result)


def test_unknown_segment_column_read_flagged(tmp_path):
    consumer = _STORE_CONSUMER + "\n\ndef bad(segment):\n    return segment['typo']\n"
    result = _store_tree(tmp_path, _STORE_SCHEMA, consumer)
    messages = [d.message for d in _drift(result)]
    assert any("'typo'" in m and "not in SWEEP_COLUMNS" in m for m in messages)


def test_dead_segment_column_flagged_at_declaration(tmp_path):
    consumer = 'def read(segment, row):\n    return segment["bs"], segment["nbs"]\n'
    result = _store_tree(tmp_path, _STORE_SCHEMA, consumer)
    dead = [d for d in _drift(result) if "never read" in d.message]
    assert len(dead) == 1
    assert "'value'" in dead[0].message
    assert dead[0].path == "repro/store/schema.py"
    assert dead[0].line == 4  # the "value" key's line


def test_column_missing_from_query_fields_flagged(tmp_path):
    schema = _STORE_SCHEMA.replace(
        'QUERY_FIELDS = ("kernel", "bs", "nbs", "value")',
        'QUERY_FIELDS = ("kernel", "bs", "nbs")',
    )
    consumer = 'def read(segment):\n    return segment["bs"], segment["nbs"], segment["value"]\n'
    result = _store_tree(tmp_path, schema, consumer)
    messages = [d.message for d in _drift(result)]
    assert any(
        "'value'" in m and "missing from QUERY_FIELDS" in m for m in messages
    )


def test_phantom_query_field_flagged(tmp_path):
    schema = _STORE_SCHEMA.replace(
        'QUERY_FIELDS = ("kernel", "bs", "nbs", "value")',
        'QUERY_FIELDS = ("kernel", "bs", "nbs", "value", "phantom")',
    )
    result = _store_tree(tmp_path, schema, _STORE_CONSUMER)
    messages = [d.message for d in _drift(result)]
    assert any(
        "'phantom'" in m and "neither a SWEEP_COLUMNS column nor" in m
        for m in messages
    )


def test_unknown_row_field_read_flagged(tmp_path):
    consumer = _STORE_CONSUMER + "\n\ndef bad(row):\n    return row['nope']\n"
    result = _store_tree(tmp_path, _STORE_SCHEMA, consumer)
    messages = [d.message for d in _drift(result)]
    assert any("'nope'" in m and "not in QUERY_FIELDS" in m for m in messages)


def test_row_subscripts_outside_store_files_ignored(tmp_path):
    pkg = tmp_path / "repro" / "store"
    pkg.mkdir(parents=True)
    (pkg / "schema.py").write_text(_STORE_SCHEMA)
    (pkg / "query.py").write_text(_STORE_CONSUMER)
    obs = tmp_path / "repro" / "obs"
    obs.mkdir(parents=True)
    # A non-store file's row["..."] (the span profiler's table rows)
    # must not be misread as a query-row access.
    (obs / "spans.py").write_text(
        'def table(row):\n    return row["count"] + row["total_s"]\n'
    )
    result = run_checks(tmp_path, rule_ids=["schema-drift"])
    assert not _drift(result)


def test_real_tree_store_drift_is_caught(tmp_path):
    # Renaming a segment-column read in a copy of the real tree must
    # fail both directions: the new name is unknown, the old column is
    # no longer consumed anywhere.
    import shutil
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src"
    work = tmp_path / "src"
    shutil.copytree(
        src, work, ignore=shutil.ignore_patterns("__pycache__", "check")
    )
    query = work / "repro" / "store" / "query.py"
    text = query.read_text()
    assert 'segment["value"]' in text
    query.write_text(text.replace('segment["value"]', 'segment["val"]'))
    result = run_checks(work, rule_ids=["schema-drift"])
    messages = [d.message for d in result.diagnostics]
    assert any("'val'" in m and "not in SWEEP_COLUMNS" in m for m in messages)
    assert any("'value'" in m and "never read" in m for m in messages)
