"""Schema-drift rule: both directions, for events and for metrics."""

from repro.check import run_checks


def _drift(result):
    return [d for d in result.diagnostics if d.rule == "schema-drift"]


def test_emitted_event_not_in_schema_flagged(fixtures_dir):
    result = run_checks(fixtures_dir / "violations")
    messages = [d.message for d in _drift(result)]
    assert any("'unknown_event'" in m and "not in the trace schema" in m
               for m in messages)


def test_schema_event_never_emitted_flagged_at_schema_line(fixtures_dir):
    result = run_checks(fixtures_dir / "violations")
    phantom = [d for d in _drift(result) if "'phantom'" in d.message]
    assert len(phantom) == 1
    assert phantom[0].path == "repro/obs/trace.py"
    assert phantom[0].line == 6
    assert "never emitted" in phantom[0].message


def test_missing_required_field_flagged(fixtures_dir):
    result = run_checks(fixtures_dir / "violations")
    missing = [d for d in _drift(result) if "missing required field" in d.message]
    assert [(d.path, d.line) for d in missing] == [("repro/core/emitters.py", 5)]
    assert "'seq'" in missing[0].message


def test_common_field_override_flagged(fixtures_dir):
    result = run_checks(fixtures_dir / "violations")
    override = [d for d in _drift(result) if "common field" in d.message]
    assert [(d.path, d.line) for d in override] == [("repro/core/emitters.py", 7)]


def test_consumed_event_not_in_schema_flagged(fixtures_dir):
    result = run_checks(fixtures_dir / "violations")
    ghost = [d for d in _drift(result) if "'ghost_event'" in d.message]
    assert [(d.path, d.line) for d in ghost] == [("repro/obs/analyze.py", 5)]


def test_consumed_metric_without_producer_flagged(fixtures_dir):
    result = run_checks(fixtures_dir / "violations")
    ghost = [d for d in _drift(result) if "'ghost_metric'" in d.message]
    assert [(d.path, d.line) for d in ghost] == [("repro/obs/analyze.py", 10)]
    assert "no MetricsRegistry" in ghost[0].message


def test_clean_fixture_has_no_drift(fixtures_dir):
    # The clean tree exercises every resolution path that must NOT
    # fire: conditional event names, f-string metric prefixes,
    # consumed names that all exist.
    result = run_checks(fixtures_dir / "clean")
    assert not _drift(result)


def test_unresolved_emit_reported_and_skips_never_emitted(fixtures_dir):
    result = run_checks(fixtures_dir / "unresolved")
    drift = _drift(result)
    assert [(d.path, d.line) for d in drift] == [("repro/core/emitters.py", 6)]
    assert "could not be resolved" in drift[0].message
    # 'maybe_dynamic' is never visibly emitted, but with an unresolved
    # emit site in the tree the never-emitted direction must not fire.
    assert not any("maybe_dynamic" in d.message for d in drift)


def test_no_schema_file_no_drift_checks(tmp_path):
    core = tmp_path / "repro" / "core"
    core.mkdir(parents=True)
    (core / "e.py").write_text(
        "def f(obs, cycle):\n    obs.emit(cycle, 'whatever', a=1)\n"
    )
    result = run_checks(tmp_path, rule_ids=["schema-drift"])
    assert result.ok


def test_real_tree_cross_checks_hold(src_cache):
    # The repo itself must satisfy both directions: every event in
    # repro.obs.trace.EVENT_FIELDS is emitted by the simulator and
    # every consumed event/metric resolves.  This is the acceptance
    # check that the rule actually reads the real schema.
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src"
    result = run_checks(src, rule_ids=["schema-drift"], cache_dir=src_cache)
    assert result.ok, [d.format() for d in result.diagnostics]


def test_real_tree_drift_is_caught(tmp_path):
    # Renaming an event in a copy of the real tree must fail both
    # directions: the new name is not in the schema, the old name is
    # no longer emitted.
    import shutil
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src"
    work = tmp_path / "src"
    shutil.copytree(
        src, work, ignore=shutil.ignore_patterns("__pycache__", "check")
    )
    pipeline = work / "repro" / "core" / "pipeline.py"
    text = pipeline.read_text()
    assert '"bs_skip"' in text
    pipeline.write_text(text.replace('"bs_skip"', '"bs_skipped"'))
    result = run_checks(work, rule_ids=["schema-drift"])
    messages = [d.message for d in result.diagnostics]
    assert any(
        "'bs_skipped'" in m and "not in the trace schema" in m
        for m in messages
    )
    assert any(
        "'bs_skip'" in m and "never emitted" in m for m in messages
    )


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
