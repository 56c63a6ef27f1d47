"""Schema-drift coverage of the request-log telemetry contract.

Each test copies the real source tree, injects one realistic drift
(renamed emit, narrowed consumer tuple, diverged phase list) and
asserts the ``schema-drift`` rule catches it — the negative tests the
static cross-checks need to be trusted.
"""

import shutil
from pathlib import Path

import pytest

from repro.check import run_checks

SRC = Path(__file__).resolve().parents[2] / "src"


def _drift(result):
    return [d for d in result.diagnostics if d.rule == "schema-drift"]


@pytest.fixture
def work_tree(tmp_path):
    work = tmp_path / "src"
    shutil.copytree(
        SRC, work, ignore=shutil.ignore_patterns("__pycache__", "check")
    )
    return work


def _rewrite(path, old, new):
    text = path.read_text()
    assert old in text, f"expected {old!r} in {path}"
    path.write_text(text.replace(old, new))


def test_clean_tree_passes_the_telemetry_checks(src_cache):
    result = run_checks(SRC, rule_ids=["schema-drift"], cache_dir=src_cache)
    assert result.ok, [d.format() for d in result.diagnostics]


def test_renamed_request_event_fails_both_directions(work_tree):
    _rewrite(
        work_tree / "repro" / "serve" / "service.py",
        '"ingress", trace_id=trace_id',
        '"ingres", trace_id=trace_id',
    )
    drift = _drift(run_checks(work_tree, rule_ids=["schema-drift"]))
    assert any(
        "'ingres'" in d.message and "not in the request-log schema" in d.message
        for d in drift
    )
    assert any(
        "'ingress'" in d.message and "never logged" in d.message
        for d in drift
    )


def test_missing_required_field_on_emit_is_caught(work_tree):
    _rewrite(
        work_tree / "repro" / "serve" / "service.py",
        '"ingress", trace_id=trace_id, key=key, outcome=outcome',
        '"ingress", trace_id=trace_id, outcome=outcome',
    )
    drift = _drift(run_checks(work_tree, rule_ids=["schema-drift"]))
    assert any(
        "'ingress'" in d.message and "missing required" in d.message
        and "'key'" in d.message
        for d in drift
    )


def test_consumer_field_tuple_drift_is_caught(work_tree):
    _rewrite(
        work_tree / "repro" / "obs" / "servereport.py",
        '"ingress": ("trace_id", "key", "outcome"),',
        '"ingress": ("trace_id", "outcome"),',
    )
    drift = _drift(run_checks(work_tree, rule_ids=["schema-drift"]))
    assert any(
        "REQLOG_CONSUMED_EVENTS['ingress']" in d.message
        and "but the schema requires" in d.message
        for d in drift
    )


def test_schema_event_missing_from_consumers_is_caught(work_tree):
    _rewrite(
        work_tree / "repro" / "obs" / "servereport.py",
        '    "snapshot": ("queue_depth", "active", "oldest_age_s", "counters"),\n',
        "",
    )
    drift = _drift(run_checks(work_tree, rule_ids=["schema-drift"]))
    assert any(
        "'snapshot'" in d.message
        and "missing from REQLOG_CONSUMED_EVENTS" in d.message
        for d in drift
    )


def test_report_phase_divergence_fails_both_directions(work_tree):
    path = work_tree / "repro" / "obs" / "servereport.py"
    # Drop a real phase and add a phantom one in a single edit.
    _rewrite(path, '    "store_write",\n', '    "warp_drive",\n')
    drift = _drift(run_checks(work_tree, rule_ids=["schema-drift"]))
    assert any(
        "'warp_drive'" in d.message and "not in LATENCY_PHASES" in d.message
        for d in drift
    )
    assert any(
        "'store_write'" in d.message
        and "missing from REPORT_LATENCY_PHASES" in d.message
        for d in drift
    )


def test_common_field_override_is_caught(work_tree):
    _rewrite(
        work_tree / "repro" / "serve" / "service.py",
        '"ingress", trace_id=trace_id, key=key, outcome=outcome',
        '"ingress", ts=0.0, trace_id=trace_id, key=key, outcome=outcome',
    )
    drift = _drift(run_checks(work_tree, rule_ids=["schema-drift"]))
    assert any(
        "'ts'" in d.message and "RequestLog stamps it" in d.message
        for d in drift
    )
