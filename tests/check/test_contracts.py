"""Contract-version coupling: snapshot, bump enforcement, staleness."""

import json

from repro.check import run_checks
from repro.check.contracts import (
    find_snapshot,
    generate_snapshot,
    write_snapshot,
)
from tests.check.conftest import SRC

MODULE = '''\
STORE_SCHEMA_VERSION = 1

ROW_FIELDS = (
    "kernel",
    "machine",
)
'''


def _tree(tmp_path, module_text=MODULE, snapshot=True):
    root = tmp_path / "tree"
    (root / "repro" / "store").mkdir(parents=True)
    (root / "repro" / "check").mkdir(parents=True)
    (root / "repro" / "store" / "schema.py").write_text(module_text)
    if snapshot:
        path = root / "repro" / "check" / "contracts.json"
        path.write_text("{}")
        write_snapshot(root, path)
    return root


def _contract(result):
    return [d for d in result.diagnostics if d.rule == "contract-version"]


def test_snapshot_roundtrip_is_clean(tmp_path):
    root = _tree(tmp_path)
    result = run_checks(root, rule_ids=["contract-version"])
    assert _contract(result) == []


def test_no_snapshot_is_silent(tmp_path):
    root = _tree(tmp_path, snapshot=False)
    result = run_checks(root, rule_ids=["contract-version"])
    assert _contract(result) == []
    assert find_snapshot(root) is None


def test_table_edit_without_bump_flagged(tmp_path):
    root = _tree(tmp_path)
    schema = root / "repro" / "store" / "schema.py"
    schema.write_text(schema.read_text().replace('"machine",', '"machine",\n    "extra",'))
    result = run_checks(root, rule_ids=["contract-version"])
    diags = _contract(result)
    assert len(diags) == 1
    assert diags[0].path == "repro/store/schema.py"
    assert "ROW_FIELDS changed but STORE_SCHEMA_VERSION=1 did not" in diags[0].message
    assert "bump the schema version" in diags[0].message


def test_table_edit_with_bump_requires_regeneration(tmp_path):
    root = _tree(tmp_path)
    schema = root / "repro" / "store" / "schema.py"
    text = schema.read_text()
    text = text.replace('"machine",', '"machine",\n    "extra",')
    text = text.replace("STORE_SCHEMA_VERSION = 1", "STORE_SCHEMA_VERSION = 2")
    schema.write_text(text)
    result = run_checks(root, rule_ids=["contract-version"])
    diags = _contract(result)
    assert len(diags) == 1
    assert "with a version bump" in diags[0].message
    assert "--write-contracts" in diags[0].message
    # Regenerating clears it.
    write_snapshot(root)
    result = run_checks(root, rule_ids=["contract-version"])
    assert _contract(result) == []


def test_new_table_not_in_snapshot_flagged(tmp_path):
    root = _tree(tmp_path)
    schema = root / "repro" / "store" / "schema.py"
    schema.write_text(schema.read_text() + '\nEXTRA_COLUMNS = ("a",)\n')
    result = run_checks(root, rule_ids=["contract-version"])
    diags = _contract(result)
    assert any("EXTRA_COLUMNS is not in the snapshot" in d.message for d in diags)


def test_removed_module_flagged_at_snapshot(tmp_path):
    root = _tree(tmp_path)
    (root / "repro" / "store" / "schema.py").write_text("X = 1\n")
    result = run_checks(root, rule_ids=["contract-version"])
    diags = _contract(result)
    assert any(
        "no longer declares any" in d.message and d.path == "contracts.json"
        for d in diags
    )


def test_unreadable_snapshot_flagged(tmp_path):
    root = _tree(tmp_path)
    (root / "repro" / "check" / "contracts.json").write_text("{broken")
    result = run_checks(root, rule_ids=["contract-version"])
    diags = _contract(result)
    assert len(diags) == 1
    assert "unreadable or not valid JSON" in diags[0].message


def test_module_without_version_constant_tracked_for_staleness(tmp_path):
    root = _tree(tmp_path, module_text='ROW_FIELDS = ("a",)\n')
    schema = root / "repro" / "store" / "schema.py"
    schema.write_text('ROW_FIELDS = ("a", "b")\n')
    result = run_checks(root, rule_ids=["contract-version"])
    diags = _contract(result)
    assert any("no *_SCHEMA_VERSION to couple to" in d.message for d in diags)


def test_committed_snapshot_matches_the_tree():
    # The committed src/repro/check/contracts.json must be current —
    # this is the test-suite mirror of the CI gate.
    committed = find_snapshot(SRC)
    assert committed is not None
    assert json.loads(committed.read_text()) == json.loads(
        json.dumps(generate_snapshot(SRC))
    )


def test_real_tree_contract_rule_is_clean(src_cache):
    result = run_checks(SRC, rule_ids=["contract-version"], cache_dir=src_cache)
    assert _contract(result) == []
