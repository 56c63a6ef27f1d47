"""The repo's own source tree must pass its own analyzer.

This is the programmatic twin of the CI ``check`` job: if a change
introduces a violation (or drifts the trace schema), this test fails
locally before CI does.
"""

from pathlib import Path

from repro.check import run_checks

SRC = Path(__file__).resolve().parents[2] / "src"


def test_src_tree_is_clean(src_cache):
    result = run_checks(SRC, cache_dir=src_cache)
    assert result.ok, "\n".join(d.format() for d in result.diagnostics)
    # Well over the package count; guards against scanning the wrong dir.
    assert result.files_checked > 50


def test_known_suppressions_are_counted(src_cache):
    # The exact-zero sparsity test in the broadcast cache is the one
    # intentional float-eq in the tree; it must be suppressed, not
    # silently absent.
    result = run_checks(SRC, cache_dir=src_cache)
    assert result.suppressed >= 1
