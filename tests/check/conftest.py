"""Shared fixtures for the repro.check tests."""

import shutil
from pathlib import Path

import pytest

from repro.check import run_checks

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def src_cache(tmp_path_factory) -> Path:
    """One analysis cache shared by every test that checks the unmodified
    src tree.  It is warmed with the full rule set, so every rule's facts
    are parsed once per session and rule-subset runs reuse them.  Tests
    that mutate a copy of the tree stay uncached."""
    cache = tmp_path_factory.mktemp("src-check-cache")
    run_checks(SRC, cache_dir=cache)
    return cache


@pytest.fixture()
def src_copy(tmp_path) -> Path:
    """A mutable copy of the real src tree (checker package included,
    so the contract snapshot travels with it)."""
    work = tmp_path / "src"
    shutil.copytree(SRC, work, ignore=shutil.ignore_patterns("__pycache__"))
    return work
