"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one table/figure of the paper via its
experiment runner (coarse sparsity grid by default — run the CLI with
``--full-grid`` for the paper's 10%-step resolution), asserts the
qualitative shape the paper reports, and records the regeneration time
through pytest-benchmark.
"""

import pytest

from repro.experiments.context import RunContext
from repro.store import DEFAULT_STORE_ROOT


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "experiment(name): marks a benchmark regenerating one experiment"
    )


@pytest.fixture(scope="session")
def store():
    """Root of the repo-level sweep store the surface figures fill."""
    return DEFAULT_STORE_ROOT


@pytest.fixture
def run_once(benchmark):
    """Run an experiment exactly once under the benchmark timer.

    Keyword arguments are :class:`RunContext` fields; the runner is
    invoked with the assembled context.
    """

    def _run(func, **options):
        ctx = RunContext(**options)
        return benchmark.pedantic(func, args=(ctx,), rounds=1, iterations=1)

    return _run
