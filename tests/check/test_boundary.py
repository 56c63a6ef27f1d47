"""Process-boundary rule: frozen payloads, picklable callables."""

from repro.check import run_checks
from tests.check.conftest import SRC

EXECUTOR = '''\
from concurrent.futures import ProcessPoolExecutor

POOL_PAYLOAD_TYPES = ("Job",)
POOL_PAYLOAD_PICKLABLE = ()


def work(job):
    return job


class SimExecutor:
    def run(self, jobs):
        with ProcessPoolExecutor() as pool:
            return [pool.submit(work, job) for job in jobs]
'''

FROZEN_JOB = '''\
from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    name: str
    inner: "Inner"


@dataclass(frozen=True)
class Inner:
    value: int
'''


def _tree(tmp_path, executor=EXECUTOR, job=FROZEN_JOB):
    root = tmp_path / "tree"
    (root / "repro").mkdir(parents=True)
    (root / "repro" / "executor.py").write_text(executor)
    (root / "repro" / "job.py").write_text(job)
    return root


def _boundary(result):
    return [d for d in result.diagnostics if d.rule == "process-boundary"]


def test_frozen_closure_is_clean(tmp_path):
    result = run_checks(_tree(tmp_path), rule_ids=["process-boundary"])
    assert _boundary(result) == []


def test_unfrozen_payload_flagged(tmp_path):
    job = FROZEN_JOB.replace("@dataclass(frozen=True)\nclass Job", "@dataclass\nclass Job")
    result = run_checks(_tree(tmp_path, job=job), rule_ids=["process-boundary"])
    diags = _boundary(result)
    assert len(diags) == 1
    assert diags[0].path == "repro/job.py"
    assert "Job crosses the SimExecutor process-pool boundary" in diags[0].message
    assert "not a frozen dataclass" in diags[0].message


def test_transitive_field_class_must_be_frozen(tmp_path):
    job = FROZEN_JOB.replace("@dataclass(frozen=True)\nclass Inner", "@dataclass\nclass Inner")
    result = run_checks(_tree(tmp_path, job=job), rule_ids=["process-boundary"])
    diags = _boundary(result)
    assert len(diags) == 1
    assert "Inner crosses" in diags[0].message
    assert "field Job.inner" in diags[0].message


def test_picklable_allowlist_exempts(tmp_path):
    executor = EXECUTOR.replace(
        'POOL_PAYLOAD_PICKLABLE = ()', 'POOL_PAYLOAD_PICKLABLE = ("Job",)'
    )
    job = FROZEN_JOB.replace("@dataclass(frozen=True)\nclass Job", "@dataclass\nclass Job")
    result = run_checks(
        _tree(tmp_path, executor=executor, job=job),
        rule_ids=["process-boundary"],
    )
    assert _boundary(result) == []


def test_enum_payload_exempt(tmp_path):
    job = FROZEN_JOB + '''

from enum import Enum


class Kind(str, Enum):
    A = "a"
'''
    job = job.replace('inner: "Inner"', 'inner: "Inner"\n    kind: "Kind"')
    result = run_checks(_tree(tmp_path, job=job), rule_ids=["process-boundary"])
    assert _boundary(result) == []


def test_missing_registry_flagged(tmp_path):
    executor = EXECUTOR.replace('POOL_PAYLOAD_TYPES = ("Job",)\n', "")
    result = run_checks(
        _tree(tmp_path, executor=executor), rule_ids=["process-boundary"]
    )
    diags = _boundary(result)
    assert len(diags) == 1
    assert "declares no POOL_PAYLOAD_TYPES" in diags[0].message


def test_registry_naming_unknown_class_flagged(tmp_path):
    executor = EXECUTOR.replace('("Job",)', '("Job", "Ghost")')
    result = run_checks(
        _tree(tmp_path, executor=executor), rule_ids=["process-boundary"]
    )
    diags = _boundary(result)
    assert any("'Ghost'" in d.message and "no class of that name" in d.message
               for d in diags)


def test_lambda_submit_flagged(tmp_path):
    executor = EXECUTOR.replace(
        "pool.submit(work, job)", "pool.submit(lambda: job)"
    )
    result = run_checks(
        _tree(tmp_path, executor=executor), rule_ids=["process-boundary"]
    )
    diags = _boundary(result)
    assert len(diags) == 1
    assert "passes a lambda" in diags[0].message
    assert "do not pickle" in diags[0].message


def test_closure_submit_flagged(tmp_path):
    executor = EXECUTOR.replace(
        "        with ProcessPoolExecutor() as pool:\n"
        "            return [pool.submit(work, job) for job in jobs]",
        "        def local(job):\n"
        "            return job\n"
        "        with ProcessPoolExecutor() as pool:\n"
        "            return [pool.submit(local, job) for job in jobs]",
    )
    result = run_checks(
        _tree(tmp_path, executor=executor), rule_ids=["process-boundary"]
    )
    diags = _boundary(result)
    assert len(diags) == 1
    assert "locally-defined local()" in diags[0].message


def test_real_tree_boundary_rule_is_clean(src_cache):
    result = run_checks(SRC, rule_ids=["process-boundary"], cache_dir=src_cache)
    assert _boundary(result) == []
