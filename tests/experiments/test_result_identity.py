"""Every result key derives from one identity: ``PointJob.canonical_series``.

The fields are walked with :func:`dataclasses.fields`, so a field added
to ``PointJob``, a kernel config or the machine is covered here without
anyone editing this file.
"""

import dataclasses
from dataclasses import replace
from enum import Enum

import pytest

from repro.core.config import SAVE_2VPU
from repro.experiments.executor import PointJob
from repro.kernels.gemm import POINT_AXES
from repro.kernels.library import get_kernel
from repro.rivals.indexmac import IndexMACConfig
from repro.rivals.nm import NM_PATTERNS
from repro.serve.schema import SimRequest
from repro.store.schema import sweep_fingerprint

GEMM = get_kernel("resnet2_2_fwd").config(
    broadcast_sparsity=0.3, nonbroadcast_sparsity=0.6, k_steps=8
)
NM = get_kernel("nm24_fwd").config(
    broadcast_sparsity=0.5, nonbroadcast_sparsity=0.6, k_steps=8
)
JOBS = {
    "gemm": PointJob(config=GEMM, machine=SAVE_2VPU),
    "nm": PointJob(config=NM, machine=SAVE_2VPU, mechanism="sparce"),
    "indexmac": PointJob(config=IndexMACConfig(nm=NM), machine=SAVE_2VPU),
}


def keys(job):
    """Every key a result of ``job``'s series is stored or grouped under."""
    request = SimRequest(kind="point", series=job, points=((0.3, 0.6),))
    return {
        "serve fingerprint": request.fingerprint(),
        "batch key": request.batch_key(),
        "sweep fingerprint": sweep_fingerprint(job),
    }


def _candidates(value):
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, Enum):
        return [member for member in type(value) if member != value]
    if isinstance(value, int):
        return [value + 1, value - 1, value - 2, value * 2]
    if isinstance(value, float):
        return [value + 0.5, value / 2]
    if isinstance(value, str):
        # A free-form copy, else another member of a closed vocabulary.
        return [value + "-other", *(p for p in NM_PATTERNS if p != value)]
    raise TypeError(f"no variant for leaf value {value!r}")


def _with_field(obj, name, value):
    """``obj`` with one field replaced, if its validation accepts it."""
    for candidate in _candidates(value):
        try:
            return replace(obj, **{name: candidate})
        except ValueError:
            continue
    raise AssertionError(f"no valid variant of {type(obj).__name__}.{name}")


def leaf_variants(obj, path=()):
    """``(path, copy of obj with exactly that one leaf field changed)``."""
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        here = (*path, field.name)
        if dataclasses.is_dataclass(value):
            for leaf, changed in leaf_variants(value, here):
                yield leaf, replace(obj, **{field.name: changed})
        else:
            yield here, _with_field(obj, field.name, value)


@pytest.mark.parametrize("base", JOBS.values(), ids=JOBS.keys())
def test_every_leaf_field_changes_every_key(base):
    before = keys(base)
    seen = set()
    for path, job in leaf_variants(base):
        if path[-1] in POINT_AXES:
            continue
        seen.add(".".join(path))
        after = keys(job)
        for name, key in before.items():
            assert after[name] != key, f"{name} ignores {'.'.join(path)}"
    # The walk reached the nested machine sections and the job's axes.
    for expected in (
        "machine.core.issue_width",
        "machine.save.mgu_count",
        "machine.hierarchy.l1_size",
        "machine.sharing_cores",
        "metric",
        "engine",
        "mechanism",
    ):
        assert expected in seen


@pytest.mark.parametrize("base", JOBS.values(), ids=JOBS.keys())
def test_point_axes_leave_series_keys_equal(base):
    before = keys(base)
    moved = 0
    for path, job in leaf_variants(base):
        if path[-1] not in POINT_AXES:
            continue
        moved += 1
        assert job.canonical_series() == base.canonical_series()
        after = keys(job)
        for name in ("batch key", "sweep fingerprint"):
            assert after[name] == before[name], f"{name} moved with {path}"
    assert moved == len(POINT_AXES)


def test_at_moves_only_the_point_axes():
    job = JOBS["gemm"].at(0.9, 0.1)
    assert job.config.broadcast_sparsity == 0.9
    assert job.config.nonbroadcast_sparsity == 0.1
    assert job.canonical_series() == JOBS["gemm"].canonical_series()
