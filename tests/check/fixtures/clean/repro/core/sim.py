"""Deterministic simulation code: nothing to flag."""

import numpy as np


def run(obs, done):
    rng = np.random.default_rng(1234)
    name = "retire" if done else "dispatch"
    obs.metrics.counter("sim_cycles").inc()
    obs.metrics.counter(f"vpu_ops_{name}").inc()
    return rng.random()


def near(a, b):
    return abs(a - b) < 1e-9


def ordered(ops):
    return sorted({op.seq for op in ops})
