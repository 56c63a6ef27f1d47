"""Consumers that agree with the producers."""


def summarize(counters):
    vpu = counters.get("vpu_ops_add", 0)
    return counters.get("sim_cycles", 0) + vpu
