"""Consumer-side violation: a metric nothing produces."""


def summarize(counters):
    return counters.get("real_metric", 0) + counters.get("ghost_metric", 0)  # line 5
