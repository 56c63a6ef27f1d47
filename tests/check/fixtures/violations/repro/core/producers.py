"""The one metric the violations fixture produces."""


def run(obs):
    obs.metrics.counter("real_metric").inc()
