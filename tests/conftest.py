import multiprocessing
import signal
import tracemalloc

import numpy as np
import pytest

from epigame import ModelParams


def example_params(zeta: float) -> ModelParams:
    """Reference parameter set used across the suite: alpha=3, lambda=0.5, mu=1, c=3."""
    return ModelParams(alpha=3.0, lam=0.5, mu=1.0, c=3.0, zeta=zeta)


def traced_peak(fn, *args, **kwargs):
    """fn(*args, **kwargs) and the peak of the memory that tracemalloc traced
    while it ran, above what was traced when it began."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    return result, peak


@pytest.fixture
def bounded():
    """Fail the test, rather than hang it, if it runs over 30 s (a writer
    process that never ends); then end any child process it left."""
    def expire(_signum, _frame):
        # not a TimeoutError: that is an OSError, which Process.join swallows
        pytest.fail("over 30 s: a writer process did not end")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        for child in multiprocessing.active_children():
            child.kill()
            child.join()


def random_valid_params(rng: np.random.Generator, above_threshold: bool | None = None) -> ModelParams:
    """Random parameters satisfying the payoff ordering (c > 1, zeta > c + 1)."""
    for _ in range(1000):
        alpha = rng.uniform(0.2, 4.0)
        mu = rng.uniform(0.2, 2.5)
        if above_threshold is True:
            lo = mu / (2.0 * alpha)
            if lo >= 0.95:
                continue
            lam = rng.uniform(lo * 1.05, 1.0)
        elif above_threshold is False:
            lam = min(1.0, rng.uniform(0.1, 0.95) * mu / (2.0 * alpha))
            if lam <= 0.0:
                continue
        else:
            lam = rng.uniform(0.05, 1.0)
        c = rng.uniform(1.5, 5.0)
        zeta = rng.uniform(c + 1.5, c + 9.0)
        return ModelParams(alpha=alpha, lam=lam, mu=mu, c=c, zeta=zeta)
    raise RuntimeError("failed to draw valid parameters")


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)
