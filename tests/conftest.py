"""Run the suite on one BLAS thread, as the benchmark harness does,
measure memory one way (`traced_peak`) and record a sampled walk's draws
one way (`recorded_draws`).

The defaults must be in place before numpy is first imported, which
happens after this file is loaded.  Values already set in the environment
are kept.
"""

import os
import tracemalloc

import pytest

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")


def traced_peak(fn, *args, **kwargs) -> int:
    """The tracemalloc peak, in bytes, of one call fn(*args, **kwargs)."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def recorded_draws(monkeypatch):
    """Every binomial and multinomial draw, in call order, of the generators
    np.random.default_rng makes while the test runs, as (method, n, p, out)
    with p the probabilities the draw was given."""
    import numpy as np

    draws = []

    class Recording(np.random.Generator):
        def binomial(self, n, p):
            out = super().binomial(n, p)
            draws.append(("binomial", n, p, out))
            return out

        def multinomial(self, n, pvals):
            out = super().multinomial(n, pvals)
            draws.append(("multinomial", n, pvals, out))
            return out

    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: Recording(np.random.PCG64(seed)))
    return draws
