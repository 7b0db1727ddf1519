"""Run the suite on one BLAS thread, as the benchmark harness does, and
measure memory one way (`traced_peak`).

The defaults must be in place before numpy is first imported, which
happens after this file is loaded.  Values already set in the environment
are kept.
"""

import os
import tracemalloc

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
