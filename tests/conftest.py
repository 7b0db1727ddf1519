"""Run the suite on one BLAS thread, as the benchmark harness does.

The defaults must be in place before numpy is first imported, which
happens after this file is loaded.  Values already set in the environment
are kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
