"""Pytest set-up for the whole suite.

Pins BLAS/OpenMP thread pools to one thread before numpy is first imported,
as ``perfbench`` does for its workers: several tests carry wall-clock bounds,
and a multi-threaded BLAS contending with another busy process on a small
machine makes small matmuls many times slower. A value already set in the
environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
