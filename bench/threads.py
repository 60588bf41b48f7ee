"""BLAS thread pinning; import and call `pin` before numpy is imported."""

import os

BLAS_THREADS = 1  # the benchmark times single-threaded runs
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin():
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
