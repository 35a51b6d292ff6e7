"""Run the suite with single-threaded BLAS and OpenMP pools.

OpenBLAS reads its thread count once, when numpy loads it, and this file is
imported before any test module loads numpy.  The program itself uses numpy's
one OpenBLAS pool; scipy, which the tests import as an oracle, links its own.
On small states the threaded pools cost more than they save (the Krylov step's
Gram-Schmidt on a few basis vectors among them).  An explicit setting in the
environment wins.  ``traced_peak`` is the memory tests' one tracemalloc
wrapper.
"""

import os
import tracemalloc

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")


def traced_peak(fn, *args, **kwargs):
    """(fn(*args, **kwargs), the peak in bytes that tracemalloc saw during the call)."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
