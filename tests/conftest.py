"""Run the suite with single-threaded BLAS and OpenMP pools.

OpenBLAS reads its thread count once, when numpy loads it, and this file is
imported before any test module loads numpy.  The program itself uses numpy's
one OpenBLAS pool; scipy, which the tests import as an oracle, links its own.
On small states the threaded pools cost more than they save (the Krylov step's
Gram-Schmidt on a few basis vectors among them).  An explicit setting in the
environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
