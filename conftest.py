"""Session-wide settings for every test under this directory.

OpenBLAS fixes its thread count when numpy is first imported, so it is set
here, before any test module imports numpy.  The suite's matrices are small
(D <= 924), where a second BLAS thread only adds synchronisation, and the
acceptance module runs its ensembles on a two-process pool whose forked
workers inherit this setting instead of oversubscribing the cores.  It also
fixes the BLAS round-off, which differs between one and two threads.  A
value already set in the environment is kept.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
