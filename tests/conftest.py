"""One BLAS thread for the whole suite, set before numpy is first imported.

The oracle's matrices are small (at most 143 x 143), so extra BLAS threads
only contend with each other and with other processes for the cores; the
timed acceptance criteria then measure the scheduler, not the code.
bench/run.py pins the same variables.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
