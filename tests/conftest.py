"""Suite-wide settings: one BLAS thread, set before numpy is first imported,
and one hypothesis profile.

The oracle's matrices are small (at most 143 x 143), so extra BLAS threads
only contend with each other and with other processes for the cores; the
timed acceptance criteria then measure the scheduler, not the code.
bench/run.py pins the same variables.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from hypothesis import settings

# The property tests run exact arithmetic whose cost varies by orders of
# magnitude between draws, so no draw gets a deadline; each test keeps its
# own max_examples.
settings.register_profile("liebalance", deadline=None)
settings.load_profile("liebalance")
