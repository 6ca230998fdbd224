"""Pin single-threaded BLAS for the whole test session.

Some seeded results depend on the BLAS thread count: the weighing
closure weighs 1.0255 kg with one OpenBLAS thread and 1.0583 kg with two.
OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads, so it is set
here, before any test module imports numpy. The byte oracle
(tools/pipeline_sha256.py) and the benchmark pin the same count.
"""

import os
import sys

if "numpy" in sys.modules and os.environ.get("OPENBLAS_NUM_THREADS") != "1":
    raise RuntimeError(
        "numpy was imported before tests/conftest.py could pin OPENBLAS_NUM_THREADS=1; "
        "run the tests with OPENBLAS_NUM_THREADS=1 set in the environment")
os.environ["OPENBLAS_NUM_THREADS"] = "1"
