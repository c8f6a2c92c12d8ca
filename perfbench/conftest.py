"""Lets the benchmark's tests import its modules and the checkout's eqflow:
``python3 -m pytest perfbench`` from the root of the checkout.  Pins the BLAS
pools to one thread, as ``run.py`` does for its workers, before anything
imports numpy: trajectories depend on the thread count."""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_HERE = Path(__file__).resolve().parent
for _path in (_HERE, _HERE.parent / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))
