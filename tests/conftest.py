"""Suite-wide setup.

One BLAS thread, as in the CI workflow: the Fock layer's many small
eigh calls and matrix products spin OpenBLAS helper threads otherwise.
Set here, before any test module imports numpy; a value already in the
environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
