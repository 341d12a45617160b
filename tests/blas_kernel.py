"""Print the OpenBLAS kernel that numpy's bundled OpenBLAS loaded, then the
kernel to force for a second run: Haswell, or Sandybridge where the loaded
one is Haswell or Zen.

    python tests/blas_kernel.py
    OPENBLAS_CORETYPE=Haswell python tests/blas_kernel.py

OpenBLAS picks its kernel per CPU when it loads, and OPENBLAS_CORETYPE
overrides the pick, so each kernel needs its own process. Exits non-zero
where numpy carries no bundled OpenBLAS.
"""

import ctypes
import glob
import os

import numpy

libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
lib = ctypes.CDLL(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))[0])
lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
loaded = lib.scipy_openblas_get_corename64_().decode()
print(loaded, "Sandybridge" if loaded in ("Haswell", "Zen") else "Haswell")
