"""Native kernel for the hot paths, with the Python loops as fallback.

``_kernel.c``, shipped next to this module, holds the whole stochastic
epoch of ``lasso._epoch_py`` (with the dictionary held fixed, the cold
codes of ``lasso._encode_cold`` and, with its passes run to a tolerance,
the CD oracle codes of ``lasso._oracle_cold``), the per-sample objective
terms of ``metrics._terms_py``, and the coordinate-descent passes of
``lasso.encode_scc``.
Its results are bit-identical to the Python loops: every inner product
and every fresh residual goes through the ``cblas_ddot`` and
``cblas_dgemv`` of the OpenBLAS that numpy loaded, called as numpy calls
them, sums follow numpy's order, and every other operation is the same
correctly rounded IEEE operation (the source is built without
floating-point contraction).

The kernel is built and loaded on the first call of ``kernel()``, not at
import (see ``_native_lib``).  ``kernel()`` returns None, and the callers
run their Python loops, if anything fails: no compiler, an unwritable
cache, no such BLAS symbol, a library that does not load, or a self-test
mismatch.  Tests choose the path by assigning ``_kernel`` (None forces
the Python loops).
"""

import threading

_UNLOADED = object()
_kernel = _UNLOADED
_lock = threading.Lock()


def kernel():
    """The loaded ``_native_lib.Kernel``, or None if it cannot be used; loads on first call."""
    global _kernel
    if _kernel is _UNLOADED:
        with _lock:
            if _kernel is _UNLOADED:
                from ._native_lib import load

                _kernel = load()
    return _kernel
