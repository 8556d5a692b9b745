"""The engine of the hot paths: the native kernel, or the Python loops.

``_kernel.c``, shipped next to this module, holds the whole stochastic
epoch of ``lasso._epoch_py`` (with the dictionary held fixed, the codes
of ``lasso._encode_frozen``), ``batch_train``'s backtracking dictionary
step ``dictionary._dense_py``, the per-sample objective terms of
``metrics._terms_py``, and the coordinate-descent passes of
``lasso.encode_scc``, ``cd_full_cycle`` and ``cd_support_cycle``.  It
codes a sample with one of two routines, as ``lasso`` does: the cheap
encoder of ``lasso._encode_py``, a fixed number of passes, or the CD
oracle of ``lasso._oracle_py``, passes to a tolerance on a budget, which
an epoch runs when its tolerance is positive.
Its results are bit-identical to the Python loops: every inner product
and every matrix product goes through the ``cblas_ddot``,
``cblas_dgemv`` and ``cblas_dgemm`` of the OpenBLAS that numpy loaded,
which the kernel is linked against, called as numpy's matmul calls them
(or along its dot and plain-loop routes where a dimension is 1), sums
follow numpy's order, and every other operation is the same correctly
rounded IEEE operation (the source is built without floating-point
contraction).

``kernel()`` returns the engine that every caller runs: the loaded
``_native_lib.Kernel``, or ``_native_lib.LOOPS``, the Python loops
behind the same interface, if anything fails: no compiler, an
unwritable cache, no such BLAS symbol, a library that does not load, or
a self-test mismatch.  The kernel is built and loaded on the first call,
not at import (see ``_native_lib``); until then ``_kernel`` is None.
Tests choose the path by assigning ``_kernel`` an engine.
"""

import threading

_kernel = None  # the engine, once loaded (both engines are true)
_lock = threading.Lock()


def kernel():
    """The engine: the loaded ``_native_lib.Kernel``, else ``_native_lib.LOOPS``; loads on first call."""
    global _kernel
    if not _kernel:
        with _lock:
            if not _kernel:
                from ._native_lib import LOOPS, load

                _kernel = load() or LOOPS
    return _kernel
