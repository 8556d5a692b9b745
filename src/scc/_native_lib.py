"""The native kernel library: how it is built, cached and called.

``_native.kernel()`` imports this module on first use, so that
``import scc`` does not pay for it.  ``load()`` finds the OpenBLAS that
numpy loaded, compiles ``_kernel.c`` with the system C compiler (``cc``)
and links it against that library, which the kernel calls by name, into
``${XDG_CACHE_HOME:-~/.cache}/scc/<hash>.so`` unless it is cached
there, loads it with ctypes (the dynamic loader finds numpy's copy
already mapped) and compares it byte for byte with the Python loops,
``LOOPS``, before handing it out (``_native_check``).  Any failure makes
``load()`` return None, and ``_native.kernel()`` hand out ``LOOPS``.

A passing self-test leaves a stamp, ``<hash>.stamp``, beside the library:
its key (``_stamp_key``) covers the library's bytes, the bytes of every
module of this package, the numpy and Python versions, numpy's OpenBLAS,
the core that OpenBLAS picked for this CPU (``Kernel.core``) and the
clone of the kernel's hot entry points that runs on it (``Kernel.isa``).
A process that finds the stamp holding its own key hands the kernel out
without importing ``_native_check``; any other stamp, or none, runs the
self-test again.

Both keys are BLAKE2b digests from the interpreter's built-in
``_blake2``: faster than its built-in SHA-256, and without hashlib,
whose import loads OpenSSL.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import sys
import tempfile
import weakref
from pathlib import Path
from typing import Optional

import numpy as np

from .core import NaturalRateSchedule, SparseCode, _CodeStore
from .dictionary import _dense_py, _no_curvature
from .lasso import _encode_py, _epoch_py, _not_converged
from .metrics import _terms_py

SOURCE = Path(__file__).with_name("_kernel.c")
# The element-wise loops vectorized (at -O2 alone GCC 12's cheap cost model
# leaves every one of them scalar): each lane does the scalar loop's one
# correctly rounded operation, no reduction is reordered without -ffast-math,
# and contraction stays off, so no bit changes.  64-byte loop alignment, so
# that an edit elsewhere in the source cannot move the hot loops' speed by
# where they land (byte-identical code at another address ran 5% slower).
# The source itself clones its two hot entry points per vector ISA (see its
# header), which keeps the bits for the same reasons.
FLAGS = ("-O2", "-ftree-vectorize", "-fvect-cost-model=dynamic", "-ffp-contract=off",
         "-falign-loops=64", "-fPIC", "-shared")
DDOT = "scipy_cblas_ddot64_"  # the ILP64 cblas_ddot of numpy's OpenBLAS wheels

_i64 = ctypes.c_int64
_ptr = ctypes.c_void_p
_f64 = ctypes.c_double


class _Codes(ctypes.Structure):
    """``struct codes``: a ``core._CodeStore`` by address."""

    _fields_ = [("start", _ptr), ("length", _ptr), ("indices", _ptr), ("values", _ptr),
                ("capacity", _i64), ("used", _i64)]


class _Epoch(ctypes.Structure):
    """``struct epoch``: the arguments and progress of one ``scc_epoch`` run."""

    _fields_ = [("p", _i64), ("m", _i64), ("n", _i64), ("passes", _i64), ("lam", _f64),
                ("tol", _f64), ("atoms", _ptr), ("x", _ptr), ("order", _ptr),
                ("old", _Codes), ("new", _Codes), ("h", _ptr), ("a", _f64), ("b", _f64), ("t", _i64),
                ("z", _ptr), ("r", _ptr), ("g", _ptr), ("support", _ptr),
                ("next", _i64), ("time_code", _f64), ("time_dict", _f64), ("bad", _i64)]


# The kernel's entry points: name -> (return type, parameter types), as its source
# declares them.
_PROTOTYPES = {
    "scc_encode": (_i64, [_i64, _i64, _ptr, _ptr, _ptr, _f64, _i64, _i64, _ptr]),
    "scc_epoch": (_i64, [ctypes.POINTER(_Epoch)]),
    "scc_objective": (None, [_i64, _i64, _ptr, _ptr, ctypes.POINTER(_Codes), _f64, _ptr, _ptr,
                             _ptr]),
    "scc_dense": (_i64, [_i64, _i64, _i64, _ptr, _ptr, _ptr, _i64, _ptr]),
    "scc_isa": (ctypes.c_char_p, []),
    "scc_core": (ctypes.c_char_p, []),
}


def _codes(store: _CodeStore) -> _Codes:
    # _address takes a third of the time of ctypes.data, which the self-test
    # pays about 40 times; it cannot take an empty buffer (a store without room)
    return _Codes(*(_address(a) if a.size else a.ctypes.data
                    for a in (store.start, store.length, store.indices, store.values)),
                  store.indices.size, store.used)


class Kernel:
    """The kernel's entry points over contiguous float64 and int64 arrays.

    Sample matrices ``X`` are Fortran-ordered, as ``DataSet.X`` is.  Arrays
    go over by address: through ``_address``, which needs them writable,
    contiguous and not empty, where a call is short and made often (one
    sample's ``encode``, an epoch's work space, every code store), else
    through ``ndarray.ctypes.data``; the atoms' address is looked up once
    per atom matrix.  ``encode`` runs the cheap encoder of ``lasso.encode_scc``,
    ``cd_full_cycle`` and ``cd_support_cycle`` on a checked residual.  ``epoch``
    codes each sample on one count of passes: with the CD oracle, in at most
    ``passes``, when its ``tol`` is positive, and otherwise with the cheap
    encoder, in exactly ``passes``.  It writes the codes into a
    ``core._CodeStore`` and returns to Python only to grow it.  With rate
    None it holds the dictionary fixed and only codes: so ``batch_train`` and
    ``lasso._encode_frozen`` (``scc encode --mode scc:S`` and, with the
    oracle, ``lasso_oracle_cd(_batch)`` and ``scc encode --mode oracle``)
    code a whole matrix.  ``dense`` runs
    ``batch_train``'s dictionary step in place on Fortran-ordered atoms,
    for the Fortran-ordered dense codes ``Z`` of ``X``.  ``LOOPS`` has
    the same entry points, and gives the same bits.  ``isa`` names the clone
    of ``scc_epoch`` and ``scc_encode`` that runs here: "avx512f", "avx2" or
    "default"; ``core`` the core whose microkernels numpy's OpenBLAS picked.
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        for name, (restype, argtypes) in _PROTOTYPES.items():
            f = getattr(lib, name)
            f.restype, f.argtypes = restype, argtypes
        self._encode, self._epoch = lib.scc_encode, lib.scc_epoch
        self._objective, self._dense = lib.scc_objective, lib.scc_dense
        self.isa, self.core = lib.scc_isa().decode(), lib.scc_core().decode()
        self._atoms = (lambda: None, 0)  # (weak reference to an atom matrix, its address)

    def _atoms_address(self, atoms: np.ndarray) -> int:
        ref, address = self._atoms  # one tuple, so threads never see half an update
        if ref() is not atoms:
            address = atoms.ctypes.data
            self._atoms = (weakref.ref(atoms), address)
        return address

    def encode(self, D, z_init, r: np.ndarray, lam: float, full: int, passes: int):
        """``lasso._encode_py``, the cheap encoder: ``passes`` passes from ``z_init``,
        ``full`` (0 or 1) of them full and the rest over the support; ``r`` = x - D z_init,
        updated in place.  It has no tolerance: the CD oracle runs only inside ``epoch``."""
        z = z_init.to_dense()
        support = np.empty(D.m, dtype=np.int64)
        nnz = self._encode(D.p, D.m, self._atoms_address(D.atoms), _address(z), _address(r), lam,
                           full, passes, _address(support))
        support = support[:nnz].copy()
        return SparseCode._trusted(support, z[support], D.m)

    def epoch(self, D, X: np.ndarray, order: np.ndarray, lam: float, passes: int,
              old: _CodeStore, new: _CodeStore, rate, tol: float = 0.0):
        """``lasso._epoch_py`` in one kernel call, and one more each time ``new`` grows.

        Rate None leaves ``h`` NULL and ``a`` zero, which holds the dictionary fixed.
        """
        p, m = D.p, D.m
        e = _Epoch(p=p, m=m, n=order.size, passes=passes, lam=lam, tol=tol,
                   atoms=self._atoms_address(D.atoms), x=X.ctypes.data, order=order.ctypes.data,
                   old=_codes(old), new=_codes(new))
        natural = isinstance(rate, NaturalRateSchedule)
        if natural:
            e.a, e.b, e.t = rate.a, rate.b, rate.t
        elif rate is not None:
            e.h = rate.diag.ctypes.data
        work = np.zeros(m), np.empty(p), np.empty(p * m), np.empty(m, dtype=np.int64)
        e.z, e.r, e.g, e.support = map(_address, work)
        while (status := self._epoch(ctypes.byref(e))) > 0:
            new.used = e.new.used
            new.reserve(m)
            e.new = _codes(new)
        new.used = e.new.used
        if natural:
            rate.t = e.t
        if status == -1:
            raise _no_curvature(e.bad)
        if status < 0:
            raise _not_converged(passes)
        return e.time_code, e.time_dict

    def objective(self, D, store: _CodeStore, X: np.ndarray, lam: float) -> np.ndarray:
        """``metrics._terms_py``: the per-sample terms of the codes in ``store``."""
        p = D.p
        terms = np.empty(X.shape[1])
        g, r = np.empty(p * D.m), np.empty(p)
        self._objective(p, terms.size, D.atoms.ctypes.data, X.ctypes.data,
                        ctypes.byref(_codes(store)), lam, g.ctypes.data, r.ctypes.data,
                        terms.ctypes.data)
        return terms

    def dense(self, atoms: np.ndarray, Z: np.ndarray, X: np.ndarray, attempts: int) -> int:
        """``dictionary._dense_py``: the backtracking steps in place on ``atoms``."""
        (p, m), n = atoms.shape, Z.shape[1]
        if not (atoms.dtype == np.float64 and atoms.flags.f_contiguous and atoms.flags.writeable
                and Z.shape == (m, n) and X.shape == (p, n)):
            raise ValueError("dense needs writable Fortran-ordered float64 atoms, and Z and X "
                             "that fit them")
        Z, X = (np.asfortranarray(a, dtype=np.float64) for a in (Z, X))
        work = np.empty(p * n + 2 * p * m + m)
        return self._dense(p, m, n, atoms.ctypes.data, Z.ctypes.data, X.ctypes.data, attempts,
                           work.ctypes.data)


class _Loops:
    """The Python reference loops behind ``Kernel``'s entry points."""

    encode = staticmethod(_encode_py)
    epoch = staticmethod(_epoch_py)
    objective = staticmethod(_terms_py)
    dense = staticmethod(_dense_py)


LOOPS = _Loops()


def _address(a: np.ndarray) -> int:
    """Address of the data of a writable, contiguous, non-empty array.

    About 0.6 µs, against 2.3 µs for ``a.ctypes.data`` (2-vCPU x86-64 guest).
    """
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


def _numpy_openblas() -> Optional[str]:
    """The path of the OpenBLAS that numpy loaded, or None.

    Only numpy's OpenBLAS exports the ILP64 ``DDOT``, so another OpenBLAS
    in the process (scipy's, say) is passed over.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            lines = (line.split(maxsplit=5) for line in fh if "openblas" in line)
            paths = {f[5].strip() for f in lines if len(f) == 6}
    except OSError:
        return None
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        try:
            if hasattr(ctypes.CDLL(path), DDOT):
                return path
        except OSError:
            continue
    return None


def cache_path(cc: str, blas: str) -> Path:
    """Where the kernel built by ``cc`` for ``blas`` is cached."""
    from _blake2 import blake2b

    parts = [SOURCE.read_bytes(), cc.encode(), " ".join(FLAGS).encode(), blas.encode()]
    key = blake2b(b"\0".join(parts), digest_size=8).hexdigest()
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root) / "scc" / f"{key}.so"


def _replace(path: Path, fill) -> None:
    """Make ``path`` from a temporary file that ``fill(name)`` writes, so that readers
    never see half a file."""
    fd, tmp = tempfile.mkstemp(prefix=path.stem, suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        fill(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _build(cc: str, path: Path, blas: str) -> None:
    """Compile the kernel to ``path``, linked against the OpenBLAS at ``blas``."""
    # imported here, and logging in load(), so that loading a cached kernel
    # needs neither (each adds about 0.3 MiB to a process)
    import subprocess

    path.parent.mkdir(parents=True, exist_ok=True)
    _replace(path, lambda tmp: subprocess.run([cc, *FLAGS, "-o", tmp, str(SOURCE), blas, "-lm"],
                                              check=True, stdin=subprocess.DEVNULL,
                                              capture_output=True, timeout=120))


def _stamp_key(lib: Path, k: Kernel, blas: str) -> Optional[bytes]:
    """What a passing self-test of the kernel ``k`` at ``lib`` stands for, or None
    if a file cannot be read.

    The library's bytes, those of every module of this package (the reference
    loops, ``Kernel`` and the self-test's instances), the numpy and Python
    versions, numpy's OpenBLAS (path, size and mtime), the core it picked and
    the clone of the kernel that runs.
    """
    from _blake2 import blake2b

    try:
        blas_stat = os.stat(blas)
        files = [lib, *sorted(Path(__file__).parent.glob("*.py"))]
        lines = [f"{f.name} {blake2b(f.read_bytes()).hexdigest()}" for f in files]
    except OSError:
        return None
    lines += [f"numpy {np.__version__}", f"python {sys.version}",
              f"blas {blas} {blas_stat.st_size} {blas_stat.st_mtime_ns}",
              f"core {k.core}", f"isa {k.isa}"]
    return "\n".join(lines).encode() + b"\n"


def load() -> Optional[Kernel]:
    """The kernel, built and cached if need be and self-tested, or None.

    The self-test is skipped where the stamp beside the library holds the
    key of this process (``_stamp_key``), and a passing one writes that
    stamp; a stamp that cannot be written leaves the kernel handed out.
    Why it is None goes to this module's logger at debug level only.
    """
    try:
        blas = _numpy_openblas()
        cc = shutil.which("cc")
        if blas is None or cc is None:
            raise OSError(f"no {DDOT} in numpy's OpenBLAS" if blas is None else "no cc on PATH")
        path = cache_path(cc, blas)
        if not path.exists():
            _build(cc, path, blas)
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:  # a damaged cache entry: build it again
            _build(cc, path, blas)
            lib = ctypes.CDLL(str(path))
        k = Kernel(lib)
        key, stamp = _stamp_key(path, k, blas), path.with_suffix(".stamp")
        try:
            stamped = key is not None and stamp.read_bytes() == key
        except OSError:
            stamped = False
        if not stamped:
            from ._native_check import _self_test

            if not _self_test(k):
                raise ArithmeticError(f"{path} computes other bits than the Python loops")
            if key is not None:
                try:
                    _replace(stamp, lambda tmp: Path(tmp).write_bytes(key))
                except OSError:
                    pass  # the next process runs the self-test again
        return k
    except Exception:
        import logging

        logging.getLogger(__name__).debug("the Python loops run instead of the kernel",
                                          exc_info=True)
        return None
