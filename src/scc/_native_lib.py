"""The native kernel library: how it is built, cached, checked and called.

``_native.kernel()`` imports this module on first use, so that
``import scc`` does not pay for it.  ``load()`` finds the ``cblas_ddot``
and ``cblas_dgemv`` of the OpenBLAS that numpy loaded, compiles
``_kernel.c`` with the system C compiler (``cc``) into
``${XDG_CACHE_HOME:-~/.cache}/scc/<hash>.so`` unless it is cached
there, loads it with ctypes and compares it byte for byte with the
Python loops before handing it out.  Any failure makes ``load()``
return None.

The cache key is hashed by the interpreter's built-in SHA-256 unless
hashlib is loaded already: importing hashlib loads OpenSSL.
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

from .core import Dictionary, HessianDiag, SparseCode, _CodeStore
from .dictionary import _no_curvature
from .lasso import _oracle_py
from .metrics import _terms_py
from .trainer import NaturalRateSchedule, _epoch_py

SOURCE = Path(__file__).with_name("_kernel.c")
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
DDOT = "scipy_cblas_ddot64_"  # the ILP64 cblas_ddot of numpy's OpenBLAS wheels
DGEMV = "scipy_cblas_dgemv64_"  # and its cblas_dgemv
SELF_TEST_P = (1, 2, 3, 16, 17, 256)  # covers the ddot kernel's remainder paths
_FROZEN_TEST_P = 17  # holding the atoms adds no arithmetic to an epoch, which every p covers

_i64 = ctypes.c_int64
_ptr = ctypes.c_void_p
_f64 = ctypes.c_double


class _Codes(ctypes.Structure):
    """``struct codes``: a ``core._CodeStore`` by address."""

    _fields_ = [("start", _ptr), ("length", _ptr), ("indices", _ptr), ("values", _ptr),
                ("capacity", _i64), ("used", _i64)]


class _Epoch(ctypes.Structure):
    """``struct epoch``: the arguments and progress of one ``scc_epoch`` run."""

    _fields_ = [("p", _i64), ("m", _i64), ("n", _i64), ("steps", _i64), ("lam", _f64),
                ("atoms", _ptr), ("x", _ptr), ("order", _ptr), ("old", _Codes), ("new", _Codes),
                ("h", _ptr), ("a", _f64), ("b", _f64), ("t", _i64),
                ("z", _ptr), ("r", _ptr), ("g", _ptr), ("y", _ptr), ("support", _ptr),
                ("next", _i64), ("time_code", _f64), ("time_dict", _f64), ("bad", _i64)]


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
    sample's ``encode``, the self-test's oracle codes, every code store),
    else through ``ndarray.ctypes.data``; the atoms' address is looked up
    once per atom matrix.  The whole-matrix entries write codes into a
    ``core._CodeStore`` and return to Python only to grow it.  ``epoch``
    with rate None holds the dictionary fixed and only codes; that is how
    ``scc encode --mode scc:S`` codes a whole file.
    """

    def __init__(self, lib: ctypes.CDLL, ddot, dgemv) -> None:
        lib.scc_init.argtypes = [_ptr, _ptr]
        lib.scc_init.restype = None
        lib.scc_init(ctypes.cast(ddot, _ptr), ctypes.cast(dgemv, _ptr))
        self._encode = lib.scc_encode
        self._encode.argtypes = [_i64, _i64, _ptr, _ptr, _ptr, _f64, _i64, _ptr]
        self._encode.restype = _i64
        self._epoch = lib.scc_epoch
        self._epoch.argtypes = [ctypes.POINTER(_Epoch)]
        self._epoch.restype = _i64
        self._objective = lib.scc_objective
        self._objective.argtypes = [_i64, _i64, _ptr, _ptr, ctypes.POINTER(_Codes), _f64,
                                    _ptr, _ptr, _ptr, _ptr]
        self._objective.restype = None
        self._oracle = lib.scc_oracle_codes
        self._oracle.argtypes = [_i64, _i64, _i64, _ptr, _ptr, _f64, _f64, _i64, _i64,
                                 ctypes.POINTER(_Codes), _ptr, _ptr]
        self._oracle.restype = _i64
        self._atoms = (lambda: None, 0)  # (weak reference to an atom matrix, its address)

    def _atoms_address(self, atoms: np.ndarray) -> int:
        ref, address = self._atoms  # one tuple, so threads never see half an update
        if ref() is not atoms:
            address = atoms.ctypes.data
            self._atoms = (weakref.ref(atoms), address)
        return address

    def encode(self, D, z_init, r: np.ndarray, lam: float, steps: int):
        """``lasso.encode_scc``'s passes from ``z_init``; ``r`` = x - D z_init, updated in place."""
        m = D.m
        z = np.zeros(m)
        z[z_init.indices] = z_init.values
        support = np.empty(m, dtype=np.int64)
        nnz = self._encode(D.p, m, self._atoms_address(D.atoms), _address(z), _address(r), lam,
                           steps, _address(support))
        support = support[:nnz].copy()
        return SparseCode._trusted(support, z[support], m)

    def epoch(self, D, X: np.ndarray, order: np.ndarray, lam: float, steps: int,
              old: _CodeStore, new: _CodeStore, rate):
        """``trainer._epoch_py`` in one kernel call, and one more each time ``new`` grows.

        Rate None leaves ``h`` NULL and ``a`` zero, which holds the dictionary fixed.
        """
        p, m = D.p, D.m
        e = _Epoch(p=p, m=m, n=order.size, steps=steps, lam=lam, atoms=D.atoms.ctypes.data,
                   x=X.ctypes.data, order=order.ctypes.data, old=_codes(old), new=_codes(new))
        natural = isinstance(rate, NaturalRateSchedule)
        if natural:
            e.a, e.b, e.t = rate.a, rate.b, rate.t
        elif rate is not None:
            e.h = rate.diag.ctypes.data
        work = np.zeros(m), np.empty(p), np.empty(p * m), np.empty(p)
        support = np.empty(m, dtype=np.int64)
        e.z, e.r, e.g, e.y = (a.ctypes.data for a in work)
        e.support = support.ctypes.data
        while (status := self._epoch(ctypes.byref(e))) > 0:
            new.used = e.new.used
            new.reserve(m)
            e.new = _codes(new)
        new.used = e.new.used
        if natural:
            rate.t = e.t
        if status < 0:
            raise _no_curvature(e.bad)
        return e.time_code, e.time_dict

    def oracle(self, D, X: np.ndarray, lam: float, tol: float, passes: int, store: _CodeStore):
        """``lasso._oracle_py`` in one kernel call, and one more each time ``store`` grows."""
        p, m, n = D.p, D.m, X.shape[1]
        z, r = np.empty(m), np.empty(p)
        args = (p, m, n, self._atoms_address(D.atoms), X.ctypes.data, lam, tol, passes)
        work = (_address(z), _address(r))
        c = _codes(store)
        i = 0
        while 0 <= (i := self._oracle(*args, i, ctypes.byref(c), *work)) < n:
            store.used = c.used
            store.reserve(m)
            c = _codes(store)
        store.used = c.used
        return None if i == n else (-1 - i, z, r)

    def objective(self, D, store: _CodeStore, X: np.ndarray, lam: float) -> np.ndarray:
        """``metrics._terms_py``: the per-sample terms of the codes in ``store``."""
        p = D.p
        terms = np.empty(X.shape[1])
        g, y, r = np.empty(p * D.m), np.empty(p), np.empty(p)
        self._objective(p, terms.size, D.atoms.ctypes.data, X.ctypes.data,
                        ctypes.byref(_codes(store)), lam, g.ctypes.data, y.ctypes.data,
                        r.ctypes.data, terms.ctypes.data)
        return terms


def _address(a: np.ndarray) -> int:
    """Address of the data of a writable, contiguous, non-empty array.

    About 0.6 µs, against 2.3 µs for ``a.ctypes.data`` (2-vCPU x86-64 guest).
    """
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


def _numpy_ddot():
    """(path, function) of ``DDOT`` in the OpenBLAS that numpy loaded, or None.

    Only numpy's OpenBLAS exports the ILP64 symbol, so another OpenBLAS
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
            return path, getattr(ctypes.CDLL(path), DDOT)
        except (OSError, AttributeError):
            continue
    return None


def _sha256():
    """``hashlib.sha256``, or the interpreter's built-in twin while hashlib is not loaded."""
    if "hashlib" not in sys.modules:
        for name in ("_sha2", "_sha256"):  # Python 3.12 and later; 3.10 and 3.11
            try:
                return __import__(name).sha256
            except ImportError:
                pass
    import hashlib

    return hashlib.sha256


def cache_path(cc: str, blas: str) -> Path:
    """Where the kernel built by ``cc`` for ``blas`` is cached."""
    key = _sha256()(
        b"\0".join([SOURCE.read_bytes(), cc.encode(), " ".join(FLAGS).encode(), blas.encode()])
    ).hexdigest()[:16]
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root) / "scc" / f"{key}.so"


def _build(cc: str, path: Path) -> None:
    """Compile the kernel to ``path`` through a temporary file, so readers never see half a file."""
    # imported here, and logging in load(), so that loading a cached kernel
    # needs neither (each adds about 0.3 MiB to a process)
    import subprocess

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=path.stem, suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run([cc, *FLAGS, "-o", tmp, str(SOURCE), "-lm"], check=True,
                       stdin=subprocess.DEVNULL, capture_output=True, timeout=120)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load() -> Optional[Kernel]:
    """The kernel, built and cached if need be and self-tested, or None.

    Why it is None goes to this module's logger at debug level only.
    """
    try:
        found = _numpy_ddot()
        cc = shutil.which("cc")
        if found is None or cc is None:
            raise OSError(f"no {DDOT} in numpy's OpenBLAS" if found is None else "no cc on PATH")
        blas, ddot = found
        dgemv = getattr(ctypes.CDLL(blas), DGEMV)
        path = cache_path(cc, blas)
        if not path.exists():
            _build(cc, path)
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:  # a damaged cache entry: build it again
            _build(cc, path)
            lib = ctypes.CDLL(str(path))
        k = Kernel(lib, ddot, dgemv)
        if not _self_test(k):
            raise ArithmeticError(f"{path} computes other bits than the Python loops")
        return k
    except Exception:
        import logging

        logging.getLogger(__name__).debug("the Python loops run instead of the kernel",
                                          exc_info=True)
        return None


def _self_test(k: Kernel) -> bool:
    """True if the kernel's bytes equal the Python loops' on fixed instances.

    At every p: the oracle codes of the samples, up to the state a few
    passes leave, into a store that has to grow; an epoch over two
    samples, from a one-entry code and from zero, alternately under the
    adaptive rule in sequential order and under the natural rule in
    reverse order; and the objective of codes with every entry, one entry
    and none.  At ``_FROZEN_TEST_P``: the same epoch with the dictionary
    held fixed (rate None), whose atoms must come out unmoved.
    """
    m = 8
    for q, p in enumerate(SELF_TEST_P):
        atoms = _values(p * m, 0.1).reshape(p, m)
        atoms /= np.sqrt((atoms * atoms).sum(axis=0))
        atoms[:, ::3] *= 0.6  # atoms inside the ball as well as on the sphere
        D = Dictionary(atoms)
        x = D.atoms[:, :3] @ np.array([1.0, -0.5, 0.25]) + 0.01 * _values(p, 0.3)
        X = np.asfortranarray(np.column_stack([x, 3.0 * x, -x]))  # 3x: atoms leave the ball
        codes = [SparseCode.from_dense(_values(m, 0.7), prune_tol=0.0),
                 SparseCode(np.array([4]), np.array([-0.8]), m), SparseCode.zero(m)]
        if _outputs(k, D, X, codes, q % 2) != _outputs(None, D, X, codes, q % 2):
            return False
        if p == _FROZEN_TEST_P:
            if _epoch(k, D, X, codes, None)[1] != _epoch(None, D, X, codes, None)[1]:
                return False
    return True


def _values(n: int, shift: float) -> np.ndarray:
    """``n`` fixed, irregularly spread values in [-1, 1), from an additive recurrence."""
    return 2.0 * ((0.7548776662466927 * np.arange(1, n + 1) + shift) % 1.0) - 1.0


def _store_bytes(store: _CodeStore) -> list:
    return [store.start.tobytes(), store.length.tobytes(), store.indices[:store.used].tobytes(),
            store.values[:store.used].tobytes()]


def _outputs(k: Optional[Kernel], D, X, codes, natural: bool) -> list:
    """Bytes of the oracle codes of ``X`` in at most 4 passes each, up to the first
    sample that needs more (then of its z and r after them: p = 1 codes every
    sample, p >= 16 none), of an ``_epoch`` under the rule that ``natural`` picks,
    and of the objective of ``codes`` after it, through the kernel ``k`` or
    (None) the Python loops."""
    oracle = _CodeStore(D.m, X.shape[1], 0)  # no room: it has to grow
    failed = (_oracle_py if k is None else k.oracle)(D, X, 0.2, 1e-6, 4, oracle)
    out = _store_bytes(oracle) + ([None] if failed is None else
                                  [failed[0], failed[1].tobytes(), failed[2].tobytes()])
    rate = NaturalRateSchedule(0.5, 10.0) if natural else HessianDiag.zeros(D.m)
    W, epoch = _epoch(k, D, X, codes, rate)
    store = _CodeStore.of(codes, D.m)
    terms = _terms_py(W, store, X, 0.3) if k is None else k.objective(W, store, X, 0.3)
    return out + epoch + [rate.t if natural else rate.diag.tobytes(), terms.tobytes()]


def _epoch(k: Optional[Kernel], D, X, codes, rate):
    """The dictionary after an epoch over ``X[:, 1:]`` from the other ``codes`` under
    ``rate`` (in reverse order under the natural rule), and the bytes of its atoms and
    of the new codes, through the kernel ``k`` or (None) the Python loops."""
    W = Dictionary(D.atoms)
    new = _CodeStore(D.m, 2, D.m)  # room for one code: it has to grow
    order = np.array([1, 0]) if isinstance(rate, NaturalRateSchedule) else np.arange(2)
    run_epoch = _epoch_py if k is None else k.epoch
    run_epoch(W, X[:, 1:], order, 0.02, 3, _CodeStore.of(codes[1:], D.m), new, rate)
    return W, [W.atoms.tobytes(), *_store_bytes(new)]
