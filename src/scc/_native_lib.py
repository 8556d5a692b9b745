"""The native kernel library: how it is built, cached, checked and called.

``_native.kernel()`` imports this module on first use, so that
``import scc`` does not pay for it.  ``load()`` finds the ``cblas_ddot``
of the OpenBLAS that numpy loaded, compiles ``_kernel.c`` with the
system C compiler (``cc``) into ``${XDG_CACHE_HOME:-~/.cache}/scc/<hash>.so``
unless it is cached there, loads it with ctypes and compares it byte for
byte with the Python loops before handing it out.  Any failure makes
``load()`` return None.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import tempfile
import weakref
from pathlib import Path
from typing import Optional

import numpy as np

from .core import Dictionary, SparseCode, _residual
from .dictionary import _sgd_inplace
from .lasso import _encode_py, _finish

SOURCE = Path(__file__).with_name("_kernel.c")
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
DDOT = "scipy_cblas_ddot64_"  # the ILP64 cblas_ddot of numpy's OpenBLAS wheels
SELF_TEST_P = (1, 2, 3, 16, 17, 256)  # covers the ddot kernel's remainder paths

_i64 = ctypes.c_int64
_ptr = ctypes.c_void_p
_f64 = ctypes.c_double


class Kernel:
    """The kernel's entry points over contiguous float64 and int64 arrays.

    Arrays made per call are handed over by address through
    ``_address``, which needs them writable, contiguous and not empty;
    the atoms' address is looked up once per atom matrix.
    """

    def __init__(self, lib: ctypes.CDLL, ddot) -> None:
        lib.scc_init.argtypes = [_ptr]
        lib.scc_init.restype = None
        lib.scc_init(ctypes.cast(ddot, _ptr))
        self._encode = lib.scc_encode
        self._encode.argtypes = [_i64, _i64, _ptr, _ptr, _ptr, _f64, _i64, _ptr]
        self._encode.restype = _i64
        self._cd_to_tol = lib.scc_cd_to_tol
        self._cd_to_tol.argtypes = [_i64, _i64, _ptr, _ptr, _ptr, _f64, _f64, _i64]
        self._cd_to_tol.restype = _i64
        self._sgd = lib.scc_sgd
        self._sgd.argtypes = [_i64, _ptr, _i64, _ptr, _ptr, _ptr]
        self._sgd.restype = None
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

    def cd_to_tol(self, D, z: np.ndarray, r: np.ndarray, lam: float, tol: float, passes: int):
        """Full passes on ``z`` and ``r`` (in place) until the largest change is below
        ``tol``: the code, or None if ``passes`` passes do not get there."""
        if self._cd_to_tol(D.p, D.m, self._atoms_address(D.atoms), _address(z), _address(r), lam,
                           tol, passes) < 0:
            return None
        support = np.flatnonzero(z)
        return SparseCode._trusted(support, z[support], D.m)

    def sgd_step(self, atoms: np.ndarray):
        """``dictionary._sgd_inplace`` on the F-ordered ``atoms``, as a function of
        (indices, steps, residual)."""
        p = atoms.shape[0]
        base = self._atoms_address(atoms)
        sgd = self._sgd

        def step(indices: np.ndarray, steps: np.ndarray, residual: np.ndarray) -> None:
            if indices.size:
                sgd(p, base, indices.size, _address(indices), _address(steps), _address(residual))

        return step


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
            paths = {f[5].strip() for f in (line.split(maxsplit=5) for line in fh) if len(f) == 6}
    except OSError:
        return None
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        try:
            return path, getattr(ctypes.CDLL(path), DDOT)
        except (OSError, AttributeError):
            continue
    return None


def cache_path(cc: str, blas: str) -> Path:
    """Where the kernel built by ``cc`` for ``blas`` is cached."""
    key = hashlib.sha256(
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
        path = cache_path(cc, blas)
        if not path.exists():
            _build(cc, path)
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:  # a damaged cache entry: build it again
            _build(cc, path)
            lib = ctypes.CDLL(str(path))
        k = Kernel(lib, ddot)
        if not _self_test(k):
            raise ArithmeticError(f"{path} computes other bits than the Python loops")
        return k
    except Exception:
        import logging

        logging.getLogger(__name__).debug("the Python loops run instead of the kernel",
                                          exc_info=True)
        return None


def _self_test(k: Kernel) -> bool:
    """True if the kernel's bytes equal the Python loops' on fixed instances."""
    m = 12
    for p in SELF_TEST_P:
        atoms = _values(p * m, 0.1).reshape(p, m)
        atoms /= np.sqrt((atoms * atoms).sum(axis=0))
        atoms[:, ::3] *= 0.6  # atoms inside the ball as well as on the sphere
        D = Dictionary(atoms)
        x = D.atoms[:, :3] @ np.array([1.0, -0.5, 0.25]) + 0.01 * _values(p, 0.3)
        z0 = SparseCode.from_dense(np.where(_values(m, 0.5) > 0.4, _values(m, 0.7), 0.0),
                                   prune_tol=0.0)
        idx = np.flatnonzero(_values(m, 0.9) > 0.0)
        steps = 2.0 * _values(idx.size, 0.2)  # some atoms leave the ball
        if _outputs(k, D, x, z0, idx, steps) != _outputs(None, D, x, z0, idx, steps):
            return False
    return True


def _values(n: int, shift: float) -> np.ndarray:
    """``n`` fixed, irregularly spread values in [-1, 1), from an additive recurrence."""
    return 2.0 * ((0.7548776662466927 * np.arange(1, n + 1) + shift) % 1.0) - 1.0


def _outputs(k: Optional[Kernel], D, x, z0, idx, steps) -> list:
    """Bytes of an encode from zero and from ``z0``, of up to 30 oracle passes and
    of a dictionary step, through the kernel ``k`` or (None) the Python loops."""
    out = []
    for start in (SparseCode.zero(D.m), z0):
        r = _residual(D, start, x)
        code = _encode_py(D, start, r, 0.02, 3) if k is None else k.encode(D, start, r, 0.02, 3)
        out += [code.indices.tobytes(), code.values.tobytes(), r.tobytes()]
    r = np.array(x)
    if k is None:
        z = [0.0] * D.m
        code = _finish(D.columns, z, r, 0.2, 1e-6, 30)
    else:
        z = np.zeros(D.m)
        code = k.cd_to_tol(D, z, r, 0.2, 1e-6, 30)
    out += [code is None, np.array(z).tobytes(), r.tobytes()]
    atoms = D.atoms.copy(order="F")
    residual = x - D.atoms @ z0.to_dense()
    if k is None:
        _sgd_inplace(list(atoms.T), idx, steps, residual)
    else:
        k.sgd_step(atoms)(idx, steps, residual)
    return out + [atoms.tobytes()]
