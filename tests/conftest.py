import shutil
from contextlib import contextmanager

import numpy as np
import pytest

from scc import Dictionary, SparseCode, _native, _native_lib, rng_from_seed


def random_unit_atoms(rng: np.random.Generator, p: int, m: int) -> np.ndarray:
    atoms = rng.standard_normal((p, m))
    atoms /= np.sqrt((atoms * atoms).sum(axis=0))
    return atoms


def random_ball_atoms(rng: np.random.Generator, p: int, m: int) -> np.ndarray:
    """Atoms with norms spread through (0, 1], not just on the sphere."""
    atoms = random_unit_atoms(rng, p, m)
    atoms *= rng.uniform(0.2, 1.0, size=m)
    return atoms


def random_instance(seed: int, p: int, m: int, unit: bool = True):
    """A dictionary plus one unit-norm sample vector."""
    rng = rng_from_seed(seed)
    atoms = random_unit_atoms(rng, p, m) if unit else random_ball_atoms(rng, p, m)
    x = rng.standard_normal(p)
    x /= np.linalg.norm(x)
    return Dictionary(atoms), x


@pytest.fixture
def rng():
    return rng_from_seed(12345)


@contextmanager
def cd_path(name: str):
    """Run the block on one coordinate-descent path: "python" or "kernel".

    "python" assigns the Python loops (``_native_lib.LOOPS``) as the
    engine; "kernel" skips the test where the native kernel cannot be
    loaded (tests/test_native.py asserts that it loads wherever a C
    compiler and numpy's OpenBLAS ddot exist).
    """
    if name == "kernel" and _native.kernel() is _native_lib.LOOPS:
        pytest.skip("the native kernel is not available here")
    saved = _native._kernel
    if name == "python":
        _native._kernel = _native_lib.LOOPS
    try:
        yield
    finally:
        _native._kernel = saved


CD_PATHS = ("python", "kernel")
# where a C compiler and numpy's OpenBLAS ddot exist, and so the kernel loads
NATIVE_POSSIBLE = shutil.which("cc") is not None and _native_lib._numpy_ddot() is not None


# ---------------------------------------------------------------------------
# Reference coordinate descent: the loop as first written, with a numpy code
# vector, ``float(col @ r)`` and codes collected through the validating
# ``from_dense``, and the CD oracle in two forms built on it.
# ---------------------------------------------------------------------------

def ref_pass(cols, coords, z, r, lam):
    """One sweep over ``coords``; returns the largest absolute change."""
    max_delta = 0.0
    for j in coords:
        col = cols[j]
        old = float(z[j])
        b = float(col @ r) + old
        if b > lam:
            new = b - lam
        elif b < -lam:
            new = b + lam
        else:
            new = 0.0
        if new != old:
            z[j] = new
            r -= (new - old) * col
            delta = abs(new - old)
            if delta > max_delta:
                max_delta = delta
    return max_delta


def _ref_start(D, x, z_init):
    z = np.zeros(D.m) if z_init is None else z_init.to_dense()
    r = np.asarray(x, dtype=np.float64).copy()
    if z_init is not None and z_init.nnz:
        r -= D.atoms[:, z_init.indices] @ z_init.values
    return [D.atoms[:, j] for j in range(D.m)], z, r


def ref_oracle_full(D, x, lam, tol):
    """Plain cyclic descent from zero: full passes until one changes no coordinate by
    ``tol`` or more.  The code and the number of passes."""
    cols, z, r = _ref_start(D, x, None)
    passes = 1
    while ref_pass(cols, range(D.m), z, r, lam) >= tol:
        passes += 1
    return SparseCode.from_dense(z, prune_tol=0.0), passes


def ref_oracle(D, x, lam, tol, z_init=None):
    """The working-set oracle from ``z_init`` (zero when None): after each full pass
    that changes a coordinate by ``tol`` or more, passes over the nonzeros it leaves
    until one changes none by ``tol`` or more; it stops after the first full pass
    that changes none.  The code and the number of passes, full and working-set."""
    cols, z, r = _ref_start(D, x, z_init)
    passes = 0
    while True:
        passes += 1
        if ref_pass(cols, range(D.m), z, r, lam) < tol:
            return SparseCode.from_dense(z, prune_tol=0.0), passes
        work = np.flatnonzero(z).tolist()
        passes += 1
        while ref_pass(cols, work, z, r, lam) >= tol:
            passes += 1
