from contextlib import contextmanager

import numpy as np
import pytest

from scc import Dictionary, _native, rng_from_seed


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

    "python" forces the Python loops; "kernel" skips the test where the
    native kernel cannot be loaded (tests/test_native.py asserts that it
    loads wherever a C compiler and numpy's OpenBLAS ddot exist).
    """
    if name == "kernel" and _native.kernel() is None:
        pytest.skip("the native kernel is not available here")
    saved = _native._kernel
    if name == "python":
        _native._kernel = None
    try:
        yield
    finally:
        _native._kernel = saved


CD_PATHS = ("python", "kernel")
