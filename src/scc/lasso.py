"""Sparse-code updates.

One "step" of coordinate descent is a full ascending pass over the
coordinates; the cheap encoder runs one such pass to find the support
and then a few passes restricted to it.  Two independent full-accuracy
solvers (cyclic coordinate descent and an accelerated proximal-gradient
method) serve as cross-checking references.

Coordinate update, with r = x - D z maintained incrementally:

    b_j   <- d_j . r + z_j
    z_j   <- shrink(b_j, lambda)
    r     <- r - d_j (z_j_new - z_j_old)

which is exact minimization over z_j when ||d_j|| = 1 and a valid
unit-step proximal update whenever ||d_j|| <= 1, so the objective
never increases.

``encode_scc`` solves one sample in one native kernel call
(``_native``) when the kernel loads, otherwise in the Python reference
loop ``_encode_py`` over ``_cd_pass``; both give the same bits.
``_oracle_cold``, behind the CD oracle, ``batch_train`` and
``scc encode --mode oracle``, codes every sample of a matrix from zero
into one ``core._CodeStore``: in one kernel call, or per sample in
``_oracle_py`` (``_finish`` over ``_cd_pass``).  The cheap codes of a
whole matrix, behind ``scc encode --mode scc:S``, are a training epoch
that moves no atom (``trainer._encode_cold``).  ``cd_full_cycle`` and
``cd_support_cycle`` always run ``_cd_pass``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import List, Union

import numpy as np

from . import _native
from .core import (
    CDWorkspace,
    ConfigInvalid,
    DEFAULT_PRUNE_TOL,
    Dictionary,
    DimensionMismatch,
    MaxIterationsExceeded,
    Sample,
    SparseCode,
    _CodeStore,
    _fit_sample,
    _require_finite,
    _require_int,
    _require_lambda,
    _residual,
)

DEFAULT_MAX_CYCLES = 100_000
_TINY = 1e-300
_finish_lock = threading.Lock()


@dataclass(frozen=True, eq=False)
class CDResult:
    """Outcome of one or more coordinate-descent cycles."""

    code: SparseCode
    residual: np.ndarray
    cycles_run: int


def soft_threshold(v: float, lam: float) -> float:
    """Shrink ``v`` toward zero by ``lam``; the dead zone [-lam, lam] maps to 0."""
    if v > lam:
        return v - lam
    if v < -lam:
        return v + lam
    return 0.0


def _cd_pass(cols, coords, z: list, r: np.ndarray, lam: float) -> float:
    """One coordinate-descent sweep over ``coords`` in the given order.

    ``cols[j]`` is atom j, ``z`` the code as a list of floats and ``r``
    the residual x - D z; both are updated in place.  Returns the
    largest absolute coordinate change of the sweep.
    """
    dot = r.dot
    max_delta = 0.0
    for j in coords:
        old = z[j]
        b = float(dot(cols[j])) + old
        if b > lam:
            new = b - lam
        elif b < -lam:
            new = b + lam
        elif old:
            new = 0.0
        else:
            continue  # a zero coordinate that stays in the dead zone
        if new != old:
            z[j] = new
            delta = new - old
            r -= delta * cols[j]
            if abs(delta) > max_delta:
                max_delta = abs(delta)
    return max_delta


def _as_list(code: SparseCode) -> list:
    z = [0.0] * code.m
    for j, v in zip(code.indices.tolist(), code.values.tolist()):
        z[j] = v
    return z


def _nonzero(z: list, coords) -> list:
    """The members of ``coords`` whose coordinate is nonzero, in order."""
    return [j for j in coords if z[j]]


def _code(z: list, support: list) -> SparseCode:
    """Code of ``z``, whose nonzeros are exactly the ascending ``support``."""
    return SparseCode._trusted(
        np.array(support, dtype=np.int64), np.array([z[j] for j in support], dtype=np.float64), len(z)
    )


def _cycle(D: Dictionary, z: SparseCode, x, ws: CDWorkspace, lam: float, coords) -> CDResult:
    _require_lambda(lam)
    _fit_sample(D, x, z)
    if ws.residual.size != D.p:
        raise DimensionMismatch(f"workspace residual length {ws.residual.size} != {D.p}")
    zl = _as_list(z)
    _cd_pass(D.columns, coords, zl, ws.residual, lam)
    return CDResult(_code(zl, _nonzero(zl, coords)), ws.residual.copy(), 1)


def cd_full_cycle(
    D: Dictionary, z: SparseCode, x: Union[Sample, np.ndarray], ws: CDWorkspace, lam: float
) -> CDResult:
    """One pass over all m coordinates.

    Requires ``ws.residual == x - D z`` on entry; leaves it consistent
    with the returned code on exit.
    """
    return _cycle(D, z, x, ws, lam, range(D.m))


def cd_support_cycle(
    D: Dictionary, z: SparseCode, x: Union[Sample, np.ndarray], ws: CDWorkspace, lam: float
) -> CDResult:
    """One pass restricted to the support of ``z``, snapshotted at entry.

    Coordinates may shrink to zero and leave the support; none may enter.
    """
    return _cycle(D, z, x, ws, lam, z.indices.tolist())


def encode_scc(
    D: Dictionary,
    z_init: SparseCode,
    x: Union[Sample, np.ndarray],
    lam: float,
    steps: int,
) -> CDResult:
    """Cheap encoder: one full pass, then ``steps - 1`` support passes.

    The full pass discovers the support from the warm start ``z_init``;
    the remaining passes refine values on that (possibly shrinking)
    support.  The residual is computed fresh from the inputs.  The
    passes run in the native kernel when it is loaded, else in
    ``_encode_py``; both give the same bits.
    """
    _require_lambda(lam)
    steps = _require_steps(steps)
    r = _residual(D, z_init, x)
    kernel = _native.kernel()
    code = _encode_py(D, z_init, r, lam, steps) if kernel is None else kernel.encode(
        D, z_init, r, lam, steps)
    return CDResult(code, r, steps)


def _encode_py(
    D: Dictionary, z_init: SparseCode, r: np.ndarray, lam: float, steps: int
) -> SparseCode:
    """``encode_scc``'s passes in Python; ``r`` = x - D z_init, updated in place."""
    z = _as_list(z_init)
    cols = D.columns
    _cd_pass(cols, range(D.m), z, r, lam)
    support = _nonzero(z, range(D.m))
    for _ in range(steps - 1):
        _cd_pass(cols, support, z, r, lam)
        support = _nonzero(z, support)  # support passes only ever remove coordinates
    return _code(z, support)


def _require_steps(steps: int) -> int:
    steps = _require_int("steps", steps)
    if steps < 1:
        raise ConfigInvalid(f"steps must be >= 1, got {steps}")
    return steps


def lasso_oracle_cd(
    D: Dictionary,
    x: Union[Sample, np.ndarray],
    lam: float,
    tol: float,
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> SparseCode:
    """Cyclic coordinate descent from zero, run to convergence.

    Stops when the largest coordinate change of a full pass drops below
    ``tol``; raises MaxIterationsExceeded after ``max_cycles`` passes,
    which signals an ill-conditioned instance.  This is
    ``lasso_oracle_cd_batch`` on the one-column matrix ``x``.
    """
    return lasso_oracle_cd_batch(D, _fit_sample(D, x)[:, None], lam, tol, max_cycles)[0]


def lasso_oracle_cd_batch(
    D: Dictionary,
    X: np.ndarray,
    lam: float,
    tol: float,
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> List[SparseCode]:
    """``lasso_oracle_cd`` for every column of ``X``.

    Each sample starts from zero, makes ascending full passes and stops
    after the first pass whose largest change is below ``tol``; raises
    MaxIterationsExceeded on the first sample still moving after
    ``max_cycles`` passes, and NonFinite if ``X`` holds NaN or Inf.
    The codes are views of one ``_oracle_cold`` store.
    """
    return _oracle_cold(D, X, lam, tol, max_cycles).codes()


def _oracle_cold(
    D: Dictionary, X: np.ndarray, lam: float, tol: float, max_cycles: int = DEFAULT_MAX_CYCLES
) -> _CodeStore:
    """``lasso_oracle_cd_batch``'s codes in sample order, in one store.

    They come from one native kernel call (and one more each time the
    store grows) when the kernel is loaded, else from ``_oracle_py``;
    both give the same bits.
    """
    _require_lambda(lam)
    if not tol > 0:
        raise ConfigInvalid(f"tol must be > 0, got {tol}")
    max_cycles = _require_int("max_cycles", max_cycles)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != D.p:
        raise DimensionMismatch(f"samples of shape {X.shape} do not have {D.p} rows")
    _require_finite(X)
    X = np.asfortranarray(X)
    kernel = _native.kernel()
    n = X.shape[1]
    store = _CodeStore(D.m, n, n + D.m)
    failed = (_oracle_py if kernel is None else kernel.oracle)(D, X, lam, tol, max_cycles, store)
    if failed is not None:
        raise MaxIterationsExceeded(f"coordinate descent did not converge in {max_cycles} cycles")
    return store


def _oracle_py(D: Dictionary, X: np.ndarray, lam: float, tol: float, passes: int,
               store: _CodeStore):
    """``_oracle_cold``'s codes in Python: ``_finish`` on each column from zero.

    Returns None once every code is in ``store``, else (i, z, r) of the
    first sample i that ``passes`` passes do not settle, as they left it.
    """
    for i in range(X.shape[1]):
        z, r = [0.0] * D.m, np.array(X[:, i])  # the zero code and its residual
        code = _finish(D.columns, z, r, lam, tol, passes)
        if code is None:
            return i, np.array(z), r
        store.put(i, code)
    return None


def _finish(cols, z: list, r: np.ndarray, lam: float, tol: float, passes: int):
    """Full passes on ``z`` and ``r`` (in place) until the largest change is below
    ``tol``: the code, or None if ``passes`` passes do not get there.

    Runs in one thread at a time.  Each ``r.dot`` releases the GIL, and
    threads that handed it over on every coordinate visit took twice the
    serial time (four threads, p=32, m=64, 2-vCPU x86-64 guest).  The
    passes need the GIL between those calls anyway, so running them one
    at a time costs no parallelism.
    """
    coords = range(len(z))
    with _finish_lock:
        for _ in range(passes):
            if _cd_pass(cols, coords, z, r, lam) < tol:
                return _code(z, _nonzero(z, coords))
    return None


def lasso_oracle_prox(
    D: Dictionary,
    x: Union[Sample, np.ndarray],
    lam: float,
    tol: float,
    max_iters: int = DEFAULT_MAX_CYCLES,
) -> SparseCode:
    """Accelerated proximal-gradient solver, independent of the CD path.

    Steps with 1/L where L is the top eigenvalue of the Gram matrix,
    the squared spectral norm of D inflated by a hair so that rounding
    never leaves it below the true constant, and stops once the relative
    change of the objective falls below ``tol``.  Near-zero iterate
    entries are pruned at the documented cutoff.
    """
    _require_lambda(lam)
    if not tol > 0:
        raise ConfigInvalid(f"tol must be > 0, got {tol}")
    xv = _fit_sample(D, x)
    _require_finite(xv[:, None])
    atoms = D.atoms
    L = np.linalg.norm(atoms, 2) ** 2 * (1.0 + 1e-6)
    if L <= 0.0:
        # all-zero dictionary: the penalty alone decides, optimum is 0
        return SparseCode.zero(D.m)
    step = 1.0 / L
    thr = lam * step
    z = np.zeros(D.m)
    y = z.copy()
    t = 1.0
    f_prev = _objective_dense(atoms, z, xv, lam)
    for _ in range(max_iters):
        grad = atoms.T @ (atoms @ y - xv)
        w = y - step * grad
        z_new = np.sign(w) * np.maximum(np.abs(w) - thr, 0.0)
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = z_new + ((t - 1.0) / t_new) * (z_new - z)
        z, t = z_new, t_new
        f = _objective_dense(atoms, z, xv, lam)
        if abs(f_prev - f) <= tol * max(f_prev, _TINY):
            return SparseCode.from_dense(z, prune_tol=DEFAULT_PRUNE_TOL)
        f_prev = f
    raise MaxIterationsExceeded(f"proximal gradient did not converge in {max_iters} iterations")


def _objective_dense(atoms: np.ndarray, z: np.ndarray, x: np.ndarray, lam: float) -> float:
    r = atoms @ z - x
    return 0.5 * float(r @ r) + lam * float(np.abs(z).sum())

