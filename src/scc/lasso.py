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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import (
    CDWorkspace,
    ConfigInvalid,
    DEFAULT_PRUNE_TOL,
    Dictionary,
    DimensionMismatch,
    MaxIterationsExceeded,
    Sample,
    SparseCode,
    as_vector,
)

DEFAULT_MAX_CYCLES = 100_000
_TINY = 1e-300


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


def _check_sample(D: Dictionary, x, z: Union[SparseCode, None] = None) -> np.ndarray:
    """Return the vector of sample ``x``; it must fit ``D``, and so must ``z``."""
    xv = as_vector(x)
    if xv.size != D.p:
        raise DimensionMismatch(f"sample length {xv.size} != atom length {D.p}")
    if z is not None and z.m != D.m:
        raise DimensionMismatch(f"code ambient {z.m} != atom count {D.m}")
    return xv


def _cycle(D: Dictionary, z: SparseCode, x, ws: CDWorkspace, lam: float, coords) -> CDResult:
    _check_sample(D, x, z)
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
    support.  The residual is computed fresh from the inputs.
    """
    if steps < 1:
        raise ConfigInvalid(f"steps must be >= 1, got {steps}")
    xv = _check_sample(D, x, z_init)
    r = xv.astype(np.float64, copy=True)
    if z_init.nnz:
        r -= D.atoms[:, z_init.indices] @ z_init.values
    z = _as_list(z_init)
    cols = D.columns
    _cd_pass(cols, range(D.m), z, r, lam)
    support = _nonzero(z, range(D.m))
    for _ in range(steps - 1):
        _cd_pass(cols, support, z, r, lam)
        support = _nonzero(z, support)  # support passes only ever remove coordinates
    return CDResult(_code(z, support), r, steps)


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
    which signals an ill-conditioned instance.
    """
    if not tol > 0:
        raise ConfigInvalid(f"tol must be > 0, got {tol}")
    xv = _check_sample(D, x)
    z = [0.0] * D.m
    r = xv.astype(np.float64, copy=True)
    cols = D.columns
    for _ in range(max_cycles):
        if _cd_pass(cols, range(D.m), z, r, lam) < tol:
            return _code(z, _nonzero(z, range(D.m)))
    raise MaxIterationsExceeded(f"coordinate descent did not converge in {max_cycles} cycles")


def lasso_oracle_prox(
    D: Dictionary,
    x: Union[Sample, np.ndarray],
    lam: float,
    tol: float,
    max_iters: int = DEFAULT_MAX_CYCLES,
) -> SparseCode:
    """Accelerated proximal-gradient solver, independent of the CD path.

    Steps with 1/L where L is the top eigenvalue of the Gram matrix
    (estimated by power iteration), and stops once the relative change
    of the objective falls below ``tol``.  Near-zero iterate entries are
    pruned at the documented cutoff.
    """
    if not tol > 0:
        raise ConfigInvalid(f"tol must be > 0, got {tol}")
    xv = _check_sample(D, x)
    atoms = D.atoms
    L = _lipschitz_constant(atoms)
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


def _lipschitz_constant(atoms: np.ndarray, tol: float = 1e-13, max_iters: int = 10_000) -> float:
    """Top eigenvalue of atoms^T atoms by power iteration.

    Falls back to the Frobenius bound if the deterministic start vectors
    are annihilated (possible only for contrived rank patterns).  The
    returned value is inflated by a hair so it never undershoots the
    true constant.
    """
    m = atoms.shape[1]
    starts = (
        np.full(m, 1.0 / math.sqrt(m)),
        np.linspace(1.0, 2.0, m) / np.linalg.norm(np.linspace(1.0, 2.0, m)),
    )
    for v in starts:
        v = v.copy()
        lam_prev = -1.0
        lam_est = 0.0
        dead = False
        for _ in range(max_iters):
            u = atoms @ v
            lam_est = float(u @ u)  # Rayleigh quotient of the Gram matrix at unit v
            w = atoms.T @ u
            nw = float(np.linalg.norm(w))
            if nw == 0.0:
                dead = lam_est == 0.0
                break
            v = w / nw
            if abs(lam_est - lam_prev) <= tol * max(lam_est, 1.0):
                break
            lam_prev = lam_est
        if not dead:
            return lam_est * (1.0 + 1e-6)
    total = float((atoms * atoms).sum())
    return total * (1.0 + 1e-6)
