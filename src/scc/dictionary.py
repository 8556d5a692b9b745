"""Dictionary-side updates.

The stochastic update touches only the atoms that the current code
actually uses: for each supported coordinate j the atom moves against
the single-sample gradient z_j (D z - x) with the per-atom rate
1 / h_jj, where h_jj is the accumulated squared code mass, and is then
projected back onto the unit ball.  A full-batch averaged gradient step
is provided as the classical baseline.

The public update functions are pure (they return a fresh Dictionary
and never touch their input); the trainers' Python epoch reaches for
the in-place ``_sgd_inplace`` so that the cost of one stochastic update
stays proportional to the support size, not to the dictionary size.  It
takes one step per supported atom, so both rate schedules share it: the
adaptive rule passes z_j / h_jj and the natural rule a/(t+b) * z_j.
The native kernel's epoch makes the same step (see ``_native``).
``batch_train``'s backtracking full-gradient loop is ``_dense_py``, the
``dense`` entry of the Python loops; the kernel's ``dense`` gives the
same bits.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import (
    DataSet,
    Dictionary,
    DimensionMismatch,
    HessianDiag,
    SparseCode,
    ZeroCurvature,
    _fit_codes,
    _fit_sample,
    _require_int,
    _require_positive,
)


def project_unit_ball(d: np.ndarray) -> np.ndarray:
    """Return ``d`` unchanged if ||d|| <= 1, else d scaled onto the sphere."""
    v = np.asarray(d, dtype=np.float64)
    nrm = float(np.linalg.norm(v))
    if nrm <= 1.0:
        return v
    return v / nrm


def hessian_accumulate(H: HessianDiag, z: SparseCode) -> HessianDiag:
    """Add z_j^2 into cell j for every supported coordinate; in place."""
    if H.m != z.m:
        raise DimensionMismatch(f"curvature length {H.m} != code ambient {z.m}")
    if z.nnz:
        H.diag[z.indices] += z.values * z.values
    return H


def _no_curvature(j: int) -> ZeroCurvature:
    return ZeroCurvature(f"column {j} has no accumulated curvature")


def learning_rate(H: HessianDiag, j: int) -> float:
    """Adaptive rate 1 / h_jj; the cell must have been accumulated first."""
    j = _require_int("column", j)
    if not 0 <= j < H.m:
        raise DimensionMismatch(f"column {j} out of range for {H.m} atoms")
    h = float(H.diag[j])
    if h <= 0.0:
        raise _no_curvature(j)
    return 1.0 / h


def _adaptive_steps(H: HessianDiag, z: SparseCode) -> np.ndarray:
    """Steps z_j / h_jj of the adaptive rule; ``H`` must already include ``z``.

    Raises ZeroCurvature for the first supported cell that is not
    positive, before any atom has moved.
    """
    h = H.diag[z.indices]
    if min(h.tolist(), default=1.0) <= 0.0:
        raise _no_curvature(int(z.indices[np.argmax(h <= 0.0)]))
    return z.values / h


def _sgd_inplace(
    cols: Sequence[np.ndarray], indices: np.ndarray, steps: np.ndarray, residual: np.ndarray
) -> None:
    """Support-restricted stochastic step, in place.

    ``cols[j]`` is a writable view of atom j and ``residual`` is x - D z,
    so atom ``indices[k]`` gains ``steps[k] * residual`` and is then
    projected back onto the unit ball.
    """
    for j, step in zip(indices.tolist(), steps.tolist()):
        col = cols[j]
        col += step * residual
        n2 = float(col @ col)
        if n2 > 1.0:
            col /= math.sqrt(n2)


def sgd_update_support(
    D: Dictionary, z: SparseCode, residual_neg: np.ndarray, H: HessianDiag
) -> Dictionary:
    """One stochastic dictionary update restricted to the support of ``z``.

    ``residual_neg`` must equal D z - x for the sample being absorbed,
    and ``H`` must already include this code (so every supported cell is
    positive).  The gradient point is fixed for the whole sweep: every
    touched column sees the same ``residual_neg``.  Columns outside the
    support come back bit-identical.
    """
    rv = _fit_sample(D, residual_neg, z)
    if H.m != D.m:
        raise DimensionMismatch(f"curvature length {H.m} != atom count {D.m}")
    steps = _adaptive_steps(H, z)
    atoms = D.atoms.copy(order="F")
    _sgd_inplace(list(atoms.T), z.indices, steps, -rv)
    return Dictionary(atoms)


def _gradient(atoms: np.ndarray, Z: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The averaged gradient (D Z - X) Z^T / n of the quadratic term."""
    R = atoms @ Z - X
    return (R @ Z.T) / Z.shape[1]


def _step(atoms: np.ndarray, G: np.ndarray, eta: float) -> np.ndarray:
    """``atoms - eta * G``, each column then projected onto the unit ball."""
    out = atoms - eta * G
    norms = np.sqrt((out * out).sum(axis=0))
    mask = norms > 1.0
    if mask.any():
        out[:, mask] /= norms[mask]
    return out


def _gradient_step_dense(atoms: np.ndarray, Z: np.ndarray, X: np.ndarray, eta: float) -> np.ndarray:
    """Averaged-gradient step followed by per-column ball projection."""
    return _step(atoms, _gradient(atoms, Z, X), eta)


def _quadratic_term(atoms: np.ndarray, Z: np.ndarray, X: np.ndarray) -> float:
    R = atoms @ Z - X
    return 0.5 * float((R * R).sum()) / Z.shape[1]


def _dense_py(atoms: np.ndarray, Z: np.ndarray, X: np.ndarray, attempts: int) -> int:
    """``batch_train``'s backtracking dictionary step, in place on ``atoms``.

    Each of at most ``attempts`` tries ``_gradient_step_dense`` at rate
    ``eta`` (1 at first) and accepts the candidate when the quadratic
    term does not grow; an accepted candidate equal to ``atoms`` is
    stationary for the codes ``Z`` and ends the loop.  A rejected one
    halves ``eta``; the atoms have not moved, so the gradient is reused.
    Returns the number of steps accepted.  The kernel's ``dense`` gives
    the same bits.
    """
    eta = 1.0
    quad = _quadratic_term(atoms, Z, X)
    G = None  # the gradient at atoms, taken again only once they move
    accepted = 0
    for _ in range(attempts):
        if G is None:
            G = _gradient(atoms, Z, X)
        candidate = _step(atoms, G, eta)
        quad_new = _quadratic_term(candidate, Z, X)
        if quad_new <= quad:
            if np.array_equal(candidate, atoms):
                break  # stationary for these codes
            atoms[:] = candidate
            quad = quad_new
            accepted += 1
            G = None
        else:
            eta *= 0.5
    return accepted


def full_gradient_step(
    D: Dictionary, codes: Sequence[SparseCode], ds: DataSet, eta: float
) -> Dictionary:
    """One full-batch gradient step at rate ``eta``, columns projected; Empty for no samples."""
    _require_positive("eta", eta)
    Z = _fit_codes(D, codes, ds).dense()
    return Dictionary(_gradient_step_dense(D.atoms, Z, ds.X, eta))
