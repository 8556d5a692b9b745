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
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .core import (
    ConfigInvalid,
    DataSet,
    Dictionary,
    DimensionMismatch,
    HessianDiag,
    SparseCode,
    ZeroCurvature,
    _CodeStore,
    _fit_sample,
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


def _dense_codes(codes: Sequence[SparseCode], m: int) -> np.ndarray:
    for i, c in enumerate(codes):
        if c.m != m:
            raise DimensionMismatch(f"code {i} has ambient {c.m}, expected {m}")
    return _CodeStore.of(codes, m).dense()


def _gradient_step_dense(atoms: np.ndarray, Z: np.ndarray, X: np.ndarray, eta: float) -> np.ndarray:
    """Averaged-gradient step followed by per-column ball projection."""
    n = Z.shape[1]
    R = atoms @ Z - X
    G = (R @ Z.T) / n
    out = atoms - eta * G
    norms = np.sqrt((out * out).sum(axis=0))
    mask = norms > 1.0
    if mask.any():
        out[:, mask] /= norms[mask]
    return out


def _quadratic_term(atoms: np.ndarray, Z: np.ndarray, X: np.ndarray) -> float:
    R = atoms @ Z - X
    return 0.5 * float((R * R).sum()) / Z.shape[1]


def full_gradient_step(
    D: Dictionary, codes: Sequence[SparseCode], ds: DataSet, eta: float
) -> Dictionary:
    """One full-batch gradient step at rate ``eta``, columns projected."""
    if not eta > 0:
        raise ConfigInvalid(f"eta must be > 0, got {eta}")
    if len(codes) != ds.n:
        raise DimensionMismatch(f"{len(codes)} codes for {ds.n} samples")
    if ds.p != D.p:
        raise DimensionMismatch(f"data dimension {ds.p} != atom length {D.p}")
    Z = _dense_codes(codes, D.m)
    return Dictionary(_gradient_step_dense(D.atoms, Z, ds.X, eta))
