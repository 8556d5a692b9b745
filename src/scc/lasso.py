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

One encoder codes every sample: full passes until one changes no
coordinate by ``tol`` or more, at most ``full`` of them, then
``steps - 1`` support passes.  The cheap encoder is ``tol`` 0, ``full``
1; the CD oracle a positive ``tol``, ``full`` ``max_cycles``, ``steps``
1.  ``encode_scc`` solves one sample in one ``encode`` call of the
engine that ``_native.kernel()`` returns: the native kernel when it
loads, otherwise the Python reference loop ``_encode_py`` over
``_cd_pass``; both give the same bits.

A stochastic epoch of the trainers is one ``epoch`` call of that engine:
the kernel's, or ``_epoch_py``, which gives the same bits.
``_encode_cold`` codes a whole matrix from zero into one
``core._CodeStore`` as such an epoch that moves no atom: cheaply for
``scc encode --mode scc:S``, or to a tolerance in ``_oracle_cold``,
behind the CD oracle, ``batch_train`` and ``scc encode --mode oracle``.
``cd_full_cycle`` and ``cd_support_cycle`` always run ``_cd_pass``.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from . import _native
from .core import (
    CDWorkspace,
    ConfigInvalid,
    DEFAULT_PRUNE_TOL,
    Dictionary,
    DimensionMismatch,
    HessianDiag,
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
from .dictionary import _adaptive_steps, _sgd_inplace, hessian_accumulate

DEFAULT_MAX_CYCLES = 100_000
_TINY = 1e-300
_passes_lock = threading.Lock()


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
    passes run in the engine of ``_native.kernel()``: the native kernel
    when it is loaded, else ``_encode_py``; both give the same bits.
    """
    _require_lambda(lam)
    steps = _require_count("steps", steps)
    r = _residual(D, z_init, x)
    return CDResult(_native.kernel().encode(D, z_init, r, lam, steps), r, steps)


def _encode_py(
    D: Dictionary, z_init: SparseCode, r: np.ndarray, lam: float, steps: int,
    tol: float = 0.0, full: int = 1,
):
    """The encoder's passes in Python; ``r`` = x - D z_init, updated in place.

    Full passes until one changes no coordinate by ``tol`` or more, at
    most ``full`` of them, then ``steps - 1`` support passes.  Returns the
    code, or None when ``tol`` > 0 and the last full pass still moved a
    coordinate by ``tol`` or more; with ``tol`` 0 and ``full`` 1 (the
    cheap encoder) it makes exactly one full pass and never returns None.

    The passes run in one thread at a time.  Each ``r.dot`` releases the
    GIL, and threads that handed it over on every coordinate visit took
    twice the serial time (four threads, p=32, m=64, 2-vCPU x86-64
    guest).  The passes need the GIL between those calls anyway, so
    running them one at a time costs no parallelism.
    """
    z = _as_list(z_init)
    cols = D.columns
    coords = range(D.m)
    with _passes_lock:
        for _ in range(full):
            if _cd_pass(cols, coords, z, r, lam) < tol:
                break
        else:
            if tol > 0:
                return None
        support = _nonzero(z, coords)
        for _ in range(steps - 1):
            _cd_pass(cols, support, z, r, lam)
            support = _nonzero(z, support)  # support passes only ever remove coordinates
    return _code(z, support)


def _not_converged(full: int) -> MaxIterationsExceeded:
    return MaxIterationsExceeded(f"coordinate descent did not converge in {full} cycles")


def _epoch_py(
    D: Dictionary, X: np.ndarray, order: np.ndarray, lam: float, steps: int,
    old: _CodeStore, new: _CodeStore, rate, tol: float = 0.0, full: int = 1,
) -> Tuple[float, float]:
    """One stochastic epoch in Python; returns the code and dictionary phase times.

    Visits the samples (columns of ``X``) in ``order``.  Each visit
    encodes the sample with ``_encode_py``'s passes (``tol``, ``full``,
    ``steps``), warm-started from its code in ``old``, puts the code into
    ``new``, and moves the supported atoms of ``D`` in place by the steps
    of ``rate``: z_j / h_jj after folding the code into the curvature
    ``HessianDiag``, or a/(t+b) * z_j from the
    ``trainer.NaturalRateSchedule``, whose t counts every visit, empty
    codes too.  Raises ZeroCurvature before a step with a cell that is
    not positive, and MaxIterationsExceeded at a visit whose full passes
    do not settle.  With ``rate`` None the dictionary is held fixed: the
    epoch only codes.  The kernel's ``epoch`` gives the same bits.
    """
    t_code = 0.0
    t_dict = 0.0
    cols = D.columns
    adaptive = isinstance(rate, HessianDiag)
    for i in order.tolist():
        t0 = time.perf_counter()
        z_init = old.code(i)
        r = _residual(D, z_init, X[:, i])
        code = _encode_py(D, z_init, r, lam, steps, tol, full)
        if code is None:
            raise _not_converged(full)
        new.put(i, code)
        t1 = time.perf_counter()
        t_code += t1 - t0
        if rate is None:
            continue
        if adaptive:
            step = _adaptive_steps(hessian_accumulate(rate, code), code)
        else:
            step = rate.next_rate() * code.values
        _sgd_inplace(cols, code.indices, step, r)
        t_dict += time.perf_counter() - t1
    return t_code, t_dict


def _encode_cold(
    D: Dictionary, X: np.ndarray, lam: float, steps: int, tol: float = 0.0, full: int = 1,
    capacity: Optional[int] = None,
) -> _CodeStore:
    """The codes of every column of ``X`` from the zero code, into one store in sample order.

    They are one epoch in sample order from the zero codes that moves no
    atom, one ``epoch`` call of the engine of ``_native.kernel()``.  With
    the default ``tol`` and ``full`` they have the bits of per-sample
    ``encode_scc`` calls; ``_oracle_cold`` passes its tolerance and cap.
    The store starts with room for ``capacity`` entries (n + m by
    default) and grows as needed; the capacity never changes a bit.
    """
    _require_lambda(lam)
    steps = _require_count("steps", steps)
    X = np.asfortranarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != D.p:
        raise DimensionMismatch(f"sample of shape {X.shape[:1]} does not fit atoms of length {D.p}")
    m, n = D.m, X.shape[1]
    store = _CodeStore(m, n, n + m if capacity is None else capacity)
    _native.kernel().epoch(D, X, np.arange(n, dtype=np.int64), lam, steps, _CodeStore(m, n, 0),
                           store, None, tol, full)
    return store


def _require_count(name: str, value) -> int:
    """``value`` as an int >= 1: a number of passes or an iteration cap."""
    value = _require_int(name, value)
    if value < 1:
        raise ConfigInvalid(f"{name} must be >= 1, got {value}")
    return value


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
    D: Dictionary, X: np.ndarray, lam: float, tol: float, max_cycles: int = DEFAULT_MAX_CYCLES,
    capacity: Optional[int] = None,
) -> _CodeStore:
    """``lasso_oracle_cd_batch``'s codes in sample order, in one store.

    They are ``_encode_cold``'s, with full passes to ``tol``, at most
    ``max_cycles`` of them, and no support pass, into a store that starts
    with room for ``capacity`` entries.
    """
    _require_lambda(lam)
    if not tol > 0:
        raise ConfigInvalid(f"tol must be > 0, got {tol}")
    max_cycles = _require_count("max_cycles", max_cycles)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != D.p:
        raise DimensionMismatch(f"samples of shape {X.shape} do not have {D.p} rows")
    _require_finite(X)
    return _encode_cold(D, X, lam, 1, tol, max_cycles, capacity)


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
    max_iters = _require_count("max_iters", max_iters)
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

