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

Two routines code a sample.  The cheap encoder, ``_encode_py``, makes
a fixed number of passes: ``full`` (0 or 1) full passes, then ``steps -
1`` support passes.  The CD oracle, ``_oracle_py``, makes full passes
until one changes no coordinate by ``tol`` or more, and after each full
pass that does, passes over its nonzeros alone (the working set, as in
the active-set cycles of Friedman, Hastie and Tibshirani's glmnet) until
one of them changes none by ``tol`` or more.  Every pass spends its one
budget, ``max_cycles``.  Most of the oracle's visits then go to the
coordinates that move.  ``encode_scc`` solves one sample in one
``encode`` call of the engine that ``_native.kernel()`` returns: the
native kernel when it loads, otherwise the Python reference loop
``_encode_py`` over ``_cd_pass``; both give the same bits.  So do
``cd_full_cycle`` (one full pass, no support pass) and
``cd_support_cycle`` (one support pass).

A stochastic epoch of the trainers is one ``epoch`` call of that engine:
the kernel's, or ``_epoch_py``, which gives the same bits.  It codes each
sample with the oracle when its ``tol`` is positive, and otherwise with
the cheap encoder's one full pass.  ``_encode_frozen`` codes a whole
matrix into one ``core._CodeStore`` as such an epoch that moves no atom:
cheaply from zero for ``scc encode --mode scc:S``, or with the CD oracle,
from zero for ``lasso_oracle_cd(_batch)`` and ``scc encode --mode
oracle``, and from the last epoch's codes in ``batch_train``.
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
    NonFinite,
    Sample,
    SparseCode,
    _CodeStore,
    _fit_sample,
    _minus_code,
    _require_count,
    _require_finite,
    _require_positive,
)
from .dictionary import _adaptive_steps, _sgd_inplace, hessian_accumulate

DEFAULT_MAX_CYCLES = 100_000
ORACLE_TOL = 1e-10  # the CD oracle's stop in batch_train and scc encode --mode oracle
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


def _encode_one(
    D: Dictionary, z: SparseCode, x, ws: Optional[CDWorkspace], lam: float, full: int, steps: int
) -> CDResult:
    """The checked path of ``encode_scc`` and the cycles: ``full`` full and ``steps - 1``
    support passes from ``z`` in the engine, on ``ws.residual`` in place (its layout is
    ``CDWorkspace``'s rule), or with ``ws`` None on a fresh x - D z."""
    _require_positive("lambda", lam)
    steps = _require_count("steps", steps)
    v = _fit_sample(D, x, z)
    if ws is None:  # a fresh residual, which has the layout the engine takes
        r = _minus_code(D, z, v)
    else:
        r = ws.residual
        if np.size(r) != D.p:
            raise DimensionMismatch(f"workspace residual length {np.size(r)} != {D.p}")
        if not (isinstance(r, np.ndarray) and r.ndim == 1 and r.dtype == np.float64
                and r.flags.c_contiguous and r.flags.writeable):
            raise ConfigInvalid("workspace residual must be a writable, C-contiguous float64 "
                                "vector")
    if not math.isfinite(v.dot(v)):  # a NaN or Inf in v, or a square norm that overflows
        _require_finite(v[:, None])
    if not (math.isfinite(r.dot(r)) or np.isfinite(r).all()):
        raise NonFinite("residual x - D z contains NaN or Inf")
    code = _native.kernel().encode(D, z, r, lam, full, steps)
    return CDResult(code, r if ws is None else r.copy(), full + steps - 1)


def cd_full_cycle(
    D: Dictionary, z: SparseCode, x: Union[Sample, np.ndarray], ws: CDWorkspace, lam: float
) -> CDResult:
    """One pass over all m coordinates.

    Requires ``ws.residual == x - D z`` on entry; leaves it consistent
    with the returned code on exit.
    """
    return _encode_one(D, z, x, ws, lam, 1, 1)


def cd_support_cycle(
    D: Dictionary, z: SparseCode, x: Union[Sample, np.ndarray], ws: CDWorkspace, lam: float
) -> CDResult:
    """One pass restricted to the support of ``z``, snapshotted at entry.

    Coordinates may shrink to zero and leave the support; none may enter.
    """
    return _encode_one(D, z, x, ws, lam, 0, 2)


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
    return _encode_one(D, z_init, x, None, lam, 1, steps)


def _encode_py(
    D: Dictionary, z_init: SparseCode, r: np.ndarray, lam: float, full: int, steps: int
) -> SparseCode:
    """The cheap encoder's passes in Python; ``r`` = x - D z_init, updated in place.

    ``full`` (0 or 1) full passes, then ``steps - 1`` support passes over
    the nonzeros that they leave (with ``full`` 0, those of ``z_init``).

    The passes run in one thread at a time, as the oracle's do.  Each
    ``r.dot`` releases the GIL, and threads that handed it over on every
    coordinate visit took twice the serial time (four threads, p=32,
    m=64, 2-vCPU x86-64 guest).  The passes need the GIL between those
    calls anyway, so running them one at a time costs no parallelism.
    """
    z = z_init.to_dense().tolist()
    cols = D.columns
    coords = range(D.m)
    with _passes_lock:
        for _ in range(full):
            _cd_pass(cols, coords, z, r, lam)
        support = [j for j in coords if z[j]]
        for _ in range(steps - 1):
            _cd_pass(cols, support, z, r, lam)
            support = [j for j in support if z[j]]  # support passes only ever remove coordinates
    return _code(z, support, D.m)


def _oracle_py(
    D: Dictionary, z_init: SparseCode, r: np.ndarray, lam: float, tol: float, max_cycles: int
) -> Optional[SparseCode]:
    """The CD oracle's passes in Python; ``r`` = x - D z_init, updated in place.

    Full passes until one changes no coordinate by ``tol`` (> 0) or more;
    after each full pass that does, passes over its nonzeros, the working
    set, until one changes none by ``tol`` or more.  Every pass, full or
    over the working set, counts against the budget ``max_cycles``.
    Returns the code, or None when the budget ran out before a full pass
    settled.  The passes hold ``_encode_py``'s lock.
    """
    z = z_init.to_dense().tolist()
    cols = D.columns
    coords = range(D.m)
    passes = 0
    with _passes_lock:
        while passes < max_cycles:
            passes += 1
            if _cd_pass(cols, coords, z, r, lam) < tol:
                return _code(z, [j for j in coords if z[j]], D.m)
            work = [j for j in coords if z[j]]
            while passes < max_cycles:
                passes += 1  # a working-set pass spends the budget too
                if _cd_pass(cols, work, z, r, lam) < tol:
                    break
    return None


def _code(z: list, support: list, m: int) -> SparseCode:
    """The code of the dense ``z`` (a list) on its ascending ``support``."""
    return SparseCode._trusted(np.array(support, dtype=np.int64),
                               np.array([z[j] for j in support], dtype=np.float64), m)


def _not_converged(max_cycles: int) -> MaxIterationsExceeded:
    return MaxIterationsExceeded(f"coordinate descent did not converge in {max_cycles} cycles")


def _epoch_py(
    D: Dictionary, X: np.ndarray, order: np.ndarray, lam: float, steps: int,
    old: _CodeStore, new: _CodeStore, rate, tol: float = 0.0, max_cycles: int = 1,
) -> Tuple[float, float]:
    """One stochastic epoch in Python; returns the code and dictionary phase times.

    Visits the samples (columns of ``X``) in ``order``.  Each visit
    codes the sample, warm-started from its code in ``old``, with
    ``_oracle_py`` (``tol``, ``max_cycles``) when ``tol`` > 0, else with
    ``_encode_py``'s one full pass and ``steps - 1`` support passes.  It
    puts the code into ``new``, and moves the supported atoms of ``D``
    in place by the steps of ``rate``: z_j / h_jj after folding the code
    into the curvature ``HessianDiag``, or a/(t+b) * z_j from the
    ``NaturalRateSchedule``, whose t counts every visit, empty codes
    too.  Raises ZeroCurvature before a step with a cell that is not
    positive, and MaxIterationsExceeded at a visit whose oracle passes
    run out of budget.  With ``rate`` None the dictionary is held fixed:
    the epoch only codes.  The kernel's ``epoch`` gives the same bits.
    """
    t_code = 0.0
    t_dict = 0.0
    cols = D.columns
    adaptive = isinstance(rate, HessianDiag)
    for i in order.tolist():
        t0 = time.perf_counter()
        z_init = old.code(i)
        r = _minus_code(D, z_init, X[:, i])
        if tol > 0:
            code = _oracle_py(D, z_init, r, lam, tol, max_cycles)
            if code is None:
                raise _not_converged(max_cycles)
        else:
            code = _encode_py(D, z_init, r, lam, 1, steps)
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


def _encode_frozen(
    D: Dictionary, X: np.ndarray, lam: float, steps: int, tol: float = 0.0,
    max_cycles: int = 1, start: Optional[_CodeStore] = None,
) -> _CodeStore:
    """The codes of every column of ``X`` under ``D`` held fixed, into one store in sample order.

    They are one epoch in sample order that moves no atom, one ``epoch``
    call of the engine of ``_native.kernel()``, warm-started from the
    codes in ``start``, or from zero when it is None.  From zero, with
    the default ``tol``, they have the bits of per-sample ``encode_scc``
    calls; with ``tol`` > 0 they are the CD oracle's, on the pass budget
    ``max_cycles``, which makes no support pass (its callers pass
    ``steps`` 1).  NonFinite if ``X`` holds NaN or Inf.  The store
    starts with room for m more entries than the larger of n and the
    entries of ``start``, and grows as needed; the capacity never
    changes a bit.
    """
    _require_positive("lambda", lam)
    steps = _require_count("steps", steps)
    max_cycles = _require_count("max_cycles", max_cycles)
    X = np.asfortranarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != D.p:
        raise DimensionMismatch(f"sample of shape {X.shape[:1]} does not fit atoms of length {D.p}")
    _require_finite(X)
    m, n = D.m, X.shape[1]
    if start is None:
        start = _CodeStore(m, n, 0)
    store = _CodeStore(m, n, max(start.used, n) + m)
    _native.kernel().epoch(D, X, np.arange(n, dtype=np.int64), lam, steps, start, store, None,
                           tol, max_cycles)
    return store


def lasso_oracle_cd(
    D: Dictionary,
    x: Union[Sample, np.ndarray],
    lam: float,
    tol: float,
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> SparseCode:
    """Cyclic coordinate descent from zero, run to convergence.

    Stops when the largest coordinate change of a full pass drops below
    ``tol``; after each full pass that does not stop it, passes over the
    nonzeros alone settle them first.  Raises MaxIterationsExceeded
    after ``max_cycles`` passes, full or over the nonzeros, without a
    full pass that stops it, which signals an ill-conditioned instance.
    This is ``lasso_oracle_cd_batch`` on the one-column matrix ``x``.
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
    after the first full pass whose largest change is below ``tol``;
    after each full pass that is not, ascending passes over its nonzeros
    run until one's largest change is below ``tol``.  Raises
    MaxIterationsExceeded on the first sample that has not stopped after
    ``max_cycles`` passes of either kind, and NonFinite if ``X`` holds
    NaN or Inf.  The codes are views of one ``_encode_frozen`` store:
    passes to ``tol`` on a budget of ``max_cycles``, and no support pass.
    They match plain full-pass descent to the same ``tol`` in support,
    and in value as far as that stop leaves either short of the optimum
    (tests/test_lasso.py states the bounds).
    """
    _require_positive("tol", tol)
    return _encode_frozen(D, X, lam, 1, tol, max_cycles).codes()


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
    _require_positive("lambda", lam)
    _require_positive("tol", tol)
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

