"""Training loops.

``scc_train`` is the cheap stochastic loop: per sample it refreshes the
code with a few coordinate-descent passes (warm-started from the
previous epoch), folds the squared code into the curvature accumulator,
and nudges only the supported atoms with per-atom rates 1/h_jj.  The
dictionary flows continuously across epochs and the curvature is never
reset.

``natural_rate_train`` is the same loop with the scalar schedule
a/(t+b) instead of the adaptive rates, and ``batch_train`` is the
classical alternation (exact codes, then backtracking full-gradient
steps), which serves as the quality reference.

All three are deterministic given (data, config): randomness comes only
from the config seed, and the recorded wall times are the one exception
to bit-reproducibility.  Those times cover the code and dictionary
phases only; the end-of-epoch objective evaluation falls outside both.

A stochastic epoch is one call of ``_epoch_py`` or, when the native
kernel loads (see ``_native``), of the kernel's ``epoch``, which gives
the same bits in one foreign call.  Either reads the previous epoch's
codes from one compact ``core._CodeStore`` and writes the new codes to
another, so memory grows with the number of nonzeros, never with m x n;
``TrainResult.codes`` are views of the last store.  ``_encode_cold``,
behind ``scc encode --mode scc:S``, is one such epoch in sample order
from the zero codes, with the dictionary held fixed.  ``batch_train``'s
code phase is one ``lasso._oracle_cold`` store per epoch, one kernel
call when the kernel loads; its dense code matrix and its objective are
read from that store.  Every trainer's per-epoch objective comes from
``metrics._objective``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from . import _native
from .core import (
    ConfigInvalid,
    DataSet,
    Dictionary,
    DimensionMismatch,
    EpochStats,
    HessianDiag,
    ORDER_SHUFFLED,
    RATE_ADAPTIVE,
    RATE_NATURAL,
    SparseCode,
    TrainConfig,
    rng_from_seed,
    validate_dataset,
    _CodeStore,
    _require_lambda,
    _residual,
    _SHUFFLE_STREAM,
)
from .data import init_dictionary
from .dictionary import (
    _adaptive_steps,
    _gradient_step_dense,
    _quadratic_term,
    _sgd_inplace,
    hessian_accumulate,
)
from .lasso import _encode_py, _oracle_cold, _require_steps
from .metrics import _objective

BATCH_CODE_TOL = 1e-10
BATCH_MAX_STEPS = 20  # gradient-step attempts (accepts plus halvings) per epoch

ProgressCallback = Callable[[EpochStats], None]


@dataclass
class NaturalRateSchedule:
    """Scalar rate a/(t + b); t starts at 1 and advances per emission."""

    a: float
    b: float
    t: int = field(default=1)

    def __post_init__(self) -> None:
        if not 0 < self.a < math.inf:
            raise ConfigInvalid(f"a must be finite and > 0, got {self.a}")
        if not 0 <= self.b < math.inf:
            raise ConfigInvalid(f"b must be finite and >= 0, got {self.b}")

    def next_rate(self) -> float:
        rate = self.a / (self.t + self.b)
        self.t += 1
        return rate


@dataclass
class TrainResult:
    """Final dictionary, one code per sample, and per-epoch measurements."""

    dictionary: Dictionary
    codes: List[SparseCode]
    stats: List[EpochStats]


def _visit_order(cfg: TrainConfig, n: int, epoch: int) -> np.ndarray:
    if cfg.ordering == ORDER_SHUFFLED:
        return rng_from_seed(cfg.seed, _SHUFFLE_STREAM, epoch).permutation(n)
    return np.arange(n, dtype=np.int64)


def _epoch_stats(
    epoch: int, D: Dictionary, codes: _CodeStore, X: np.ndarray, lam: float,
    t_code: float, t_dict: float,
) -> EpochStats:
    return EpochStats(
        epoch=epoch,
        objective=_objective(D, codes, X, lam),
        time_code_update=t_code,
        time_dict_update=t_dict,
        mean_support=float(codes.length.mean()),
        max_support=int(codes.length.max()),
    )


def _epoch_py(
    D: Dictionary, X: np.ndarray, order: np.ndarray, lam: float, steps: int,
    old: _CodeStore, new: _CodeStore,
    rate: Union[HessianDiag, NaturalRateSchedule, None],
) -> Tuple[float, float]:
    """One stochastic epoch in Python; returns the code and dictionary phase times.

    Visits the samples (columns of ``X``) in ``order``.  Each visit
    encodes the sample with ``encode_scc``'s passes, warm-started from its
    code in ``old``, puts the code into ``new``, and moves the supported
    atoms of ``D`` in place by the steps of ``rate``: z_j / h_jj after
    folding the code into the curvature ``HessianDiag``, or a/(t+b) * z_j
    from the ``NaturalRateSchedule``, whose t counts every visit, empty
    codes too.  Raises ZeroCurvature before a step with a cell that is
    not positive.  With ``rate`` None the dictionary is held fixed: the
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
        code = _encode_py(D, z_init, r, lam, steps)
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


def _encode_cold(D: Dictionary, X: np.ndarray, lam: float, steps: int) -> _CodeStore:
    """``encode_scc`` from the zero code for every column of ``X``, into one store.

    The codes lie in sample order and have the bits of per-sample
    ``encode_scc`` calls: they are one epoch in sample order from the zero
    codes that moves no atom, through the kernel's ``epoch`` when it loads,
    else through ``_epoch_py``.
    """
    _require_lambda(lam)
    steps = _require_steps(steps)
    X = np.asfortranarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != D.p:
        raise DimensionMismatch(f"sample of shape {X.shape[:1]} does not fit atoms of length {D.p}")
    kernel = _native.kernel()
    m, n = D.m, X.shape[1]
    store = _CodeStore(m, n, n + m)
    (_epoch_py if kernel is None else kernel.epoch)(
        D, X, np.arange(n, dtype=np.int64), lam, steps, _CodeStore(m, n, 0), store, None)
    return store


def _sgd_train(
    ds: DataSet, cfg: TrainConfig, progress: Optional[ProgressCallback]
) -> TrainResult:
    cfg.validate()
    validate_dataset(ds)
    n = ds.n
    m = cfg.dict_size
    lam = cfg.effective_lambda(ds.p)
    D = init_dictionary(ds, m, cfg.init, cfg.seed)
    kernel = _native.kernel()
    run_epoch = _epoch_py if kernel is None else kernel.epoch
    if cfg.rate_schedule == RATE_ADAPTIVE:
        rate = HessianDiag.zeros(m)
    else:
        rate = NaturalRateSchedule(cfg.rate_a, cfg.rate_b)
    codes = _CodeStore(m, n, 0)  # every code starts at zero
    stats: List[EpochStats] = []
    for epoch in range(1, cfg.epochs + 1):
        # room for as many entries as last epoch, or one per sample at first
        new = _CodeStore(m, n, max(codes.used, n) + m)
        times = run_epoch(D, ds.X, _visit_order(cfg, n, epoch), lam, cfg.cd_steps, codes, new, rate)
        codes = new
        stats.append(_epoch_stats(epoch, D, codes, ds.X, lam, *times))
        if progress is not None:
            progress(stats[-1])
    return TrainResult(dictionary=Dictionary(D.atoms), codes=codes.codes(), stats=stats)


def scc_train(
    ds: DataSet, cfg: TrainConfig, progress: Optional[ProgressCallback] = None
) -> TrainResult:
    """Stochastic training with adaptive per-atom rates."""
    if cfg.rate_schedule != RATE_ADAPTIVE:
        raise ConfigInvalid("scc_train requires the adaptive_hessian rate schedule")
    return _sgd_train(ds, cfg, progress)


def natural_rate_train(
    ds: DataSet, cfg: TrainConfig, progress: Optional[ProgressCallback] = None
) -> TrainResult:
    """Stochastic training with the scalar a/(t+b) schedule."""
    if cfg.rate_schedule != RATE_NATURAL:
        raise ConfigInvalid("natural_rate_train requires the natural rate schedule")
    return _sgd_train(ds, cfg, progress)


def batch_train(
    ds: DataSet, cfg: TrainConfig, progress: Optional[ProgressCallback] = None
) -> TrainResult:
    """Alternating baseline: exact codes, then backtracking gradient steps.

    Per epoch every code is re-solved from zero to convergence against
    the fixed dictionary, one sample after another, into one code store
    by ``lasso._oracle_cold`` (the bits of one ``lasso_oracle_cd`` call
    per sample), then up to ``BATCH_MAX_STEPS`` full-gradient attempts
    run with the step halved whenever the quadratic part of the
    objective would grow.
    """
    cfg.validate()
    validate_dataset(ds)
    m = cfg.dict_size
    lam = cfg.effective_lambda(ds.p)
    D = init_dictionary(ds, m, cfg.init, cfg.seed)
    atoms = D.atoms
    stats: List[EpochStats] = []
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        codes = _oracle_cold(D, ds.X, lam, BATCH_CODE_TOL)
        t1 = time.perf_counter()
        Z = codes.dense()
        eta = 1.0
        quad = _quadratic_term(atoms, Z, ds.X)
        for _ in range(BATCH_MAX_STEPS):
            candidate = _gradient_step_dense(atoms, Z, ds.X, eta)
            quad_new = _quadratic_term(candidate, Z, ds.X)
            if quad_new <= quad:
                if np.array_equal(candidate, atoms):
                    break  # stationary for these codes
                atoms[:] = candidate
                quad = quad_new
            else:
                eta *= 0.5
        t2 = time.perf_counter()
        stats.append(_epoch_stats(epoch, D, codes, ds.X, lam, t1 - t0, t2 - t1))
        if progress is not None:
            progress(stats[-1])
    return TrainResult(dictionary=Dictionary(atoms), codes=codes.codes(), stats=stats)
