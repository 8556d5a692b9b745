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

A stochastic epoch is one ``epoch`` call of the engine that
``_native.kernel()`` returns: the native kernel's, one foreign call, when
it loads, else ``lasso._epoch_py``, which gives the same bits.  Either
reads the previous epoch's codes from one compact ``core._CodeStore``
and writes the new codes to another, so memory grows with the number of
nonzeros, never with m x n; ``TrainResult.codes`` are views of the last store.
``batch_train``'s code phase is one ``lasso._encode_frozen`` store per
epoch: the same epoch in sample order, from the zero codes in the first
epoch and from the last epoch's store after it, with the dictionary held
fixed and each code run to a tolerance.  Its dense code
matrix and its objective are read from that store.  Its dictionary phase
is one ``dense`` call of the same engine: the kernel's, or
``dictionary._dense_py``.  Every trainer's per-epoch objective comes
from ``metrics._objective``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from . import _native
from .core import (
    ConfigInvalid,
    DataSet,
    Dictionary,
    EpochStats,
    HessianDiag,
    NaturalRateSchedule,  # re-exported: the natural rule's state, beside HessianDiag in core
    ORDER_SHUFFLED,
    RATE_ADAPTIVE,
    RATE_NATURAL,
    SparseCode,
    TrainConfig,
    rng_from_seed,
    validate_dataset,
    _CodeStore,
    _SHUFFLE_STREAM,
)
from .data import init_dictionary
from .lasso import DEFAULT_MAX_CYCLES, ORACLE_TOL, _encode_frozen
from .metrics import _objective

BATCH_MAX_STEPS = 20  # gradient-step attempts (accepts plus halvings) per epoch

ProgressCallback = Callable[[EpochStats], None]


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


def _sgd_train(
    ds: DataSet, cfg: TrainConfig, progress: Optional[ProgressCallback]
) -> TrainResult:
    cfg.validate()
    validate_dataset(ds)
    n = ds.n
    m = cfg.dict_size
    lam = cfg.effective_lambda(ds.p)
    D = init_dictionary(ds, m, cfg.init, cfg.seed)
    run_epoch = _native.kernel().epoch
    if cfg.rate_schedule == RATE_ADAPTIVE:
        rate = HessianDiag.zeros(m)
    else:
        rate = NaturalRateSchedule(cfg.rate_a, cfg.rate_b)
    codes = _CodeStore(m, n, 0)  # every code starts at zero
    stats: List[EpochStats] = []
    for epoch in range(1, cfg.epochs + 1):
        new = _CodeStore.after(codes)
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

    Per epoch every code is re-solved to convergence against the fixed
    dictionary, one sample after another, into one code store by
    ``lasso._encode_frozen``: the CD oracle of ``lasso_oracle_cd``, from
    zero in the first epoch (its bits) and from the sample's code of the
    last epoch after it.  Then up to ``BATCH_MAX_STEPS`` full-gradient
    attempts run with the step halved whenever the quadratic part of the
    objective would grow: one ``dense`` call of the engine of
    ``_native.kernel()``, the kernel's or ``dictionary._dense_py``, with
    the same bits.  From the second epoch on the code store starts with
    room for the last epoch's entries, or n if more, plus one code.
    """
    cfg.validate()
    validate_dataset(ds)
    m = cfg.dict_size
    lam = cfg.effective_lambda(ds.p)
    D = init_dictionary(ds, m, cfg.init, cfg.seed)
    codes = None  # the first epoch's codes start from zero
    stats: List[EpochStats] = []
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        codes = _encode_frozen(D, ds.X, lam, 1, ORACLE_TOL, DEFAULT_MAX_CYCLES, start=codes)
        t1 = time.perf_counter()
        _native.kernel().dense(D.atoms, codes.dense(), ds.X, BATCH_MAX_STEPS)
        t2 = time.perf_counter()
        stats.append(_epoch_stats(epoch, D, codes, ds.X, lam, t1 - t0, t2 - t1))
        if progress is not None:
            progress(stats[-1])
    return TrainResult(dictionary=Dictionary(D.atoms), codes=codes.codes(), stats=stats)
