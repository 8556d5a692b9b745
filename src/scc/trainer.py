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

All three run one epoch loop, ``_train``.  It checks the config, then
the data, draws the initial atoms and starts every code at zero.  Each
epoch reads the last epoch's codes from one compact ``core._CodeStore``
and writes the new ones to another, so memory grows with the number of
nonzeros, never with m x n; ``TrainResult.codes`` are views of the last
store.  Every epoch codes in one ``epoch`` call of the engine that
``_native.kernel()`` returns (the native kernel, one foreign call, when
it loads, else ``lasso._epoch_py``, with the same bits), and its
objective comes from ``metrics._objective``.  A stochastic epoch is that
call alone, with the trainer's rate.  ``batch_train``'s is that call in
sample order with the dictionary held fixed and each code run to a
tolerance, warm from the last epoch's, then one ``dense`` call of the
same engine: the kernel's, or ``dictionary._dense_py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

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
from .lasso import DEFAULT_MAX_CYCLES, ORACLE_TOL
from .metrics import _objective

BATCH_MAX_STEPS = 20  # gradient-step attempts (accepts plus halvings) per epoch

ProgressCallback = Callable[[EpochStats], None]
_Epoch = Callable[..., Tuple[float, float]]


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


def _train(
    ds: DataSet, cfg: TrainConfig, progress: Optional[ProgressCallback],
    epoch_of: Callable[[TrainConfig], _Epoch],
) -> TrainResult:
    """The epoch loop of every trainer.

    ``epoch_of(cfg)``, called after the checks, gives the trainer's epoch
    ``(D, X, lam, epoch, old, new)``: it codes every sample from its code
    in ``old`` into ``new``, moves the atoms of ``D`` in place, and
    returns the code and dictionary phase times.
    """
    cfg.validate()
    validate_dataset(ds)
    lam = cfg.effective_lambda(ds.p)
    D = init_dictionary(ds, cfg.dict_size, cfg.init, cfg.seed)
    run_epoch = epoch_of(cfg)  # after the atoms: before them, train-patch's peak RSS rose 0.5 MiB
    codes = _CodeStore(cfg.dict_size, ds.n, 0)  # every code starts at zero
    stats: List[EpochStats] = []
    for epoch in range(1, cfg.epochs + 1):
        new = _CodeStore.after(codes)
        t_code, t_dict = run_epoch(D, ds.X, lam, epoch, codes, new)
        codes = new
        stats.append(EpochStats(epoch, _objective(D, codes, ds.X, lam), t_code, t_dict,
                                float(codes.length.mean()), int(codes.length.max())))
        if progress is not None:
            progress(stats[-1])
    return TrainResult(dictionary=Dictionary(D.atoms), codes=codes.codes(), stats=stats)


def _sgd_epoch(cfg: TrainConfig) -> _Epoch:
    """One engine ``epoch`` in the config's visit order, with the config's rate."""
    run = _native.kernel().epoch
    if cfg.rate_schedule == RATE_ADAPTIVE:
        rate = HessianDiag.zeros(cfg.dict_size)
    else:
        rate = NaturalRateSchedule(cfg.rate_a, cfg.rate_b)

    def epoch(D, X, lam, t, old, new):
        return run(D, X, _visit_order(cfg, X.shape[1], t), lam, cfg.cd_steps, old, new, rate)

    return epoch


def _batch_epoch(D, X, lam, t, old, new) -> Tuple[float, float]:
    """The CD oracle's codes in sample order with D held fixed, then one ``dense`` step."""
    engine = _native.kernel()
    order = np.arange(X.shape[1], dtype=np.int64)
    t_code, _ = engine.epoch(D, X, order, lam, 1, old, new, None, ORACLE_TOL, DEFAULT_MAX_CYCLES)
    t0 = time.perf_counter()
    engine.dense(D.atoms, new.dense(), X, BATCH_MAX_STEPS)
    return t_code, time.perf_counter() - t0


def scc_train(
    ds: DataSet, cfg: TrainConfig, progress: Optional[ProgressCallback] = None
) -> TrainResult:
    """Stochastic training with adaptive per-atom rates."""
    if cfg.rate_schedule != RATE_ADAPTIVE:
        raise ConfigInvalid("scc_train requires the adaptive_hessian rate schedule")
    return _train(ds, cfg, progress, _sgd_epoch)


def natural_rate_train(
    ds: DataSet, cfg: TrainConfig, progress: Optional[ProgressCallback] = None
) -> TrainResult:
    """Stochastic training with the scalar a/(t+b) schedule."""
    if cfg.rate_schedule != RATE_NATURAL:
        raise ConfigInvalid("natural_rate_train requires the natural rate schedule")
    return _train(ds, cfg, progress, _sgd_epoch)


def batch_train(
    ds: DataSet, cfg: TrainConfig, progress: Optional[ProgressCallback] = None
) -> TrainResult:
    """Alternating baseline: exact codes, then backtracking gradient steps.

    Per epoch one ``epoch`` call of the engine, in sample order with the
    dictionary held fixed, re-solves every code with the CD oracle of
    ``lasso_oracle_cd``: from zero in the first epoch (its bits), and from
    the last epoch's code after it.  Then one ``dense`` call of the same
    engine makes up to ``BATCH_MAX_STEPS`` full-gradient attempts, halving
    the step whenever the quadratic part of the objective would grow; its
    time starts before the dense code matrix is built.
    """
    return _train(ds, cfg, progress, lambda cfg: _batch_epoch)
