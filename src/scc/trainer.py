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

The stochastic loops' code refresh and dictionary step, and
``batch_train``'s code phase, run in the native kernel when it loads
(see ``_native``), with the same bits as the Python loops that run
otherwise.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, List, Optional

import numpy as np

from . import _native
from .core import (
    ConfigInvalid,
    DataSet,
    Dictionary,
    EpochStats,
    HessianDiag,
    ORDER_SHUFFLED,
    RATE_ADAPTIVE,
    RATE_NATURAL,
    SparseCode,
    TrainConfig,
    rng_from_seed,
    validate_dataset,
    _SHUFFLE_STREAM,
)
from .data import init_dictionary
from .dictionary import (
    _adaptive_steps,
    _dense_codes,
    _gradient_step_dense,
    _quadratic_term,
    _sgd_inplace,
    hessian_accumulate,
)
from .lasso import encode_scc, lasso_oracle_cd_batch
from .metrics import objective, sparsity_stats

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


def _visit_order(cfg: TrainConfig, n: int, epoch: int):
    if cfg.ordering == ORDER_SHUFFLED:
        return rng_from_seed(cfg.seed, _SHUFFLE_STREAM, epoch).permutation(n).tolist()
    return range(n)


def _epoch_stats(
    epoch: int, D: Dictionary, codes: List[SparseCode], ds: DataSet, lam: float,
    t_code: float, t_dict: float,
) -> EpochStats:
    spars = sparsity_stats(codes)
    return EpochStats(
        epoch=epoch,
        objective=objective(D, codes, ds, lam),
        time_code_update=t_code,
        time_dict_update=t_dict,
        mean_support=spars.mean_support,
        max_support=spars.max_support,
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
    kernel = _native.kernel()
    # the atoms advance in place: through the kernel, or through the column views
    sgd_step = partial(_sgd_inplace, D.columns) if kernel is None else kernel.sgd_step(D.atoms)
    zero = SparseCode.zero(m)
    codes: List[SparseCode] = [zero] * n
    if cfg.rate_schedule == RATE_ADAPTIVE:
        H = HessianDiag.zeros(m)

        def steps(code: SparseCode) -> np.ndarray:
            return _adaptive_steps(hessian_accumulate(H, code), code)
    else:
        schedule = NaturalRateSchedule(cfg.rate_a, cfg.rate_b)

        def steps(code: SparseCode) -> np.ndarray:
            return schedule.next_rate() * code.values  # t counts visits, empty codes too
    stats: List[EpochStats] = []
    for epoch in range(1, cfg.epochs + 1):
        t_code = 0.0
        t_dict = 0.0
        for i in _visit_order(cfg, n, epoch):
            x = ds.column(i)
            t0 = time.perf_counter()
            result = encode_scc(D, codes[i], x, lam, cfg.cd_steps)
            code = result.code
            codes[i] = code
            t1 = time.perf_counter()
            t_code += t1 - t0
            sgd_step(code.indices, steps(code), result.residual)
            t_dict += time.perf_counter() - t1
        stats.append(_epoch_stats(epoch, D, codes, ds, lam, t_code, t_dict))
        if progress is not None:
            progress(stats[-1])
    return TrainResult(dictionary=Dictionary(D.atoms), codes=codes, stats=stats)


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
    the fixed dictionary, one sample after another, by
    ``lasso_oracle_cd_batch`` (the bits of one ``lasso_oracle_cd`` call
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
        codes = lasso_oracle_cd_batch(D, ds.X, lam, BATCH_CODE_TOL)
        t1 = time.perf_counter()
        Z = _dense_codes(codes, m)
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
        stats.append(_epoch_stats(epoch, D, codes, ds, lam, t1 - t0, t2 - t1))
        if progress is not None:
            progress(stats[-1])
    return TrainResult(dictionary=Dictionary(atoms), codes=codes, stats=stats)
