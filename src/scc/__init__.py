"""Sparse dictionary learning via stochastic coordinate coding.

Library surface: domain types in :mod:`scc.core`, coordinate-descent
encoders and reference solvers in :mod:`scc.lasso`, dictionary updates
in :mod:`scc.dictionary`, training loops in :mod:`scc.trainer`, metrics
in :mod:`scc.metrics`, ingestion in :mod:`scc.data`, file formats in
:mod:`scc.serialize`, and the ``scc`` command in :mod:`scc.cli`.
"""

from .core import (
    BadMagic,
    CDWorkspace,
    ConfigInvalid,
    DataSet,
    DegenerateSample,
    Dictionary,
    DimensionMismatch,
    Empty,
    EpochStats,
    FormatError,
    HessianDiag,
    ImageTooSmall,
    InvariantViolation,
    MaxIterationsExceeded,
    NonFinite,
    Sample,
    SCCError,
    SparseCode,
    TrainConfig,
    Truncated,
    ZeroCurvature,
    rng_from_seed,
    validate_dataset,
)
from .data import extract_patches, generate_planted, init_dictionary, preprocess, preprocess_dataset
from .dictionary import (
    full_gradient_step,
    hessian_accumulate,
    learning_rate,
    project_unit_ball,
    sgd_update_support,
)
from .lasso import (
    CDResult,
    cd_full_cycle,
    cd_support_cycle,
    encode_scc,
    lasso_oracle_cd,
    lasso_oracle_cd_batch,
    lasso_oracle_prox,
    soft_threshold,
)
from .metrics import SparsityStats, max_pool, objective, sample_objective, sparsity_stats
from .trainer import (
    NaturalRateSchedule,
    TrainResult,
    batch_train,
    natural_rate_train,
    scc_train,
)

__version__ = "0.1.0"
