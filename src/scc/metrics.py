"""Objective and diagnostic metrics.

The per-sample cost is  0.5 ||D z - x||^2 + lambda ||z||_1  and the
dataset objective is its average over samples, accumulated with
pairwise summation so large n does not erode precision.

Every dataset objective, ``objective``'s and the trainers' per-epoch
one, goes through ``_objective`` over a code store: its per-sample
terms come from the ``objective`` of the engine ``_native.kernel()``,
the native kernel's or the Python loop ``_terms_py``, with the same bits.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Union

import numpy as np

from . import _native
from .core import (
    DataSet,
    Dictionary,
    DimensionMismatch,
    Empty,
    Sample,
    SparseCode,
    _CodeStore,
    _fit_codes,
    _fit_sample,
    _minus_code,
    _require_positive,
)


def sample_objective(
    D: Dictionary, z: SparseCode, x: Union[Sample, np.ndarray], lam: float
) -> float:
    """Penalized reconstruction cost of one sample under code ``z``; ``lam`` may be 0."""
    _require_positive("lambda", lam, or_zero=True)
    return _term(D, z, _fit_sample(D, x, z), lam)


def _term(D: Dictionary, z: SparseCode, v: np.ndarray, lam: float) -> float:
    """``sample_objective`` of a vector ``v`` and a code ``z`` already checked to fit ``D``."""
    r = _minus_code(D, z, v)
    return 0.5 * float(r @ r) + lam * float(np.abs(z.values).sum())


def objective(
    D: Dictionary,
    codes: Sequence[SparseCode],
    ds: DataSet,
    lam: float,
) -> float:
    """Dataset-average objective of ``codes``, one per sample of ``ds``.

    The codes and samples are checked against ``D`` once, and packed
    into a code store for ``_objective``, by ``core._fit_codes``.
    ``SCC_THREADS`` is not read here; the ``scc`` command validates it
    once at start-up.  Raises Empty for a dataset without samples, and
    ConfigInvalid for a ``lam`` that is not finite and >= 0.
    """
    _require_positive("lambda", lam, or_zero=True)
    return _objective(D, _fit_codes(D, codes, ds), ds.X, lam)


def _objective(D: Dictionary, store: _CodeStore, X: np.ndarray, lam: float) -> float:
    """The average of the per-sample terms of the codes in ``store`` for the
    samples (columns) of ``X``, summed pairwise by numpy."""
    return float(np.sum(_native.kernel().objective(D, store, X, lam)) / X.shape[1])


def _terms_py(D: Dictionary, store: _CodeStore, X: np.ndarray, lam: float) -> np.ndarray:
    """Each sample's ``sample_objective`` under its code in ``store``; callers check both."""
    terms = np.empty(X.shape[1])
    for i in range(terms.size):
        terms[i] = _term(D, store.code(i), X[:, i], lam)
    return terms


class SparsityStats(NamedTuple):
    mean_support: float
    max_support: int
    histogram: np.ndarray  # histogram[s] = number of codes with support size s


def sparsity_stats(codes: Sequence[SparseCode]) -> SparsityStats:
    """Exact support-size statistics of a code collection."""
    if len(codes) == 0:
        raise Empty("no codes")
    sizes = np.array([c.nnz for c in codes], dtype=np.int64)
    return SparsityStats(
        mean_support=float(sizes.mean()),
        max_support=int(sizes.max()),
        histogram=np.bincount(sizes),
    )


def max_pool(codes: Sequence[SparseCode]) -> np.ndarray:
    """Coordinate-wise maximum of |z_j| over a group of codes.

    Codes are signed, so pooling works on magnitudes; coordinates no
    code uses stay zero.
    """
    if len(codes) == 0:
        raise Empty("no codes to pool")
    m = codes[0].m
    out = np.zeros(m)
    for c in codes:
        if c.m != m:
            raise DimensionMismatch(f"code ambient {c.m} != {m}")
        if c.nnz:
            np.maximum.at(out, c.indices, np.abs(c.values))
    return out
