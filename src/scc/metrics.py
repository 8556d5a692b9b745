"""Objective and diagnostic metrics.

The per-sample cost is  0.5 ||D z - x||^2 + lambda ||z||_1  and the
dataset objective is its average over samples, accumulated with
pairwise summation so large n does not erode precision.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Union

import numpy as np

from .core import (
    DataSet,
    Dictionary,
    DimensionMismatch,
    Empty,
    Sample,
    SparseCode,
    _residual,
)


def sample_objective(
    D: Dictionary, z: SparseCode, x: Union[Sample, np.ndarray], lam: float
) -> float:
    """Penalized reconstruction cost of one sample under code ``z``."""
    r = _residual(D, z, x)
    penalty = lam * float(np.abs(z.values).sum())
    return 0.5 * float(r @ r) + penalty


def objective(
    D: Dictionary,
    codes: Sequence[SparseCode],
    ds: DataSet,
    lam: float,
) -> float:
    """Dataset-average objective.

    Per-sample terms are summed pairwise.  The loop is serial, because
    its per-sample Python work holds the interpreter lock.
    ``SCC_THREADS`` is not read here; the ``scc`` command validates it
    once at start-up.
    """
    if len(codes) != ds.n:
        raise DimensionMismatch(f"{len(codes)} codes for {ds.n} samples")
    n = ds.n
    terms = np.empty(n)
    for i in range(n):
        terms[i] = sample_objective(D, codes[i], ds.column(i), lam)
    return float(np.sum(terms) / n)


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
