"""Shared domain types, the sample contract, and the seeded random-number contract.

Numeric conventions used across the package:

* every real value is IEEE-754 float64,
* a dictionary is a (p, m) column-major matrix so that one atom (one
  column) is contiguous in memory,
* sparse codes store exactly their nonzero entries, as sorted
  (index, value) pairs,
* all randomness flows through :func:`rng_from_seed`, which pins the bit
  generator (PCG64), so equal seeds give bit-identical streams.

The sample contract is written once, here: :func:`_fit_sample` is the
one check that a sample (and a code) fits a dictionary, :func:`_fit_codes`
that a dataset and its codes do, :func:`_minus_code` the one fresh
computation of x - D z (:func:`_residual` after the fit check), and
:func:`validate_dataset` the one whole-matrix check of a dataset's samples.
So is every argument rule.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

FEASIBILITY_TOL = 1e-12   # slack on unit-ball membership of atoms
PREPROCESS_TOL = 1e-9     # slack on zero-mean / unit-norm of samples
DEFAULT_PRUNE_TOL = 1e-12  # magnitude below which dense entries are dropped
DEFAULT_LAMBDA_SCALE = 1.2  # lambda defaults to this over sqrt(p)

INIT_RANDOM_PATCHES = "random_patches"
INIT_RANDOM_GAUSSIAN = "random_gaussian"
ORDER_SEQUENTIAL = "sequential"
ORDER_SHUFFLED = "shuffled"
RATE_ADAPTIVE = "adaptive_hessian"
RATE_NATURAL = "natural"

_SHUFFLE_STREAM = 1  # substream key for per-epoch visit permutations


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class SCCError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(SCCError):
    """Operands disagree on p, m, or n."""


class NonFinite(SCCError):
    """A value that must be finite is NaN or infinite."""


class Empty(SCCError):
    """An operation received zero samples or zero codes."""


class ZeroCurvature(SCCError):
    """Adaptive rate requested for a column with no accumulated curvature."""


class MaxIterationsExceeded(SCCError):
    """An iterative solver hit its iteration cap before converging."""


class ConfigInvalid(SCCError):
    """A parameter value violates its documented range."""


class DegenerateSample(SCCError):
    """Sample has zero variance and cannot be normalized."""


class ImageTooSmall(SCCError):
    """Image is smaller than the extraction window."""


class InvariantViolation(SCCError):
    """A value object failed one of its structural invariants."""


class FormatError(SCCError):
    """A serialized artifact does not follow its documented layout."""


class BadMagic(FormatError):
    """Leading magic bytes do not identify a known format."""


class Truncated(FormatError):
    """A serialized artifact ends before its declared payload."""


# ---------------------------------------------------------------------------
# Randomness and environment
# ---------------------------------------------------------------------------

def _require_int(name: str, value) -> int:
    """``value`` as a Python int; bools, floats and other types are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigInvalid(f"{name} must be an integer, got {value!r}")
    return int(value)


def _require_count(name: str, value) -> int:
    """``value`` as an int >= 1: a size, a number of passes or an iteration cap."""
    value = _require_int(name, value)
    if value < 1:
        raise ConfigInvalid(f"{name} must be >= 1, got {value}")
    return value


def _require_positive(name: str, value: float) -> None:
    """The one rule for a regularization weight and a stopping tolerance: finite and > 0."""
    if not 0 < value < math.inf:
        raise ConfigInvalid(f"{name} must be finite and > 0, got {value}")


def _require_seed(seed: int) -> int:
    seed = _require_int("seed", seed)
    if not 0 <= seed < 2 ** 64:
        raise ConfigInvalid(f"seed must fit in 64 unsigned bits, got {seed}")
    return seed


def rng_from_seed(seed: int, *stream: int) -> np.random.Generator:
    """Return the PCG64 generator for ``seed``.

    Extra integers select documented independent substreams: the trainer
    draws its epoch-``k`` shuffle from ``rng_from_seed(seed, 1, k)`` while
    initializers consume the root stream.  Equal arguments always
    reproduce the same bit stream, on every platform.
    """
    seed = _require_seed(seed)
    key = tuple(int(s) for s in stream)
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return np.random.Generator(np.random.PCG64(ss))


def thread_cap() -> int:
    """The validated ``SCC_THREADS`` hint (default 1): a positive integer.

    Every phase runs in one thread, so the value changes neither speed
    nor output; a malformed one raises ConfigInvalid.
    """
    raw = os.environ.get("SCC_THREADS")
    if raw is None:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ConfigInvalid(f"SCC_THREADS must be a positive integer, got {raw!r}")
    if value < 1:
        raise ConfigInvalid(f"SCC_THREADS must be >= 1, got {value}")
    return value


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Sample:
    """One p-dimensional data vector.

    ``preprocessed`` marks a vector that has been centered to zero mean
    and scaled to unit Euclidean norm; :func:`validate_dataset` enforces
    that claim to within ``PREPROCESS_TOL``.
    """

    values: np.ndarray
    preprocessed: bool = False

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise DimensionMismatch("a sample must be a nonempty 1-D vector")
        object.__setattr__(self, "values", v)

    @property
    def p(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class DataSet:
    """Ordered sample collection, stored one sample per column of ``X``.

    Index ``i`` always refers to column ``i``.  The payload is held
    read-only; build a new DataSet instead of editing in place.
    """

    X: np.ndarray
    preprocessed: bool = False

    def __post_init__(self) -> None:
        self._hold(np.array(self.X, dtype=np.float64, order="F"))

    @classmethod
    def _adopt(cls, X: np.ndarray, preprocessed: bool = False) -> "DataSet":
        """Hold ``X``, a fresh Fortran-ordered float64 array nothing else holds, uncopied."""
        ds = object.__new__(cls)
        object.__setattr__(ds, "preprocessed", preprocessed)
        ds._hold(X)
        return ds

    def _hold(self, arr: np.ndarray) -> None:
        if arr.ndim != 2 or arr.shape[0] == 0:
            raise DimensionMismatch(
                f"dataset payload must be (p, n) with p >= 1, got shape {arr.shape}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "X", arr)

    @classmethod
    def from_samples(cls, samples: Sequence[Sample]) -> "DataSet":
        samples = list(samples)
        if not samples:
            raise Empty("cannot build a dataset from zero samples")
        for i, s in enumerate(samples):
            if s.p != samples[0].p:
                raise DimensionMismatch(f"sample {i} has length {s.p}, expected {samples[0].p}")
        X = np.column_stack([s.values for s in samples])
        return cls(X, preprocessed=all(s.preprocessed for s in samples))

    @property
    def p(self) -> int:
        return self.X.shape[0]

    @property
    def n(self) -> int:
        return self.X.shape[1]

    def __len__(self) -> int:
        return self.n

    def column(self, i: int) -> np.ndarray:
        """Read-only view of sample ``i``."""
        return self.X[:, i]


@dataclass(frozen=True, eq=False)
class Dictionary:
    """Atom matrix of shape (p, m); every column lies in the unit ball.

    Construction copies and validates.  The atom matrix stays writable
    because a trainer advances its own dictionary in place (single
    writer); all other holders must treat it as read-only.
    """

    atoms: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.atoms, dtype=np.float64, order="F")
        if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
            raise DimensionMismatch(
                f"dictionary must be a (p, m) matrix with p, m >= 1, got {np.shape(self.atoms)}"
            )
        if not np.isfinite(arr).all():
            raise NonFinite("dictionary contains NaN or Inf")
        big = float(np.abs(arr).max())
        if big > 1.0 + FEASIBILITY_TOL:  # its atom lies outside; the squares below could overflow
            raise InvariantViolation(f"atom entry {big} exceeds the unit ball")
        norms = np.sqrt((arr * arr).sum(axis=0))
        worst = float(norms.max(initial=0.0))
        if worst > 1.0 + FEASIBILITY_TOL:
            raise InvariantViolation(f"atom norm {worst} exceeds the unit ball")
        object.__setattr__(self, "atoms", arr)

    @property
    def p(self) -> int:
        return self.atoms.shape[0]

    @property
    def m(self) -> int:
        return self.atoms.shape[1]

    @functools.cached_property
    def columns(self) -> list:
        """Views of every atom, built once per dictionary.

        The views share memory with ``atoms``, so in-place updates of
        the atom matrix show through and writes through a view reach it.
        """
        return list(self.atoms.T)

    def copy(self) -> "Dictionary":
        return Dictionary(self.atoms)


@dataclass(frozen=True, eq=False)
class SparseCode:
    """Sparse vector over [0, m) stored as sorted (index, value) pairs.

    Exactly the nonzeros are stored: no explicit zero is retained, and
    indices are strictly increasing so support iteration is
    deterministic.
    """

    indices: np.ndarray
    values: np.ndarray
    m: int

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.float64)
        if idx.ndim != 1 or val.ndim != 1 or idx.size != val.size:
            raise DimensionMismatch("indices and values must be 1-D and equal length")
        if self.m < 1:
            raise DimensionMismatch(f"ambient dimension must be >= 1, got {self.m}")
        if idx.size:
            if not np.all(np.diff(idx) > 0):
                raise InvariantViolation("indices must be strictly increasing")
            if idx[0] < 0 or idx[-1] >= self.m:
                raise InvariantViolation("index out of range")
            if not np.isfinite(val).all():
                raise NonFinite("sparse code contains NaN or Inf")
            if np.any(val == 0.0):
                raise InvariantViolation("explicit zeros are not stored")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    @classmethod
    def _trusted(cls, indices: np.ndarray, values: np.ndarray, m: int) -> "SparseCode":
        """Wrap arrays that already meet every invariant, without checking.

        For kernels that build codes themselves: ``indices`` int64 and
        strictly increasing in [0, m), ``values`` float64, finite and
        nonzero, both 1-D and of equal length.
        """
        code = object.__new__(cls)
        object.__setattr__(code, "indices", indices)
        object.__setattr__(code, "values", values)
        object.__setattr__(code, "m", m)
        return code

    @classmethod
    def zero(cls, m: int) -> "SparseCode":
        return cls(np.empty(0, dtype=np.int64), np.empty(0), m)

    @classmethod
    def from_dense(cls, dense: np.ndarray, prune_tol: float = DEFAULT_PRUNE_TOL) -> "SparseCode":
        """Collect entries with magnitude above ``prune_tol``.

        Coordinate descent produces exact zeros, so its callers pass
        ``prune_tol=0.0``; solvers whose iterates merely approach zero
        use the default cutoff.
        """
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 1 or dense.size == 0:
            raise DimensionMismatch("dense code must be a nonempty 1-D vector")
        idx = np.flatnonzero(np.abs(dense) > prune_tol)
        return cls(idx.astype(np.int64), dense[idx], dense.size)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.m)
        if self.indices.size:
            out[self.indices] = self.values
        return out

    @property
    def support(self) -> np.ndarray:
        return self.indices

    @property
    def nnz(self) -> int:
        return self.indices.size

    def l1(self) -> float:
        return float(np.abs(self.values).sum())


@dataclass(eq=False)
class HessianDiag:
    """Accumulated squared code entries, one cell per atom.

    Entries only ever grow, so their reciprocals form a decaying
    per-atom learning-rate schedule.  Single writer: the owning trainer.
    """

    diag: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.diag, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise DimensionMismatch("curvature diagonal must be a nonempty 1-D vector")
        if not np.isfinite(arr).all():
            raise NonFinite("curvature diagonal contains NaN or Inf")
        if np.any(arr < 0.0):
            raise InvariantViolation("curvature entries must be nonnegative")
        self.diag = arr

    @classmethod
    def zeros(cls, m: int) -> "HessianDiag":
        return cls(np.zeros(m))

    @property
    def m(self) -> int:
        return self.diag.size


@dataclass
class NaturalRateSchedule:
    """Scalar rate a/(t + b); t starts at 1 and advances per emission."""

    a: float
    b: float
    t: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.a < math.inf:
            raise ConfigInvalid(f"rate_a must be finite and > 0, got {self.a}")
        if not 0 <= self.b < math.inf:
            raise ConfigInvalid(f"rate_b must be finite and >= 0, got {self.b}")

    def next_rate(self) -> float:
        rate = self.a / (self.t + self.b)
        self.t += 1
        return rate


class _CodeStore:
    """The codes of one pass over ``n`` samples, packed into two flat buffers.

    Code i is ``indices[s:s + length[i]]`` with its ``values``, where
    ``s = start[i]``: codes lie in the order they were put, and the first
    ``used`` entries of the buffers are taken.  The store holds O(nnz)
    memory, never an m x n matrix.
    """

    def __init__(self, m: int, n: int, capacity: int) -> None:
        self.m = m
        self.start = np.zeros(n, dtype=np.int64)
        self.length = np.zeros(n, dtype=np.int64)
        self.indices = np.empty(capacity, dtype=np.int64)
        self.values = np.empty(capacity)
        self.used = 0

    @classmethod
    def of(cls, codes: Sequence[SparseCode], m: int) -> "_CodeStore":
        """A store holding ``codes``, each over ``m`` atoms, in order."""
        for i, c in enumerate(codes):
            if c.m != m:
                raise DimensionMismatch(f"code {i} has ambient {c.m}, expected {m}")
        store = cls(m, len(codes), 0)
        store.length[:] = [c.indices.size for c in codes]
        np.cumsum(store.length[:-1], out=store.start[1:])
        if codes:
            store.indices = np.concatenate([c.indices for c in codes])
            store.values = np.concatenate([c.values for c in codes])
        store.used = store.indices.size
        return store

    def code(self, i: int) -> SparseCode:
        s = int(self.start[i])
        e = s + int(self.length[i])
        return SparseCode._trusted(self.indices[s:e], self.values[s:e], self.m)

    def codes(self) -> list:
        """Every code, as views of the buffers."""
        return [
            SparseCode._trusted(self.indices[s:s + k], self.values[s:s + k], self.m)
            for s, k in zip(self.start.tolist(), self.length.tolist())
        ]

    def dense(self) -> np.ndarray:
        """The m x n matrix of the codes, which must lie in sample order."""
        n = self.length.size
        Z = np.zeros((self.m, n), order="F")
        Z[self.indices[:self.used], np.repeat(np.arange(n), self.length)] = self.values[:self.used]
        return Z

    def reserve(self, k: int) -> None:
        """Make room for ``k`` more entries, growing the buffers by half as much again."""
        if self.used + k > self.indices.size:
            capacity = self.used + k + (self.used + k) // 2
            for name in ("indices", "values"):
                old = getattr(self, name)
                new = np.empty(capacity, dtype=old.dtype)
                new[:self.used] = old[:self.used]
                setattr(self, name, new)

    def put(self, i: int, code: SparseCode) -> None:
        k = code.indices.size
        self.reserve(k)
        self.start[i] = self.used
        self.length[i] = k
        self.indices[self.used:self.used + k] = code.indices
        self.values[self.used:self.used + k] = code.values
        self.used += k


@dataclass(frozen=True)
class TrainConfig:
    """All knobs of a training run.

    ``lam=None`` selects the default regularization 1.2/sqrt(p) once the
    data dimension is known.  ``rate_a`` and ``rate_b`` only matter for
    the ``natural`` schedule.
    """

    dict_size: int
    lam: Union[float, None] = None
    epochs: int = 10
    cd_steps: int = 3
    init: str = INIT_RANDOM_PATCHES
    ordering: str = ORDER_SEQUENTIAL
    seed: int = 0
    rate_schedule: str = RATE_ADAPTIVE
    rate_a: float = 1.0
    rate_b: float = 0.0

    def validate(self) -> None:
        for name in ("dict_size", "epochs", "cd_steps"):
            _require_count(name, getattr(self, name))
        if self.lam is not None:
            _require_positive("lambda", self.lam)
        if self.init not in (INIT_RANDOM_PATCHES, INIT_RANDOM_GAUSSIAN):
            raise ConfigInvalid(f"unknown init method {self.init!r}")
        if self.ordering not in (ORDER_SEQUENTIAL, ORDER_SHUFFLED):
            raise ConfigInvalid(f"unknown ordering {self.ordering!r}")
        if self.rate_schedule not in (RATE_ADAPTIVE, RATE_NATURAL):
            raise ConfigInvalid(f"unknown rate schedule {self.rate_schedule!r}")
        if self.rate_schedule == RATE_NATURAL:
            NaturalRateSchedule(self.rate_a, self.rate_b)
        _require_seed(self.seed)

    def effective_lambda(self, p: int) -> float:
        if self.lam is not None:
            return float(self.lam)
        return DEFAULT_LAMBDA_SCALE / math.sqrt(p)


@dataclass(frozen=True)
class EpochStats:
    """Per-epoch measurements recorded by every trainer.

    ``objective`` is the dataset average of the penalized reconstruction
    cost, evaluated at epoch end with the then-current dictionary and
    the codes stored during the epoch (no extra solves).  Wall times
    split the epoch into its encoding and dictionary-update phases; the
    objective evaluation itself is in neither, so their sum understates
    the epoch's wall time.
    """

    epoch: int
    objective: float
    time_code_update: float
    time_dict_update: float
    mean_support: float
    max_support: int


@dataclass(eq=False)
class CDWorkspace:
    """Caller-owned residual for coordinate descent.

    ``residual`` must hold x - D z on entry to any cycle; the cycle
    updates it in place and leaves it consistent on exit.  The engine takes
    it by address: a writable, C-contiguous float64 vector (else ConfigInvalid)
    of length p (else DimensionMismatch), holding no NaN or Inf (else NonFinite).
    """

    residual: np.ndarray

    @classmethod
    def prepared(cls, D: Dictionary, z: SparseCode, x) -> "CDWorkspace":
        """Workspace whose residual is computed fresh as x - D z."""
        return cls(_residual(D, z, x))


# ---------------------------------------------------------------------------
# The sample contract
# ---------------------------------------------------------------------------

def _fit_sample(D: Dictionary, x, z: Union[SparseCode, None] = None) -> np.ndarray:
    """Return the float64 vector of sample ``x``; it must fit ``D``, and so must code ``z``.

    ``x`` is a Sample or a 1-D array-like of length ``D.p``; ``z``, when
    given, must be a code over ``D.m`` atoms.
    """
    v = x.values if isinstance(x, Sample) else np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size != D.p:
        raise DimensionMismatch(f"sample of shape {v.shape} does not fit atoms of length {D.p}")
    if z is not None and z.m != D.m:
        raise DimensionMismatch(f"code ambient {z.m} != atom count {D.m}")
    return v


def _residual(D: Dictionary, z: SparseCode, x) -> np.ndarray:
    """Check through :func:`_fit_sample` that ``x`` and ``z`` fit ``D``; return a fresh x - D z."""
    return _minus_code(D, z, _fit_sample(D, x, z))


def _minus_code(D: Dictionary, z: SparseCode, v: np.ndarray) -> np.ndarray:
    """A fresh v - D z for a vector ``v`` and a code ``z`` already checked to fit ``D``, by
    :func:`_fit_sample` or, for a whole matrix and its code store, by their callers."""
    r = v.astype(np.float64, copy=True)
    if z.nnz:
        r -= D.atoms[:, z.indices] @ z.values
    return r


def _fit_codes(D: Dictionary, codes: Sequence[SparseCode], ds: DataSet) -> _CodeStore:
    """The store of ``codes``, one per sample of ``ds``; both must fit ``D``, and ``ds``
    hold at least one sample."""
    if ds.n == 0:
        raise Empty("no samples")
    if len(codes) != ds.n:
        raise DimensionMismatch(f"{len(codes)} codes for {ds.n} samples")
    # one check for all: every sample has the shape of np.empty(ds.p)
    _fit_sample(D, np.empty(ds.p), next((c for c in codes if c.m != D.m), None))
    return _CodeStore.of(codes, D.m)


def _require_finite(X: np.ndarray) -> None:
    """Raise NonFinite naming the first column (sample) of ``X`` that holds NaN or Inf."""
    finite = np.isfinite(X).all(axis=0)
    if not finite.all():
        raise NonFinite(f"sample {int(np.argmin(finite))} contains NaN or Inf")


def validate_dataset(ds: Union[DataSet, Sequence[Sample]]) -> None:
    """Check every sample invariant; raise for the first sample that breaks one.

    Accepts either a DataSet or a raw sequence of Samples (the latter is
    how unequal lengths can be detected at all).  A sample is checked for
    finite values, then, unless flagged preprocessed, for a squared norm
    that does not overflow (NonFinite: training would report an infinite
    objective), and if flagged, for zero mean and unit norm to within
    ``PREPROCESS_TOL``.  Each check runs on the whole matrix and names the
    first sample that fails it.
    """
    if isinstance(ds, DataSet):
        X, flagged = ds.X, np.full(ds.n, ds.preprocessed)
    else:
        samples = list(ds)
        X = DataSet.from_samples(samples).X
        flagged = np.array([s.preprocessed for s in samples], dtype=bool)
    if X.shape[1] == 0:
        raise Empty("no samples to validate")
    _require_finite(X)
    with np.errstate(over="ignore"):
        square = np.einsum("ij,ij->j", X, X)  # no p x n temporary
    huge = ~flagged & np.isinf(square)
    if huge.any():
        raise NonFinite(f"sample {int(np.argmax(huge))} has a squared norm that overflows")
    if flagged.any():
        mean = X.mean(axis=0)
        norm = np.sqrt(square)
        bad_mean = np.abs(mean) > PREPROCESS_TOL
        bad = flagged & (bad_mean | (np.abs(norm - 1.0) > PREPROCESS_TOL))
        if bad.any():
            i = int(np.argmax(bad))
            if bad_mean[i]:
                raise InvariantViolation(f"sample {i}: flagged preprocessed but mean is {mean[i]}")
            raise InvariantViolation(f"sample {i}: flagged preprocessed but norm is {norm[i]}")
