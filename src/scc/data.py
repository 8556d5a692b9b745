"""Data ingestion and synthetic ground truth.

Pipeline pieces: slide a square window over a grayscale image, drop
flat patches, center and normalize the samples, seed a dictionary from
the data or from Gaussian noise, or fabricate a dataset with a known
sparse structure for controlled experiments.

Centering and normalizing is one whole-matrix computation, shared by
single samples, datasets and the planted generator.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    ConfigInvalid,
    DataSet,
    DegenerateSample,
    Dictionary,
    DimensionMismatch,
    Empty,
    ImageTooSmall,
    INIT_RANDOM_GAUSSIAN,
    INIT_RANDOM_PATCHES,
    Sample,
    SparseCode,
    rng_from_seed,
    _require_count,
    _require_positive,
)
from .dictionary import project_unit_ball

DEFAULT_STD_THRESHOLD = 1e-6  # pixel units; "flat" patches fall below this

# centered vectors shorter than this cannot be scaled without overflow
_MIN_NORM = 1e-154


def extract_patches(
    image: np.ndarray,
    window: int = 16,
    stride: int = 16,
    std_threshold: float = DEFAULT_STD_THRESHOLD,
) -> DataSet:
    """Slide a window over ``image`` and keep the non-flat patches, raw.

    The windows start every ``stride`` pixels, row by row, and each is
    flattened row-major into a length window^2 vector; numpy cuts them
    all in one strided view.  Patches whose pixel standard deviation
    falls below ``std_threshold`` are discarded, so the result may hold
    zero samples.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D grayscale image, got shape {img.shape}")
    window = _require_count("window", window)
    stride = _require_count("stride", stride)
    rows, cols = img.shape
    if rows < window or cols < window:
        raise ImageTooSmall(f"image {rows}x{cols} is smaller than the {window}x{window} window")
    windows = sliding_window_view(img, (window, window))[::stride, ::stride]
    W = windows.reshape(-1, window * window)  # one window per row, in the order they lie
    return DataSet._adopt(W[W.std(axis=1) >= std_threshold].T)  # the mask's pick is a copy


def preprocess(s: Sample) -> Sample:
    """Center to zero mean, scale to unit norm, and flag the result."""
    return Sample(_center_and_scale(s.values[:, None])[:, 0], preprocessed=True)


def preprocess_dataset(ds: DataSet) -> DataSet:
    """Center every sample to zero mean, scale it to unit norm, and flag the result."""
    if ds.n == 0:
        raise Empty("dataset has no samples")
    return DataSet._adopt(_center_and_scale(ds.X), preprocessed=True)


def _center_and_scale(X: np.ndarray) -> np.ndarray:
    """Fresh Fortran-ordered ``X`` with every column centered and scaled to unit norm.

    Norms are taken column by column, so each column has the bits of
    ``(v - v.mean()) / np.linalg.norm(v - v.mean())`` for its vector v.
    """
    C = np.asfortranarray(X - X.mean(axis=0))
    norms = np.array([np.linalg.norm(c) for c in C.T])
    flat = np.flatnonzero(norms < _MIN_NORM)
    if flat.size:
        raise DegenerateSample(f"sample {flat[0]} has (effectively) zero variance")
    C /= norms
    return C


def init_dictionary(ds: DataSet, m: int, method: str, seed: int) -> Dictionary:
    """Seed a dictionary of ``m`` atoms from the data or from noise.

    ``random_patches`` copies m samples drawn without replacement (with
    replacement once m exceeds n); ``random_gaussian`` draws standard
    normal columns scaled to unit norm.  Every column ends up inside the
    unit ball, and identical seeds give identical dictionaries.
    """
    if ds.n == 0:
        raise Empty("cannot initialize from an empty dataset")
    m = _require_count("dictionary size", m)
    rng = rng_from_seed(seed)
    if method == INIT_RANDOM_PATCHES:
        picks = rng.choice(ds.n, size=m, replace=m > ds.n)
        atoms = np.empty((ds.p, m), order="F")
        for j, i in enumerate(picks):
            atoms[:, j] = project_unit_ball(ds.column(int(i)))
    elif method == INIT_RANDOM_GAUSSIAN:
        atoms = np.asfortranarray(rng.standard_normal((ds.p, m)))
        atoms /= np.sqrt((atoms * atoms).sum(axis=0))
    else:
        raise ConfigInvalid(f"unknown init method {method!r}")
    return Dictionary(atoms)


def generate_planted(
    p: int,
    m: int,
    n: int,
    k_sparsity: int,
    noise_sigma: float,
    seed: int,
) -> Tuple[DataSet, Dictionary, List[SparseCode]]:
    """Fabricate data with known sparse structure.

    Draws a ground-truth dictionary with unit-norm Gaussian atoms, then
    builds each sample as a k-sparse combination (uniform support,
    standard normal weights) plus optional Gaussian noise, and finally
    centers and normalizes it.  The atoms are centered to zero mean
    before scaling so that the planted sparse structure survives sample
    preprocessing (centering a combination of zero-mean atoms is a
    no-op).  Returns the dataset, the generating dictionary, and the
    planted codes; the codes describe the samples before normalization,
    but their supports are the ground truth that recovery experiments
    care about.
    """
    p, m, n, k_sparsity = (_require_count(name, value) for name, value in
                           (("p", p), ("m", m), ("n", n), ("k_sparsity", k_sparsity)))
    if p < 2:
        # a centred atom of one row is zero and cannot be scaled to unit norm
        raise ConfigInvalid(f"p must be >= 2, got {p}")
    if k_sparsity > m:
        raise ConfigInvalid(f"k_sparsity must be in [1, {m}], got {k_sparsity}")
    _require_positive("noise_sigma", noise_sigma, or_zero=True)
    rng = rng_from_seed(seed)
    atoms = np.asfortranarray(rng.standard_normal((p, m)))
    atoms -= atoms.mean(axis=0)
    atoms /= np.sqrt((atoms * atoms).sum(axis=0))
    truth = Dictionary(atoms)
    X = np.empty((p, n), order="F")
    codes: List[SparseCode] = []
    for i in range(n):
        support = np.sort(rng.choice(m, size=k_sparsity, replace=False)).astype(np.int64)
        weights = rng.standard_normal(k_sparsity)
        while np.any(weights == 0.0):  # zero draw has measure zero; keep codes honest
            weights = rng.standard_normal(k_sparsity)
        X[:, i] = truth.atoms[:, support] @ weights
        if noise_sigma > 0:
            X[:, i] += noise_sigma * rng.standard_normal(p)
        codes.append(SparseCode(support, weights, m))
    return preprocess_dataset(DataSet._adopt(X)), truth, codes
