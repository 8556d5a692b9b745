import numpy as np
import pytest

from scc import (
    DataSet,
    Dictionary,
    DimensionMismatch,
    Empty,
    SparseCode,
    encode_scc,
    lasso_oracle_cd,
    max_pool,
    objective,
    sample_objective,
    sparsity_stats,
)
from scc import generate_planted, rng_from_seed

from conftest import random_instance


def dense_objective(D, z, x, lam):
    """Independent dense evaluation of the same cost."""
    zd = z.to_dense()
    r = D.atoms @ zd - np.asarray(x, dtype=float)
    return 0.5 * float(r @ r) + lam * float(np.abs(zd).sum())


class TestSampleObjective:
    def test_identity_arithmetic(self):
        D = Dictionary(np.eye(2))
        z = SparseCode(np.array([0]), np.array([0.4]), 2)
        x = np.array([0.5, 0.05])
        assert sample_objective(D, z, x, 0.1) == pytest.approx(0.04625)

    def test_zero_code_unit_sample(self):
        D, x = random_instance(seed=1, p=6, m=9)
        assert sample_objective(D, SparseCode.zero(9), x, 0.1) == pytest.approx(0.5)

    def test_matches_dense_path(self):
        for seed in range(30):
            D, x = random_instance(seed=500 + seed, p=7, m=11)
            z = lasso_oracle_cd(D, x, 0.08, 1e-10)
            got = sample_objective(D, z, x, 0.08)
            want = dense_objective(D, z, x, 0.08)
            assert got == pytest.approx(want, rel=1e-14)

    def test_dimension_mismatch(self):
        D = Dictionary(np.eye(2))
        with pytest.raises(DimensionMismatch):
            sample_objective(D, SparseCode.zero(3), np.zeros(2), 0.1)


class TestObjective:
    def test_singleton_average(self):
        D, x = random_instance(seed=2, p=5, m=8)
        z = lasso_oracle_cd(D, x, 0.1, 1e-10)
        ds = DataSet(np.asarray(x).reshape(-1, 1))
        assert objective(D, [z], ds, 0.1) == pytest.approx(sample_objective(D, z, x, 0.1))

    def test_zero_codes_unit_data(self):
        rng = rng_from_seed(3)
        X = rng.standard_normal((6, 5))
        X /= np.linalg.norm(X, axis=0)
        D = Dictionary(np.eye(6))
        val = objective(D, [SparseCode.zero(6)] * 5, DataSet(X), 0.2)
        assert val == pytest.approx(0.5)

    def test_two_sample_mean(self):
        D = Dictionary(np.eye(2))
        z1 = SparseCode(np.array([0]), np.array([0.4]), 2)
        z2 = SparseCode.zero(2)
        x1 = np.array([0.5, 0.05])
        x2 = np.array([0.6, 0.8])  # unit norm
        ds = DataSet(np.column_stack([x1, x2]))
        assert objective(D, [z1, z2], ds, 0.1) == pytest.approx(0.273125)


class TestSparsityStats:
    def test_mean_and_max(self):
        codes = [
            SparseCode(np.array([0, 1]), np.array([1.0, 1.0]), 6),
            SparseCode(np.array([0, 1, 2, 3]), np.array([1.0, 1.0, 1.0, 1.0]), 6),
        ]
        stats = sparsity_stats(codes)
        assert stats.mean_support == pytest.approx(3.0)
        assert stats.max_support == 4

    def test_all_zero(self):
        stats = sparsity_stats([SparseCode.zero(4)] * 3)
        assert stats.mean_support == 0.0
        assert stats.max_support == 0

    def test_histogram_sums_to_count(self, rng):
        codes = []
        for _ in range(25):
            size = int(rng.integers(0, 5))
            idx = np.sort(rng.choice(8, size=size, replace=False)).astype(np.int64)
            codes.append(SparseCode(idx, np.ones(size), 8))
        stats = sparsity_stats(codes)
        assert stats.histogram.sum() == 25

    def test_empty_rejected(self):
        with pytest.raises(Empty):
            sparsity_stats([])


class TestMaxPool:
    def test_singleton(self):
        z = SparseCode(np.array([1]), np.array([-0.7]), 3)
        np.testing.assert_allclose(max_pool([z]), [0.0, 0.7, 0.0])

    def test_pairwise_magnitudes(self):
        a = SparseCode(np.array([0]), np.array([0.4]), 2)
        b = SparseCode(np.array([0, 1]), np.array([-0.6, 0.1]), 2)
        np.testing.assert_allclose(max_pool([a, b]), [0.6, 0.1])

    def test_permutation_invariant(self, rng):
        codes = []
        for _ in range(6):
            size = int(rng.integers(1, 5))
            idx = np.sort(rng.choice(10, size=size, replace=False)).astype(np.int64)
            vals = rng.standard_normal(size)
            vals[vals == 0.0] = 1.0
            codes.append(SparseCode(idx, vals, 10))
        fwd = max_pool(codes)
        rev = max_pool(list(reversed(codes)))
        np.testing.assert_array_equal(fwd, rev)

    def test_errors(self):
        with pytest.raises(Empty):
            max_pool([])
        with pytest.raises(DimensionMismatch):
            max_pool([SparseCode.zero(3), SparseCode.zero(4)])


class TestObjectiveProperties:
    def test_oracle_never_loses_to_cheap_encoder(self):
        for seed in range(15):
            D, x = random_instance(seed=900 + seed, p=8, m=14)
            lam = 0.1
            z_cheap = encode_scc(D, SparseCode.zero(14), x, lam, steps=3).code
            z_star = lasso_oracle_cd(D, x, lam, 1e-12)
            assert sample_objective(D, z_star, x, lam) <= sample_objective(D, z_cheap, x, lam) + 1e-8

    def test_mean_support_weakly_decreasing_in_lambda(self):
        ds, Dstar, _ = generate_planted(16, 32, 60, 3, 0.01, seed=11)
        means = []
        for lam in (0.05, 0.1, 0.2, 0.4):
            codes = [lasso_oracle_cd(Dstar, ds.column(i), lam, 1e-10) for i in range(ds.n)]
            means.append(sparsity_stats(codes).mean_support)
        for lo, hi in zip(means[1:], means[:-1]):
            assert lo <= hi + 1e-9
