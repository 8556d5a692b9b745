import numpy as np
import pytest

from scc import (
    ConfigInvalid,
    DataSet,
    Dictionary,
    DimensionMismatch,
    HessianDiag,
    SparseCode,
    ZeroCurvature,
    full_gradient_step,
    hessian_accumulate,
    learning_rate,
    project_unit_ball,
    sgd_update_support,
)
from scc import rng_from_seed

from conftest import random_ball_atoms, random_unit_atoms


def dense_sgd_oracle(D, z, residual_neg, H):
    """Reference: dense per-column projected gradient step with rates 1/h_jj."""
    atoms = D.atoms.copy(order="F")
    zd = z.to_dense()
    for j in range(D.m):
        if zd[j] != 0.0:
            eta = 1.0 / H.diag[j]
            col = atoms[:, j] - eta * zd[j] * residual_neg
            nrm = np.linalg.norm(col)
            if nrm > 1.0:
                col = col / nrm
            atoms[:, j] = col
    return atoms


def random_sgd_case(seed, p=8, m=16, support=3):
    rng = rng_from_seed(seed)
    D = Dictionary(random_ball_atoms(rng, p, m))
    idx = np.sort(rng.choice(m, size=support, replace=False)).astype(np.int64)
    vals = rng.standard_normal(support)
    vals[vals == 0.0] = 0.5
    z = SparseCode(idx, vals, m)
    H = HessianDiag.zeros(m)
    hessian_accumulate(H, z)
    if rng.random() < 0.5:  # vary curvature beyond one accumulation
        hessian_accumulate(H, z)
    x = rng.standard_normal(p)
    residual_neg = D.atoms @ z.to_dense() - x
    return D, z, residual_neg, H


class TestProjectUnitBall:
    def test_scales_exterior_point(self):
        d = np.array([2.0, 0.0])
        np.testing.assert_allclose(project_unit_ball(d), [1.0, 0.0])

    def test_interior_point_untouched(self):
        d = np.array([0.3, 0.4])
        assert project_unit_ball(d) is d

    def test_origin(self):
        np.testing.assert_array_equal(project_unit_ball(np.zeros(3)), np.zeros(3))

    def test_output_always_feasible(self, rng):
        for _ in range(50):
            d = rng.standard_normal(6) * rng.uniform(0, 5)
            assert np.linalg.norm(project_unit_ball(d)) <= 1.0 + 1e-12


class TestHessianAccumulate:
    def test_definition(self):
        H = HessianDiag.zeros(3)
        z = SparseCode(np.array([0, 2]), np.array([0.4, 0.3]), 3)
        hessian_accumulate(H, z)
        np.testing.assert_allclose(H.diag, [0.16, 0.0, 0.09])

    def test_additivity(self):
        H = HessianDiag.zeros(3)
        z = SparseCode(np.array([0, 2]), np.array([0.4, 0.3]), 3)
        hessian_accumulate(H, z)
        hessian_accumulate(H, z)
        np.testing.assert_allclose(H.diag, [0.32, 0.0, 0.18])

    def test_empty_support_noop(self):
        H = HessianDiag(np.array([1.0, 2.0]))
        hessian_accumulate(H, SparseCode.zero(2))
        np.testing.assert_array_equal(H.diag, [1.0, 2.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            hessian_accumulate(HessianDiag.zeros(3), SparseCode.zero(4))


class TestLearningRate:
    def test_reciprocal(self):
        H = HessianDiag(np.array([0.16]))
        assert learning_rate(H, 0) == pytest.approx(6.25)

    def test_halves_after_double_accumulation(self):
        H = HessianDiag(np.array([0.32]))
        assert learning_rate(H, 0) == pytest.approx(3.125)

    def test_zero_curvature(self):
        with pytest.raises(ZeroCurvature):
            learning_rate(HessianDiag.zeros(2), 1)

    def test_rate_decay_across_accumulations(self):
        H = HessianDiag.zeros(4)
        z = SparseCode(np.array([1]), np.array([0.7]), 4)
        rates = []
        for _ in range(10):
            hessian_accumulate(H, z)
            rates.append(learning_rate(H, 1))
        assert all(b <= a for a, b in zip(rates, rates[1:]))


class TestSgdUpdateSupport:
    def test_hand_example(self):
        D = Dictionary(np.array([[1.0], [0.0]]))
        z = SparseCode(np.array([0]), np.array([1.0]), 1)
        x = np.array([0.0, 1.0])
        H = hessian_accumulate(HessianDiag.zeros(1), z)
        residual_neg = D.atoms @ z.to_dense() - x  # (1, -1)
        out = sgd_update_support(D, z, residual_neg, H)
        np.testing.assert_allclose(out.atoms[:, 0], [0.0, 1.0])
        np.testing.assert_allclose(np.linalg.norm(out.atoms[:, 0]), 1.0)

    def test_empty_support_returns_identical(self):
        rng = rng_from_seed(8)
        D = Dictionary(random_unit_atoms(rng, 4, 6))
        out = sgd_update_support(D, SparseCode.zero(6), np.zeros(4), HessianDiag.zeros(6))
        assert out.atoms.tobytes() == D.atoms.tobytes()

    def test_matches_dense_oracle(self):
        for seed in range(20):
            D, z, residual_neg, H = random_sgd_case(7000 + seed)
            out = sgd_update_support(D, z, residual_neg, H)
            expected = dense_sgd_oracle(D, z, residual_neg, H)
            np.testing.assert_allclose(out.atoms, expected, rtol=0, atol=1e-12)
            off = np.setdiff1d(np.arange(D.m), z.indices)
            assert out.atoms[:, off].tobytes() == D.atoms[:, off].tobytes()

    def test_input_untouched_and_output_feasible(self):
        D, z, residual_neg, H = random_sgd_case(99)
        before = D.atoms.copy()
        out = sgd_update_support(D, z, residual_neg, H)
        np.testing.assert_array_equal(D.atoms, before)
        assert np.linalg.norm(out.atoms, axis=0).max() <= 1.0 + 1e-12

    def test_requires_accumulated_curvature(self):
        D, z, residual_neg, H = random_sgd_case(5)
        with pytest.raises(ZeroCurvature, match=f"column {z.indices[0]} has"):
            sgd_update_support(D, z, residual_neg, HessianDiag.zeros(D.m))
        H.diag[z.indices[-1]] = 0.0  # only the last supported cell is empty
        with pytest.raises(ZeroCurvature, match=f"column {z.indices[-1]} has"):
            sgd_update_support(D, z, residual_neg, H)


class TestFullGradientStep:
    def test_zero_codes_leave_dictionary_unchanged(self):
        rng = rng_from_seed(11)
        D = Dictionary(random_unit_atoms(rng, 5, 7))
        ds = DataSet(rng.standard_normal((5, 3)))
        codes = [SparseCode.zero(7)] * 3
        out = full_gradient_step(D, codes, ds, eta=0.7)
        np.testing.assert_array_equal(out.atoms, D.atoms)

    def test_single_sample_matches_dense_step(self):
        rng = rng_from_seed(13)
        D = Dictionary(random_unit_atoms(rng, 6, 9))
        x = rng.standard_normal(6)
        idx = np.array([1, 4], dtype=np.int64)
        z = SparseCode(idx, np.array([0.8, -0.5]), 9)
        ds = DataSet(x.reshape(-1, 1))
        eta = 1.0
        out = full_gradient_step(D, [z], ds, eta)
        dense = D.atoms - eta * np.outer(D.atoms @ z.to_dense() - x, z.to_dense())
        norms = np.linalg.norm(dense, axis=0)
        dense[:, norms > 1.0] /= norms[norms > 1.0]
        np.testing.assert_allclose(out.atoms, dense, atol=1e-14)

    def test_stationary_at_least_squares_solution(self):
        rng = rng_from_seed(17)
        p, m, n = 4, 6, 40
        codes = []
        Z = np.zeros((m, n))
        for i in range(n):
            idx = np.sort(rng.choice(m, size=2, replace=False)).astype(np.int64)
            vals = rng.standard_normal(2)
            vals[vals == 0.0] = 1.0
            codes.append(SparseCode(idx, vals, m))
            Z[idx, i] = vals
        X = rng.standard_normal((p, n))
        optimum = X @ Z.T @ np.linalg.inv(Z @ Z.T)
        scale = 0.9 / np.linalg.norm(optimum, axis=0).max()
        D = Dictionary(optimum * scale)
        ds = DataSet(X * scale)
        out = full_gradient_step(D, codes, ds, eta=1.0)
        np.testing.assert_allclose(out.atoms, D.atoms, rtol=0, atol=1e-12)

    def test_small_step_never_increases_quadratic(self):
        for seed in range(25):
            rng = rng_from_seed(8000 + seed)
            D = Dictionary(random_ball_atoms(rng, 5, 8))
            x = rng.standard_normal(5)
            idx = np.sort(rng.choice(8, size=3, replace=False)).astype(np.int64)
            vals = rng.standard_normal(3)
            vals[vals == 0.0] = 1.0
            z = SparseCode(idx, vals, 8)
            ds = DataSet(x.reshape(-1, 1))
            eta = 1.0 / float(z.to_dense() @ z.to_dense())
            out = full_gradient_step(D, [z], ds, eta)
            before = 0.5 * np.linalg.norm(D.atoms @ z.to_dense() - x) ** 2
            after = 0.5 * np.linalg.norm(out.atoms @ z.to_dense() - x) ** 2
            assert after <= before + 1e-12

    def test_rejects_bad_eta_and_counts(self):
        rng = rng_from_seed(19)
        D = Dictionary(random_unit_atoms(rng, 4, 5))
        ds = DataSet(rng.standard_normal((4, 2)))
        with pytest.raises(ConfigInvalid):
            full_gradient_step(D, [SparseCode.zero(5)] * 2, ds, eta=0.0)
        with pytest.raises(DimensionMismatch):
            full_gradient_step(D, [SparseCode.zero(5)], ds, eta=0.1)
