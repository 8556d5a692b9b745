import math

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from scc import (
    CDWorkspace,
    ConfigInvalid,
    Dictionary,
    DimensionMismatch,
    MaxIterationsExceeded,
    NonFinite,
    SparseCode,
    cd_full_cycle,
    cd_support_cycle,
    encode_scc,
    lasso_oracle_cd,
    lasso_oracle_cd_batch,
    lasso_oracle_prox,
    sample_objective,
    soft_threshold,
)
from scc import rng_from_seed
from scc.lasso import DEFAULT_MAX_CYCLES

from conftest import (CD_PATHS, NATIVE_POSSIBLE, cd_path, random_ball_atoms, random_instance,
                      random_unit_atoms, ref_oracle, ref_oracle_full, ref_pass)

# tolerances that no solver takes: each must be finite and > 0
_BAD_TOLS = (0.0, -1e-10, math.inf, math.nan)


class TestSoftThreshold:
    def test_positive_branch(self):
        assert soft_threshold(0.25, 0.1) == pytest.approx(0.15)

    def test_dead_zone(self):
        assert soft_threshold(-0.05, 0.1) == 0.0

    def test_negative_branch(self):
        assert soft_threshold(-0.30, 0.1) == pytest.approx(-0.20)

    def test_ties_map_to_zero(self):
        assert soft_threshold(0.1, 0.1) == 0.0
        assert soft_threshold(-0.1, 0.1) == 0.0

    def test_shrinks_magnitude(self):
        rng = rng_from_seed(5)
        for v in rng.uniform(-3, 3, size=200):
            out = soft_threshold(float(v), 0.35)
            assert abs(out) <= abs(v)
            assert out == 0.0 or np.sign(out) == np.sign(v)


def identity_setup(lam=0.1):
    D = Dictionary(np.eye(2))
    x = np.array([0.5, 0.05])
    z = SparseCode.zero(2)
    ws = CDWorkspace.prepared(D, z, x)
    return D, x, z, ws, lam


class TestFullCycle:
    def test_identity_closed_form(self):
        D, x, z, ws, lam = identity_setup()
        res = cd_full_cycle(D, z, x, ws, lam)
        np.testing.assert_array_equal(res.code.indices, [0])
        np.testing.assert_allclose(res.code.values, [0.4])
        np.testing.assert_allclose(res.residual, [0.1, 0.05])
        assert res.cycles_run == 1

    def test_identity_fixed_point(self):
        D, x, z, ws, lam = identity_setup()
        first = cd_full_cycle(D, z, x, ws, lam)
        second = cd_full_cycle(D, first.code, x, ws, lam)
        np.testing.assert_array_equal(second.code.indices, first.code.indices)
        np.testing.assert_array_equal(second.code.values, first.code.values)

    def test_repeated_cycles_reach_prox_objective(self):
        D, x = random_instance(seed=77, p=3, m=4)
        lam = 0.1
        z = SparseCode.zero(4)
        ws = CDWorkspace.prepared(D, z, x)
        for _ in range(10_000):
            res = cd_full_cycle(D, z, x, ws, lam)
            if np.max(np.abs(res.code.to_dense() - z.to_dense())) < 1e-10:
                z = res.code
                break
            z = res.code
        f_cd = sample_objective(D, z, x, lam)
        f_px = sample_objective(D, lasso_oracle_prox(D, x, lam, 1e-12), x, lam)
        assert abs(f_cd - f_px) <= 1e-8 * max(f_px, 1e-300)

    def test_dimension_mismatch(self):
        D, x, z, ws, lam = identity_setup()
        with pytest.raises(DimensionMismatch):
            cd_full_cycle(D, z, np.ones(3), ws, lam)
        with pytest.raises(DimensionMismatch):
            cd_full_cycle(D, SparseCode.zero(5), x, ws, lam)


class TestSupportCycle:
    def test_empty_support_is_noop(self):
        D, x, z, ws, lam = identity_setup()
        res = cd_support_cycle(D, z, x, ws, lam)
        assert res.code.nnz == 0
        np.testing.assert_array_equal(res.residual, x)

    def test_fixed_point_on_support(self):
        D, x, z, ws, lam = identity_setup()
        first = cd_full_cycle(D, z, x, ws, lam)
        res = cd_support_cycle(D, first.code, x, ws, lam)
        np.testing.assert_array_equal(res.code.indices, [0])
        np.testing.assert_allclose(res.code.values, [0.4])

    def test_coordinate_exits_dead_zone(self):
        # start with support {0, 1}; the full-lasso optimum keeps only 0,
        # and coordinate 1's correlation lands inside the dead zone
        v = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        D = Dictionary(np.column_stack([np.eye(3), v]))
        x = np.array([0.5, 0.05, 0.0])
        z = SparseCode(np.array([0, 1]), np.array([0.39, 0.03]), 4)
        ws = CDWorkspace.prepared(D, z, x)
        res = cd_support_cycle(D, z, x, ws, 0.1)
        np.testing.assert_array_equal(res.code.indices, [0])
        assert set(res.code.indices) < set(z.indices)

    def test_support_containment_random(self):
        for seed in range(40):
            D, x = random_instance(seed=seed, p=6, m=10)
            start = lasso_oracle_cd(D, x, 0.05, 1e-8)
            if start.nnz == 0:
                continue
            ws = CDWorkspace.prepared(D, start, x)
            res = cd_support_cycle(D, start, x, ws, 0.3)  # harsher penalty shrinks
            assert set(res.code.indices.tolist()) <= set(start.indices.tolist())


class TestEncode:
    def test_single_step_equals_full_cycle(self):
        D, x = random_instance(seed=3, p=5, m=9)
        z0 = SparseCode.zero(9)
        ws = CDWorkspace.prepared(D, z0, x)
        full = cd_full_cycle(D, z0, x, ws, 0.1)
        enc = encode_scc(D, z0, x, 0.1, steps=1)
        np.testing.assert_array_equal(enc.code.indices, full.code.indices)
        np.testing.assert_array_equal(enc.code.values, full.code.values)
        np.testing.assert_array_equal(enc.residual, full.residual)
        assert enc.cycles_run == 1

    def test_identity_three_steps(self):
        D, x, z, ws, lam = identity_setup()
        res = encode_scc(D, z, x, lam, steps=3)
        np.testing.assert_array_equal(res.code.indices, [0])
        np.testing.assert_allclose(res.code.values, [0.4])
        assert res.cycles_run == 3

    def test_objective_nonincreasing_in_steps(self):
        D, x = random_instance(seed=21, p=8, m=16)
        lam = 0.1
        z0 = SparseCode.zero(16)
        objs = [
            sample_objective(D, encode_scc(D, z0, x, lam, steps=S).code, x, lam)
            for S in (1, 3, 5, 7, 9)
        ]
        for earlier, later in zip(objs, objs[1:]):
            assert later <= earlier + 1e-12

    def test_rejects_bad_steps(self):
        D, x, z, ws, lam = identity_setup()
        with pytest.raises(ConfigInvalid):
            encode_scc(D, z, x, lam, steps=0)

    @pytest.mark.parametrize("steps", [2.5, True, False, "3", None, -1])
    def test_rejects_non_integer_steps(self, steps):
        D, x, z, ws, lam = identity_setup()
        with pytest.raises(ConfigInvalid):
            encode_scc(D, z, x, lam, steps=steps)

    def test_accepts_numpy_integer_steps(self):
        D, x, z, ws, lam = identity_setup()
        res = encode_scc(D, z, x, lam, steps=np.int64(2))
        assert res.cycles_run == 2 and type(res.cycles_run) is int
        _assert_same_bits(res.code, encode_scc(D, z, x, lam, steps=2).code)


class TestOracleCD:
    def test_identity_exact(self):
        D = Dictionary(np.eye(2))
        z = lasso_oracle_cd(D, np.array([0.5, 0.05]), 0.1, 1e-12)
        np.testing.assert_array_equal(z.indices, [0])
        np.testing.assert_array_equal(z.values, [0.4])

    def test_full_shrinkage(self):
        for seed in range(10):
            D, x = random_instance(seed=seed, p=6, m=8)
            # per-column dots, matching the update's own arithmetic, so
            # lam sits exactly on the dead-zone boundary (ties -> 0)
            lam = max(abs(float(D.atoms[:, j] @ x)) for j in range(D.m))
            z = lasso_oracle_cd(D, x, lam, 1e-12)
            assert z.nnz == 0

    def test_agrees_with_prox(self):
        for seed in range(10):
            D, x = random_instance(seed=100 + seed, p=8, m=16)
            f_cd = sample_objective(D, lasso_oracle_cd(D, x, 0.1, 1e-12), x, 0.1)
            f_px = sample_objective(D, lasso_oracle_prox(D, x, 0.1, 1e-12), x, 0.1)
            assert abs(f_cd - f_px) <= 1e-8 * max(f_cd, 1e-300)

    def test_iteration_cap(self):
        D = Dictionary(np.eye(2))
        with pytest.raises(MaxIterationsExceeded):
            lasso_oracle_cd(D, np.array([0.5, 0.05]), 0.1, 1e-12, max_cycles=1)

    def test_rejects_bad_tol(self):
        D = Dictionary(np.eye(2))
        for path in CD_PATHS if NATIVE_POSSIBLE else ("python",):
            for tol in _BAD_TOLS:
                with cd_path(path), pytest.raises(ConfigInvalid, match="tol"):
                    lasso_oracle_cd(D, np.zeros(2), 0.1, tol)


def _unit_columns(rng, p, n):
    X = rng.standard_normal((p, n))
    return X / np.linalg.norm(X, axis=0)


def _assert_batch_matches_oracle(D, X, lam, tol=1e-10):
    """Each batched code has the per-sample oracle's bits."""
    codes = lasso_oracle_cd_batch(D, X, lam, tol)
    assert len(codes) == X.shape[1]
    for i, code in enumerate(codes):
        _assert_same_bits(code, lasso_oracle_cd(D, X[:, i], lam, tol))
    return codes


class TestOracleCDBatch:
    @pytest.mark.parametrize("p,m", [(16, 32), (32, 64), (8, 24), (17, 40), (64, 256)])
    @pytest.mark.parametrize("n", [5, 24])
    def test_agrees_with_per_sample_oracle(self, p, m, n):
        rng = rng_from_seed(6000 + p + m + n)
        for unit in (True, False):
            atoms = random_unit_atoms(rng, p, m) if unit else random_ball_atoms(rng, p, m)
            X = _unit_columns(rng, p, n)
            for lam in (0.05, 0.2):
                _assert_batch_matches_oracle(Dictionary(atoms), X, lam)

    def test_single_sample(self):
        D, x = random_instance(seed=6100, p=16, m=32)
        _assert_batch_matches_oracle(D, x[:, None], 0.1)

    def test_all_zero_columns(self):
        rng = rng_from_seed(6200)
        D = Dictionary(random_unit_atoms(rng, 16, 32))
        X = _unit_columns(rng, 16, 24)
        X[:, ::2] = 0.0
        codes = _assert_batch_matches_oracle(D, X, 0.1)
        assert all(codes[i].nnz == 0 for i in range(0, X.shape[1], 2))
        assert all(z.nnz == 0 for z in lasso_oracle_cd_batch(D, np.zeros((16, 12)), 0.1, 1e-10))

    def test_duplicated_columns(self):
        rng = rng_from_seed(6300)
        D = Dictionary(random_unit_atoms(rng, 16, 32))
        X = np.repeat(_unit_columns(rng, 16, 3), 16, axis=1)
        codes = _assert_batch_matches_oracle(D, X, 0.1)
        for i in range(1, X.shape[1]):
            if np.array_equal(X[:, i], X[:, i - 1]):
                _assert_same_bits(codes[i], codes[i - 1])

    def test_rejects_bad_tol(self):
        D = Dictionary(np.eye(2))
        for path in CD_PATHS if NATIVE_POSSIBLE else ("python",):
            for tol in _BAD_TOLS:
                with cd_path(path), pytest.raises(ConfigInvalid, match="tol"):
                    lasso_oracle_cd_batch(D, np.zeros((2, 3)), 0.1, tol)

    def test_rejects_wrong_row_count(self):
        D = Dictionary(np.eye(3))
        for X in (np.zeros((2, 10)), np.zeros((4, 1)), np.zeros(3)):
            with pytest.raises(DimensionMismatch):
                lasso_oracle_cd_batch(D, X, 0.1, 1e-10)

    @pytest.mark.parametrize("n", [1, 7, 16])
    def test_iteration_cap(self, n):
        rng = rng_from_seed(6400 + n)
        D = Dictionary(random_unit_atoms(rng, 8, 16))
        X = _unit_columns(rng, 8, n)
        with pytest.raises(MaxIterationsExceeded):
            lasso_oracle_cd(D, X[:, 0], 0.1, 1e-10, max_cycles=1)
        with pytest.raises(MaxIterationsExceeded):
            lasso_oracle_cd_batch(D, X, 0.1, 1e-10, max_cycles=1)

    @pytest.mark.parametrize("path", CD_PATHS)
    @pytest.mark.parametrize("p,m", [(1, 4), (16, 32), (17, 40), (64, 256)])
    def test_each_path_matches_reference(self, path, p, m):
        # the kernel's one call per sample, and the Python reference loop,
        # against the test's own loop column by column
        rng = rng_from_seed(6500 + p + m)
        D = Dictionary(random_ball_atoms(rng, p, m))
        X = _unit_columns(rng, p, 24)
        X[:, 5] = 0.0
        with cd_path(path):
            codes = lasso_oracle_cd_batch(D, X, 0.1, 1e-10)
            with pytest.raises(MaxIterationsExceeded, match="in 2 cycles"):
                lasso_oracle_cd_batch(D, X, 0.1, 1e-10, max_cycles=2)
        for j, code in enumerate(codes):
            _assert_same_bits(code, ref_oracle(D, X[:, j], 0.1, 1e-10)[0])

    @pytest.mark.parametrize("path", CD_PATHS)
    def test_large_norm_samples_code_or_fail_typed(self, path):
        # at norm 1e8, rounding alone can move a coordinate by more than the absolute
        # tol 1e-10 in every full pass, and this instance raises on both engines: each
        # engine must either code the samples or raise MaxIterationsExceeded within the
        # budget, and both must do the same
        rng = rng_from_seed(6800)
        D = Dictionary(random_unit_atoms(rng, 8, 16))
        X = 1e8 * _unit_columns(rng, 8, 5)

        def outcome(engine):
            with cd_path(engine):
                try:
                    return lasso_oracle_cd_batch(D, X, 0.1, 1e-10, max_cycles=1000)
                except MaxIterationsExceeded as e:
                    return str(e)

        got = outcome(path)
        if isinstance(got, str):
            assert got == "coordinate descent did not converge in 1000 cycles"
            assert outcome("python") == got
        else:
            want = outcome("python")
            assert not isinstance(want, str)
            for x, code, ref in zip(X.T, got, want):
                _assert_same_bits(code, ref)
                assert sample_objective(D, code, x, 0.1) <= 0.5 * (x @ x)

    def test_rejects_non_integer_cycle_cap(self):
        D = Dictionary(np.eye(2))
        for cap in (2.5, True, "10", 0, -1):
            with pytest.raises(ConfigInvalid):
                lasso_oracle_cd_batch(D, np.ones((2, 3)), 0.1, 1e-10, max_cycles=cap)
            with pytest.raises(ConfigInvalid):
                lasso_oracle_cd(D, np.ones(2), 0.1, 1e-10, max_cycles=cap)


_SOLVERS = {
    "encode_scc": lambda D, x, lam: encode_scc(D, SparseCode.zero(D.m), x, lam, 3),
    "cd_full_cycle": lambda D, x, lam: cd_full_cycle(
        D, SparseCode.zero(D.m), x, CDWorkspace(x.copy()), lam
    ),
    "cd_support_cycle": lambda D, x, lam: cd_support_cycle(
        D, SparseCode.zero(D.m), x, CDWorkspace(x.copy()), lam
    ),
    "lasso_oracle_cd": lambda D, x, lam: lasso_oracle_cd(D, x, lam, 1e-10),
    "lasso_oracle_cd_batch": lambda D, x, lam: lasso_oracle_cd_batch(
        D, np.tile(x[:, None], 16), lam, 1e-10
    ),
    "lasso_oracle_prox": lambda D, x, lam: lasso_oracle_prox(D, x, lam, 1e-10),
}


@pytest.mark.parametrize("lam", [math.nan, math.inf, 0.0, -0.1])
@pytest.mark.parametrize("solver", sorted(_SOLVERS))
def test_solvers_reject_bad_lambda(solver, lam):
    D = Dictionary(np.eye(4))
    x = np.array([1.0, -0.5, 0.2, 0.0])
    with pytest.raises(ConfigInvalid, match="lambda"):
        _SOLVERS[solver](D, x, lam)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("solver", ["lasso_oracle_cd", "lasso_oracle_cd_batch", "lasso_oracle_prox"])
def test_oracles_reject_non_finite_samples(solver, bad):
    D = Dictionary(np.eye(3))
    x = np.array([1.0, bad, 0.5])
    with pytest.raises(NonFinite, match="sample 0 contains NaN or Inf"):
        _SOLVERS[solver](D, x, 0.1)
    if solver == "lasso_oracle_cd_batch":  # the first bad column is named
        with pytest.raises(NonFinite, match="sample 1 contains NaN or Inf"):
            lasso_oracle_cd_batch(D, np.column_stack([np.ones(3), x, x]), 0.1, 1e-10)


@pytest.mark.parametrize("path", CD_PATHS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("solver", sorted(_SOLVERS))
def test_solvers_reject_non_finite_samples(solver, bad, path):
    D = Dictionary(np.eye(4)[:, :3])
    x = np.array([0.5, bad, 0.1, 0.0])
    with cd_path(path), pytest.raises(NonFinite, match="sample 0 contains NaN or Inf"):
        _SOLVERS[solver](D, x, 0.1)


@pytest.mark.parametrize("path", CD_PATHS)
@pytest.mark.parametrize("cycle", [cd_full_cycle, cd_support_cycle])
def test_cycles_reject_residuals_the_engine_cannot_take(cycle, path):
    # the engine updates the residual in place by address; no pass runs on any of these
    D = Dictionary(np.eye(4)[:, :3])
    x = np.array([0.5, -0.2, 0.1, 0.0])
    z = SparseCode(np.array([0]), np.array([0.3]), 3)
    r = CDWorkspace.prepared(D, z, x).residual
    read_only = r.copy()
    read_only.flags.writeable = False
    non_finite = r.copy()
    non_finite[2] = math.nan
    cases = [
        (r.astype(np.int64), ConfigInvalid),
        (read_only, ConfigInvalid),
        (np.repeat(r, 2)[::2], ConfigInvalid),  # a strided view
        (r[:, None].copy(), ConfigInvalid),
        (r[:3].copy(), DimensionMismatch),
        (np.append(r, 0.0), DimensionMismatch),
        (non_finite, NonFinite),
    ]
    with cd_path(path):
        for residual, error in cases:
            before = residual.copy()
            with pytest.raises(error):
                cycle(D, z, x, CDWorkspace(residual), 0.1)
            np.testing.assert_array_equal(residual, before)


# The working-set oracle against plain full-pass descent (conftest's ``ref_oracle_full``),
# both stopped by a full pass that changes no coordinate by 1e-10.  Their supports are
# equal, and their codes differ only as far as that stop leaves each short of the optimum:
# over 3 seeds x 300, 150 and 40 unit-norm Gaussian samples at 16x32, 64x256 and 256x1024,
# unit and ball atoms, the largest |dz| was 2.2e-8 at lambda 0.1 (3.9e-9 on the instances
# below; 3.5e-7 at lambda 0.03, where descent is slower; 6e-10 on planted data), and
# per-sample objectives differed by at most 1.4e-15 relative.
WS_CODE_TOL = 1e-7
WS_OBJECTIVE_RTOL = 1e-14


class TestWorkingSetOracle:
    @pytest.mark.parametrize("path", CD_PATHS)
    @pytest.mark.parametrize("unit", [True, False])
    @pytest.mark.parametrize("p,m,n", [(16, 32, 40), (64, 256, 12), (256, 1024, 3)])
    def test_within_tolerance_of_full_passes(self, path, unit, p, m, n):
        rng = rng_from_seed(6600 + p)
        D = Dictionary(random_unit_atoms(rng, p, m) if unit else random_ball_atoms(rng, p, m))
        X = _unit_columns(rng, p, n)
        with cd_path(path):
            codes = lasso_oracle_cd_batch(D, X, 0.1, 1e-10)
        for x, code in zip(X.T, codes):
            ref, _ = ref_oracle_full(D, x, 0.1, 1e-10)
            assert code.indices.tobytes() == ref.indices.tobytes()
            assert np.abs(code.values - ref.values).max(initial=0.0) <= WS_CODE_TOL
            f, f_ref = sample_objective(D, code, x, 0.1), sample_objective(D, ref, x, 0.1)
            assert abs(f - f_ref) <= WS_OBJECTIVE_RTOL * f_ref

    @pytest.mark.parametrize("path", CD_PATHS)
    def test_every_pass_spends_the_budget(self, path):
        # a sample that settles after k passes in all (1236): the last is a full pass, and
        # the one before it a working-set pass, which k - 1 passes end on
        rng = rng_from_seed(6700)
        D = Dictionary(random_ball_atoms(rng, 16, 32))
        x = _unit_columns(rng, 16, 1)[:, 0]
        want, k = ref_oracle(D, x, 0.05, 1e-10)
        assert k >= 3
        with cd_path(path):
            with pytest.raises(MaxIterationsExceeded, match=f"in {k - 1} cycles$"):
                lasso_oracle_cd(D, x, 0.05, 1e-10, max_cycles=k - 1)
            _assert_same_bits(lasso_oracle_cd(D, x, 0.05, 1e-10, max_cycles=k), want)


class TestOracleProx:
    def test_identity_within_tol(self):
        D = Dictionary(np.eye(2))
        z = lasso_oracle_prox(D, np.array([0.5, 0.05]), 0.1, 1e-12)
        np.testing.assert_array_equal(z.indices, [0])
        np.testing.assert_allclose(z.values, [0.4], atol=1e-8)

    def test_zero_datum(self):
        D, _ = random_instance(seed=4, p=5, m=7)
        z = lasso_oracle_prox(D, np.zeros(5), 0.1, 1e-12)
        assert z.nnz == 0

    def test_all_zero_dictionary(self):
        D = Dictionary(np.zeros((3, 4)))
        z = lasso_oracle_prox(D, np.ones(3), 0.1, 1e-10)
        assert z.nnz == 0

    def test_rejects_bad_tol(self):
        D = Dictionary(np.eye(2))
        for tol in _BAD_TOLS:
            with pytest.raises(ConfigInvalid, match="tol"):
                lasso_oracle_prox(D, np.zeros(2), 0.1, tol)

    def test_rejects_non_integer_iteration_cap(self):
        D = Dictionary(np.eye(2))
        for cap in (2.5, True, "10", 0, -3):
            with pytest.raises(ConfigInvalid):
                lasso_oracle_prox(D, np.ones(2), 0.1, 1e-10, max_iters=cap)


class TestCycleInvariants:
    def test_objective_monotone_per_cycle(self):
        for seed in range(60):
            rng = rng_from_seed(2000 + seed)
            p, m = 6, 11
            D = Dictionary(random_ball_atoms(rng, p, m))
            x = rng.standard_normal(p)
            start = SparseCode.from_dense(
                np.where(rng.random(m) < 0.3, rng.standard_normal(m), 0.0), prune_tol=0.0
            )
            lam = float(rng.uniform(0.01, 0.5))
            ws = CDWorkspace.prepared(D, start, x)
            budget = 1e-8 * (1.0 + float(np.linalg.norm(x)))
            f0 = sample_objective(D, start, x, lam)
            full = cd_full_cycle(D, start, x, ws, lam)
            f1 = sample_objective(D, full.code, x, lam)
            assert f1 <= f0 + 1e-12
            drift = np.linalg.norm(full.residual - (x - D.atoms @ full.code.to_dense()))
            assert drift <= budget
            sup = cd_support_cycle(D, full.code, x, ws, lam)
            f2 = sample_objective(D, sup.code, x, lam)
            assert f2 <= f1 + 1e-12
            drift = np.linalg.norm(sup.residual - (x - D.atoms @ sup.code.to_dense()))
            assert drift <= budget

    def test_residual_consistency(self):
        for seed in range(60):
            D, x = random_instance(seed=3000 + seed, p=7, m=12, unit=(seed % 2 == 0))
            res = encode_scc(D, SparseCode.zero(12), x, 0.08, steps=4)
            true_residual = x - D.atoms @ res.code.to_dense()
            err = float(np.linalg.norm(res.residual - true_residual))
            assert err <= 1e-8 * (1.0 + float(np.linalg.norm(x)))

    def test_idempotent_at_optimum(self):
        tol = 1e-12
        for seed in range(20):
            D, x = random_instance(seed=4000 + seed, p=8, m=14)
            z_star = lasso_oracle_cd(D, x, 0.1, tol)
            ws = CDWorkspace.prepared(D, z_star, x)
            after = cd_full_cycle(D, z_star, x, ws, 0.1)
            delta = np.abs(after.code.to_dense() - z_star.to_dense()).max()
            assert delta <= 10 * tol


# ---------------------------------------------------------------------------
# Bit-for-bit reference: the coordinate-descent loop as first written
# (conftest's ``ref_pass``), with the column list rebuilt per call.
# ---------------------------------------------------------------------------

def _ref_cols(D):
    return [D.atoms[:, j] for j in range(D.m)]


def _ref_encode(D, z_init, x, lam, steps):
    r = np.asarray(x, dtype=np.float64).copy()
    if z_init.nnz:
        r -= D.atoms[:, z_init.indices] @ z_init.values
    zd = z_init.to_dense()
    ref_pass(_ref_cols(D), range(D.m), zd, r, lam)
    for _ in range(steps - 1):
        ref_pass(_ref_cols(D), np.flatnonzero(zd).tolist(), zd, r, lam)
    return SparseCode.from_dense(zd, prune_tol=0.0), r


def _ref_cycle(D, z, r, lam, coords):
    zd = z.to_dense()
    ref_pass(_ref_cols(D), coords, zd, r, lam)
    return SparseCode.from_dense(zd, prune_tol=0.0), r


def _assert_same_bits(code, ref_code, residual=None, ref_residual=None):
    assert code.m == ref_code.m
    assert code.indices.tobytes() == ref_code.indices.tobytes()
    assert code.values.tobytes() == ref_code.values.tobytes()
    if residual is not None:
        assert residual.tobytes() == ref_residual.tobytes()


_SHAPES = [(16, 32), (32, 64), (64, 256)]


def _check_encode_cold_and_warm(p, m):
    for seed in range(4):
        D, _ = random_instance(seed=5000 + seed, p=p, m=m, unit=seed % 2 == 0)
        rng = rng_from_seed(5100 + seed)
        lam = float(rng.uniform(0.02, 0.15))
        for _ in range(3):
            x = rng.standard_normal(p)
            x /= np.linalg.norm(x)
            x_near = x + 0.1 * rng.standard_normal(p)
            for steps in (1, 2, 3, 4):
                cold = encode_scc(D, SparseCode.zero(m), x, lam, steps)
                ref_code, ref_r = _ref_encode(D, SparseCode.zero(m), x, lam, steps)
                _assert_same_bits(cold.code, ref_code, cold.residual, ref_r)
                # warm start from a nearby sample's code, as in a later epoch
                warm = encode_scc(D, cold.code, x_near, lam, steps)
                ref_code, ref_r = _ref_encode(D, cold.code, x_near, lam, steps)
                _assert_same_bits(warm.code, ref_code, warm.residual, ref_r)


def _check_full_and_support_cycles(p, m):
    for seed in range(4):
        rng = rng_from_seed(5200 + seed)
        D = Dictionary(random_ball_atoms(rng, p, m))
        x = rng.standard_normal(p)
        start = SparseCode.from_dense(
            np.where(rng.random(m) < 0.2, rng.standard_normal(m), 0.0), prune_tol=0.0
        )
        lam = float(rng.uniform(0.02, 0.3))
        for kernel, coords in (
            (cd_full_cycle, range(m)),
            (cd_support_cycle, start.indices.tolist()),
        ):
            ws = CDWorkspace.prepared(D, start, x)
            ref_code, ref_r = _ref_cycle(D, start, ws.residual.copy(), lam, coords)
            res = kernel(D, start, x, ws, lam)
            _assert_same_bits(res.code, ref_code, res.residual, ref_r)
            assert ws.residual.tobytes() == ref_r.tobytes()


def _check_oracle_cd(p, m):
    for seed in range(3):
        D, x = random_instance(seed=5300 + seed, p=p, m=m)
        for lam in (0.03, 0.1):
            _assert_same_bits(lasso_oracle_cd(D, x, lam, 1e-10), ref_oracle(D, x, lam, 1e-10)[0])


class TestBitIdenticalToReference:
    """The default path (the native kernel where it loads), then each path forced."""

    @pytest.mark.parametrize("p,m", _SHAPES)
    def test_encode_cold_and_warm(self, p, m):
        _check_encode_cold_and_warm(p, m)

    @pytest.mark.parametrize("path", CD_PATHS)
    @pytest.mark.parametrize("p,m", _SHAPES + [(1, 4), (3, 8), (17, 40)])
    def test_encode_cold_and_warm_on_each_path(self, path, p, m):
        with cd_path(path):
            _check_encode_cold_and_warm(p, m)

    @pytest.mark.parametrize("p,m", _SHAPES)
    def test_full_and_support_cycles(self, p, m):
        _check_full_and_support_cycles(p, m)

    @pytest.mark.parametrize("path", CD_PATHS)
    @pytest.mark.parametrize("p,m", _SHAPES + [(1, 4), (3, 8), (17, 40)])
    def test_full_and_support_cycles_on_each_path(self, path, p, m):
        with cd_path(path):
            _check_full_and_support_cycles(p, m)

    @pytest.mark.parametrize("p,m", _SHAPES)
    def test_oracle_cd(self, p, m):
        _check_oracle_cd(p, m)

    @pytest.mark.parametrize("path", CD_PATHS)
    @pytest.mark.parametrize("p,m", _SHAPES + [(1, 4), (3, 8), (17, 40)])
    def test_oracle_cd_on_each_path(self, path, p, m):
        with cd_path(path):
            _check_oracle_cd(p, m)


def _assert_revalidates(code):
    assert code.indices.dtype == np.int64 and code.values.dtype == np.float64
    again = SparseCode(code.indices, code.values, code.m)  # re-runs every invariant check
    assert again.indices.tobytes() == code.indices.tobytes()
    assert again.values.tobytes() == code.values.tobytes()


def _check_codes_revalidate(seed, p, m, lam, steps, unit, max_cycles=DEFAULT_MAX_CYCLES):
    D, x = random_instance(seed=seed, p=p, m=m, unit=unit)
    first = encode_scc(D, SparseCode.zero(m), x, lam, steps).code
    _assert_revalidates(first)
    _assert_revalidates(encode_scc(D, first, -0.5 * x, lam, steps).code)
    X = np.column_stack([x, -0.5 * x, _unit_columns(rng_from_seed(seed, 1), p, 8)])
    try:
        singles = [lasso_oracle_cd(D, X[:, j], lam, 1e-9, max_cycles) for j in range(X.shape[1])]
    except MaxIterationsExceeded:
        # Short ball atoms and a small lambda can make cyclic descent need more
        # than the documented cap of passes (seed=4, p=4, m=22, lam=2**-9, ball
        # atoms: column 3 needs 123,860, full and working-set); such an instance
        # returns no code.
        reject()
    # Wherever the per-sample reference converges, the batched oracle must too.
    for code in singles + lasso_oracle_cd_batch(D, X, lam, 1e-9, max_cycles):
        _assert_revalidates(code)


class TestKernelCodesAreValid:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        p=st.integers(1, 12),
        m=st.integers(1, 24),
        lam=st.floats(1e-3, 1.0),
        steps=st.integers(1, 4),
        unit=st.booleans(),
    )
    def test_encode_and_oracle_codes_revalidate(self, seed, p, m, lam, steps, unit):
        _check_codes_revalidate(seed, p, m, lam, steps, unit)

    @pytest.mark.parametrize("path", CD_PATHS)
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        p=st.integers(1, 12),
        m=st.integers(1, 24),
        lam=st.floats(1e-3, 1.0),
        steps=st.integers(1, 4),
        unit=st.booleans(),
    )
    def test_codes_revalidate_on_each_path(self, path, seed, p, m, lam, steps, unit):
        with cd_path(path):  # a lower pass cap keeps the Python loops' worst case short
            _check_codes_revalidate(seed, p, m, lam, steps, unit, max_cycles=2000)

