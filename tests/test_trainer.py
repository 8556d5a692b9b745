import math
import statistics
import tracemalloc

import numpy as np
import pytest

from scc import (
    ConfigInvalid,
    DataSet,
    Dictionary,
    HessianDiag,
    NonFinite,
    SparseCode,
    TrainConfig,
    _native,
    batch_train,
    encode_scc,
    generate_planted,
    hessian_accumulate,
    init_dictionary,
    natural_rate_train,
    objective,
    scc_train,
    sgd_update_support,
    soft_threshold,
)
from scc.core import _CodeStore
from scc.dictionary import _gradient_step_dense, _quadratic_term
from scc.lasso import ORACLE_TOL
from scc.trainer import BATCH_MAX_STEPS, NaturalRateSchedule

from conftest import CD_PATHS, cd_path, ref_oracle


def manual_scc(ds, cfg):
    """Re-run the stochastic loop using only public operations."""
    lam = cfg.effective_lambda(ds.p)
    m = cfg.dict_size
    D = init_dictionary(ds, m, cfg.init, cfg.seed)
    codes = [SparseCode.zero(m)] * ds.n
    H = HessianDiag.zeros(m)
    for _ in range(cfg.epochs):
        for i in range(ds.n):
            res = encode_scc(D, codes[i], ds.column(i), lam, cfg.cd_steps)
            codes[i] = res.code
            hessian_accumulate(H, res.code)
            if res.code.nnz:
                D = sgd_update_support(D, res.code, -res.residual, H)
    return D, codes


class TestSccTrain:
    @pytest.mark.parametrize("planted,lam", [
        ((5, 6, 9, 2, 0.05, 21), 0.15),
        ((16, 32, 100, 3, 0.05, 22), 0.3),
    ], ids=["5x6", "16x32"])
    def test_matches_manual_replay_bit_for_bit(self, planted, lam):
        *dims, seed = planted
        ds, _, _ = generate_planted(*dims, seed=seed)
        cfg = TrainConfig(dict_size=dims[1], lam=lam, epochs=3, cd_steps=2, seed=4)
        result = scc_train(ds, cfg)
        D_manual, codes_manual = manual_scc(ds, cfg)
        assert result.dictionary.atoms.tobytes() == D_manual.atoms.tobytes()
        for got, want in zip(result.codes, codes_manual):
            np.testing.assert_array_equal(got.indices, want.indices)
            np.testing.assert_array_equal(got.values, want.values)

    def test_identical_samples_reach_closed_form(self):
        # every sample equals one unit vector d; the code settles at
        # 1 - lambda immediately and the atom is projected back onto d,
        # so the epoch-end objective is lambda^2/2 + lambda(1 - lambda)
        lam = 0.3
        d = np.array([0.6, 0.0, 0.8])
        ds = DataSet(np.column_stack([d, d, d]))
        cfg = TrainConfig(dict_size=1, lam=lam, epochs=2, seed=0)
        result = scc_train(ds, cfg)
        expected = 0.5 * lam**2 + lam * (1 - lam)
        assert result.stats[0].objective == pytest.approx(expected, abs=1e-12)
        assert result.stats[0].objective <= expected + 1e-12
        np.testing.assert_allclose(result.dictionary.atoms[:, 0], d, atol=1e-12)
        for z in result.codes:
            np.testing.assert_allclose(z.values, [1 - lam], atol=1e-12)

    def test_single_visit_mechanics_orthogonal_atom(self):
        # an atom orthogonal to the sample never activates: the code is
        # zero, the curvature stays zero, and no column moves
        D = Dictionary(np.array([[1.0], [0.0]]))
        x = np.array([0.0, 1.0])
        res = encode_scc(D, SparseCode.zero(1), x, 0.01, steps=3)
        assert res.code.nnz == 0
        np.testing.assert_array_equal(res.residual, x)

    def test_single_visit_mechanics_aligned_atom(self):
        # non-orthogonal start: code is the soft-thresholded projection
        # coefficient, and the first adaptive step (h = z^2) lands the
        # atom exactly on x / z, which projects onto x itself
        D = Dictionary(np.array([[1.0], [0.0]]))
        x = np.array([0.6, 0.8])
        lam = 0.01
        res = encode_scc(D, SparseCode.zero(1), x, lam, steps=3)
        z = soft_threshold(float(D.atoms[:, 0] @ x), lam)
        np.testing.assert_allclose(res.code.values, [z], atol=1e-15)
        H = hessian_accumulate(HessianDiag.zeros(1), res.code)
        updated = sgd_update_support(D, res.code, -res.residual, H)
        np.testing.assert_allclose(updated.atoms[:, 0], x, atol=1e-12)

    def test_objective_falls_on_planted_data(self):
        finals, firsts = [], []
        for seed in range(5):
            ds, _, _ = generate_planted(16, 32, 200, 3, 0.01, seed=500 + seed)
            cfg = TrainConfig(dict_size=32, epochs=5, cd_steps=3, seed=seed)
            stats = scc_train(ds, cfg).stats
            firsts.append(stats[0].objective)
            finals.append(stats[-1].objective)
            assert stats[0].mean_support > 0
        assert statistics.median(finals) < statistics.median(firsts)

    def test_deterministic_repeat(self):
        ds, _, _ = generate_planted(8, 12, 40, 2, 0.02, seed=77)
        for ordering in ("sequential", "shuffled"):
            cfg = TrainConfig(dict_size=12, epochs=2, seed=9, ordering=ordering)
            a = scc_train(ds, cfg)
            b = scc_train(ds, cfg)
            assert a.dictionary.atoms.tobytes() == b.dictionary.atoms.tobytes()
            assert [s.objective for s in a.stats] == [s.objective for s in b.stats]
            for za, zb in zip(a.codes, b.codes):
                np.testing.assert_array_equal(za.indices, zb.indices)
                np.testing.assert_array_equal(za.values, zb.values)

    def test_shuffled_differs_from_sequential(self):
        ds, _, _ = generate_planted(8, 12, 40, 2, 0.02, seed=78)
        seq = scc_train(ds, TrainConfig(dict_size=12, epochs=2, seed=9))
        shuf = scc_train(ds, TrainConfig(dict_size=12, epochs=2, seed=9, ordering="shuffled"))
        assert seq.dictionary.atoms.tobytes() != shuf.dictionary.atoms.tobytes()

    def test_progress_callback_sees_every_epoch(self):
        ds, _, _ = generate_planted(6, 8, 10, 2, 0.05, seed=3)
        seen = []
        cfg = TrainConfig(dict_size=8, epochs=4, seed=1)
        scc_train(ds, cfg, progress=seen.append)
        assert [s.epoch for s in seen] == [1, 2, 3, 4]

    def test_result_shapes_and_feasibility(self):
        ds, _, _ = generate_planted(7, 10, 15, 2, 0.05, seed=5)
        cfg = TrainConfig(dict_size=10, epochs=3, seed=2)
        result = scc_train(ds, cfg)
        assert len(result.stats) == 3
        assert len(result.codes) == 15
        assert np.linalg.norm(result.dictionary.atoms, axis=0).max() <= 1 + 1e-12
        for s in result.stats:
            assert s.time_code_update >= 0 and s.time_dict_update >= 0
            assert 0 <= s.mean_support <= s.max_support <= 10

    def test_memory_stays_below_a_quarter_of_dense_codes(self):
        # the codes live in compact stores: a dense m x n code matrix here is 16 MB
        ds, _, _ = generate_planted(16, 512, 4000, 3, 0.01, seed=30)
        cfg = TrainConfig(dict_size=512, epochs=2, seed=5)
        _native.kernel()  # loaded and self-tested outside the measurement
        tracemalloc.start()
        try:
            result = scc_train(ds, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.codes) == 4000
        assert peak < 512 * 4000 * 8 / 4, peak

    def test_requires_adaptive_schedule(self):
        ds, _, _ = generate_planted(6, 8, 10, 2, 0.05, seed=3)
        cfg = TrainConfig(dict_size=8, rate_schedule="natural")
        with pytest.raises(ConfigInvalid):
            scc_train(ds, cfg)


class TestNaturalRate:
    def test_schedule_values(self):
        sched = NaturalRateSchedule(a=1.0, b=0.0)
        assert sched.next_rate() == 1.0
        assert sched.next_rate() == 0.5
        rates = [sched.next_rate() for _ in range(10)]
        assert all(b < a for a, b in zip(rates, rates[1:]))

    def test_schedule_validation(self):
        with pytest.raises(ConfigInvalid):
            NaturalRateSchedule(a=0.0, b=1.0)
        with pytest.raises(ConfigInvalid):
            NaturalRateSchedule(a=1.0, b=-0.5)
        for a, b in ((math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan)):
            with pytest.raises(ConfigInvalid):
                NaturalRateSchedule(a=a, b=b)

    # the last case has visits that code to zero: t must still advance on them
    @pytest.mark.parametrize("planted,lam,min_empty", [
        ((5, 6, 8, 2, 0.05, 31), 0.15, 0),
        ((16, 32, 100, 3, 0.05, 32), 0.3, 0),
        ((16, 32, 100, 3, 0.05, 32), 0.6, 1),
    ], ids=["5x6", "16x32", "16x32-empty-codes"])
    def test_matches_manual_replay(self, planted, lam, min_empty):
        *dims, seed = planted
        ds, _, _ = generate_planted(*dims, seed=seed)
        cfg = TrainConfig(
            dict_size=dims[1], lam=lam, epochs=2, cd_steps=2, seed=4,
            rate_schedule="natural", rate_a=2.0, rate_b=1.0,
        )
        result = natural_rate_train(ds, cfg)

        m = cfg.dict_size
        D = init_dictionary(ds, m, cfg.init, cfg.seed)
        atoms = D.atoms
        codes = [SparseCode.zero(m)] * ds.n
        sched = NaturalRateSchedule(cfg.rate_a, cfg.rate_b)
        empty = 0
        for _ in range(cfg.epochs):
            for i in range(ds.n):
                res = encode_scc(D, codes[i], ds.column(i), cfg.lam, cfg.cd_steps)
                codes[i] = res.code
                eta = sched.next_rate()
                empty += res.code.nnz == 0
                if res.code.nnz:
                    residual_neg = -res.residual
                    for j, zj in zip(res.code.indices.tolist(), res.code.values.tolist()):
                        col = atoms[:, j] - (eta * zj) * residual_neg
                        n2 = float(col @ col)
                        if n2 > 1.0:
                            col = col / math.sqrt(n2)
                        atoms[:, j] = col
        assert empty >= min_empty
        assert result.dictionary.atoms.tobytes() == atoms.tobytes()

    def test_requires_natural_schedule(self):
        ds, _, _ = generate_planted(6, 8, 10, 2, 0.05, seed=3)
        with pytest.raises(ConfigInvalid):
            natural_rate_train(ds, TrainConfig(dict_size=8))


def reference_batch(ds, cfg):
    """The batch alternation with one per-sample reference oracle call per code
    (conftest's ``ref_oracle``), from zero in the first epoch and from the last
    epoch's code after it.

    Returns the final dictionary and the final objective.
    """
    lam = cfg.effective_lambda(ds.p)
    D = init_dictionary(ds, cfg.dict_size, cfg.init, cfg.seed)
    atoms = D.atoms
    codes = [None] * ds.n
    for _ in range(cfg.epochs):
        codes = [ref_oracle(D, ds.X[:, i], lam, ORACLE_TOL, z)[0] for i, z in enumerate(codes)]
        Z = _CodeStore.of(codes, cfg.dict_size).dense()
        eta = 1.0
        quad = _quadratic_term(atoms, Z, ds.X)
        for _ in range(BATCH_MAX_STEPS):
            candidate = _gradient_step_dense(atoms, Z, ds.X, eta)
            quad_new = _quadratic_term(candidate, Z, ds.X)
            if quad_new <= quad:
                if np.array_equal(candidate, atoms):
                    break
                atoms[:] = candidate
                quad = quad_new
            else:
                eta *= 0.5
    return D, objective(D, codes, ds, lam)


class _ColdEpochs:
    """An engine whose every ``epoch`` starts from zero codes instead of ``old``."""

    def __init__(self, engine):
        self.engine = engine

    def __getattr__(self, name):
        return getattr(self.engine, name)

    def epoch(self, D, X, order, lam, steps, old, new, *rest):
        zero = _CodeStore(old.m, old.length.size, 0)
        return self.engine.epoch(D, X, order, lam, steps, zero, new, *rest)


class TestBatchTrain:
    @pytest.mark.parametrize("planted,epochs,init", [
        ((8, 12, 60, 2, 0.02, 41), 3, "random_patches"),
        ((16, 32, 150, 3, 0.01, 42), 2, "random_gaussian"),
        ((12, 20, 40, 2, 0.05, 43), 3, "random_gaussian"),
        ((17, 24, 60, 2, 0.02, 44), 2, "random_gaussian"),
    ])
    def test_matches_per_sample_reference(self, planted, epochs, init):
        *dims, seed = planted
        ds, _, _ = generate_planted(*dims, seed=seed)
        cfg = TrainConfig(dict_size=dims[1], epochs=epochs, seed=seed, init=init)
        result = batch_train(ds, cfg)
        D_ref, f_ref = reference_batch(ds, cfg)
        assert result.stats[-1].objective == f_ref
        assert result.dictionary.atoms.tobytes() == D_ref.atoms.tobytes()

    # From the second epoch on, each code starts from the last epoch's.  Against a run
    # that starts every epoch from zero, over 3 seeds at each of 16x32 (n 120 and 1000),
    # 64x256 (n 40 and 300) and 256x1024 (n 12 and 60), 3 epochs, the supports were
    # equal, the final codes differed by at most 8.6e-10, the atoms by 4.7e-11 and the
    # epoch objectives by 4.5e-12 relative.
    @pytest.mark.parametrize("path", CD_PATHS)
    @pytest.mark.parametrize("p,m,n,k", [(16, 32, 120, 3), (64, 256, 40, 5), (256, 1024, 12, 5)])
    def test_warm_start_is_within_tolerance_of_cold(self, path, p, m, n, k):
        ds, _, _ = generate_planted(p, m, n, k, 0.01, seed=46 + p)
        cfg = TrainConfig(dict_size=m, epochs=3, seed=p, init="random_gaussian")
        with cd_path(path):
            warm = batch_train(ds, cfg)
            engine = _native.kernel()
            _native._kernel = _ColdEpochs(engine)
            try:
                cold = batch_train(ds, cfg)  # every epoch from zero
            finally:  # before cd_path restores the engine it found
                _native._kernel = engine
        for a, b in zip(warm.codes, cold.codes):
            assert a.indices.tobytes() == b.indices.tobytes()
            assert np.abs(a.values - b.values).max(initial=0.0) <= 1e-8
        assert np.abs(warm.dictionary.atoms - cold.dictionary.atoms).max() <= 1e-9
        for a, b in zip(warm.stats, cold.stats):
            assert abs(a.objective - b.objective) <= 1e-10 * b.objective

    @pytest.mark.parametrize("path", CD_PATHS)
    def test_later_epochs_size_the_code_store_from_the_last(self, path, monkeypatch):
        growths = [[]]  # the capacities the stores grew to, one list per epoch
        reserve = _CodeStore.reserve

        def watched(store, k):
            before = store.indices.size
            reserve(store, k)
            if store.indices.size != before:
                growths[-1].append(store.indices.size)

        ds, _, _ = generate_planted(16, 32, 125, 3, 0.01, seed=45)
        cfg = TrainConfig(dict_size=32, epochs=2, seed=45, init="random_gaussian")
        monkeypatch.setattr(_CodeStore, "reserve", watched)
        with cd_path(path):
            batch_train(ds, cfg, progress=lambda stats: growths.append([]))
        assert growths[0] and growths[1] == []  # the first epoch starts at n + m entries

    def test_zero_data_is_a_fixed_point(self):
        ds = DataSet(np.zeros((4, 6)))
        cfg = TrainConfig(dict_size=5, lam=0.1, epochs=2, seed=1)
        result = batch_train(ds, cfg)
        init = init_dictionary(ds, 5, cfg.init, cfg.seed)
        assert result.dictionary.atoms.tobytes() == init.atoms.tobytes()
        assert all(z.nnz == 0 for z in result.codes)
        assert result.stats[-1].objective == 0.0

    def test_orthonormal_epoch_codes_are_closed_form(self):
        lam = 0.3
        ds = DataSet(np.eye(4))  # four basis-vector samples
        cfg = TrainConfig(dict_size=4, lam=lam, epochs=1, seed=6)
        result = batch_train(ds, cfg)
        D0 = init_dictionary(ds, 4, cfg.init, cfg.seed)
        for i in range(4):
            want = np.array([soft_threshold(float(b), lam) for b in D0.atoms.T @ ds.column(i)])
            np.testing.assert_allclose(result.codes[i].to_dense(), want, atol=1e-12)

    def test_objective_falls_and_stays_feasible(self):
        ds, _, _ = generate_planted(8, 12, 60, 2, 0.02, seed=41)
        cfg = TrainConfig(dict_size=12, epochs=4, seed=2)
        result = batch_train(ds, cfg)
        assert result.stats[-1].objective <= result.stats[0].objective
        assert np.linalg.norm(result.dictionary.atoms, axis=0).max() <= 1 + 1e-12

    def test_deterministic(self):
        ds, _, _ = generate_planted(6, 9, 20, 2, 0.05, seed=51)
        cfg = TrainConfig(dict_size=9, epochs=2, seed=3)
        a = batch_train(ds, cfg)
        b = batch_train(ds, cfg)
        assert a.dictionary.atoms.tobytes() == b.dictionary.atoms.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("path", CD_PATHS)
@pytest.mark.parametrize("train", [scc_train, batch_train])
def test_huge_samples_raise_nonfinite(train, path):
    # finite, but every squared norm overflows: no trainer may report an infinite objective
    ds = DataSet(np.random.default_rng(46).standard_normal((4, 10)) * 1e200)
    with cd_path(path), pytest.raises(NonFinite, match="^sample 0 has a squared norm"):
        train(ds, TrainConfig(dict_size=3, lam=0.1, epochs=1))


@pytest.mark.parametrize("path", CD_PATHS)
@pytest.mark.parametrize("train", [scc_train, natural_rate_train, batch_train])
def test_every_trainer_runs_the_shared_epoch_loop(train, path):
    schedule = "natural" if train is natural_rate_train else "adaptive_hessian"
    ds, _, _ = generate_planted(7, 10, 15, 2, 0.05, seed=5)
    seen = []
    with cd_path(path):
        result = train(ds, TrainConfig(dict_size=10, epochs=3, seed=2, rate_schedule=schedule),
                       progress=seen.append)
    assert [s.epoch for s in seen] == [1, 2, 3]
    assert len(result.stats) == 3 and all(a is b for a, b in zip(seen, result.stats))
    for s in seen:
        assert s.time_code_update >= 0 and s.time_dict_update >= 0
    nnz = [z.nnz for z in result.codes]
    assert len(nnz) == 15 and max(nnz) > 0
    assert seen[-1].mean_support == np.mean(nnz) and seen[-1].max_support == max(nnz)
    X = np.ones((7, 2))
    X[1, 1] = np.nan
    with cd_path(path), pytest.raises(ConfigInvalid, match="dict_size"):  # the config first
        train(DataSet(X), TrainConfig(dict_size=0, rate_schedule=schedule))
