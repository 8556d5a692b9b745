import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scc import (
    ConfigInvalid,
    DataSet,
    Dictionary,
    DimensionMismatch,
    Empty,
    HessianDiag,
    InvariantViolation,
    NonFinite,
    Sample,
    SparseCode,
    TrainConfig,
    rng_from_seed,
    validate_dataset,
)
from scc import (
    NaturalRateSchedule,
    cd_full_cycle,
    cd_support_cycle,
    encode_scc,
    full_gradient_step,
    lasso_oracle_cd,
    lasso_oracle_prox,
    objective,
    preprocess_dataset,
    sample_objective,
    sgd_update_support,
)
from scc.core import CDWorkspace, thread_cap
from scc.serialize import read_dictionary, write_matrix


class TestValidateDataset:
    def test_two_finite_samples_pass(self):
        validate_dataset([Sample(np.ones(4)), Sample(np.arange(4.0))])

    def test_unequal_lengths(self):
        with pytest.raises(DimensionMismatch):
            validate_dataset([Sample(np.ones(4)), Sample(np.ones(5))])

    def test_nan_rejected(self):
        with pytest.raises(NonFinite):
            validate_dataset([Sample(np.array([1.0, np.nan, 0.0]))])

    def test_empty_rejected(self):
        with pytest.raises(Empty):
            validate_dataset([])

    def test_dataset_form(self):
        ds = DataSet(np.ones((3, 2)))
        validate_dataset(ds)
        with pytest.raises(NonFinite):
            validate_dataset(DataSet(np.full((2, 2), np.inf)))

    def test_preprocessed_flag_enforced(self):
        v = np.array([0.6, 0.8])  # unit norm but not zero mean
        with pytest.raises(InvariantViolation):
            validate_dataset([Sample(v, preprocessed=True)])
        good = np.array([-1.0, 1.0]) / np.sqrt(2.0)
        validate_dataset([Sample(good, preprocessed=True)])


    @pytest.mark.parametrize("fault", ["mean", "norm"])
    @pytest.mark.parametrize("k", [0, 4, 11])
    def test_flagged_dataset_names_failing_sample(self, rng, fault, k):
        X = np.array(preprocess_dataset(DataSet(rng.standard_normal((7, 12)))).X)
        if fault == "mean":
            X[:, k] += 1e-6
        else:
            X[:, k] *= 1.0 + 1e-6
        with pytest.raises(InvariantViolation, match=f"^sample {k}: .* {fault} is"):
            validate_dataset(DataSet(X, preprocessed=True))
        validate_dataset(DataSet(X))  # unflagged data need not be preprocessed

    def test_first_nonfinite_sample_named(self):
        X = np.ones((3, 5))
        X[1, 2] = np.nan
        X[0, 4] = np.inf
        with pytest.raises(NonFinite, match="^sample 2 "):
            validate_dataset(DataSet(X))

    @pytest.mark.filterwarnings("error")
    def test_first_overflowing_sample_named(self):
        X = np.ones((3, 5))
        X[:, 3] = 1e150  # a squared norm of 3e300 fits
        X[2, 1] = -1e155  # finite, but its square is not
        X[0, 4] = 1e200
        with pytest.raises(NonFinite, match="^sample 1 has a squared norm that overflows$"):
            validate_dataset(DataSet(X))
        X[2, 1] = X[0, 4] = 1e150
        validate_dataset(DataSet(X))
        # a flagged sample is held to unit norm instead
        with pytest.raises(InvariantViolation, match="^sample 0: .* norm is inf"):
            validate_dataset([Sample(np.array([-1e200, 1e200]), preprocessed=True)])


class TestDataSet:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_construction_copies_and_leaves_input_writable(self, order):
        X = np.ones((2, 3), order=order)
        ds = DataSet(X)
        X[0, 0] = 7.0
        assert X.flags.writeable
        assert ds.X[0, 0] == 1.0

    def test_from_samples_round_trip(self):
        samples = [Sample(np.array([1.0, 2.0])), Sample(np.array([3.0, 4.0]))]
        ds = DataSet.from_samples(samples)
        assert ds.p == 2 and ds.n == 2
        np.testing.assert_array_equal(ds.column(1), [3.0, 4.0])

    def test_columns_are_read_only(self):
        ds = DataSet(np.ones((2, 2)))
        with pytest.raises(ValueError):
            ds.column(0)[0] = 5.0

    def test_empty_collection_allowed_but_invalid(self):
        ds = DataSet(np.empty((4, 0)))
        assert ds.n == 0
        with pytest.raises(Empty):
            validate_dataset(ds)


class TestDictionary:
    def test_rejects_oversized_atom(self):
        atoms = np.eye(3)
        atoms[0, 0] = 1.5
        with pytest.raises(InvariantViolation):
            Dictionary(atoms)

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFinite):
            Dictionary(np.array([[np.nan], [0.0]]))

    @pytest.mark.filterwarnings("error")
    def test_rejects_huge_atoms_without_overflow(self, tmp_path):
        # squaring 1e300 overflows: the atom must be refused before any square is taken
        atoms = np.array([[1e300], [1e300]])
        with pytest.raises(InvariantViolation, match="exceeds the unit ball"):
            Dictionary(atoms)
        write_matrix(tmp_path / "d.sccmat", atoms)
        with pytest.raises(InvariantViolation, match="exceeds the unit ball"):
            read_dictionary(tmp_path / "d.sccmat")

    def test_accepts_interior_atoms_and_copies(self):
        atoms = 0.5 * np.eye(2)
        D = Dictionary(atoms)
        atoms[0, 0] = 99.0
        assert D.atoms[0, 0] == 0.5
        assert D.p == 2 and D.m == 2

    def test_columns_see_in_place_atom_writes(self):
        D = Dictionary(0.5 * np.eye(3))
        cols = D.columns
        assert cols is D.columns  # built once
        D.atoms[1, 2] = 0.25
        assert cols[2][1] == 0.25
        candidate = np.asfortranarray(np.full((3, 3), 0.1))
        D.atoms[:] = candidate  # whole-matrix write, as the batch trainer does
        for j in range(3):
            np.testing.assert_array_equal(cols[j], candidate[:, j])

    def test_writes_through_columns_reach_atoms(self):
        D = Dictionary(0.5 * np.eye(3))
        D.columns[0] += 0.25
        D.columns[2][:] = 0.0
        np.testing.assert_array_equal(D.atoms[:, 0], [0.75, 0.25, 0.25])
        np.testing.assert_array_equal(D.atoms[:, 2], [0.0, 0.0, 0.0])

    def test_copy_gets_its_own_columns(self):
        D = Dictionary(0.5 * np.eye(2))
        C = D.copy()
        assert C.columns is not D.columns
        C.columns[0][0] = 0.1
        assert D.atoms[0, 0] == 0.5 and D.columns[0][0] == 0.5
        assert C.atoms[0, 0] == 0.1


class TestSparseCode:
    def test_round_trip_dense(self):
        z = SparseCode(np.array([1, 4]), np.array([0.5, -2.0]), 6)
        dense = z.to_dense()
        back = SparseCode.from_dense(dense, prune_tol=0.0)
        np.testing.assert_array_equal(back.indices, z.indices)
        np.testing.assert_array_equal(back.values, z.values)
        assert back.m == z.m

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_round_trip_property(self, data):
        m = data.draw(st.integers(1, 40))
        support = data.draw(
            st.lists(st.integers(0, m - 1), unique=True, max_size=m).map(sorted)
        )
        values = data.draw(
            st.lists(
                st.floats(-1e6, 1e6).filter(lambda v: abs(v) > 1e-9),
                min_size=len(support),
                max_size=len(support),
            )
        )
        z = SparseCode(np.array(support, dtype=np.int64), np.array(values), m)
        back = SparseCode.from_dense(z.to_dense(), prune_tol=0.0)
        np.testing.assert_array_equal(back.indices, z.indices)
        np.testing.assert_array_equal(back.values, z.values)

    def test_rejects_unsorted_and_out_of_range(self):
        with pytest.raises(InvariantViolation):
            SparseCode(np.array([3, 1]), np.array([1.0, 2.0]), 5)
        with pytest.raises(InvariantViolation):
            SparseCode(np.array([5]), np.array([1.0]), 5)
        with pytest.raises(InvariantViolation):
            SparseCode(np.array([1]), np.array([0.0]), 5)

    def test_prune_tol_drops_dust(self):
        dense = np.array([0.0, 1e-13, 0.5])
        assert SparseCode.from_dense(dense).nnz == 1
        assert SparseCode.from_dense(dense, prune_tol=0.0).nnz == 2

    def test_from_dense_rejects_nan_and_bad_prune_tol(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(NonFinite):
                SparseCode.from_dense(np.array([bad, 1.0]))
        for prune_tol in (math.nan, -1e-12, math.inf, True, None):
            with pytest.raises(ConfigInvalid, match="prune_tol"):
                SparseCode.from_dense(np.array([0.0, 1.0]), prune_tol=prune_tol)


class TestHessianDiag:
    def test_rejects_negative(self):
        with pytest.raises(InvariantViolation):
            HessianDiag(np.array([-1.0]))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32))
    def test_entries_never_decrease(self, seed):
        from scc import hessian_accumulate

        rng = rng_from_seed(seed)
        m = int(rng.integers(1, 10))
        H = HessianDiag.zeros(m)
        for _ in range(5):
            size = int(rng.integers(0, m + 1))
            idx = np.sort(rng.choice(m, size=size, replace=False)).astype(np.int64)
            vals = rng.standard_normal(size)
            vals[vals == 0.0] = 1.0
            before = H.diag.copy()
            hessian_accumulate(H, SparseCode(idx, vals, m))
            assert np.all(H.diag >= before)


class TestTrainConfig:
    def test_defaults_validate(self):
        TrainConfig(dict_size=8).validate()

    def test_default_lambda(self):
        assert TrainConfig(dict_size=8).effective_lambda(144) == pytest.approx(0.1)
        assert TrainConfig(dict_size=8, lam=0.3).effective_lambda(144) == 0.3

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dict_size=0),
            dict(dict_size=4, lam=0.0),
            dict(dict_size=4, epochs=0),
            dict(dict_size=4, cd_steps=0),
            dict(dict_size=4, init="kmeans"),
            dict(dict_size=4, ordering="backwards"),
            dict(dict_size=4, rate_schedule="linear"),
            dict(dict_size=4, rate_schedule="natural", rate_a=0.0),
            dict(dict_size=4, rate_schedule="natural", rate_b=-1.0),
            dict(dict_size=4, seed=-1),
            dict(dict_size=4, seed=2**64),
            dict(dict_size=4, lam=math.inf),
            dict(dict_size=4, rate_schedule="natural", rate_a=math.inf),
            dict(dict_size=4, rate_schedule="natural", rate_b=math.nan),
            dict(dict_size=4, rate_schedule="natural", rate_b=math.inf),
            dict(dict_size=8.5),
            dict(dict_size=True),
            dict(dict_size=4, epochs=1.5),
            dict(dict_size=4, cd_steps=2.5),
            dict(dict_size=4, lam=True),
            dict(dict_size=4, lam="0.1"),
            dict(dict_size=4, rate_schedule="natural", rate_a=None),
            dict(dict_size=4, rate_schedule="natural", rate_b=True),
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigInvalid):
            TrainConfig(**kwargs).validate()

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, -1.0)])
    def test_natural_rate_constants_have_one_rule(self, a, b):
        # the config's rate_a/rate_b and the schedule built from them give one message
        with pytest.raises(ConfigInvalid) as config:
            TrainConfig(dict_size=4, rate_schedule="natural", rate_a=a, rate_b=b).validate()
        with pytest.raises(ConfigInvalid) as schedule:
            NaturalRateSchedule(a, b)
        assert str(config.value) == str(schedule.value)


class TestRng:
    def test_same_seed_same_stream(self):
        a = rng_from_seed(7).standard_normal(16)
        b = rng_from_seed(7).standard_normal(16)
        np.testing.assert_array_equal(a, b)

    def test_substreams_differ(self):
        a = rng_from_seed(7).standard_normal(16)
        b = rng_from_seed(7, 1, 1).standard_normal(16)
        assert not np.array_equal(a, b)

    def test_bad_seed(self):
        with pytest.raises(ConfigInvalid):
            rng_from_seed(-3)


class TestThreadCap:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("SCC_THREADS", raising=False)
        assert thread_cap() == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("SCC_THREADS", "4")
        assert thread_cap() == 4

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("SCC_THREADS", "zero")
        with pytest.raises(ConfigInvalid):
            thread_cap()


class TestWorkspace:
    def test_prepared_residual(self):
        D = Dictionary(np.eye(3))
        z = SparseCode(np.array([1]), np.array([2.0]), 3)
        x = np.array([1.0, 1.0, 1.0])
        ws = CDWorkspace.prepared(D, z, x)
        np.testing.assert_allclose(ws.residual, [1.0, -1.0, 1.0])


def _wrong_sample(D):
    return np.ones(D.p + 1) / np.sqrt(D.p + 1), SparseCode.zero(D.m)


def _wrong_code(D):
    return np.ones(D.p) / np.sqrt(D.p), SparseCode(np.array([0]), np.array([0.5]), D.m + 1)


# Every public entry that takes a sample x (and a code z) against a dictionary D.
_FIT_ENTRIES = {
    "encode_scc": (True, lambda D, x, z: encode_scc(D, z, x, 0.1, 2)),
    "cd_full_cycle": (True, lambda D, x, z: cd_full_cycle(D, z, x, CDWorkspace(np.zeros(D.p)), 0.1)),
    "cd_support_cycle": (True, lambda D, x, z: cd_support_cycle(D, z, x, CDWorkspace(np.zeros(D.p)), 0.1)),
    "lasso_oracle_cd": (False, lambda D, x, z: lasso_oracle_cd(D, x, 0.1, 1e-8)),
    "lasso_oracle_prox": (False, lambda D, x, z: lasso_oracle_prox(D, x, 0.1, 1e-8)),
    "CDWorkspace.prepared": (True, lambda D, x, z: CDWorkspace.prepared(D, z, x)),
    "sample_objective": (True, lambda D, x, z: sample_objective(D, z, x, 0.1)),
    "sgd_update_support": (True, lambda D, x, z: sgd_update_support(D, z, x, HessianDiag(np.ones(D.m)))),
    "objective": (True, lambda D, x, z: objective(D, [z], DataSet(x[:, None]), 0.1)),
    "full_gradient_step": (True, lambda D, x, z: full_gradient_step(D, [z], DataSet(x[:, None]), 0.5)),
}


class TestSampleContract:
    @pytest.mark.parametrize(
        "entry, fault",
        [(name, "sample") for name in _FIT_ENTRIES]
        + [(name, "code") for name, (takes_code, _) in _FIT_ENTRIES.items() if takes_code],
    )
    def test_misfit_raises_from_the_one_fit_check(self, entry, fault):
        D = Dictionary(np.eye(3, 4))
        x, z = (_wrong_sample if fault == "sample" else _wrong_code)(D)
        with pytest.raises(DimensionMismatch) as info:
            _FIT_ENTRIES[entry][1](D, x, z)
        assert info.traceback[-1].name == "_fit_sample"

    @pytest.mark.parametrize("entry", list(_FIT_ENTRIES))
    def test_fitting_inputs_pass(self, entry):
        D = Dictionary(np.eye(3, 4))
        x = np.array([0.6, -0.8, 0.0])
        _FIT_ENTRIES[entry][1](D, x, SparseCode(np.array([1]), np.array([-0.5]), 4))

    def test_two_dimensional_sample_rejected(self):
        D = Dictionary(np.eye(3))
        with pytest.raises(DimensionMismatch):
            sample_objective(D, SparseCode.zero(3), np.zeros((3, 1)), 0.1)
