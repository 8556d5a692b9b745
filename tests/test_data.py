import math
import warnings

import numpy as np
import pytest

from scc import (
    ConfigInvalid,
    DataSet,
    DegenerateSample,
    ImageTooSmall,
    Sample,
    extract_patches,
    generate_planted,
    init_dictionary,
    lasso_oracle_cd,
    preprocess,
    preprocess_dataset,
    validate_dataset,
)
from scc import rng_from_seed


class TestExtractPatches:
    def test_non_overlapping_tiling(self, rng):
        img = rng.random((32, 32))
        ds = extract_patches(img, window=16, stride=16, std_threshold=0.0)
        assert ds.n == 4
        assert ds.p == 256
        np.testing.assert_array_equal(ds.column(0), img[:16, :16].ravel())
        np.testing.assert_array_equal(ds.column(3), img[16:, 16:].ravel())

    def test_constant_image_discarded(self):
        ds = extract_patches(np.ones((32, 32)), window=16, stride=16, std_threshold=1e-6)
        assert ds.n == 0

    def test_one_horizontal_step(self, rng):
        img = rng.random((16, 17))
        ds = extract_patches(img, window=16, stride=1, std_threshold=0.0)
        assert ds.n == 2

    def test_image_too_small(self):
        with pytest.raises(ImageTooSmall):
            extract_patches(np.zeros((8, 20)), window=16)

    def test_bad_window(self):
        with pytest.raises(ConfigInvalid):
            extract_patches(np.zeros((20, 20)), window=0)

    @pytest.mark.parametrize("name", ["window", "stride"])
    def test_window_and_stride_are_counts(self, name):
        for bad in (2.5, "2", True, None, 0, -1):
            with pytest.raises(ConfigInvalid, match=name):
                extract_patches(np.ones((20, 20)), **{name: bad})


class TestPreprocess:
    def test_two_point_arithmetic(self):
        out = preprocess(Sample(np.array([1.0, 3.0])))
        np.testing.assert_allclose(out.values, [-1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert out.preprocessed

    def test_idempotent(self, rng):
        for _ in range(20):
            s = preprocess(Sample(rng.standard_normal(12)))
            again = preprocess(s)
            np.testing.assert_allclose(again.values, s.values, atol=1e-12)

    def test_constant_vector_rejected(self):
        with pytest.raises(DegenerateSample):
            preprocess(Sample(np.full(5, 3.3)))

    @staticmethod
    def per_sample_reference(X):
        """The per-sample formula: center, then divide by the 1-D norm."""
        out = np.empty(X.shape, order="F")
        for i in range(X.shape[1]):
            v = X[:, i]
            centered = v - v.mean()
            out[:, i] = centered / float(np.linalg.norm(centered))
        return out

    @pytest.mark.parametrize("order", ["F", "C"])
    @pytest.mark.parametrize("n", [1, 300])
    @pytest.mark.parametrize("p", [2, 3, 16, 17, 255, 256, 1023, 4096])
    def test_dataset_matches_per_sample_formula(self, p, n, order):
        rng = rng_from_seed(p * 1000 + n)
        X = np.array(rng.standard_normal((p, n)) * rng.uniform(0.1, 50.0, n)
                     + rng.uniform(-5.0, 5.0, n), order=order)
        ds = DataSet(X)
        pre = preprocess_dataset(ds)
        want = self.per_sample_reference(ds.X)
        assert pre.preprocessed
        assert np.array_equal(pre.X, want)
        assert pre.X.flags.f_contiguous and not pre.X.flags.writeable
        assert np.array_equal(preprocess(Sample(X[:, 0])).values, want[:, 0])

    def test_dataset_constant_column_rejected(self, rng):
        X = rng.standard_normal((6, 5))
        X[:, 3] = 2.5
        with pytest.raises(DegenerateSample, match="sample 3 "):
            preprocess_dataset(DataSet(X))

    def test_dataset_preprocessing_validates(self, rng):
        ds = extract_patches(rng.random((32, 32)), window=16, std_threshold=0.0)
        pre = preprocess_dataset(ds)
        assert pre.preprocessed
        validate_dataset(pre)


class TestInitDictionary:
    def test_random_patches_is_permutation_when_m_equals_n(self, rng):
        X = rng.standard_normal((6, 8))
        X /= np.linalg.norm(X, axis=0)
        from scc import DataSet

        ds = DataSet(X, preprocessed=False)
        D = init_dictionary(ds, 8, "random_patches", seed=5)
        got = sorted(map(tuple, D.atoms.T.round(12).tolist()))
        want = sorted(map(tuple, X.T.round(12).tolist()))
        assert got == want

    def test_random_patches_projects_long_samples(self, rng):
        from scc import DataSet

        ds = DataSet(5.0 * rng.standard_normal((6, 4)))
        D = init_dictionary(ds, 10, "random_patches", seed=1)  # m > n uses replacement
        np.testing.assert_allclose(np.linalg.norm(D.atoms, axis=0), 1.0, atol=1e-12)

    def test_random_gaussian_unit_norms(self, rng):
        from scc import DataSet

        ds = DataSet(rng.standard_normal((7, 3)))
        D = init_dictionary(ds, 12, "random_gaussian", seed=9)
        np.testing.assert_allclose(np.linalg.norm(D.atoms, axis=0), 1.0, atol=1e-12)

    def test_deterministic(self, rng):
        from scc import DataSet

        ds = DataSet(rng.standard_normal((7, 9)))
        a = init_dictionary(ds, 5, "random_patches", seed=33)
        b = init_dictionary(ds, 5, "random_patches", seed=33)
        assert a.atoms.tobytes() == b.atoms.tobytes()

    def test_unknown_method(self, rng):
        from scc import DataSet

        ds = DataSet(rng.standard_normal((4, 4)))
        with pytest.raises(ConfigInvalid):
            init_dictionary(ds, 4, "kmeans", seed=0)


class TestGeneratePlanted:
    def test_deterministic(self):
        a_ds, a_D, a_codes = generate_planted(8, 12, 20, 2, 0.05, seed=7)
        b_ds, b_D, b_codes = generate_planted(8, 12, 20, 2, 0.05, seed=7)
        assert a_ds.X.tobytes() == b_ds.X.tobytes()
        assert a_D.atoms.tobytes() == b_D.atoms.tobytes()
        for za, zb in zip(a_codes, b_codes):
            np.testing.assert_array_equal(za.indices, zb.indices)
            np.testing.assert_array_equal(za.values, zb.values)

    def test_noiseless_one_sparse_samples_are_scaled_atoms(self):
        ds, D, codes = generate_planted(10, 6, 15, 1, 0.0, seed=3)
        for i in range(ds.n):
            j = int(codes[i].indices[0])
            w = float(codes[i].values[0])
            expected = preprocess(Sample(D.atoms[:, j] * w)).values
            np.testing.assert_allclose(ds.column(i), expected, atol=1e-13)

    def test_samples_are_preprocessed(self):
        ds, _, _ = generate_planted(9, 14, 25, 3, 0.1, seed=8)
        assert ds.preprocessed
        validate_dataset(ds)

    def test_parameter_validation(self):
        for args in [
            (8, 12, 20, 13, 0.0),
            (8, 12, 20, 2, -0.1),
            (0, 12, 20, 2, 0.1),
            (1, 4, 60, 2, 0.01),  # a centred 1-row atom is zero
            (8, 12, 20, 2, math.nan),
            (8, 12, 20, 2, math.inf),
        ]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # rejected before any arithmetic
                with pytest.raises(ConfigInvalid):
                    generate_planted(*args, seed=1)

    def test_planted_support_contained_in_oracle_support(self):
        # noiseless samples against the generating dictionary: the
        # reference solver finds every planted atom in >= 90% of samples
        # (measured 96/100 for this seed; exact support equality is rarer
        # because 32 atoms in a 15-dim centered space are coherent)
        ds, Dstar, codes = generate_planted(16, 32, 100, 3, 0.0, seed=11)
        hits = 0
        for i in range(100):
            z = lasso_oracle_cd(Dstar, ds.column(i), 0.01, 1e-10)
            if set(codes[i].indices.tolist()) <= set(z.indices.tolist()):
                hits += 1
        assert hits == 96
        assert hits >= 90


class TestPlantedRng:
    def test_independent_of_other_draws(self):
        # interleaved generator use elsewhere must not change results
        a = generate_planted(6, 8, 5, 2, 0.0, seed=2)[0].X
        rng_from_seed(2).standard_normal(1000)
        b = generate_planted(6, 8, 5, 2, 0.0, seed=2)[0].X
        np.testing.assert_array_equal(a, b)
