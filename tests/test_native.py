"""The native kernel: it loads where it can, it falls back silently where it
cannot, and it never changes a bit of what the trainers compute."""

import hashlib
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from scc import (
    ConfigInvalid,
    DataSet,
    Dictionary,
    DimensionMismatch,
    HessianDiag,
    MaxIterationsExceeded,
    SCCError,
    SparseCode,
    TrainConfig,
    ZeroCurvature,
    _native,
    _native_lib,
    batch_train,
    cli,
    encode_scc,
    generate_planted,
    init_dictionary,
    lasso_oracle_cd,
    lasso_oracle_cd_batch,
    natural_rate_train,
    objective,
    scc_train,
)
from scc.core import _CodeStore
from scc.lasso import _oracle_cold, _oracle_py
from scc.metrics import _terms_py
from scc.serialize import write_dataset, write_dictionary
from scc.trainer import _encode_cold, _epoch_py

from conftest import CD_PATHS, cd_path, random_ball_atoms, random_instance

SRC = Path(__file__).resolve().parent.parent / "src"


NATIVE_POSSIBLE = shutil.which("cc") is not None and _native_lib._numpy_ddot() is not None


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty kernel cache, so that loading compiles."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache" / "scc"


@pytest.fixture
def failing_cc(tmp_path, monkeypatch):
    """A ``cc`` first on PATH that fails every compilation."""
    bindir = tmp_path / "bin"
    bindir.mkdir()
    cc = bindir / "cc"
    cc.write_text("#!/bin/sh\necho 'cc: internal error' >&2\nexit 1\n")
    cc.chmod(0o755)
    monkeypatch.setenv("PATH", f"{bindir}{os.pathsep}{os.environ.get('PATH', '')}")
    return str(cc)


def _codes_bytes(codes):
    return b"".join(c.indices.tobytes() + c.values.tobytes() + b"|" for c in codes)


def _encode_bytes():
    """Cold and warm codes and residuals of a few samples on the current path."""
    out = []
    for seed, (p, m) in enumerate([(1, 4), (16, 32), (17, 40)]):
        D, x = random_instance(seed=7000 + seed, p=p, m=m)
        cold = encode_scc(D, SparseCode.zero(m), x, 0.05, 3)
        warm = encode_scc(D, cold.code, 0.9 * x, 0.05, 3)
        out += [_codes_bytes([cold.code, warm.code]), cold.residual.tobytes(),
                warm.residual.tobytes()]
    return b"".join(out)


class TestLoading:
    @pytest.mark.skipif(not NATIVE_POSSIBLE, reason="no C compiler or no OpenBLAS ddot here")
    def test_kernel_loads_where_it_can(self, fresh_cache):
        # where a compiler and numpy's ddot exist, the kernel must load, so
        # that a test run cannot quietly exercise only the Python loops
        assert _native.kernel() is not None
        assert _native_lib.load() is not None
        assert [f.suffix for f in fresh_cache.iterdir()] == [".so"]  # no temporary left over

    @pytest.mark.skipif(not NATIVE_POSSIBLE, reason="no C compiler or no OpenBLAS ddot here")
    def test_cached_library_is_reused(self, fresh_cache):
        assert _native_lib.load() is not None
        (built,) = fresh_cache.iterdir()
        stamp = built.stat().st_mtime_ns
        assert _native_lib.load() is not None
        assert built.stat().st_mtime_ns == stamp

    @pytest.mark.skipif(not NATIVE_POSSIBLE, reason="no C compiler or no OpenBLAS ddot here")
    def test_damaged_cached_library_is_rebuilt(self, fresh_cache):
        path = _native_lib.cache_path(shutil.which("cc"), _native_lib._numpy_ddot()[0])
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a shared library")
        assert _native_lib.load() is not None
        assert path.read_bytes()[:4] == b"\x7fELF"

    def test_compiler_failure_falls_back_silently(self, fresh_cache, failing_cc):
        assert _native_lib.load() is None
        assert not fresh_cache.exists() or not any(fresh_cache.iterdir())

    def test_damaged_library_and_failing_compiler_fall_back(self, fresh_cache, failing_cc):
        found = _native_lib._numpy_ddot()
        if found is None:
            pytest.skip("numpy loaded no OpenBLAS with that ddot here")
        path = _native_lib.cache_path(failing_cc, found[0])
        path.parent.mkdir(parents=True)
        path.write_bytes(b"\x7fELF truncated")
        assert _native_lib.load() is None

    def test_unwritable_cache_falls_back(self, tmp_path, monkeypatch):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))  # no directory can be made under it
        assert _native_lib.load() is None

    @pytest.mark.skipif(not NATIVE_POSSIBLE, reason="no C compiler or no OpenBLAS ddot here")
    def test_self_test_rejects_a_kernel_with_other_bits(self, fresh_cache, tmp_path, monkeypatch,
                                                        caplog):
        # a fused multiply-add in the residual update rounds once instead of twice
        _refuse_mutant("r[i] -= delta * col[i];", "r[i] = fma(-delta, col[i], r[i]);",
                       tmp_path, monkeypatch, caplog)
        assert len(list(fresh_cache.iterdir())) == 1  # it built, and then refused to run it

    @pytest.mark.skipif(not NATIVE_POSSIBLE, reason="no C compiler or no OpenBLAS ddot here")
    def test_self_test_checks_the_cold_codes(self, fresh_cache, tmp_path, monkeypatch, caplog):
        # an epoch with the dictionary held fixed that steps the atoms all the same: its
        # codes stay right, and every training epoch does too
        _refuse_mutant("if (!e->h && e->a == 0.0)", "if (0)", tmp_path, monkeypatch, caplog)

    @pytest.mark.skipif(not NATIVE_POSSIBLE, reason="no C compiler or no OpenBLAS ddot here")
    def test_self_test_checks_the_oracle_codes(self, fresh_cache, tmp_path, monkeypatch, caplog):
        # a sign slip in scc_oracle_codes' store write alone: its passes stay right
        _refuse_mutant("val[nnz++] = z[j];", "val[nnz++] = -z[j];", tmp_path, monkeypatch, caplog)

    def test_cache_key_needs_no_openssl(self):
        # without hashlib loaded, the built-in SHA-256 names the same file as hashlib does here
        code = "import sys, scc._native_lib as L; print(L.cache_path('cc', 'blas'), 'hashlib' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
        assert "hashlib" in sys.modules
        assert out.stdout.split() == [str(_native_lib.cache_path("cc", "blas")), "False"]

    def test_import_does_not_load_the_kernel(self):
        code = ("import sys, scc, scc._native as n; "
                "print(n._kernel is n._UNLOADED, 'scc._native_lib' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
        assert out.stdout.split() == ["True", "False"]


def _refuse_mutant(line, replacement, tmp_path, monkeypatch, caplog):
    """Load the kernel with the one ``line`` of its source replaced: it must be refused."""
    source = _native_lib.SOURCE.read_text()
    assert source.count(line) == 1
    mutant = tmp_path / "_kernel.c"
    mutant.write_text(source.replace(line, replacement))
    monkeypatch.setattr(_native_lib, "SOURCE", mutant)
    with caplog.at_level("DEBUG", logger="scc._native_lib"):
        assert _native_lib.load() is None
    assert "computes other bits than the Python loops" in caplog.text


def test_fallback_gives_the_kernels_bits(fresh_cache, failing_cc, monkeypatch):
    monkeypatch.setattr(_native, "_kernel", _native._UNLOADED)
    assert _native.kernel() is None  # the failing compiler: the Python loops run
    fallback = _encode_bytes()
    monkeypatch.undo()
    if NATIVE_POSSIBLE:
        with cd_path("kernel"):
            assert _encode_bytes() == fallback


def _train_digest(train, ds, cfg):
    result = train(ds, cfg)
    h = hashlib.sha256(result.dictionary.atoms.tobytes())
    h.update(_codes_bytes(result.codes))
    h.update(np.array([s.objective for s in result.stats]).tobytes())
    return h.hexdigest()


_TRAININGS = {
    "scc_train": (scc_train, dict()),
    "scc_train_shuffled": (scc_train, dict(ordering="shuffled", cd_steps=5)),
    "natural_rate_train": (natural_rate_train,
                           dict(rate_schedule="natural", rate_a=0.5, rate_b=10.0)),
    "batch_train": (batch_train, dict(init="random_gaussian")),
}


def _training_case(training, p, m, n):
    train, extra = _TRAININGS[training]
    if p > 1:
        ds, _, _ = generate_planted(p, m, n, 3, 0.01, seed=7100 + p)
    else:  # planted data need p > 1
        ds = DataSet(np.random.default_rng(7100).standard_normal((p, n)))
    return train, ds, TrainConfig(dict_size=m, lam=1.2 / np.sqrt(p), epochs=2, seed=3, **extra)


@pytest.mark.parametrize("p,m,n", [(1, 4, 30), (16, 32, 120), (17, 40, 60), (64, 256, 40)])
@pytest.mark.parametrize("training", sorted(_TRAININGS))
def test_trainers_give_the_same_bits_on_each_path(training, p, m, n):
    train, ds, cfg = _training_case(training, p, m, n)
    digests = {}
    for path in ("python", "kernel"):
        with cd_path(path):
            digests[path] = _train_digest(train, ds, cfg)
    assert digests["kernel"] == digests["python"]


# _train_digest of the stochastic trainers as the per-sample Python loop
# computed them before the epoch moved into one kernel call, and of
# batch_train as both paths computed it before its oracle codes went into
# one kernel call per epoch; a change that moved both paths alike would
# still pass the comparison above
_PINNED_DIGESTS = {
    ("batch_train", 1, 4, 30): "801ec5531fef29ee26b03bb45c00849b4d309456e05ab862c29c5419dad5ec62",
    ("batch_train", 16, 32, 120): "dcc3c14b6a5792119ee089d6fcff9559d9021aa2282a30dead5558589b0e9091",
    ("batch_train", 17, 40, 60): "06b7607474a518e94d97ff574c377aea69a7319e7ab6574ff60a3c3f79268e44",
    ("batch_train", 64, 256, 40): "da4862f57fc29407c85a0606bd96085e830cdaf8a2c515d2b2be88a81062b7c1",
    ("scc_train", 1, 4, 30): "028519ff84c55938fa5fab75d5d6bad284223a3ca09be21b7a168311dcbb5eea",
    ("scc_train", 16, 32, 120): "21ddecb5cb093c37989d808d3b40eda57a826db0d1eae2434c625f2a4e99cbed",
    ("scc_train", 64, 256, 40): "35379211756b5baab17c29124b2dbabba79480e8324e7cdb96e45f65f0125d8f",
    ("scc_train_shuffled", 1, 4, 30):
        "028519ff84c55938fa5fab75d5d6bad284223a3ca09be21b7a168311dcbb5eea",
    ("scc_train_shuffled", 16, 32, 120):
        "99cfe4adeaa62473c723fd40821c3c1f24bd01c352d6a94ff53de8fa983cf36c",
    ("scc_train_shuffled", 64, 256, 40):
        "f85f41595670323f79c23e81b67ab2b05df6d2b639a56892544d8af8d21835b5",
    ("natural_rate_train", 1, 4, 30):
        "028519ff84c55938fa5fab75d5d6bad284223a3ca09be21b7a168311dcbb5eea",
    ("natural_rate_train", 16, 32, 120):
        "1e5086599097aa4cf70c955e0649a31171cf15c51c1589ed9994ec93f82e40d6",
    ("natural_rate_train", 64, 256, 40):
        "4878eb0e7e7854cc0463493b31ba4f3e185bd121d232128186e03f8ac98124b5",
}


@pytest.mark.parametrize("path", CD_PATHS)
@pytest.mark.parametrize("training,p,m,n", sorted(_PINNED_DIGESTS))
def test_trainers_reproduce_the_pinned_digests(training, p, m, n, path):
    train, ds, cfg = _training_case(training, p, m, n)
    with cd_path(path):
        assert _train_digest(train, ds, cfg) == _PINNED_DIGESTS[training, p, m, n]


def _underflow_case():
    """A raw one-row dataset whose first visit gives z_0 = 1e-163: its square is 0."""
    ds = DataSet(np.array([[2e-163, 0.5, -0.7]]))
    return ds, TrainConfig(dict_size=2, lam=1e-163, epochs=1, init="random_gaussian", seed=0)


@pytest.mark.parametrize("path", CD_PATHS)
def test_underflowing_curvature_raises_the_same_on_each_path(path):
    ds, cfg = _underflow_case()
    with cd_path(path), pytest.raises(ZeroCurvature) as info:
        scc_train(ds, cfg)
    assert str(info.value) == "column 0 has no accumulated curvature"


@pytest.mark.parametrize("path", CD_PATHS)
def test_zero_curvature_stops_before_the_step(path):
    ds, cfg = _underflow_case()
    D = init_dictionary(ds, 2, cfg.init, cfg.seed)
    before = D.atoms.tobytes()
    H = HessianDiag.zeros(2)
    with cd_path(path):
        kernel = _native.kernel()
        run_epoch = _epoch_py if kernel is None else kernel.epoch
        with pytest.raises(ZeroCurvature, match="^column 0 has no accumulated curvature$"):
            run_epoch(D, ds.X, np.arange(3), 1e-163, 3, _CodeStore(2, 3, 0),
                      _CodeStore(2, 3, 4), H)
    assert D.atoms.tobytes() == before
    assert H.diag.tolist() == [0.0, 0.0]  # 1e-163 squared


@st.composite
def _small_trainings(draw):
    p = draw(st.integers(1, 5))
    n = draw(st.integers(1, 8))
    X = draw(arrays(np.float64, (p, n), elements=st.floats(-4.0, 4.0)))
    natural = draw(st.booleans())
    cfg = TrainConfig(
        dict_size=draw(st.integers(1, 6)),
        lam=draw(st.floats(0.01, 1.0)),
        epochs=draw(st.integers(1, 3)),
        cd_steps=draw(st.integers(1, 4)),
        init=draw(st.sampled_from(["random_patches", "random_gaussian"])),
        ordering=draw(st.sampled_from(["sequential", "shuffled"])),
        seed=draw(st.integers(0, 2**16)),
        rate_schedule="natural" if natural else "adaptive_hessian",
        rate_a=draw(st.floats(0.01, 2.0)),
        rate_b=draw(st.floats(0.0, 20.0)),
    )
    return DataSet(X), cfg


@pytest.mark.skipif(not NATIVE_POSSIBLE, reason="no C compiler or no OpenBLAS ddot here")
@settings(max_examples=40, deadline=None)
@given(case=_small_trainings())
def test_kernel_epochs_match_the_python_loops(case):
    ds, cfg = case
    train = natural_rate_train if cfg.rate_schedule == "natural" else scc_train
    outcomes = {}
    for path in CD_PATHS:
        with cd_path(path):
            try:
                result = train(ds, cfg)
            except SCCError as exc:  # an underflowing curvature cell, on both paths alike
                outcomes[path] = repr(exc)
                continue
        atoms = result.dictionary.atoms
        assert np.isfinite(atoms).all()
        assert np.sqrt((atoms * atoms).sum(axis=0)).max() <= 1.0 + 1e-12
        outcomes[path] = (atoms.tobytes(), _codes_bytes(result.codes),
                          np.array([s.objective for s in result.stats]).tobytes())
    assert outcomes["kernel"] == outcomes["python"]


def test_objective_gives_the_same_bits_on_each_path():
    # support sizes 0 to 300 take every branch of the pairwise penalty sum
    rng = np.random.default_rng(7500)
    p, m, n = 5, 300, 301
    D, _ = random_instance(seed=7501, p=p, m=m)
    codes = [SparseCode(np.sort(rng.choice(m, k, replace=False)), rng.standard_normal(k), m)
             for k in range(n)]
    ds = DataSet(rng.standard_normal((p, n)))
    store = _CodeStore.of(codes, m)
    want = _terms_py(D, store, ds.X, 0.3)
    with cd_path("python"):
        assert objective(D, codes, ds, 0.3) == float(np.sum(want) / n)
    with cd_path("kernel"):
        assert _native.kernel().objective(D, store, ds.X, 0.3).tobytes() == want.tobytes()
        assert objective(D, codes, ds, 0.3) == float(np.sum(want) / n)


@pytest.mark.parametrize("path", ["python", "kernel"])
def test_reference_run_digests(path, tmp_path):
    argv = ["train", "--synthetic", "32,64,300,4,0.05", "--epochs", "3", "--seed", "2",
            "--out-dict", str(tmp_path / "d.sccmat"), "--out-codes", str(tmp_path / "z.sccspc")]
    with cd_path(path):
        assert cli.main(argv) == 0
    digest = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()[:16]
              for f in ("d.sccmat", "z.sccspc")}
    assert digest == {"d.sccmat": "24a1d14c73cbc436", "z.sccspc": "92180bba26df655d"}


# SHA-256 of the SCCSPC bytes that ``scc encode`` wrote per mode before the
# whole file was coded in one kernel call (64x256 planted dictionary, 100
# samples, default lambda); both paths then gave these bytes
_ENCODE_DIGESTS = {
    "scc:1": "dca2beacafa812e6f5906bb37c159ec8f835075c53a56da5a93b341f761ff187",
    "scc:3": "1a196029ec195259e0c78f1a10df5a9d2e3f3f692e50980bcfc9081a1b8f5170",
    "oracle": "6ffe147e0932b92e61f106cc446e8802ed7dbc859d3caeddc6b5f4f8a9e27a2e",
}


@pytest.mark.parametrize("path", CD_PATHS)
def test_encode_reproduces_the_pinned_digests(path, tmp_path):
    ds, D, _ = generate_planted(64, 256, 100, 5, 0.05, seed=7600)
    write_dictionary(tmp_path / "d.sccmat", D)
    write_dataset(tmp_path / "x.sccmat", ds)
    digest = {}
    with cd_path(path):
        for mode in _ENCODE_DIGESTS:
            out = tmp_path / "z.sccspc"
            assert cli.main(["encode", "--dict", str(tmp_path / "d.sccmat"), "--data",
                             str(tmp_path / "x.sccmat"), "--mode", mode, "--out", str(out)]) == 0
            digest[mode] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == _ENCODE_DIGESTS


@settings(max_examples=40, deadline=None)
@given(params=st.tuples(st.integers(1, 6), st.integers(1, 8), st.integers(0, 8),
                        st.integers(0, 2**16), st.floats(0.01, 1.0) | st.just(1e3),
                        st.integers(1, 4), st.integers(0, 7)))
@example(params=(1, 1, 5, 0, 0.05, 3, 0))  # p = 1 and m = 1, from an empty store
@example(params=(4, 6, 5, 1, 1e3, 2, 3))  # every code empty
def test_cold_codes_match_on_each_path(params):
    p, m, n, seed, lam, steps, capacity = params
    rng = np.random.default_rng(seed)
    D = Dictionary(random_ball_atoms(rng, p, m))
    X = np.asfortranarray(rng.standard_normal((p, n)))
    codes = [encode_scc(D, SparseCode.zero(m), x, lam, steps).code for x in X.T]
    if lam == 1e3:
        assert not any(c.nnz for c in codes)
    want = _native_lib._store_bytes(_CodeStore.of(codes, m))
    for path in CD_PATHS if NATIVE_POSSIBLE else ("python",):
        with cd_path(path):
            assert _native_lib._store_bytes(_encode_cold(D, X, lam, steps)) == want
            kernel = _native.kernel()
            small = _CodeStore(m, n, min(capacity, m - 1))  # no room for a code of m entries
            (_epoch_py if kernel is None else kernel.epoch)(
                D, X, np.arange(n), lam, steps, _CodeStore(m, n, 0), small, None)
            assert _native_lib._store_bytes(small) == want


@settings(max_examples=40, deadline=None)
@given(params=st.tuples(st.integers(1, 6), st.integers(1, 8), st.integers(0, 8),
                        st.integers(0, 2**16), st.floats(0.01, 1.0) | st.just(1e3),
                        st.sampled_from([1, 2, 100_000]), st.integers(0, 7)))
@example(params=(1, 1, 5, 0, 0.05, 100_000, 0))  # p = 1 and m = 1, from an empty store
@example(params=(4, 6, 5, 1, 1e3, 1, 3))  # every code empty, after one pass
@example(params=(4, 6, 5, 2, 0.01, 1, 3))  # the first column is still moving after one pass
def test_oracle_codes_match_on_each_path(params):
    p, m, n, seed, lam, max_cycles, capacity = params
    rng = np.random.default_rng(seed)
    D = Dictionary(random_ball_atoms(rng, p, m))
    X = np.asfortranarray(rng.standard_normal((p, n)))
    with cd_path("python"):
        try:
            codes = [lasso_oracle_cd(D, x, lam, 1e-10, max_cycles) for x in X.T]
        except MaxIterationsExceeded:
            codes = None
    if lam == 1e3:
        assert not any(c.nnz for c in codes)
    outcomes = {}
    for path in CD_PATHS if NATIVE_POSSIBLE else ("python",):
        with cd_path(path):
            if codes is None:
                with pytest.raises(MaxIterationsExceeded,
                                   match=f"^coordinate descent did not converge in {max_cycles} "):
                    _oracle_cold(D, X, lam, 1e-10, max_cycles)
            else:
                assert (_native_lib._store_bytes(_oracle_cold(D, X, lam, 1e-10, max_cycles))
                        == _native_lib._store_bytes(_CodeStore.of(codes, m)))
            kernel = _native.kernel()
            small = _CodeStore(m, n, min(capacity, m - 1))  # no room for a code of m entries
            failed = (_oracle_py if kernel is None else kernel.oracle)(D, X, lam, 1e-10,
                                                                       max_cycles, small)
            assert (failed is None) == (codes is not None)
            outcomes[path] = _native_lib._store_bytes(small) + (
                [] if failed is None else [failed[0], failed[1].tobytes(), failed[2].tobytes()])
    assert outcomes.get("kernel", outcomes["python"]) == outcomes["python"]


def test_cold_codes_reject_what_encode_scc_rejects():
    D, x = random_instance(seed=7700, p=4, m=6)
    X = np.zeros((5, 3))
    with pytest.raises(DimensionMismatch) as cold:
        _encode_cold(D, X, 0.1, 3)
    with pytest.raises(DimensionMismatch) as one:
        encode_scc(D, SparseCode.zero(6), X[:, 0], 0.1, 3)
    assert str(cold.value) == str(one.value)
    for lam, steps in [(0.0, 3), (np.inf, 3), (0.1, 0), (0.1, 2.0)]:
        with pytest.raises(ConfigInvalid):
            _encode_cold(D, x[:, None], lam, steps)


def test_concurrent_encodes_match_serial():
    # the kernel runs without the GIL; calls from more threads than cores must not share state
    D, _ = random_instance(seed=7200, p=32, m=64)
    X = np.random.default_rng(7201).standard_normal((32, 64))
    workers = 4
    serial = [encode_scc(D, SparseCode.zero(64), X[:, i], 0.05, 3).code for i in range(64)]
    serial_batches = [lasso_oracle_cd_batch(D, X[:, k::workers], 0.05, 1e-10)
                      for k in range(workers)]
    found, found_batches = [None] * 64, [None] * workers

    def work(k):
        for i in range(k, 64, workers):
            found[i] = encode_scc(D, SparseCode.zero(64), X[:, i], 0.05, 3).code
        found_batches[k] = lasso_oracle_cd_batch(D, X[:, k::workers], 0.05, 1e-10)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert _codes_bytes(found) == _codes_bytes(serial)
    for got, want in zip(found_batches, serial_batches):
        assert _codes_bytes(got) == _codes_bytes(want)


@pytest.mark.parametrize("path", ["python", "kernel"])
def test_read_only_atoms_encode(path):
    # holders other than a trainer may lock the atom matrix; encoding only reads it
    D, x = random_instance(seed=7300, p=16, m=32)
    X = np.column_stack([x, -0.5 * x, np.zeros(16)])
    atoms = D.atoms.tobytes()
    with cd_path(path):
        want = encode_scc(D, SparseCode.zero(32), x, 0.05, 3)
        cold_want = [encode_scc(D, SparseCode.zero(32), c, 0.05, 3).code for c in X.T]
        D.atoms.flags.writeable = False
        got = encode_scc(D, SparseCode.zero(32), x, 0.05, 3)
        codes = lasso_oracle_cd_batch(D, x[:, None], 0.05, 1e-10)
        # the kernel writes through a pointer whatever numpy's flag says: only the
        # bytes show that an epoch with the dictionary held fixed moved no atom
        cold = _encode_cold(D, X, 0.05, 3)
    assert D.atoms.tobytes() == atoms
    assert _codes_bytes(cold.codes()) == _codes_bytes(cold_want)
    assert _codes_bytes([got.code]) == _codes_bytes([want.code])
    assert got.residual.tobytes() == want.residual.tobytes()
    assert _codes_bytes(codes) == _codes_bytes(lasso_oracle_cd_batch(D, x[:, None], 0.05, 1e-10))
