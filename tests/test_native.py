"""The native kernel: it loads where it can, it falls back silently where it
cannot, and it never changes a bit of what the trainers compute."""

import hashlib
import os
import platform
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
    CDWorkspace,
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
    _native_check,
    _native_lib,
    batch_train,
    cd_full_cycle,
    cd_support_cycle,
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
from scc import dictionary
from scc.core import _CodeStore
from scc.lasso import _encode_frozen
from scc.metrics import _terms_py
from scc.serialize import write_dataset, write_dictionary

from conftest import CD_PATHS, NATIVE_POSSIBLE, cd_path, random_ball_atoms, random_instance

SRC = Path(__file__).resolve().parent.parent / "src"


# lengths that leave every remainder 2 to 7 of the kernel's loops eight doubles wide (and of
# its narrower ones), and both sides of 256
REMAINDER_P = (10, 11, 12, 13, 14, 15, 255, 257)


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty kernel cache, so that loading compiles."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache" / "scc"


@pytest.fixture(scope="session")
def built_library(tmp_path_factory):
    """The kernel, compiled once per test session."""
    path = tmp_path_factory.mktemp("kernel") / "kernel.so"
    _native_lib._build(shutil.which("cc"), path)
    return path


@pytest.fixture(scope="session")
def mutant_builds(tmp_path_factory):
    """Where the tests in an empty cache keep the mutants' libraries they built, as
    ``<mutant>.so``, so that the tests in a stamped cache need not build them again."""
    return tmp_path_factory.mktemp("mutants")


@pytest.fixture
def built_cache(fresh_cache, built_library):
    """A fresh cache that holds the built kernel and no stamp, so that loading does not
    compile, for the tests that need a kernel but do not test its build."""
    path = _library()
    path.parent.mkdir(parents=True)
    shutil.copyfile(built_library, path)
    return fresh_cache


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


@pytest.fixture
def self_tests(monkeypatch):
    """The results of the self-tests that run, in order."""
    results = []
    real = _native_check._self_test

    def recorded(k):
        results.append(real(k))
        return results[-1]

    monkeypatch.setattr(_native_check, "_self_test", recorded)
    return results


def _library():
    """Where ``load()`` caches the kernel that it builds from ``_native_lib.SOURCE``."""
    return _native_lib.cache_path(shutil.which("cc"), _native_lib._numpy_ddot()[0])


def _stamp():
    """The stamp of that kernel."""
    return _library().with_suffix(".stamp")


def _new_process(src=SRC):
    """Whether a new process importing scc from ``src`` gets the kernel, and imports the
    self-test for it."""
    code = ("import sys, scc._native as n, scc._native_lib as L; "
            "print(isinstance(n.kernel(), L.Kernel), 'scc._native_check' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    return out.stdout.split()


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


# the define whose deletion builds each function of the kernel once, for the baseline ISA
_CLONED = '#define CLONED __attribute__((target_clones("avx512f", "avx2", "default")))\n'
# one line of the kernel's source and a replacement that changes bits the self-test must see
# (each mutant is built for the baseline ISA alone: a clone for another would carry the same
# mutation)
_MUTANTS = {
    # a fused multiply-add in the residual update rounds once instead of twice
    "fma": ("r[i] -= delta * col[i];", "r[i] = fma(-delta, col[i], r[i]);"),
    # an epoch with the dictionary held fixed that steps the atoms all the same: its
    # codes stay right, and every training epoch does too
    "cold": ("if (!e->h && e->a == 0.0)", "if (0)"),
    # oracle full passes that ignore the tolerance and stop after the first: the cheap
    # encoder, which makes exactly one, stays right
    "oracle": ("if (cd_pass(p, atoms, NULL, m, z, r, lam) < tol)",
               "if (cd_pass(p, atoms, NULL, m, z, r, lam) < INFINITY)"),
    # oracle epochs sent to the cheap encoder, one full pass: every cheap epoch stays right
    "dispatch": ("e->tol > 0.0", "e->tol > INFINITY"),
    # an oracle that never settles a working set between its full passes: the plain
    # full-pass descent, whose codes meet the tolerance too
    "working_set": ("while (pass < max_cycles) {", "while (0) {"),
    # working-set passes that leave the budget unspent: only a sample that runs out of
    # budget during them can tell
    "budget": ("pass++; /* a working-set pass spends the budget too */", ";"),
    # a rejected dense step retried at the same rate, which is rejected again
    "halving": ("eta *= 0.5;", "eta *= 1.0;"),
    # dense candidates whose columns are left outside the unit ball
    "projection": ("if (norm > 1.0)", "if (norm > INFINITY)"),
    # dense products that take the plain loop where numpy's matmul calls dgemm
    "dgemm": ("if (M > 1 && N > 1 && P > 1) {", "if (0) {"),
    # an scc_encode that makes one support pass more than it is asked for: every epoch,
    # which calls the cheap encoder itself, stays right
    "encode": ("lam, full, steps, support);", "lam, full, steps + 1, support);"),
    # an scc_encode that makes its full pass whatever it is asked for: encode_scc and
    # cd_full_cycle, which ask for one, stay right
    "full": ("lam, full, steps, support);", "lam, 1, steps, support);"),
}


class TestLoading:
    @pytest.mark.skipif(not NATIVE_POSSIBLE, reason="no C compiler or no OpenBLAS ddot here")
    def test_kernel_loads_where_it_can(self, fresh_cache):
        # where a compiler and numpy's ddot exist, the kernel must load, so
        # that a test run cannot quietly exercise only the Python loops
        assert isinstance(_native.kernel(), _native_lib.Kernel)
        assert _native_lib.load() is not None
        # the library and its stamp, and no temporary left over
        assert sorted(f.suffix for f in fresh_cache.iterdir()) == [".so", ".stamp"]

    @pytest.mark.skipif(not NATIVE_POSSIBLE, reason="no C compiler or no OpenBLAS ddot here")
    def test_cached_library_is_reused(self, built_cache):
        assert _native_lib.load() is not None
        (built,) = built_cache.glob("*.so")
        stamp = built.stat().st_mtime_ns
        assert _native_lib.load() is not None
        assert built.stat().st_mtime_ns == stamp

    @pytest.mark.skipif(not NATIVE_POSSIBLE, reason="no C compiler or no OpenBLAS ddot here")
    def test_damaged_cached_library_is_rebuilt(self, fresh_cache):
        path = _library()
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not a shared library")
        assert _native_lib.load() is not None
        assert path.read_bytes()[:4] == b"\x7fELF"

    @pytest.mark.skipif(not NATIVE_POSSIBLE, reason="no C compiler or no OpenBLAS ddot here")
    def test_self_test_runs_once_per_cache_entry(self, built_cache, self_tests):
        assert _native_lib.load() is not None
        assert self_tests == [True]
        assert len(list(built_cache.glob("*.stamp"))) == 1
        assert _native_lib.load() is not None
        assert self_tests == [True]  # the stamp stood for the second load
        assert _new_process() == ["True", "False"]

    @pytest.mark.skipif(not NATIVE_POSSIBLE, reason="no C compiler or no OpenBLAS ddot here")
    @pytest.mark.parametrize("damage", ["contents", "truncated", "library", "isa"])
    def test_a_stamp_of_another_key_runs_the_self_test_again(self, built_cache, self_tests,
                                                              damage):
        k = _native_lib.load()
        assert k is not None
        stamp = _stamp()
        key = stamp.read_bytes()
        if damage == "contents":
            stamp.write_bytes(key.replace(b"numpy", b"nompy"))
        elif damage == "truncated":
            stamp.write_bytes(key[:-1])
        elif damage == "isa":  # the stamp of a CPU that runs another clone
            isa = f"\nisa {k.isa}\n".encode()
            assert key.count(isa) == 1
            stamp.write_bytes(key.replace(isa, b"\nisa another\n"))
        else:  # another library: still loadable, with other bytes
            with open(stamp.with_suffix(".so"), "ab") as fh:
                fh.write(b"\0")
        assert _native_lib.load() is not None
        assert self_tests == [True, True]
        assert (stamp.read_bytes() == key) == (damage != "library")  # written again

    @pytest.mark.skipif(not NATIVE_POSSIBLE, reason="no C compiler or no OpenBLAS ddot here")
    def test_isa_names_the_clone_this_cpu_runs(self, built_cache):
        # the widest ISA that the kernel has clones for and the CPU and OS support
        flags = set()
        if platform.machine() == "x86_64":
            with open("/proc/cpuinfo", encoding="utf-8") as fh:
                flags = set(next(line for line in fh if line.startswith("flags")).split())
        want = "avx512f" if "avx512f" in flags else "avx2" if "avx2" in flags else "default"
        assert _native_lib.load().isa == want

    @pytest.mark.skipif(not NATIVE_POSSIBLE, reason="no C compiler or no OpenBLAS ddot here")
    def test_a_stamp_of_other_package_sources_runs_the_self_test_again(self, built_cache,
                                                                      tmp_path):
        assert _native_lib.load() is not None
        copy = tmp_path / "src" / "scc"
        shutil.copytree(SRC / "scc", copy, ignore=shutil.ignore_patterns("__pycache__"))
        with open(copy / "metrics.py", "a") as fh:
            fh.write("# another source\n")
        assert _new_process(copy.parent) == ["True", "True"]
        assert _new_process(copy.parent) == ["True", "False"]

    @pytest.mark.skipif(not NATIVE_POSSIBLE, reason="no C compiler or no OpenBLAS ddot here")
    def test_a_stamp_that_cannot_be_written_leaves_the_kernel(self, built_cache, self_tests):
        assert _native_lib.load() is not None
        stamp = _stamp()
        stamp.unlink()
        stamp.mkdir()  # no file can take its place
        assert isinstance(_native_lib.load(), _native_lib.Kernel)
        assert isinstance(_native_lib.load(), _native_lib.Kernel)
        assert self_tests == [True, True, True]
        assert stamp.is_dir() and len(list(built_cache.iterdir())) == 2  # no temporary left

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
                                                        caplog, mutant_builds):
        _refuse_mutant("fma", fresh_cache, tmp_path, monkeypatch, caplog, mutant_builds)

    @pytest.mark.skipif(not NATIVE_POSSIBLE, reason="no C compiler or no OpenBLAS ddot here")
    def test_self_test_checks_the_cold_codes(self, fresh_cache, tmp_path, monkeypatch, caplog,
                                             mutant_builds):
        _refuse_mutant("cold", fresh_cache, tmp_path, monkeypatch, caplog, mutant_builds)

    @pytest.mark.skipif(not NATIVE_POSSIBLE, reason="no C compiler or no OpenBLAS ddot here")
    def test_self_test_checks_the_oracle_codes(self, fresh_cache, tmp_path, monkeypatch, caplog,
                                               mutant_builds):
        _refuse_mutant("oracle", fresh_cache, tmp_path, monkeypatch, caplog, mutant_builds)

    @pytest.mark.skipif(not NATIVE_POSSIBLE, reason="no C compiler or no OpenBLAS ddot here")
    def test_self_test_checks_that_oracle_epochs_run_the_oracle(self, fresh_cache, tmp_path,
                                                                monkeypatch, caplog,
                                                                mutant_builds):
        _refuse_mutant("dispatch", fresh_cache, tmp_path, monkeypatch, caplog, mutant_builds)

    @pytest.mark.skipif(not NATIVE_POSSIBLE, reason="no C compiler or no OpenBLAS ddot here")
    def test_self_test_checks_the_working_set_passes(self, fresh_cache, tmp_path, monkeypatch,
                                                     caplog, mutant_builds):
        _refuse_mutant("working_set", fresh_cache, tmp_path, monkeypatch, caplog, mutant_builds)

    @pytest.mark.skipif(not NATIVE_POSSIBLE, reason="no C compiler or no OpenBLAS ddot here")
    def test_self_test_checks_the_working_set_budget(self, fresh_cache, tmp_path, monkeypatch,
                                                     caplog, mutant_builds):
        _refuse_mutant("budget", fresh_cache, tmp_path, monkeypatch, caplog, mutant_builds)

    @pytest.mark.skipif(not NATIVE_POSSIBLE, reason="no C compiler or no OpenBLAS ddot here")
    def test_self_test_checks_the_dense_halving(self, fresh_cache, tmp_path, monkeypatch, caplog,
                                                mutant_builds):
        _refuse_mutant("halving", fresh_cache, tmp_path, monkeypatch, caplog, mutant_builds)

    @pytest.mark.skipif(not NATIVE_POSSIBLE, reason="no C compiler or no OpenBLAS ddot here")
    def test_self_test_checks_the_dense_projection(self, fresh_cache, tmp_path, monkeypatch, caplog,
                                                   mutant_builds):
        _refuse_mutant("projection", fresh_cache, tmp_path, monkeypatch, caplog, mutant_builds)

    @pytest.mark.skipif(not NATIVE_POSSIBLE, reason="no C compiler or no OpenBLAS ddot here")
    def test_self_test_checks_the_dense_dgemm_route(self, fresh_cache, tmp_path, monkeypatch,
                                                    caplog, mutant_builds):
        _refuse_mutant("dgemm", fresh_cache, tmp_path, monkeypatch, caplog, mutant_builds)

    @pytest.mark.skipif(not NATIVE_POSSIBLE, reason="no C compiler or no OpenBLAS ddot here")
    def test_self_test_checks_the_per_sample_encoder(self, fresh_cache, tmp_path, monkeypatch,
                                                     caplog, mutant_builds):
        _refuse_mutant("encode", fresh_cache, tmp_path, monkeypatch, caplog, mutant_builds)

    @pytest.mark.skipif(not NATIVE_POSSIBLE, reason="no C compiler or no OpenBLAS ddot here")
    def test_self_test_checks_the_support_pass_alone(self, fresh_cache, tmp_path, monkeypatch,
                                                     caplog, mutant_builds):
        _refuse_mutant("full", fresh_cache, tmp_path, monkeypatch, caplog, mutant_builds)

    @pytest.mark.skipif(not NATIVE_POSSIBLE, reason="no C compiler or no OpenBLAS ddot here")
    @pytest.mark.parametrize("mutant", sorted(_MUTANTS))
    def test_a_stamped_kernel_lets_no_mutant_through(self, fresh_cache, built_library, tmp_path,
                                                     monkeypatch, caplog, mutant_builds, mutant):
        kernel, source = _library(), _native_lib.SOURCE
        _clone_free(tmp_path, monkeypatch, *_MUTANTS[mutant])
        library = _library()
        # the mutant in the cache, as its test in an empty cache left it (built here if that
        # test did not run in this session)
        if (mutant_builds / f"{mutant}.so").exists():
            fresh_cache.mkdir(parents=True)
            shutil.copyfile(mutant_builds / f"{mutant}.so", library)
        else:
            assert _refused(caplog)
        built = library.stat().st_mtime_ns
        # the kernel loaded beside it, and so stamped: the mutant is refused again, from the
        # library in the cache, and gets no stamp of its own
        shutil.copyfile(built_library, kernel)
        with monkeypatch.context() as m:
            m.setattr(_native_lib, "SOURCE", source)
            assert _native_lib.load() is not None
        assert _refused(caplog)
        assert library.stat().st_mtime_ns == built
        assert sorted(fresh_cache.iterdir()) == sorted([kernel, kernel.with_suffix(".stamp"),
                                                        library])

    @pytest.mark.skipif(not NATIVE_POSSIBLE, reason="no C compiler or no OpenBLAS ddot here")
    def test_a_clone_free_build_runs_the_baseline(self, fresh_cache, tmp_path, monkeypatch,
                                                  self_tests):
        # the build that the mutants get, unmutated: the only one whose self-test runs the
        # baseline clone on a CPU with AVX2
        _clone_free(tmp_path, monkeypatch)
        assert _native_lib.load().isa == "default"
        assert self_tests == [True]
        assert _stamp().exists()

    def test_each_mutated_line_occurs_once_in_the_source(self):
        source = _native_lib.SOURCE.read_text()
        for line in [_CLONED, *(line for line, _ in _MUTANTS.values())]:
            assert source.count(line) == 1, line

    def test_cache_key_needs_no_openssl(self):
        # without hashlib loaded, the built-in SHA-256 names the same file as hashlib does here
        code = "import sys, scc._native_lib as L; print(L.cache_path('cc', 'blas'), 'hashlib' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
        assert "hashlib" in sys.modules
        assert out.stdout.split() == [str(_native_lib.cache_path("cc", "blas")), "False"]

    def test_import_does_not_load_the_kernel(self):
        code = ("import sys, scc, scc._native as n; "
                "print(n._kernel, 'scc._native_lib' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
        assert out.stdout.split() == ["None", "False"]


def _clone_free(tmp_path, monkeypatch, *mutation):
    """Make ``_native_lib.SOURCE`` a copy of the kernel's source without the define of
    ``CLONED``, so that each function is built once, for the baseline ISA (in about half
    the time), and with the ``mutation``, a line and its replacement, if one is given."""
    source = _native_lib.SOURCE.read_text().replace(_CLONED, "")
    if mutation:
        source = source.replace(*mutation)
    copy = tmp_path / "_kernel.c"
    copy.write_text(source)
    monkeypatch.setattr(_native_lib, "SOURCE", copy)


def _refuse_mutant(mutant, cache, tmp_path, monkeypatch, caplog, builds):
    """Load the ``mutant``, built without clones, in the empty ``cache``: it must be refused,
    and leave its library there and nothing else, no stamp and no temporary.  A copy of the
    library goes into the directory ``builds``."""
    _clone_free(tmp_path, monkeypatch, *_MUTANTS[mutant])
    assert _refused(caplog)
    library = _library()
    assert list(cache.iterdir()) == [library]
    shutil.copyfile(library, builds / f"{mutant}.so")


def _refused(caplog):
    """Whether ``load()`` refuses the kernel because its self-test failed."""
    caplog.clear()
    with caplog.at_level("DEBUG", logger="scc._native_lib"):
        k = _native_lib.load()
    return k is None and "computes other bits than the Python loops" in caplog.text


def test_fallback_gives_the_kernels_bits(fresh_cache, failing_cc, monkeypatch):
    monkeypatch.setattr(_native, "_kernel", None)
    assert _native.kernel() is _native_lib.LOOPS  # the failing compiler: the Python loops run
    fallback = _encode_bytes()
    monkeypatch.undo()
    if NATIVE_POSSIBLE:
        with cd_path("kernel"):
            assert _encode_bytes() == fallback


class _Recorder:
    """An engine that records each call by name and hands it on to the Python loops."""

    def __init__(self):
        self.calls = []
        self.depth = 0  # calls of this engine under way

    def _hand_on(name):
        def call(self, *args, **kwargs):
            self.calls.append(name)
            self.depth += 1
            try:
                return getattr(_native_lib.LOOPS, name)(*args, **kwargs)
            finally:
                self.depth -= 1

        return call

    encode = _hand_on("encode")
    epoch = _hand_on("epoch")
    objective = _hand_on("objective")
    dense = _hand_on("dense")
    del _hand_on


def test_every_call_goes_through_the_engine(monkeypatch, tmp_path):
    engine = _Recorder()
    monkeypatch.setattr(_native, "_kernel", engine)
    direct = []  # the loops that ran outside the engine

    def watched(name, loop):
        def run(*args, **kwargs):
            if not engine.depth:
                direct.append(name)
            return loop(*args, **kwargs)

        return run

    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "scc"]
    for module in modules:
        for name in ("_cd_pass", "_encode_py", "_epoch_py", "_terms_py", "_dense_py"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, watched(name, getattr(module, name)))

    def calls(run):
        engine.calls = []
        run()
        return engine.calls

    ds, D, _ = generate_planted(8, 12, 20, 2, 0.01, seed=7800)
    cfg = TrainConfig(dict_size=12, epochs=2, seed=1)
    natural = TrainConfig(dict_size=12, epochs=2, seed=1, rate_schedule="natural")
    for train, config in [(scc_train, cfg), (natural_rate_train, natural)]:
        assert calls(lambda: train(ds, config)) == ["epoch", "objective"] * 2
    assert calls(lambda: batch_train(ds, cfg)) == ["epoch", "dense", "objective"] * 2
    x = ds.X[:, 0]
    assert calls(lambda: encode_scc(D, SparseCode.zero(12), x, 0.1, 3)) == ["encode"]
    start = encode_scc(D, SparseCode.zero(12), x, 0.1, 1).code
    for cycle in (cd_full_cycle, cd_support_cycle):
        ws = CDWorkspace.prepared(D, start, x)
        assert calls(lambda: cycle(D, start, x, ws, 0.1)) == ["encode"]
    codes = [SparseCode.zero(12)] * ds.n
    assert calls(lambda: objective(D, codes, ds, 0.1)) == ["objective"]
    write_dictionary(tmp_path / "d.sccmat", D)
    write_dataset(tmp_path / "x.sccmat", ds)
    for mode in ("scc:3", "oracle"):
        argv = ["encode", "--dict", str(tmp_path / "d.sccmat"), "--data",
                str(tmp_path / "x.sccmat"), "--mode", mode, "--out", str(tmp_path / "z.sccspc")]
        assert calls(lambda: cli.main(argv)) == ["epoch"]
    assert direct == []


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


@pytest.mark.parametrize("p,m,n", [(1, 4, 30), (16, 32, 120), (17, 40, 60), (64, 256, 40),
                                   *((p, 12, 24) for p in REMAINDER_P)])
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
# batch_train as both paths and the per-sample reference of test_trainer
# (conftest's ref_oracle, warm from the second epoch) computed it once its
# oracle settled working sets; a change that moved both paths alike would
# still pass the comparison above
_PINNED_DIGESTS = {
    ("batch_train", 1, 4, 30): "801ec5531fef29ee26b03bb45c00849b4d309456e05ab862c29c5419dad5ec62",
    ("batch_train", 16, 32, 120): "b28b75aabef18e56e1fbc26116d8983daebfef827e8bbc15b027a984ecc04844",
    ("batch_train", 17, 40, 60): "2e747f56042cd663c8538e216f6cb0827989b1ea359d018c2f5ace11f09c07a2",
    ("batch_train", 64, 256, 40): "c099e9b5813bb7da2f739cd6f962df45af8dd4a03b32a4f49beeb1227b403710",
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
        with pytest.raises(ZeroCurvature, match="^column 0 has no accumulated curvature$"):
            _native.kernel().epoch(D, ds.X, np.arange(3), 1e-163, 3, _CodeStore(2, 3, 0),
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


def _dense_outcomes(atoms, Z, X, attempts):
    """{path: (the atoms' bytes after ``dense``, steps accepted)} on each engine here."""
    outcomes = {}
    for path in CD_PATHS if NATIVE_POSSIBLE else ("python",):
        W = atoms.copy(order="F")
        with cd_path(path):
            accepted = _native.kernel().dense(W, Z, X, attempts)
        outcomes[path] = (W.tobytes(), accepted)
    return outcomes


@pytest.mark.parametrize("p,m,n", [(1, 6, 9), (7, 1, 9), (6, 8, 1), (1, 1, 5), (9, 1, 1),
                                   (16, 32, 40), *zip(REMAINDER_P, range(11, 19), range(9, 1, -1))])
def test_dense_steps_match_on_each_path(p, m, n, monkeypatch):
    # p, m or n = 1 take numpy's dot, dgemv and plain-loop routes; codes larger than a
    # unit step can take make the first attempts overshoot; REMAINDER_P, with m from 11
    # to 18, leaves every remainder of the vector loops over p and over m
    rng = np.random.default_rng(7900 + 100 * p + 10 * m + n)
    atoms = np.asfortranarray(random_ball_atoms(rng, p, m))
    Z = np.asfortranarray(3.0 * rng.standard_normal((m, n)))
    X = np.asfortranarray(rng.standard_normal((p, n)))
    steps = []  # (rate, columns projected) of each attempt on the Python loops
    step = dictionary._step

    def watched(a, G, eta):
        out = a - eta * G
        steps.append((eta, int((np.sqrt((out * out).sum(axis=0)) > 1.0).sum())))
        return step(a, G, eta)

    _native.kernel()  # loaded, and self-tested on the Python loops, before the watch
    monkeypatch.setattr(dictionary, "_step", watched)
    outcomes = _dense_outcomes(atoms, Z, X, 8)
    accepted = outcomes["python"][1]
    assert len(steps) == 8 and 0 < accepted < 8  # no stationary stop; accepts and rejects
    assert steps[-1][0] < 1.0 and any(k for _, k in steps)  # eta halved; a column projected
    assert outcomes.get("kernel", outcomes["python"]) == outcomes["python"]


def test_dense_steps_stop_on_zero_data():
    # zero samples and zero codes: the first step moves nothing and is accepted, which ends
    # the loop without counting it
    atoms = np.asfortranarray(random_ball_atoms(np.random.default_rng(7950), 5, 7))
    outcomes = _dense_outcomes(atoms, np.zeros((7, 4), order="F"), np.zeros((5, 4), order="F"),
                               20)
    assert set(outcomes.values()) == {(atoms.tobytes(), 0)}


def test_kernel_dense_refuses_arrays_it_cannot_step_in_place():
    # the kernel writes the atoms through a pointer, column by column
    Z, X = np.zeros((4, 2), order="F"), np.zeros((3, 2), order="F")
    with cd_path("kernel"):
        dense = _native.kernel().dense
        for atoms, z in [(np.zeros((3, 4)), Z), (np.zeros((3, 4), order="F"), Z[:3]),
                         (np.zeros((3, 4), dtype=np.float32, order="F"), Z)]:
            with pytest.raises(ValueError, match="^dense needs writable Fortran-ordered"):
                dense(atoms, z, X, 1)
        locked = np.zeros((3, 4), order="F")
        locked.flags.writeable = False
        with pytest.raises(ValueError):
            dense(locked, Z, X, 1)


@pytest.mark.skipif(not NATIVE_POSSIBLE, reason="no C compiler or no OpenBLAS ddot here")
@settings(max_examples=40, deadline=None)
@given(params=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6),
                        st.integers(0, 2**16), st.sampled_from([0.0, 0.5, 2.0, 8.0]),
                        st.integers(1, 6)))
def test_dense_steps_match_on_random_shapes(params):
    p, m, n, seed, scale, attempts = params
    rng = np.random.default_rng(seed)
    atoms = np.asfortranarray(random_ball_atoms(rng, p, m))
    Z = np.asfortranarray(scale * rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.5))
    X = np.asfortranarray(rng.standard_normal((p, n)))
    outcomes = _dense_outcomes(atoms, Z, X, attempts)
    assert outcomes["kernel"] == outcomes["python"]


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
# samples, default lambda); both paths then gave these bytes.  The oracle's
# are those of the working-set oracle, which conftest's ref_oracle gives too
_ENCODE_DIGESTS = {
    "scc:1": "dca2beacafa812e6f5906bb37c159ec8f835075c53a56da5a93b341f761ff187",
    "scc:3": "1a196029ec195259e0c78f1a10df5a9d2e3f3f692e50980bcfc9081a1b8f5170",
    "oracle": "2084a5208a3d47407beaebd38ff24ffafd6da379a0d5971e34d019e708b76803",
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
    want = _native_check._store_bytes(_CodeStore.of(codes, m))
    for path in CD_PATHS if NATIVE_POSSIBLE else ("python",):
        with cd_path(path):
            assert _native_check._store_bytes(_encode_frozen(D, X, lam, steps)) == want
            small = _CodeStore(m, n, min(capacity, m - 1))  # no room for a code of m entries
            _native.kernel().epoch(D, X, np.arange(n), lam, steps, _CodeStore(m, n, 0), small,
                                   None)
            assert _native_check._store_bytes(small) == want


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
                    _encode_frozen(D, X, lam, 1, 1e-10, max_cycles)
            else:
                assert (_native_check._store_bytes(_encode_frozen(D, X, lam, 1, 1e-10, max_cycles))
                        == _native_check._store_bytes(_CodeStore.of(codes, m)))
            small = _CodeStore(m, n, min(capacity, m - 1))  # no room for a code of m entries
            try:
                _native.kernel().epoch(D, X, np.arange(n), lam, 1, _CodeStore(m, n, 0), small,
                                       None, 1e-10, max_cycles)
                raised = False
            except MaxIterationsExceeded:
                raised = True
            assert raised == (codes is None)
            outcomes[path] = _native_check._store_bytes(small) + [raised]
    assert outcomes.get("kernel", outcomes["python"]) == outcomes["python"]


@pytest.mark.parametrize("p", REMAINDER_P)
def test_frozen_epochs_and_objective_match_at_every_vector_remainder(p):
    # the cheap and the oracle codes of a few samples, and the objective of each
    rng = np.random.default_rng(8000 + p)
    m = 12
    D = Dictionary(random_ball_atoms(rng, p, m))
    X = np.asfortranarray(rng.standard_normal((p, 5)))
    outcomes = {}
    for path in CD_PATHS:
        with cd_path(path):
            stores = [_encode_frozen(D, X, 0.05, 3), _encode_frozen(D, X, 0.05, 1, 1e-10, 100_000)]
            outcomes[path] = [_native_check._store_bytes(s) for s in stores] + [
                _native.kernel().objective(D, s, X, 0.05).tobytes() for s in stores]
    assert outcomes["kernel"] == outcomes["python"]


def test_cold_codes_reject_what_encode_scc_rejects():
    D, x = random_instance(seed=7700, p=4, m=6)
    X = np.zeros((5, 3))
    with pytest.raises(DimensionMismatch) as cold:
        _encode_frozen(D, X, 0.1, 3)
    with pytest.raises(DimensionMismatch) as one:
        encode_scc(D, SparseCode.zero(6), X[:, 0], 0.1, 3)
    with pytest.raises(DimensionMismatch) as oracle:
        lasso_oracle_cd_batch(D, X, 0.1, 1e-10)
    assert str(cold.value) == str(one.value) == str(oracle.value)
    for lam, steps in [(0.0, 3), (np.inf, 3), (0.1, 0), (0.1, 2.0)]:
        with pytest.raises(ConfigInvalid):
            _encode_frozen(D, x[:, None], lam, steps)


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
        cold = _encode_frozen(D, X, 0.05, 3)
    assert D.atoms.tobytes() == atoms
    assert _codes_bytes(cold.codes()) == _codes_bytes(cold_want)
    assert _codes_bytes([got.code]) == _codes_bytes([want.code])
    assert got.residual.tobytes() == want.residual.tobytes()
    assert _codes_bytes(codes) == _codes_bytes(lasso_oracle_cd_batch(D, x[:, None], 0.05, 1e-10))
