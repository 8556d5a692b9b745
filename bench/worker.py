"""One fresh process of the benchmark: prepare inputs, or run one operation.

    python3 bench/worker.py prepare --workload W --seed S --dir DIR
    python3 bench/worker.py op --workload W --seed S --dir DIR --trace 0|1

``prepare`` builds the workload's input files from the seed (untimed)
and prints the environment header.  ``op`` sets up (imports ``scc``
from the checkout's ``src/``, reads and preprocesses the inputs), makes
the workload's calls with calibration units between epochs, checks every
output and prints one JSON line.  With ``--trace 1`` the set-up and the
calls run with spans around every cross-module call, and the line also
carries the per-layer figures.
"""

import time

T_START = time.perf_counter()  # the worker's start, before ``import scc``

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import struct  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
sys.path.insert(0, str(SRC))

from spec import DATA, GROUPS, MODULES, WORKLOADS  # noqa: E402
from spans import ROOT, Tracer  # noqa: E402

LAMBDA_SCALE = 1.2          # lambda = 1.2 / sqrt(p), the program's documented default
BALL_SLACK = 1e-12          # slack on unit-ball membership of atoms
OBJECTIVE_RTOL = 1e-9       # reported objective vs. the benchmark's own recomputation
ORACLE_CD_TOL = 1e-10       # lasso_oracle_cd stopping tolerance in the agreement check
ORACLE_PROX_TOL = 1e-12     # lasso_oracle_prox stopping tolerance in the agreement check
ORACLE_RTOL = 1e-6          # allowed relative gap between the two oracles' objectives
ORACLE_SAMPLES = 3          # samples 0, n // 2 and n - 1
FROZEN_SAMPLES = 16         # samples 0..15 for the frozen-input kernel timings
FROZEN_SECONDS = 0.4        # timing budget per frozen kernel
CAL_VISITS = 2048           # coordinate visits per calibration unit
CAL_SHARE = 0.25            # calibration time after an epoch, as a share of the epoch's time
CAL_MIN_S = 0.1             # calibration time at least, each time it runs
DATA_KEYS = {name: i for i, name in enumerate(sorted(DATA))}


def _import_scc():
    import importlib

    import scc

    for name in MODULES:
        importlib.import_module(f"scc.{name}")
    where = Path(scc.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"bench: scc was imported from {where}, not from {SRC}")
    return scc


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _write_sccmat(path, X):
    """SCCMAT01 container: magic, uint32 p and n, float64 column-major payload."""
    import numpy as np

    X = np.asarray(X, dtype="<f8")
    p, n = X.shape
    with open(path, "wb") as fh:
        fh.write(b"SCCMAT01" + struct.pack("<II", p, n))
        fh.write(np.asfortranarray(X).tobytes(order="F"))


def _planted(rng, p, m, n, k, sigma):
    """Centered unit-norm atoms and unit-norm, zero-mean k-sparse samples."""
    import numpy as np

    atoms = rng.standard_normal((p, m))
    atoms -= atoms.mean(axis=0)
    atoms /= np.sqrt((atoms * atoms).sum(axis=0))
    Z = np.zeros((m, n))
    support = np.argsort(rng.random((n, m)), axis=1)[:, :k]
    Z[support.T, np.arange(n)] = rng.standard_normal((k, n))
    X = atoms @ Z + sigma * rng.standard_normal((p, n))
    X -= X.mean(axis=0)
    X /= np.sqrt((X * X).sum(axis=0))
    return atoms, X


def prepare(wl, seed, work):
    import numpy as np

    scc = _import_scc()  # also compiles the package's bytecode before any timing
    d = DATA[WORKLOADS[wl]["data"]]
    ss = np.random.SeedSequence(seed, spawn_key=(DATA_KEYS[WORKLOADS[wl]["data"]],))
    rng = np.random.Generator(np.random.PCG64(ss))
    atoms, X = _planted(rng, d["p"], d["m"], d["n"], d["k"], d["sigma"])
    if d["raw"]:
        # stored as a user's raw data would be: each sample scaled and shifted
        X = X * rng.uniform(0.5, 2.0, d["n"]) + rng.uniform(-1.0, 1.0, d["n"])
    _write_sccmat(work / "data.sccmat", X)
    _write_sccmat(work / "dict.sccmat", atoms)
    return {"env": _environment(np, scc)}


def _environment(np, scc):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # older numpy prints its configuration instead
        blas = "unknown"
    src_lines = sum(
        len(f.read_text(encoding="utf-8").splitlines()) for f in sorted((SRC / "scc").glob("*.py"))
    )
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "scc": getattr(scc, "__version__", "unknown"),
        "src_lines": src_lines,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# Checks (untimed; each failure is one message)
# ---------------------------------------------------------------------------

def _objective(np, atoms, X, codes, lam):
    """Mean of 0.5 ||x - D z||^2 + lam ||z||_1, computed without the program."""
    m, n = atoms.shape[1], X.shape[1]
    Z = np.zeros((m, n))
    for i, c in enumerate(codes):
        Z[c.indices, i] = c.values
    R = X - atoms @ Z
    return float(np.mean(0.5 * (R * R).sum(axis=0) + lam * np.abs(Z).sum(axis=0)))


def _check_outputs(np, scc, atoms, X, codes, lam, reported, failures, oracle=True):
    m, n = atoms.shape[1], X.shape[1]
    if not np.isfinite(atoms).all():
        failures.append("dictionary is not finite")
    elif float(np.sqrt((atoms * atoms).sum(axis=0)).max()) > 1.0 + BALL_SLACK:
        failures.append("an atom lies outside the unit ball")
    if len(codes) != n or any(c.m != m for c in codes):
        failures.append(f"expected {n} codes over {m} atoms")
        return
    zero = float(np.mean(0.5 * (X * X).sum(axis=0)))
    mine = _objective(np, atoms, X, codes, lam)
    if not (math.isfinite(reported) and reported < zero):
        failures.append(f"objective {reported!r} is not finite and below the zero-code {zero!r}")
    if abs(mine - reported) > OBJECTIVE_RTOL * max(abs(mine), 1.0):
        failures.append(f"objective {reported!r} disagrees with recomputed {mine!r}")
    if not oracle:
        return
    D = scc.Dictionary(atoms)
    for i in sorted({0, n // 2, n - 1})[:ORACLE_SAMPLES]:
        x = X[:, i]
        f_cd = _objective(np, atoms, x[:, None],
                          [scc.lasso_oracle_cd(D, x, lam, ORACLE_CD_TOL)], lam)
        f_px = _objective(np, atoms, x[:, None],
                          [scc.lasso_oracle_prox(D, x, lam, ORACLE_PROX_TOL)], lam)
        if abs(f_cd - f_px) > ORACLE_RTOL * max(f_cd, 1e-12):
            failures.append(f"sample {i}: oracle objectives {f_cd!r} (cd) and {f_px!r} (prox) differ")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def _calibration_unit(np, p, m):
    """Return the calibration unit for a p x m shape.

    A fixed coordinate-descent loop in the benchmark's own code over a
    fixed p x m matrix, about CAL_VISITS coordinate visits.  Its inputs
    never change, so its time tracks only how fast the machine runs this
    kind of code at this shape at the moment; ``run.py`` divides the
    workload's times by it.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    A = rng.standard_normal((p, m))
    A /= np.sqrt((A * A).sum(axis=0))
    cols = [A[:, j].copy() for j in range(m)]
    x = rng.standard_normal(p)
    x /= np.sqrt(x @ x)
    lam = LAMBDA_SCALE / math.sqrt(p)
    passes = max(1, CAL_VISITS // m)

    def unit():
        r = x.copy()
        z = [0.0] * m
        for _ in range(passes):
            for j, col in enumerate(cols):
                old = z[j]
                b = float(col @ r) + old
                new = b - lam if b > lam else (b + lam if b < -lam else 0.0)
                if new != old:
                    r -= (new - old) * col
                    z[j] = new

    return unit


class Op:
    """The workload's calls, routed through the tracer when there is one.

    Untraced, calibration units run after set-up and after every epoch
    (inside the trainer's progress callback, or after an encode call); the
    time they take is left out of the epoch and call times.
    """

    def __init__(self, scc, np, tracer, shape):
        self.scc = scc
        self.tracer = tracer
        self.calibration_s = []
        self.calibrating = tracer is None  # a traced run calibrates after its scope only
        self._unit = _calibration_unit(np, *shape)
        self.epochs_done = 0  # advanced by the trainer's progress callback
        self.encode_calls = []  # (z_init, code, warm) per encode_scc call, traced runs only
        self.atoms_touched = 0
        self.bytes_read = 0
        self.hooks = self._hooks()
        if tracer is not None:
            tracer.install([getattr(scc, name) for name in MODULES], scc.SparseCode, self.hooks)

    def calibrate(self, after_s=0.0):
        """Time calibration units for a while; ``after_s`` is the length of the epoch just run."""
        if not self.calibrating:
            return
        start = time.perf_counter()
        while time.perf_counter() - start < max(CAL_MIN_S, CAL_SHARE * after_s):
            t0 = time.perf_counter()
            self._unit()
            self.calibration_s.append(time.perf_counter() - t0)

    def entry(self, module, name):
        """The benchmark's own call into ``scc.<module>.<name>``."""
        fn = getattr(getattr(self.scc, module), name)
        if self.tracer is None:
            return fn
        return self.tracer.wrap(fn, f"{module}.{name}", self.hooks.get(f"{module}.{name}"))

    def _hooks(self):
        """Counters taken at the span boundaries, keyed by span name."""
        def encode_scc(args, kwargs, result):
            z_init = args[1] if len(args) > 1 else kwargs["z_init"]
            self.encode_calls.append((z_init, result.code, self.epochs_done > 0))

        def sgd(args, kwargs, result):
            self.atoms_touched += len(args[1])

        def read_dataset(args, kwargs, result):
            self.bytes_read += os.path.getsize(args[0])

        return {
            "lasso.encode_scc": encode_scc,
            "dictionary._sgd_adaptive_inplace": sgd,
            "dictionary._sgd_scalar_inplace": sgd,
            "serialize.read_dataset": read_dataset,
        }

    def progress(self, marks, t0):
        """Progress callback that appends (epoch end, next epoch start) to ``marks``."""
        def emit(stats):
            end = time.perf_counter()
            self.epochs_done += 1
            self.calibrate(end - (marks[-1][1] if marks else t0))
            marks.append((end, time.perf_counter()))
        return emit


def run_train(op, spec, seed, work):
    """Read (and preprocess) the data, then make each training call in turn."""
    scc = op.scc
    d = DATA[spec["data"]]
    ds = op.entry("serialize", "read_dataset")(work / "data.sccmat")
    if d["raw"]:
        ds = op.entry("data", "preprocess_dataset")(ds)
    # each call's parts: (data slice, TrainConfig.seed)
    slices = {}
    for call in spec["calls"]:
        k = call.get("parts", 1)
        bounds = [d["n"] * j // k for j in range(k + 1)]
        slices[k] = [(ds if k == 1 else scc.DataSet(ds.X[:, a:b], ds.preprocessed), seed * k + j)
                     for j, (a, b) in enumerate(zip(bounds, bounds[1:]))]
    t_setup = time.perf_counter()
    op.calibrate()
    lam = LAMBDA_SCALE / math.sqrt(d["p"])
    calls, results = [], []
    for call in spec["calls"]:
        natural = call["trainer"] == "natural_rate_train"
        trainer = op.entry("trainer", call["trainer"])
        record = {"label": call["label"], "wall_s": 0.0, "epochs_s": [0.0] * call["epochs"],
                  "objective": 0.0, "ops": call.get("parts", 1), "failed_ops": 0, "failures": []}
        for j, (part, part_seed) in enumerate(slices[record["ops"]]):
            cfg = scc.TrainConfig(
                dict_size=d["m"], lam=lam, epochs=call["epochs"], seed=part_seed,
                rate_schedule=scc.core.RATE_NATURAL if natural else scc.core.RATE_ADAPTIVE,
                **({"init": call["init"]} if "init" in call else {}),
            )
            marks = []
            op.epochs_done = 0
            t0 = time.perf_counter()
            result = trainer(part, cfg, progress=op.progress(marks, t0))
            t1 = time.perf_counter()
            starts = [t0] + [resume for _, resume in marks]
            record["wall_s"] += t1 - t0 - sum(resume - end for end, resume in marks)
            for e, ((end, _), start) in enumerate(zip(marks, starts)):
                record["epochs_s"][e] += end - start
            # parts differ in size by at most one sample: weight by size
            record["objective"] += result.stats[-1].objective * part.n / d["n"]
            results.append((record, j, part.X, result))
        calls.append(record)
    return t_setup, calls, (lam, results)


def run_encode(op, spec, seed, work):
    """Read the inputs for the in-memory reference, then run ``scc encode`` per call."""
    d = DATA[spec["data"]]
    D = op.entry("serialize", "read_dictionary")(work / "dict.sccmat")
    ds = op.entry("serialize", "read_dataset")(work / "data.sccmat")
    t_setup = time.perf_counter()
    op.calibrate()
    lam = LAMBDA_SCALE / math.sqrt(d["p"])
    main = op.entry("cli", "main")
    calls, outs = [], []
    for k, call in enumerate(spec["calls"]):
        path = work / f"codes-{os.getpid()}-{k}.sccspc"
        argv = ["encode", "--dict", str(work / "dict.sccmat"), "--data", str(work / "data.sccmat"),
                "--lambda", repr(lam), "--mode", f"scc:{spec['steps']}", "--out", str(path)]
        os.environ["SCC_THREADS"] = str(call["threads"])
        t0 = time.perf_counter()
        status = main(argv)
        wall = time.perf_counter() - t0
        op.calibrate(wall)
        calls.append({"label": call["label"], "wall_s": wall, "epochs_s": [wall],
                      "status": status, "failures": []})
        outs.append(path)
    read_codes = op.entry("serialize", "read_codes")
    codes = [read_codes(path) if c["status"] == 0 else None for c, path in zip(calls, outs)]
    for path in outs:
        path.unlink(missing_ok=True)
    return t_setup, calls, (D, ds.X, lam, codes)


def check_train(np, scc, spec, calls, kept):
    """Each part is one operation; the oracles are compared on each call's first part."""
    lam, results = kept
    first = set()
    for call, j, X, result in results:
        failures = []
        _check_outputs(np, scc, result.dictionary.atoms, X, result.codes, lam,
                       result.stats[-1].objective, failures, oracle=id(call) not in first)
        first.add(id(call))
        call["failed_ops"] += bool(failures)
        call["failures"] += [f"part {j}: {msg}" if call["ops"] > 1 else msg for msg in failures]
    _, _, X, result = results[0]
    return result.dictionary, X, result.codes, lam


def check_encode(np, scc, spec, calls, kept):
    """Exit status, read-back equal to the in-memory codes, and the output checks."""
    D, X, lam, read_back = kept
    zero = scc.SparseCode.zero(D.m)
    ref = [scc.encode_scc(D, zero, X[:, i], lam, spec["steps"]).code for i in range(X.shape[1])]
    for k, (call, codes) in enumerate(zip(calls, read_back)):
        if codes is None:
            call["failures"].append(f"scc encode exited with {call['status']}")
            call["objective"] = float("nan")
            continue
        if len(codes) != len(ref) or any(
            not (np.array_equal(a.indices, b.indices) and np.array_equal(a.values, b.values))
            for a, b in zip(codes, ref)
        ):
            call["failures"].append("codes read back differ from the codes computed in memory")
        call["objective"] = _objective(np, D.atoms, X, codes, lam)
        _check_outputs(np, scc, D.atoms, X, codes, lam, call["objective"], call["failures"],
                       oracle=k == 0)
    return D, X, ref, lam


def _frozen_timings(np, scc, D, X, codes, lam):
    """Median us per cd_full_cycle / cd_support_cycle call on fixed inputs."""
    result = {}
    samples = range(min(FROZEN_SAMPLES, X.shape[1]))
    for kernel in ("cd_full_cycle", "cd_support_cycle"):
        fn = getattr(scc.lasso, kernel)
        ws = {i: scc.CDWorkspace.prepared(D, codes[i], X[:, i]) for i in samples}
        r0 = {i: ws[i].residual.copy() for i in samples}
        times = []
        start = time.perf_counter()
        while time.perf_counter() - start < FROZEN_SECONDS or not times:
            for i in samples:
                ws[i].residual[:] = r0[i]
                t0 = time.perf_counter()
                fn(D, codes[i], X[:, i], ws[i], lam)
                times.append(time.perf_counter() - t0)
        result[f"lasso.{kernel}.us_per_call"] = 1e6 * statistics.median(times)
    return result


def _layers(np, op, tracer, root, m):
    by_name, by_module, wall = tracer.summary(root)
    out = {}
    for mod in MODULES + (ROOT,):
        out[f"{mod}.self_s"] = by_module.get(mod, 0.0)
        out[f"{mod}.self_share"] = by_module.get(mod, 0.0) / wall
    for group, names in GROUPS.items():
        calls = sum(by_name.get(n, (0, 0.0, 0.0))[0] for n in names)
        incl = sum(by_name.get(n, (0, 0.0, 0.0))[1] for n in names)
        own = sum(by_name.get(n, (0, 0.0, 0.0))[2] for n in names)
        out[f"{group}.calls"] = calls
        out[f"{group}.self_s"] = own
        out[f"{group}.us_per_call"] = 1e6 * own / calls if calls else 0.0
        out[f"{group}.incl_s"] = incl
    calls = op.encode_calls
    warm = [(a, b) for a, b, w in calls if w]
    out["lasso.encode_scc.nnz_mean"] = statistics.fmean(b.nnz for _, b, _ in calls) if calls else 0.0
    out["lasso.encode_scc.churn_mean"] = statistics.fmean(
        np.setxor1d(a.indices, b.indices).size for a, b in warm) if warm else 0.0
    out["lasso.encode_scc.unchanged_ratio"] = sum(
        np.array_equal(a.indices, b.indices) and np.array_equal(a.values, b.values)
        for a, b, _ in calls) / len(calls) if calls else 0.0
    out["lasso.full_pass_coords"] = len(calls) * m
    out["dictionary.atoms_touched"] = op.atoms_touched
    incl = out["serialize.read_dataset.incl_s"]
    out["serialize.read_dataset.mib_per_s"] = op.bytes_read / 2**20 / incl if incl else 0.0
    out["trace.wall_s"] = wall
    out["trace.spans"] = len(tracer.spans)
    return out


def run_op(wl, seed, work, traced):
    scc = _import_scc()
    import numpy as np

    spec = WORKLOADS[wl]
    tracer = Tracer(run_id=f"{wl}-s{seed}-{os.getpid()}") if traced else None
    d = DATA[spec["data"]]
    op = Op(scc, np, tracer, (d["p"], d["m"]))
    run, check = (run_train, check_train) if spec["kind"] == "train" else (run_encode, check_encode)
    scope_start = time.perf_counter()
    if traced:
        with tracer.span(ROOT) as root:
            t_setup, calls, kept = run(op, spec, seed, work)
        tracer.uninstall()
        scope_end = root[2]
    else:
        t_setup, calls, kept = run(op, spec, seed, work)
        scope_end = time.perf_counter()
    # the scope (set-up after import, and the calls) leaves out calibration
    scope_s = scope_end - scope_start - sum(op.calibration_s)
    if traced:
        op.calibrating = True
        op.calibrate(scope_s)
    out = {
        "setup_s": t_setup - T_START,
        "scope_s": scope_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "n": d["n"],
        "calibration_s": op.calibration_s,
        "calls": calls,
    }
    D, X, codes, lam = check(np, scc, spec, calls, kept)
    if traced:
        layers = _layers(np, op, tracer, root, D.m)
        layers.update(_frozen_timings(np, scc, D, X, codes, lam))
        out["layers"] = layers
        tracer.dump(work.parent / f"trace-{wl}-s{seed}.jsonl")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("prepare", "op"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.mode == "prepare":
        result = prepare(args.workload, args.seed, args.dir)
    else:
        result = run_op(args.workload, args.seed, args.dir, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
