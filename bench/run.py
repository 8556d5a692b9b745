"""Benchmark harness for ``scc``; standard library only.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S]

One run builds the workload's inputs from the seed, then starts fresh
worker processes one after another (each sets up once and makes the
workload's calls) until ``--seconds`` have passed.  It reports medians
over the workers, with times normalised to a reference machine speed by
the workers' calibration units.  With ``--trace 0`` the last line of
standard output is a JSON object with every end-to-end metric; the lines
before it are the environment header and the same figures as text.  With ``--trace 1``
half the time goes to untraced workers and then one traced worker gives
the per-layer metrics; end-to-end metrics never come from a traced run.

``--all`` runs every workload untraced, one after another, and prints
every end-to-end metric of each under the names of the plain-text
report.  See ``bench/NOTES.md`` for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import CAL_REF_S, COMPUTED, END_TO_END, NAMED, WORKLOADS, per_layer_units

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
WORKER = HERE / "worker.py"
WORK_ROOT = CHECKOUT / ".bench_work"
# Workers per run, whatever --seconds says.  A train-patch worker takes
# about 9 s on a 2-core 2.1 GHz Xeon guest, so 25 s would hold only three,
# and its first epoch alone varies by about 9% from worker to worker.
MIN_WORKERS = 4
MIN_UNTRACED_TRACE = 2   # untraced workers in a traced run
WORKER_TIMEOUT_S = 120
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result (no program, no worker output)."""


def _worker_env():
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"  # SCC_THREADS stays the only parallelism measured
    env["SCC_THREADS"] = "1"  # the encode worker sets it per call
    env.pop("PYTHONPATH", None)  # the worker imports scc from this checkout's src/
    return env


def _spawn(mode, wl, seed, work, trace=0):
    cmd = [sys.executable, str(WORKER), mode, "--workload", wl, "--seed", str(seed),
           "--dir", str(work), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, env=_worker_env(), cwd=CHECKOUT,
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"{mode} worker timed out after {WORKER_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, f"{mode} worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (IndexError, ValueError):
        return None, f"{mode} worker printed no result: {proc.stdout[-500:]}"


def _git_rev():
    if not (CHECKOUT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=CHECKOUT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_workload(wl, seed, seconds, trace):
    """Run one workload.

    Returns the environment header, the result for the last line, the
    per-call figures under the ROADMAP's names, and the untraced workers'
    records.
    """
    work = WORK_ROOT / f"{wl}-s{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        prep, err = _spawn("prepare", wl, seed, work)
        if prep is None:
            raise BenchError(err)
        env = dict(prep["env"], nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
                   SCC_THREADS=sorted({c.get("threads", 1) for c in WORKLOADS[wl]["calls"]}),
                   git_rev=_git_rev())
        ops, errors = [], []
        budget = seconds / 2 if trace else seconds
        least = MIN_UNTRACED_TRACE if trace else MIN_WORKERS
        start = time.monotonic()
        # start another worker while it would end, on average, within the budget
        while (len(ops) + len(errors) < least
               or (time.monotonic() - start) * (1 + 0.5 / (len(ops) + len(errors))) < budget):
            rec, err = _spawn("op", wl, seed, work)
            if rec is None:
                errors.append(err)
                if not ops and len(errors) >= least:
                    break
            else:
                ops.append(rec)
        traced = None
        if trace:
            traced, err = _spawn("op", wl, seed, work, trace=1)
            if traced is None:
                errors.append(err)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # kept while it holds span files
        except OSError:
            pass
    for err in errors:
        print(f"bench: {wl}: {err}", file=sys.stderr)
    if not ops or (trace and traced is None):
        raise BenchError(f"{wl}: no worker completed")
    result, named = _result(wl, ops, errors, traced)
    return env, result, named, ops


def _speed(r, normalize=True):
    """Factor that takes one worker's raw times to the reference machine speed."""
    return CAL_REF_S / statistics.fmean(r["calibration_s"]) if normalize else 1.0


def _label_stats(ops, label, normalize=True):
    """Medians over workers of one call label's figures."""
    seqs, walls, objectives = [], [], []
    for r in ops:
        f = _speed(r, normalize)
        calls = [c for c in r["calls"] if c["label"] == label]
        seqs.append([f * t for c in calls for t in c["epochs_s"]])
        walls.append(f * sum(c["wall_s"] for c in calls))
        objectives.append(calls[0]["objective"])
    n = ops[0]["n"]
    us = [1e6 * w / (n * len(seq)) for w, seq in zip(walls, seqs)]
    return {
        "us_per_sample_epoch": statistics.median(us),
        "samples_per_s": statistics.median(1e6 / u for u in us),
        "first_epoch_s": statistics.median(seq[0] for seq in seqs),
        "steady_epoch_s": statistics.median(t for seq in seqs for t in seq[1:]),
        "epoch_s": statistics.median(t for seq in seqs for t in seq),
        "objective": objectives[0],
    }


def _end_to_end(wl, ops, normalize=True):
    primary = WORKLOADS[wl]["calls"][0]["label"]
    return dict(
        _label_stats(ops, primary, normalize),
        setup_s=statistics.median(_speed(r, normalize) * r["setup_s"] for r in ops),
        peak_rss_mib=statistics.median(r["peak_rss_mib"] for r in ops),
        op_s=statistics.median(_speed(r, normalize) * sum(c["wall_s"] for c in r["calls"])
                               for r in ops),
    )


def _result(wl, ops, errors, traced):
    records = ops + ([traced] if traced else [])
    calls = [c for r in records for c in r["calls"]]
    # a training call with parts is one operation per part
    attempted = sum(c.get("ops", 1) for c in calls) + len(errors)
    failed = sum(c.get("failed_ops", bool(c["failures"])) for c in calls) + len(errors)
    for c in calls:
        for msg in c["failures"]:
            print(f"bench: {wl}: {c['label']} call: check failed: {msg}", file=sys.stderr)
    # every call with one label sees the same inputs, so its objective must repeat exactly
    first = {}
    for c in calls:
        if c["objective"] != first.setdefault(c["label"], c["objective"]) and not c["failures"]:
            print(f"bench: {wl}: {c['label']} objective {c['objective']!r} differs from "
                  f"{first[c['label']]!r}", file=sys.stderr)
            failed += 1
    if traced:
        untraced = statistics.median(_speed(r) * r["scope_s"] for r in ops)
        ratio = _speed(traced) * traced["scope_s"] / untraced
        values = dict(traced["layers"], **{"trace.overhead_ratio": ratio})
        units = per_layer_units()
        named = {}
    else:
        values = _end_to_end(wl, ops)
        units = END_TO_END
        raw = _end_to_end(wl, ops, normalize=False)
        named = {f"raw_{name}": (raw[name], unit) for name, unit in END_TO_END.items()
                 if unit in ("s", "us")}
        for normalize, prefix in ((True, ""), (False, "raw_")):
            stats = {label: _label_stats(ops, label, normalize)
                     for label in {c["label"] for c in ops[0]["calls"]}}
            named.update({prefix + name: (stats[label][stat], unit)
                          for name, label, stat, unit in NAMED[wl]
                          if normalize or stat != "objective"})
        named["machine_speed"] = (statistics.median(_speed(r) for r in ops), "1")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, named


def _report(wl, env, result, named, ops):
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# workload {wl}: {len(ops)} untraced workers, "
          f"ops_attempted={result['attempted']} ops_failed={result['failed']}")
    rows = [(name, m["value"], m["unit"], f"computed: {COMPUTED[name]}" if name in COMPUTED else "")
            for name, m in result["metrics"].items()]
    rows += [(name, value, unit, "report only") for name, (value, unit) in named.items()]
    for name, value, unit, note in rows:
        print(f"{wl:12s} {name:36s} {value!r:>24} {unit:6s} {note}".rstrip())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload untraced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload or --all")
    try:
        if args.all:
            summary = {}
            for wl in WORKLOADS:
                env, result, named, ops = run_workload(wl, args.seed, args.seconds, 0)
                _report(wl, env, result, named, ops)
                summary[wl] = result
            print(json.dumps(summary))
        else:
            env, result, named, ops = run_workload(args.workload, args.seed, args.seconds,
                                                   args.trace)
            _report(args.workload, env, result, named, ops)
            print(json.dumps(result))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
