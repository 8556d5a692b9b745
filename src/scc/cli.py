"""Command-line interface.

Three subcommands: ``train`` learns a dictionary and codes, ``encode``
sparse-codes a dataset against a stored dictionary, and ``bench`` runs
a grid of trainings and emits one tidy CSV for plotting.

Exit codes: 0 success, 1 runtime failure (message on stderr), 2 usage
error.  Every phase is single-threaded, so repeated runs write identical
bytes (metrics wall times excepted).  The environment variable
``SCC_THREADS`` is a validated hint: every subcommand rejects a value
that is not a positive integer before it starts any work, and a valid
value changes neither speed nor output bytes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .core import (
    EpochStats,
    INIT_RANDOM_GAUSSIAN,
    INIT_RANDOM_PATCHES,
    ORDER_SEQUENTIAL,
    ORDER_SHUFFLED,
    RATE_ADAPTIVE,
    RATE_NATURAL,
    SCCError,
    TrainConfig,
    thread_cap,
)
from .data import generate_planted, preprocess_dataset
from .lasso import DEFAULT_MAX_CYCLES, ORACLE_TOL, _encode_frozen
from .serialize import (
    read_dataset,
    read_dictionary,
    write_codes,
    write_dictionary,
    write_metrics_csv,
)
from .trainer import batch_train, natural_rate_train, scc_train

_INIT_FLAGS = {"patches": INIT_RANDOM_PATCHES, "gaussian": INIT_RANDOM_GAUSSIAN}
_ORDER_FLAGS = {"seq": ORDER_SEQUENTIAL, "shuffle": ORDER_SHUFFLED}
_TRAINERS = {"scc": scc_train, "batch": batch_train, "natural": natural_rate_train}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scc", description="Sparse dictionary learning via stochastic coordinate coding."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="learn a dictionary and sparse codes")
    _add_data_source(train)
    train.add_argument("--preprocess", action="store_true",
                       help="center and normalize --data samples before training")
    train.add_argument("--dict-size", type=int, metavar="M",
                       help="number of atoms (defaults to the synthetic generator's m)")
    train.add_argument("--lambda", dest="lam", type=float,
                       help="regularization weight (default 1.2/sqrt(p))")
    train.add_argument("--epochs", type=int, default=10, metavar="K")
    train.add_argument("--cd-steps", type=int, default=3, metavar="S")
    train.add_argument("--algo", choices=sorted(_TRAINERS), default="scc")
    train.add_argument("--rate-a", type=float, default=1.0,
                       help="numerator of the natural schedule a/(t+b)")
    train.add_argument("--rate-b", type=float, default=0.0,
                       help="offset of the natural schedule a/(t+b)")
    train.add_argument("--init", choices=sorted(_INIT_FLAGS), default="patches")
    train.add_argument("--order", choices=sorted(_ORDER_FLAGS), default="seq")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out-dict", type=Path)
    train.add_argument("--out-codes", type=Path)
    train.add_argument("--out-metrics", type=Path)
    train.set_defaults(func=_cmd_train, parser=train)

    encode = sub.add_parser("encode", help="sparse-code a dataset against a dictionary")
    encode.add_argument("--dict", dest="dict_path", type=Path, required=True)
    encode.add_argument("--data", type=Path, required=True)
    encode.add_argument("--lambda", dest="lam", type=float,
                        help="regularization weight (default 1.2/sqrt(p))")
    encode.add_argument("--mode", default="scc:3",
                        help="'scc:S' for S coordinate-descent steps, or 'oracle'")
    encode.add_argument("--out", type=Path, required=True)
    encode.set_defaults(func=_cmd_encode, parser=encode)

    bench = sub.add_parser("bench", help="run a training grid and emit a metrics CSV")
    _add_data_source(bench)
    bench.add_argument("--dict-sizes", required=True, metavar="M1,M2,...")
    bench.add_argument("--cd-steps", default="3", metavar="S1,S2,...")
    bench.add_argument("--epochs", type=int, default=10, metavar="K")
    bench.add_argument("--lambda", dest="lam", type=float)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--out", type=Path, required=True)
    bench.set_defaults(func=_cmd_bench, parser=bench)

    return parser


def _add_data_source(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--data", type=Path, help="matrix container with one sample per column")
    sub.add_argument("--synthetic", metavar="P,M,N,K,SIGMA",
                     help="generate planted data instead of reading --data")


def _parse_synthetic(text: str, parser: argparse.ArgumentParser):
    fields = text.split(",")
    if len(fields) != 5:
        parser.error(f"--synthetic expects P,M,N,K,SIGMA, got {text!r}")
    try:
        p, m, n, k = (int(f) for f in fields[:4])
        sigma = float(fields[4])
    except ValueError:
        parser.error(f"--synthetic expects four ints and a float, got {text!r}")
    return p, m, n, k, sigma


def _load_training_data(args) -> tuple:
    """Return (dataset, planted_m) honoring exactly one data-source flag."""
    parser = args.parser
    if (args.data is None) == (args.synthetic is None):
        parser.error("exactly one of --data or --synthetic is required")
    if args.synthetic is not None:
        p, m, n, k, sigma = _parse_synthetic(args.synthetic, parser)
        ds, _, _ = generate_planted(p, m, n, k, sigma, args.seed)
        return ds, m
    ds = read_dataset(args.data)
    if getattr(args, "preprocess", False):
        ds = preprocess_dataset(ds)
    return ds, None


def _parse_int_list(text: str, flag: str, parser: argparse.ArgumentParser) -> List[int]:
    items = [f for f in text.split(",") if f.strip()]
    if not items:
        parser.error(f"{flag} needs a nonempty comma-separated list")
    try:
        return [int(f) for f in items]
    except ValueError:
        parser.error(f"{flag} must list integers, got {text!r}")


def _progress_printer(tag: str):
    def emit(s: EpochStats) -> None:
        print(
            f"[{tag}] epoch {s.epoch}: objective={s.objective:.6f} "
            f"code_s={s.time_code_update:.3f} dict_s={s.time_dict_update:.3f} "
            f"mean_support={s.mean_support:.2f}",
            file=sys.stderr,
        )
    return emit


def _cmd_train(args) -> int:
    ds, planted_m = _load_training_data(args)
    dict_size = args.dict_size if args.dict_size is not None else planted_m
    if dict_size is None:
        args.parser.error("--dict-size is required with --data")
    cfg = TrainConfig(
        dict_size=dict_size,
        lam=args.lam,
        epochs=args.epochs,
        cd_steps=args.cd_steps,
        init=_INIT_FLAGS[args.init],
        ordering=_ORDER_FLAGS[args.order],
        seed=args.seed,
        rate_schedule=RATE_NATURAL if args.algo == "natural" else RATE_ADAPTIVE,
        rate_a=args.rate_a,
        rate_b=args.rate_b,
    )
    result = _TRAINERS[args.algo](ds, cfg, progress=_progress_printer(args.algo))
    if args.out_dict is not None:
        write_dictionary(args.out_dict, result.dictionary)
    if args.out_codes is not None:
        write_codes(args.out_codes, result.codes)
    if args.out_metrics is not None:
        write_metrics_csv(args.out_metrics, result.stats)
    return 0


def _parse_mode(mode: str, parser: argparse.ArgumentParser):
    if mode == "oracle":
        return None
    if mode.startswith("scc:"):
        try:
            steps = int(mode.split(":", 1)[1])
        except ValueError:
            parser.error(f"bad --mode {mode!r}")
        if steps < 1:
            parser.error(f"--mode scc:S needs S >= 1, got {steps}")
        return steps
    parser.error(f"--mode must be 'oracle' or 'scc:S', got {mode!r}")


def _cmd_encode(args) -> int:
    steps = _parse_mode(args.mode, args.parser)
    D = read_dictionary(args.dict_path)
    ds = read_dataset(args.data)
    cfg = TrainConfig(dict_size=D.m, lam=args.lam)
    cfg.validate()  # the one lambda rule: finite and > 0, or the default
    lam = cfg.effective_lambda(ds.p)
    if steps is None:
        codes = _encode_frozen(D, ds.X, lam, 1, ORACLE_TOL, DEFAULT_MAX_CYCLES)
    else:
        codes = _encode_frozen(D, ds.X, lam, steps)
    write_codes(args.out, codes)
    return 0


def _cmd_bench(args) -> int:
    parser = args.parser
    sizes = _parse_int_list(args.dict_sizes, "--dict-sizes", parser)
    steps_grid = _parse_int_list(args.cd_steps, "--cd-steps", parser)
    ds, _ = _load_training_data(args)
    rows = ["algo,m,S,epoch,objective,time_code_s,time_dict_s"]

    def record(algo: str, m: int, steps: int, stats: List[EpochStats]) -> None:
        for s in stats:
            rows.append(
                f"{algo},{m},{steps},{s.epoch},{s.objective!r},"
                f"{s.time_code_update!r},{s.time_dict_update!r}"
            )

    for m in sizes:
        for steps in steps_grid:
            cfg = TrainConfig(dict_size=m, lam=args.lam, epochs=args.epochs,
                              cd_steps=steps, seed=args.seed)
            result = scc_train(ds, cfg, progress=_progress_printer(f"scc m={m} S={steps}"))
            record("scc", m, steps, result.stats)
        cfg = TrainConfig(dict_size=m, lam=args.lam, epochs=args.epochs, seed=args.seed)
        result = batch_train(ds, cfg, progress=_progress_printer(f"batch m={m}"))
        record("batch", m, 0, result.stats)
    args.out.write_text("\n".join(rows) + "\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        thread_cap()  # reject a malformed SCC_THREADS; every phase is serial either way
        return args.func(args)
    except (SCCError, OSError) as exc:
        print(f"scc: error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
