"""Command-line surface: generate, split, train, evaluate, compare-samplers,
export-embeddings.

Exit codes: 0 success, 1 runtime failure, 2 config or usage error. A flag
that overrides a config key has that key as its dotted ``dest`` (``--epochs``
sets ``train.epochs``). The worker flags (``--workers``, or
``--deterministic``, which is ``--workers 1``; not both) set the thread
environment variables, then set and read back the thread count of the
OpenBLAS copies that numpy and scipy bundle, so they take effect in a process
that has already loaded numpy too; a copy that cannot be set is a usage error
naming the library. The CLI imports numpy only after parsing its arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="path to the JSON run config")
    p.add_argument("--run-dir", default=None, help="output directory (default: <output_dir>/<command>-<timestamp>-seed<seed>)")
    p.add_argument("--seed", type=int, default=None, help="override the top-level seed")
    threads = p.add_mutually_exclusive_group()
    threads.add_argument("--workers", type=int, default=None, help="cap numeric thread count (default: all cores)")
    threads.add_argument("--deterministic", dest="workers", action="store_const", const=1,
                         help="single-threaded, reproducible reductions (--workers 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphimpute",
        description="Graph-based imputation of sparse unary patient-event matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic cohort to CSV files")
    _add_common(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("split", help="materialize the train/test split")
    _add_common(p)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    _add_common(p)
    p.add_argument("--epochs", dest="train.epochs", type=int)
    p.add_argument("--learning-rate", dest="train.learning_rate", type=float)
    p.add_argument("--mask-probability", dest="train.mask_probability", type=float)
    p.add_argument("--embedding-dim", dest="model.embedding_dim", type=int)
    p.add_argument("--sampler", dest="train.negative_sampler", help="overrides %(dest)s",
                   choices=("uniform", "degree_preserving"))
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="score the test grid and report metrics")
    _add_common(p)
    p.add_argument("--checkpoint", default=None, help="checkpoint file (required for the graph imputer)")
    p.add_argument("--imputer", choices=("graph", "knn", "frequency"), default="graph")
    p.add_argument("--cutoff", type=float, default=0.5, help="the fixed policy's cutoff (default: %(default)s)")
    p.add_argument("--knn-k", dest="knn.k_neighbors", type=int)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("compare-samplers", help="train under both negative samplers and profile the bias")
    _add_common(p)
    p.add_argument("--epochs", dest="train.epochs", type=int)
    p.set_defaults(func=_cmd_compare_samplers)

    p = sub.add_parser("export-embeddings", help="export message-passed event embeddings")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=_cmd_export)

    return parser


def _configure_threads(args) -> str | None:
    """Apply the worker flags; returns why a BLAS copy could not be set."""
    if args.workers is None:
        return None
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(args.workers)
    import ctypes
    from pathlib import Path

    import numpy

    site = Path(numpy.__file__).resolve().parent.parent
    # numpy's copy carries ILP64 symbols with a 64_ suffix, scipy's none
    for libs, suffix in (("numpy.libs", "64_"), ("scipy.libs", "")):
        paths = sorted((site / libs).glob("lib*openblas*.so*"))
        if not paths:
            return f"cannot set the BLAS thread count: no OpenBLAS library in {libs}"
        for path in paths:
            lib = ctypes.CDLL(str(path))
            try:
                set_threads = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
                get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            except AttributeError:
                return f"cannot set the BLAS thread count of {path.name}"
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            set_threads(args.workers)
            if get_threads() != args.workers:
                return f"{path.name} runs {get_threads()} BLAS threads, not {args.workers}"
    return None


def _overrides(args) -> dict:
    return {k: v for k, v in vars(args).items() if (k == "seed" or "." in k) and v is not None}


def _resolve_run_dir(args, cfg):
    if args.run_dir is not None:
        return args.run_dir
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return os.path.join(cfg.output_dir, f"{args.command}-{stamp}-seed{cfg.seed}")


def _cmd_generate(args, exp, cfg, run_dir) -> int:
    result = exp.run_generate(cfg, run_dir)
    ds = result["dataset"]
    print(f"generated {ds.num_patients} patients x {ds.num_events} events, "
          f"{len(ds.positives)} observed positives")
    for name, path in result["paths"].items():
        print(f"{name}: {path}")
    return 0


def _cmd_split(args, exp, cfg, run_dir) -> int:
    sd = exp.run_split(cfg, run_dir)
    print(
        f"train {sd.train.num_patients} patients / test {sd.test_visible.num_patients}; "
        f"{len(sd.test_heldout)} held-out positives; outputs in {run_dir}"
    )
    return 0


def _cmd_train(args, exp, cfg, run_dir) -> int:
    def log(row):
        if row["epoch"] % 10 == 0 or row["epoch"] == cfg.train.epochs - 1:
            print(f"epoch {row['epoch']:4d}  loss {row['loss']:.6f}", flush=True)

    state, _ = exp.run_train(cfg, run_dir, log=log)
    final = state.epoch_stats[-1]["loss"] if state.epoch_stats else float("nan")
    print(f"final loss {final:.6f}; checkpoint and logs in {run_dir}")
    return 0


def _cmd_evaluate(args, exp, cfg, run_dir) -> int:
    if args.checkpoint is not None and args.imputer != "graph":
        raise exp.ConfigError(
            f"--checkpoint is read only by the graph imputer and cannot be used with --imputer {args.imputer}"
        )
    if getattr(args, "knn.k_neighbors") is not None and args.imputer != "knn":
        raise exp.ConfigError(
            f"--knn-k is read only by the knn imputer and cannot be used with --imputer {args.imputer}"
        )
    reports = exp.run_evaluate(
        cfg, run_dir, checkpoint_path=args.checkpoint, imputer=args.imputer, fixed_cutoff=args.cutoff
    )
    with open(os.path.join(run_dir, "telemetry.json")) as fh:
        runtime_s = json.load(fh)["evaluate"]["stages"]["score"]["seconds"]
    print(exp.summary_table(reports, args.imputer, runtime_s))
    print(f"per-event tables in {run_dir}")
    return 0


def _cmd_compare_samplers(args, exp, cfg, run_dir) -> int:
    result = exp.run_compare_samplers(cfg, run_dir)
    profile = result["profile"]
    print(f"spearman(frequency, recall) uniform:           {profile.spearman_v1:.4f}")
    print(f"spearman(frequency, recall) degree-preserving: {profile.spearman_v2:.4f}")
    print(f"bias tables in {run_dir}")
    return 0


def _cmd_export(args, exp, cfg, run_dir) -> int:
    exp.run_export_embeddings(cfg, run_dir, args.checkpoint)
    print(f"embeddings and neighbor lists in {run_dir}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.workers is not None and args.workers < 1:
        parser.error("workers must be >= 1")
    problem = _configure_threads(args)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    from . import experiment as exp

    try:
        cfg = exp.load_config(args.config, _overrides(args))
        return args.func(args, exp, cfg, _resolve_run_dir(args, cfg))
    except exp.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        raise
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
