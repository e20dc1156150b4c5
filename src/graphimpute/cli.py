"""Command-line surface: generate, split, train, evaluate, compare-samplers,
export-embeddings.

Exit codes: 0 success, 1 runtime failure, 2 config or usage error. Thread
environment variables are set before numpy loads, so the worker flags take
effect; deterministic mode forces a single thread.
"""

from __future__ import annotations

import argparse
import os
import sys
import time


def _add_common(p: argparse.ArgumentParser, needs_config: bool = True) -> None:
    p.add_argument("--config", required=needs_config, help="path to the JSON run config")
    p.add_argument("--run-dir", default=None, help="output directory (default: <output_dir>/<command>-<timestamp>-seed<seed>)")
    p.add_argument("--seed", type=int, default=None, help="override the top-level seed")
    p.add_argument("--workers", type=int, default=None, help="cap numeric thread count (default: all cores)")
    p.add_argument("--deterministic", action="store_true", help="single-threaded, reproducible reductions")


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
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--mask-probability", type=float, default=None)
    p.add_argument("--embedding-dim", type=int, default=None)
    p.add_argument("--sampler", choices=("uniform", "degree_preserving"), default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="score the test grid and report metrics")
    _add_common(p)
    p.add_argument("--checkpoint", default=None, help="checkpoint file (required for the graph imputer)")
    p.add_argument("--imputer", choices=("graph", "knn", "frequency"), default="graph")
    p.add_argument("--policy", choices=("fixed", "train_frequency", "both"), default="both")
    p.add_argument("--cutoff", type=float, default=None, help="fixed cutoff value; implies --policy fixed")
    p.add_argument("--knn-k", type=int, default=None)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("compare-samplers", help="train under both negative samplers and profile the bias")
    _add_common(p)
    p.add_argument("--epochs", type=int, default=None)
    p.set_defaults(func=_cmd_compare_samplers)

    p = sub.add_parser("export-embeddings", help="export message-passed event embeddings")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=_cmd_export)

    return parser


def _configure_threads(args) -> None:
    workers = 1 if args.deterministic else args.workers
    if workers is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(workers)


def _overrides(args) -> dict:
    mapping = {
        "seed": "seed",
        "epochs": "train.epochs",
        "learning_rate": "train.learning_rate",
        "mask_probability": "train.mask_probability",
        "embedding_dim": "model.embedding_dim",
        "sampler": "train.negative_sampler",
        "knn_k": "knn.k_neighbors",
    }
    out = {}
    for attr, dotted in mapping.items():
        value = getattr(args, attr, None)
        if value is not None:
            out[dotted] = value
    return out


def _resolve_run_dir(args, cfg, command: str):
    if args.run_dir is not None:
        return args.run_dir
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return os.path.join(cfg.output_dir, f"{command}-{stamp}-seed{cfg.seed}")


def _load(args, exp):
    return exp.load_config(args.config, _overrides(args))


def _cmd_generate(args, exp) -> int:
    cfg = _load(args, exp)
    run_dir = _resolve_run_dir(args, cfg, "generate")
    result = exp.run_generate(cfg, run_dir)
    ds = result["dataset"]
    print(f"generated {ds.num_patients} patients x {ds.num_events} events, "
          f"{len(ds.positives)} observed positives")
    for name, path in result["paths"].items():
        print(f"{name}: {path}")
    return 0


def _cmd_split(args, exp) -> int:
    cfg = _load(args, exp)
    run_dir = _resolve_run_dir(args, cfg, "split")
    sd = exp.run_split(cfg, run_dir)
    print(
        f"train {sd.train.num_patients} patients / test {sd.test_visible.num_patients}; "
        f"{len(sd.test_heldout)} held-out positives; outputs in {run_dir}"
    )
    return 0


def _cmd_train(args, exp) -> int:
    cfg = _load(args, exp)
    run_dir = _resolve_run_dir(args, cfg, "train")

    def log(row):
        if row["epoch"] % 10 == 0 or row["epoch"] == cfg.train.epochs - 1:
            print(f"epoch {row['epoch']:4d}  loss {row['loss']:.6f}", flush=True)

    state, _ = exp.run_train(cfg, run_dir, log=log)
    final = state.loss_history[-1] if state.loss_history else float("nan")
    print(f"final loss {final:.6f}; checkpoint and logs in {run_dir}")
    return 0


def _cmd_evaluate(args, exp) -> int:
    cfg = _load(args, exp)
    run_dir = _resolve_run_dir(args, cfg, "evaluate")
    if args.cutoff is not None or args.policy == "fixed":
        policies = ("fixed",)
    elif args.policy == "train_frequency":
        policies = ("train_frequency",)
    else:
        policies = ("fixed", "train_frequency")
    if args.imputer == "graph" and args.checkpoint is None:
        raise exp.ConfigError("the graph imputer needs --checkpoint")
    reports = exp.run_evaluate(
        cfg,
        run_dir,
        checkpoint_path=args.checkpoint,
        policies=policies,
        imputer=args.imputer,
        fixed_cutoff=args.cutoff if args.cutoff is not None else 0.5,
    )
    print(exp.summary_table(reports, args.imputer))
    print(f"per-event tables in {run_dir}")
    return 0


def _cmd_compare_samplers(args, exp) -> int:
    cfg = _load(args, exp)
    run_dir = _resolve_run_dir(args, cfg, "compare-samplers")
    result = exp.run_compare_samplers(cfg, run_dir)
    profile = result["profile"]
    print(f"spearman(frequency, recall) uniform:           {profile.spearman_v1:.4f}")
    print(f"spearman(frequency, recall) degree-preserving: {profile.spearman_v2:.4f}")
    print(f"bias tables in {run_dir}")
    return 0


def _cmd_export(args, exp) -> int:
    cfg = _load(args, exp)
    run_dir = _resolve_run_dir(args, cfg, "export-embeddings")
    exp.run_export_embeddings(cfg, run_dir, args.checkpoint)
    print(f"embeddings and neighbor lists in {run_dir}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.workers is not None and args.workers < 1:
        parser.error("workers must be >= 1")
    _configure_threads(args)
    from . import experiment as exp

    try:
        return args.func(args, exp)
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
