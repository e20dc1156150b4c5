"""graphimpute benchmark: one workload per process, metrics on stdout.

    python3 perfbench/run.py --workload fit-dp --seed 101 --seconds 45 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/` directory. Workloads (see workloads.py): `fit-dp`, `fit-uniform`,
`impute`. With `--trace 0` the run is untraced and reports the end-to-end
metrics; with `--trace 1` it alternates traced and untraced steps and reports
the per-layer metrics, including the tracing overhead. Every metric is
printed by name with its unit and sample count; the last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`. A run
record (and, when traced, the spans) is written to `perfbench/out/`.
`--smoke` runs the same workload on a tiny instance in seconds.

BLAS is pinned to one thread before numpy loads, and the pin is read back
from the bundled OpenBLAS; a run whose count is not 1 fails.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=("fit-dp", "fit-uniform", "impute"))
    parser.add_argument("--seed", type=int, default=101, help="workload seed (default 101)")
    parser.add_argument("--seconds", type=float, default=45.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny instance, for self-tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def openblas() -> tuple[dict, str | None]:
    """Thread counts read back from the OpenBLAS copies that numpy and scipy
    bundle, by library file name, and numpy's OpenBLAS build string."""
    import ctypes

    import numpy

    def function(lib, names, restype):
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = restype
                return fn
        return None

    site = Path(numpy.__file__).resolve().parent.parent
    threads, config = {}, None
    for libs, suffix in (("numpy.libs", "64_"), ("scipy.libs", "")):
        for path in sorted((site / libs).glob("lib*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            get = function(
                lib,
                [f"{p}openblas_get_num_threads{suffix}" for p in ("scipy_", "")],
                ctypes.c_int,
            )
            if get is not None:
                threads[path.name] = get()
            if config is None:
                get_config = function(lib, [f"scipy_openblas_get_config{suffix}"], ctypes.c_char_p)
                config = get_config().decode() if get_config else None
    return threads, config


def git_sha() -> str | None:
    """HEAD of the checkout; None outside a git clone."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def print_metrics(title: str, metrics: dict) -> None:
    print(f"# {title}")
    for name, (value, samples, unit) in metrics.items():
        print(f"{name:<38} {value:>16.6g} {unit:<8} n={samples}")


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = "1"
    if not (SRC / "graphimpute" / "__init__.py").is_file():
        print(f"error: no graphimpute sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import dataclasses
    import json
    import platform
    import resource

    import numpy as np
    import scipy

    import graphimpute
    import metrics
    import workloads
    from graphimpute import baselines, experiment, model, training
    from spans import Tracer

    threads, blas_config = openblas()
    if not threads:
        print("warning: could not read the OpenBLAS thread count back", file=sys.stderr)
    elif any(count != 1 for count in threads.values()):
        print(f"error: BLAS thread counts {threads}, expected 1", file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        modules = {"training": training, "model": model, "experiment": experiment, "baselines": baselines}
        tracer = Tracer(modules)
    ctx = workloads.Context(
        instance=workloads.SMOKE if args.smoke else workloads.ACCEPTANCE,
        seed=args.seed,
        seconds=args.seconds,
        out_dir=OUT,
        tracer=tracer,
    )
    res = workloads.run(ctx, args.workload)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    e2e = metrics.end_to_end(res, peak_rss_mb, ctx.failed)
    reported = {name: e2e[name] for name, _ in metrics.END_TO_END}
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print_metrics("end-to-end (untraced steps)", e2e)
    if tracer is not None:
        layers = metrics.per_layer(res, args.workload, workloads.MODEL, tracer, ctx.failed)
        print_metrics("per-layer (traced steps)", layers)
        if tracer.missing:
            print(f"# boundaries missing from graphimpute: {', '.join(tracer.missing)}")
        reported = layers
    for name, (value, _, _) in reported.items():
        if not np.isfinite(value):
            ctx.fail(f"metric {name} is not finite")
    for problem in ctx.problems:
        print(f"# check failed: {problem}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_sha": git_sha(),
        "instance": dataclasses.asdict(ctx.instance),
        "counts": res.counts,
        "versions": {
            "graphimpute": graphimpute.__version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "openblas": blas_config,
        },
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "setup_s": res.setup_s,
        "step_walls_s": [[s.kind, s.wall, s.traced] for s in res.loop],
        "metrics": {
            name: {"value": value, "unit": unit, "samples": samples}
            for name, (value, samples, unit) in {**e2e, **(layers if tracer else {})}.items()
        },
        "problems": ctx.problems,
        "attempted": res.attempted,
        "failed": ctx.failed,
    }
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.json")

    result = {
        "correct": ctx.failed == 0,
        "attempted": res.attempted,
        "failed": ctx.failed,
        "metrics": {
            name: {"value": value if np.isfinite(value) else 0.0, "unit": unit}
            for name, (value, _, unit) in reported.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
