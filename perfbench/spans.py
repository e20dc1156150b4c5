"""Span recording at graphimpute's layer boundaries, from outside the package.

The traced run swaps the module-level names that callers inside graphimpute
bind (for example ``training.backward``, which ``train_epoch`` looks up at
call time) for recorders that note the span's name, start, end and parent.
Spans stay in memory and are written out when the run ends. A span is named
after the module that defines the wrapped function, so ``training.build`` and
``experiment.build`` both record as ``graph.build`` and count toward the
``graph`` layer.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# Names that callers bind, per graphimpute module. `fit` reaches the SVD and
# weight initialisers through the `model` module object, so those are swapped
# there; everything else is swapped in the module that calls it.
BOUNDARIES = {
    "training": (
        "train_epoch",
        "sample_epoch_batch",
        "sample_invisible",
        "sample_negative_degree_preserving",
        "sample_negative_uniform",
        "build",
        "backward",
        "forward_trace",
        "score_edges_raw",
        "adam_update",
    ),
    "model": ("init_event_embeddings_svd", "init_params"),
    "experiment": (
        "score_test_grid",
        "build",
        "encode_patients",
        "message_pass",
        "score_grid",
        "evaluate_grid",
        "evaluate",
        "write_per_event_csv",
        "write_summary_json",
        "write_manifest",
    ),
    "baselines": ("knn_impute", "frequency_baseline"),
}


def span_name(fn) -> str:
    """`layer.function`, where the layer is the defining graphimpute module."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """In-memory span store plus the binding swaps that feed it.

    Each span is ``(name, start, end, span_id, parent_id)``; a span is
    appended when it ends, so a child always precedes its parent. Times are
    ``time.perf_counter`` seconds.
    """

    def __init__(self, modules: dict):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._stack: list[int] = [-1]
        self._next_id = 0
        self._swaps = []  # (module, attribute, original, recorder)
        for mod_name, names in BOUNDARIES.items():
            module = modules[mod_name]
            for attr in names:
                original = getattr(module, attr, None)
                if original is None:
                    # A later refactor removed or renamed the boundary.
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                self._swaps.append((module, attr, original, self.wrap(original)))
        self.active = False

    def wrap(self, fn):
        """A recorder around `fn` that records one span per call."""
        label = span_name(fn)

        @functools.wraps(fn)
        def recorder(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((label, start, end, span_id, parent))

        return recorder

    def enable(self) -> None:
        for module, attr, _, recorder in self._swaps:
            setattr(module, attr, recorder)
        self.active = True

    def disable(self) -> None:
        for module, attr, original, _ in self._swaps:
            setattr(module, attr, original)
        self.active = False

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "id", "parent"],
                    "missing": self.missing,
                    "spans": self.spans,
                },
                fh,
            )
            fh.write("\n")


def span_totals(spans) -> dict[str, tuple[float, float, int]]:
    """Per span name: (total seconds, total self seconds, calls).

    Self time is a span's duration minus the durations of its direct
    children; with one thread, children never overlap each other.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _, start, end, _, parent in spans:
        child_time[parent] += end - start
    totals: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
    for name, start, end, span_id, _ in spans:
        row = totals[name]
        row[0] += end - start
        row[1] += end - start - child_time.get(span_id, 0.0)
        row[2] += 1
    return {name: tuple(row) for name, row in totals.items()}
