"""The benchmark under perfbench/ reaches graphimpute through module-level
names: it swaps the traced ones (perfbench/spans.py:BOUNDARIES) for
recorders, stands in for a few with `Capture`, and calls the rest. A traced
name that no longer resolves is only counted as `trace.missing`, so a
refactor that renames one fails here instead."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# Names perfbench/workloads.py calls or captures, beyond the traced ones.
CALLED = {
    "training": ("fit", "init_train_state", "sample_epoch_batch", "TrainConfig"),
    "experiment": ("run_evaluate", "imputer_score_grid", "parse_config"),
    "dataset": ("generate_synthetic", "filter_rare_events", "split", "encode_pairs", "SplitSpec"),
    "graph": ("build",),
    "model": ("ModelConfig",),
}


def _boundaries() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.BOUNDARIES


@pytest.mark.parametrize("names", [_boundaries(), CALLED], ids=["traced", "called"])
def test_every_name_resolves_on_its_module(names):
    missing = [
        f"{module}.{name}"
        for module, attrs in names.items()
        for name in attrs
        if not callable(getattr(importlib.import_module(f"graphimpute.{module}"), name, None))
    ]
    assert missing == []


def test_graph_methods_the_batch_checks_use():
    from graphimpute.graph import BipartiteGraph

    assert callable(BipartiteGraph.edge_codes) and callable(BipartiteGraph.contains_pairs)
    assert "num_events" in BipartiteGraph.__dataclass_fields__
