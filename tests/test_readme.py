"""The README's config documentation against the config classes it describes."""

import dataclasses
import json
import re
from pathlib import Path

from graphimpute.baselines import KnnConfig
from graphimpute.dataset import SplitSpec
from graphimpute.experiment import parse_config
from graphimpute.model import ModelConfig
from graphimpute.training import TrainConfig

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_key_table_lists_section_fields_with_defaults():
    rows = re.findall(
        r"^\| `((?:split|model|train|knn)\.\w+)` \| `?([^`|]+?)`? \|", README, re.MULTILINE
    )
    documented = {key: json.loads(default) for key, default in rows}
    assert len(documented) == len(rows)
    # split.seed and train.seed are derived from the top-level seed, so they are not keys
    fields = {
        f"{section}.{f.name}": f.default
        for section, cls in (
            ("split", SplitSpec), ("model", ModelConfig), ("train", TrainConfig), ("knn", KnnConfig)
        )
        for f in dataclasses.fields(cls)
        if f.name != "seed"
    }
    assert documented == fields
    assert all(type(documented[key]) is type(fields[key]) for key in fields)


def test_config_example_parses():
    section = README.split("\n## Config\n", 1)[1]
    example = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    cfg = parse_config(json.loads(example))
    assert cfg.data.synthetic is not None
