import csv
import json
import os

import numpy as np
import pytest

from graphimpute.cli import main


def _write_config(path, **updates):
    cfg = {
        "seed": 7,
        "data": {
            "synthetic": {
                "num_patients": 120,
                "num_events": 30,
                "rank": 3,
                "target_density": 0.08,
            }
        },
        "split": {"min_event_frequency": 0.01},
        "model": {"embedding_dim": 8, "num_layers": 2, "scorer_hidden": 4},
        "train": {"epochs": 4},
        "knn": {"k_neighbors": 5},
    }
    for key, value in updates.items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


@pytest.fixture
def config_path(tmp_path):
    return _write_config(tmp_path / "config.json")


class TestArgumentHandling:
    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["interpolate", "--config", "x.json"])
        assert exc.value.code == 2

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "absent.json")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        # a stray top-level key, and keys that older versions accepted
        cases = [
            ({"optimizer": "sgd"}, "optimizer"),
            ({"train": {"grad_clip": 1.0}}, "train.grad_clip"),
            ({"train": {"weight_decay": 0.1}}, "train.weight_decay"),
            ({"train": {"adam_eps": 1e-8}}, "train.adam_eps"),
            ({"model": {"layer_bias": True}}, "model.layer_bias"),
            ({"model": {"demographics_dim": 2}}, "model.demographics_dim"),
        ]
        for updates, name in cases:
            path = _write_config(tmp_path / "c.json", **updates)
            code = main(["train", "--config", str(path), "--run-dir", str(tmp_path / "run")])
            assert code == 2, name
            err = capsys.readouterr().err
            assert "config error" in err and name in err, name
            assert not (tmp_path / "run").exists(), name

    def test_workers_below_one_is_usage_error(self, config_path, tmp_path, capsys):
        for workers in ("0", "-2"):
            with pytest.raises(SystemExit) as exc:
                main(["train", "--config", str(config_path), "--workers", workers,
                      "--run-dir", str(tmp_path / "run")])
            assert exc.value.code == 2
            assert "workers must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_missing_seed_exits_2_naming_field(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        with open(path, "w") as fh:
            json.dump({"data": {"synthetic": {}}}, fh)
        code = main(["train", "--config", str(path), "--run-dir", str(tmp_path / "run")])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_section_seed_rejected(self, tmp_path, capsys):
        path = _write_config(tmp_path / "c.json", train={"seed": 3})
        code = main(["train", "--config", str(path), "--run-dir", str(tmp_path / "run")])
        assert code == 2
        assert "top-level" in capsys.readouterr().err


class TestPipeline:
    def test_generate_writes_cohort_files(self, config_path, tmp_path, capsys):
        run_dir = tmp_path / "gen"
        assert main(["generate", "--config", str(config_path), "--run-dir", str(run_dir)]) == 0
        for name in ("triplets.csv", "demographics.csv", "ground_truth.csv"):
            assert (run_dir / name).exists(), name
        with open(run_dir / "demographics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 120
        assert set(rows[0]) == {"patient_id", "age", "sex"}

    def test_split_reports_partition(self, config_path, tmp_path, capsys):
        run_dir = tmp_path / "split"
        assert main(["split", "--config", str(config_path), "--run-dir", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "train" in out and "held-out" in out
        assert (run_dir / "split_manifest.txt").exists()

    def test_train_then_evaluate_then_export(self, config_path, tmp_path, capsys):
        train_dir = tmp_path / "train"
        assert main([
            "train", "--config", str(config_path), "--run-dir", str(train_dir),
            "--deterministic",
        ]) == 0
        ckpt = train_dir / "checkpoint.npz"
        assert ckpt.exists()
        assert (train_dir / "training_log.csv").exists()
        with open(train_dir / "training_log.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        manifest = json.loads((train_dir / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 7

        eval_dir = tmp_path / "eval"
        assert main([
            "evaluate", "--config", str(config_path), "--run-dir", str(eval_dir),
            "--checkpoint", str(ckpt), "--deterministic",
        ]) == 0
        out = capsys.readouterr().out
        assert "balanced" in out
        for name in (
            "graph_fixed_per_event.csv",
            "graph_fixed_summary.json",
            "graph_train_frequency_per_event.csv",
            "graph_train_frequency_summary.json",
        ):
            assert (eval_dir / name).exists(), name

        export_dir = tmp_path / "export"
        assert main([
            "export-embeddings", "--config", str(config_path),
            "--run-dir", str(export_dir), "--checkpoint", str(ckpt),
        ]) == 0
        assert (export_dir / "event_embeddings.csv").exists()
        assert (export_dir / "event_neighbors.csv").exists()

    def test_cutoff_flag_implies_fixed_policy_only(self, config_path, tmp_path):
        train_dir = tmp_path / "train"
        main(["train", "--config", str(config_path), "--run-dir", str(train_dir)])
        eval_dir = tmp_path / "eval"
        assert main([
            "evaluate", "--config", str(config_path), "--run-dir", str(eval_dir),
            "--checkpoint", str(train_dir / "checkpoint.npz"), "--cutoff", "0.3",
        ]) == 0
        assert (eval_dir / "graph_fixed_per_event.csv").exists()
        assert not (eval_dir / "graph_train_frequency_per_event.csv").exists()
        summary = json.loads((eval_dir / "graph_fixed_summary.json").read_text())
        assert summary["fixed_cutoff"] == 0.3

    def test_knn_imputer_needs_no_checkpoint(self, config_path, tmp_path):
        eval_dir = tmp_path / "eval"
        assert main([
            "evaluate", "--config", str(config_path), "--run-dir", str(eval_dir),
            "--imputer", "knn", "--policy", "fixed", "--knn-k", "3",
        ]) == 0
        assert (eval_dir / "knn_fixed_per_event.csv").exists()

    def test_graph_imputer_without_checkpoint_exits_2(self, config_path, tmp_path, capsys):
        code = main([
            "evaluate", "--config", str(config_path),
            "--run-dir", str(tmp_path / "eval"),
        ])
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_checkpoint_config_mismatch_exits_2(self, config_path, tmp_path, capsys):
        train_dir = tmp_path / "train"
        main(["train", "--config", str(config_path), "--run-dir", str(train_dir)])
        other = _write_config(tmp_path / "other.json", model={"embedding_dim": 12})
        code = main([
            "evaluate", "--config", str(other), "--run-dir", str(tmp_path / "eval"),
            "--checkpoint", str(train_dir / "checkpoint.npz"),
        ])
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_compare_samplers_writes_bias_tables(self, config_path, tmp_path, capsys):
        run_dir = tmp_path / "bias"
        assert main([
            "compare-samplers", "--config", str(config_path),
            "--run-dir", str(run_dir), "--epochs", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "spearman" in out
        for name in (
            "bias_profile.csv",
            "bias_summary.json",
            "sampler_v1_per_event.csv",
            "sampler_v2_per_event.csv",
        ):
            assert (run_dir / name).exists(), name


class TestDeterminism:
    def test_same_seed_same_final_loss(self, config_path, tmp_path, capsys):
        for name in ("a", "b"):
            assert main([
                "train", "--config", str(config_path),
                "--run-dir", str(tmp_path / name), "--deterministic",
            ]) == 0
        read = lambda name: (tmp_path / name / "training_log.csv").read_text()
        strip_time = lambda text: [
            ",".join(line.split(",")[:-1]) for line in text.splitlines()
        ]
        assert strip_time(read("a")) == strip_time(read("b"))

    def test_seed_override_changes_losses(self, config_path, tmp_path):
        main(["train", "--config", str(config_path), "--run-dir", str(tmp_path / "a")])
        main([
            "train", "--config", str(config_path), "--run-dir", str(tmp_path / "b"),
            "--seed", "8",
        ])
        losses = lambda name: [
            row["loss"]
            for row in csv.DictReader(open(tmp_path / name / "training_log.csv"))
        ]
        assert losses("a") != losses("b")

    def test_evaluate_outputs_byte_identical(self, config_path, tmp_path):
        train_dir = tmp_path / "train"
        main([
            "train", "--config", str(config_path), "--run-dir", str(train_dir),
            "--deterministic",
        ])
        ckpt = str(train_dir / "checkpoint.npz")
        for name in ("e1", "e2"):
            assert main([
                "evaluate", "--config", str(config_path),
                "--run-dir", str(tmp_path / name), "--checkpoint", ckpt,
                "--deterministic",
            ]) == 0
        for fname in ("graph_fixed_per_event.csv", "graph_fixed_summary.json"):
            a = (tmp_path / "e1" / fname).read_bytes()
            b = (tmp_path / "e2" / fname).read_bytes()
            assert a == b, fname
