import argparse
import csv
import dataclasses
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import graphimpute
from graphimpute import experiment
from graphimpute.cli import build_parser, main
from graphimpute.dataset import load_triplets
from graphimpute.model import load_checkpoint


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


@pytest.fixture
def blas_copies(monkeypatch):
    """(get, set) thread-count functions of the OpenBLAS copies that numpy and
    scipy bundle, by library name. Teardown restores each copy's count and the
    thread variables, so later in-process runs keep their thread count."""
    import ctypes

    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "")  # teardown removes what main sets
    site = Path(np.__file__).resolve().parent.parent
    copies = {}
    for libs, suffix in (("numpy.libs", "64_"), ("scipy.libs", "")):
        for path in sorted((site / libs).glob("lib*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            get.restype = ctypes.c_int
            set_threads = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            set_threads.argtypes = [ctypes.c_int]
            copies[path.name] = (get, set_threads)
    if len(copies) < 2:
        pytest.skip("numpy and scipy bundle no OpenBLAS copies to set")
    before = {name: get() for name, (get, _) in copies.items()}
    yield copies
    for name, (_, set_threads) in copies.items():
        set_threads(before[name])


def _set_meta(keys, value):
    """Edit of a checkpoint's meta text that sets the entry at the path
    `keys` to `value`."""
    def edit(text):
        meta = json.loads(text)
        parent = meta
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        return json.dumps(meta)

    return edit


class TestArgumentHandling:
    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["interpolate", "--config", "x.json"])
        assert exc.value.code == 2

    def test_policy_flag_is_usage_error(self, config_path, tmp_path, capsys):
        # every evaluate run writes both cutoff policies' reports
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--config", str(config_path), "--run-dir", str(tmp_path / "run"),
                  "--imputer", "frequency", "--policy", "fixed"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --policy fixed" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "absent.json")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        # a stray top-level key, and keys that older versions accepted
        cases = [
            ({"knn": {"k_neighbors": 10, "distance": "hamming"}}, "knn.distance"),
            ({"train": {"fixed_mask": False}}, "train.fixed_mask"),
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
            assert f"config error: unknown config key {name}" in err, name
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

    def test_importing_cli_loads_no_numerics(self):
        # the thread flags set environment variables, which take effect only
        # if numpy and scipy load after the arguments are parsed
        src = str(Path(graphimpute.__file__).resolve().parent.parent)
        code = (
            "import sys, graphimpute.cli; "
            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"
        )
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_importing_pipeline_loads_no_scipy_stats_or_special(self):
        # scipy.stats (and the optimize and linalg modules it pulls in) is
        # loaded on demand by recall_frequency_spearman alone; scipy.special
        # is not loaded at all (the generator's logit is dataset._logit)
        src = str(Path(graphimpute.__file__).resolve().parent.parent)
        modules = ("experiment", "training", "model", "baselines", "dataset", "evaluation")
        code = (
            "import importlib, sys\n"
            f"for name in {modules!r}:\n"
            "    importlib.import_module('graphimpute.' + name)\n"
            "print(*(m in sys.modules for m in ('scipy.sparse', 'scipy.stats', 'scipy.special')))\n"
        )
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.split() == ["True", "False", "False"]

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
    @pytest.mark.parametrize("flags, start, expect", [
        (["--workers", "2"], 1, 2),
        (["--deterministic"], 2, 1),
    ], ids=["workers", "deterministic"])
    def test_thread_flag_in_process_sets_both_blas_copies(
        self, config_path, tmp_path, capsys, blas_copies, flags, start, expect
    ):
        # numpy and scipy are loaded here already; both OpenBLAS copies must
        # still end up at the flag's count
        for _, set_threads in blas_copies.values():
            set_threads(start)
        code = main(["split", "--config", str(config_path),
                     "--run-dir", str(tmp_path / "run"), *flags])
        assert code == 0
        assert "warning" not in capsys.readouterr().err
        assert {name: get() for name, (get, _) in blas_copies.items()} == dict.fromkeys(blas_copies, expect)

    def test_blas_copy_that_cannot_be_set_is_usage_error(
        self, config_path, tmp_path, capsys, blas_copies, monkeypatch
    ):
        import ctypes

        monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
        code = main(["split", "--config", str(config_path),
                     "--run-dir", str(tmp_path / "run"), "--workers", "2"])
        assert code == 2
        assert "libscipy_openblas64_" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_no_thread_flag_no_warning(self, config_path, tmp_path, capsys):
        assert main(["split", "--config", str(config_path),
                     "--run-dir", str(tmp_path / "run")]) == 0
        assert "warning" not in capsys.readouterr().err

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
    def test_thread_flag_in_fresh_process_sets_blas_threads(self, config_path, tmp_path):
        # the process starts pinned to one thread; --workers 2 must reach the
        # OpenBLAS that numpy bundles, read back through its C interface
        script = tmp_path / "probe.py"
        script.write_text(
            "import ctypes, sys\n"
            "from pathlib import Path\n"
            "from graphimpute.cli import main\n"
            f"code = main(['split', '--config', {str(config_path)!r}, "
            f"'--run-dir', {str(tmp_path / 'run')!r}, '--workers', '2'])\n"
            "import numpy\n"
            "libs = Path(numpy.__file__).resolve().parent.parent / 'numpy.libs'\n"
            "for path in sorted(libs.glob('lib*openblas*.so*')):\n"
            "    lib = ctypes.CDLL(str(path))\n"
            "    for name in ('scipy_openblas_get_num_threads64_', 'openblas_get_num_threads64_'):\n"
            "        if hasattr(lib, name):\n"
            "            print('blas_threads', getattr(lib, name)())\n"
            "sys.exit(code)\n"
        )
        src = str(Path(graphimpute.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        out = subprocess.run(
            [sys.executable, str(script)], env=env, capture_output=True, text=True, check=True
        )
        assert "warning" not in out.stderr
        counts = [line.split()[1] for line in out.stdout.splitlines() if line.startswith("blas_threads")]
        if not counts:
            pytest.skip("numpy bundles no OpenBLAS to read the thread count from")
        assert counts == ["2"]

    def test_workers_with_deterministic_is_usage_error(self, config_path, tmp_path, capsys):
        # --deterministic used to drop --workers without a word
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", str(config_path), "--run-dir", str(tmp_path / "run"),
                  "--workers", "2", "--deterministic"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--workers" in err and "--deterministic" in err
        assert not (tmp_path / "run").exists()

    def test_every_override_flag_names_a_config_key(self):
        sections = typing.get_type_hints(experiment.RunConfig)
        subparsers = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        dotted = set()
        for command, parser in subparsers.choices.items():
            for action in parser._actions:
                if "." in action.dest:
                    section, key = action.dest.split(".")
                    fields = {f.name for f in dataclasses.fields(sections[section])}
                    assert key in fields, (command, action.dest)
                    dotted.add(action.dest)
        assert {"train.epochs", "model.embedding_dim", "knn.k_neighbors"} <= dotted

    def test_override_flags_reach_the_manifest(self, config_path, tmp_path):
        assert main([
            "train", "--config", str(config_path), "--run-dir", str(tmp_path / "train"),
            "--epochs", "3", "--learning-rate", "0.01", "--mask-probability", "0.25",
            "--embedding-dim", "6", "--sampler", "uniform", "--seed", "9",
        ]) == 0
        config = json.loads((tmp_path / "train" / "manifest.json").read_text())["config"]
        assert config["seed"] == 9
        assert config["model"]["embedding_dim"] == 6
        assert {k: config["train"][k] for k in (
            "epochs", "learning_rate", "mask_probability", "negative_sampler"
        )} == {"epochs": 3, "learning_rate": 0.01, "mask_probability": 0.25,
               "negative_sampler": "uniform"}
        assert main([
            "evaluate", "--config", str(config_path), "--run-dir", str(tmp_path / "eval"),
            "--imputer", "knn", "--knn-k", "3",
        ]) == 0
        manifest = json.loads((tmp_path / "eval" / "evaluate_manifest.json").read_text())
        assert manifest["config"]["knn"]["k_neighbors"] == 3


# The config of `_write_config` and a file config of defaults, as parsed and
# echoed back: every key filled in, no derived seed.
SYNTHETIC_ECHO = {
    "seed": 7,
    "data": {"synthetic": {"num_patients": 120, "num_events": 30, "rank": 3,
                           "target_density": 0.08, "observe_probability": 0.7}},
    "split": {"train_fraction": 0.7, "test_mask_fraction": 0.3, "min_event_frequency": 0.01},
    "model": {"embedding_dim": 8, "num_layers": 2, "scorer_hidden": 4},
    "train": {"learning_rate": 0.0066, "epochs": 4, "mask_probability": 0.2, "warmup_epochs": 0,
              "negative_sampler": "degree_preserving"},
    "knn": {"k_neighbors": 5},
    "output_dir": "runs",
}


def _file_echo(triplets, demographics, output_dir):
    return {
        "seed": 3,
        "data": {"triplets": triplets, "demographics": demographics},
        "split": {"train_fraction": 0.7, "test_mask_fraction": 0.3, "min_event_frequency": 0.001},
        "model": {"embedding_dim": 95, "num_layers": 3, "scorer_hidden": 32},
        "train": {"learning_rate": 0.0066, "epochs": 200, "mask_probability": 0.2,
                  "warmup_epochs": 0, "negative_sampler": "degree_preserving"},
        "knn": {"k_neighbors": 10},
        "output_dir": output_dir,
    }


_SYNTHETIC = {"synthetic": {}}


class TestConfig:
    @pytest.mark.parametrize("raw, message", [
        ([], "config root must be an object"),
        ({"bogus": 1}, "unknown config key bogus"),
        ({"seed": 7, "data": _SYNTHETIC, "optimizer": "sgd"}, "unknown config key optimizer"),
        ({}, "missing required config field: seed"),
        ({"data": _SYNTHETIC}, "missing required config field: seed"),
        ({"seed": True}, "seed must be a non-negative integer"),
        ({"seed": -1, "data": _SYNTHETIC}, "seed must be a non-negative integer"),
        ({"seed": "7", "data": _SYNTHETIC}, "seed must be a non-negative integer"),
        ({"seed": 7}, "missing required config field: data"),
        ({"seed": 7, "data": []}, "config section 'data' must be an object"),
        ({"seed": 7, "data": _SYNTHETIC, "split": 3}, "config section 'split' must be an object"),
        ({"seed": 7, "data": {"synthetic": {"x": 1}}}, "unknown config key data.synthetic.x"),
        ({"seed": 7, "data": {"synthetic": 1}}, "config section 'data.synthetic' must be an object"),
        ({"seed": 7, "data": {}}, "invalid data config: data needs exactly one source: files or synthetic"),
        ({"seed": 7, "data": _SYNTHETIC, "train": {"seed": 3}},
         "train.seed is derived from the top-level seed; remove it"),
        ({"seed": 7, "data": _SYNTHETIC, "knn": {"k_neighbors": 0}},
         "invalid knn config: k_neighbors must be >= 1"),
        ({"seed": 7, "data": _SYNTHETIC, "output_dir": 3}, "output_dir must be a string"),
        ({"seed": 7, "data": _SYNTHETIC, "train": {"fixed_mask": False}},
         "unknown config key train.fixed_mask"),
        ({"seed": 7, "data": _SYNTHETIC, "train": {"epochs": 2.5}}, "train.epochs must be an integer"),
        ({"seed": 7, "data": _SYNTHETIC, "model": {"embedding_dim": 2.5}},
         "model.embedding_dim must be an integer"),
        ({"seed": 7, "data": _SYNTHETIC, "knn": {"k_neighbors": 2.5}},
         "knn.k_neighbors must be an integer"),
        ({"seed": 7, "data": {"synthetic": {"num_patients": 100.5}}},
         "data.synthetic.num_patients must be an integer"),
        ({"seed": 7, "data": _SYNTHETIC, "model": {"num_layers": True}},
         "model.num_layers must be an integer"),
        ({"seed": 7, "data": {"triplets": 3, "demographics": "d.csv"}},
         "data.triplets must be a string or null"),
        ({"seed": 7, "data": _SYNTHETIC, "train": {"learning_rate": True}},
         "train.learning_rate must be a number"),
        ({"seed": 7, "data": {**_SYNTHETIC, "demographics": "missing.csv"}},
         "invalid data config: data.demographics is not read with data.synthetic; remove it"),
        ({"seed": 7, "data": {**_SYNTHETIC, "triplets": "t.csv", "demographics": "d.csv"}},
         "invalid data config: data.triplets is not read with data.synthetic; remove it"),
    ])
    def test_refusal_messages(self, raw, message):
        with pytest.raises(experiment.ConfigError) as exc:
            experiment.parse_config(raw)
        assert str(exc.value) == message

    def test_number_fields_take_integers_and_optional_fields_null(self):
        raw = {"seed": 7, "data": {**_SYNTHETIC, "triplets": None},
               "train": {"learning_rate": 1}}
        cfg = experiment.parse_config(raw)
        assert cfg.train.learning_rate == 1
        assert cfg.data.triplets is None

    def test_synthetic_config_round_trip_and_echo(self, config_path, tmp_path):
        cfg = experiment.load_config(config_path)
        assert experiment.config_to_dict(cfg) == SYNTHETIC_ECHO
        assert experiment.parse_config(SYNTHETIC_ECHO) == cfg
        assert main(["split", "--config", str(config_path), "--run-dir", str(tmp_path / "s")]) == 0
        assert json.loads((tmp_path / "s" / "manifest.json").read_text())["config"] == SYNTHETIC_ECHO

    def test_file_config_round_trip_and_echo(self, config_path, tmp_path):
        gen = tmp_path / "gen"
        assert main(["generate", "--config", str(config_path), "--run-dir", str(gen)]) == 0
        triplets, demographics = str(gen / "triplets.csv"), str(gen / "demographics.csv")
        raw = {"seed": 3, "data": {"triplets": triplets, "demographics": demographics},
               "output_dir": str(tmp_path / "out")}
        echo = _file_echo(triplets, demographics, str(tmp_path / "out"))
        cfg = experiment.parse_config(raw)
        assert experiment.config_to_dict(cfg) == echo
        assert experiment.parse_config(echo) == cfg
        path = tmp_path / "files.json"
        path.write_text(json.dumps(raw))
        assert main(["split", "--config", str(path), "--run-dir", str(tmp_path / "s")]) == 0
        assert json.loads((tmp_path / "s" / "manifest.json").read_text())["config"] == echo


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

    def test_generate_refuses_uncalibrated_cohort(self, config_path, tmp_path, capsys, monkeypatch):
        import graphimpute.dataset as ds_mod

        monkeypatch.setattr(ds_mod, "_CALIBRATE_MAX_SWEEPS", 1)
        run_dir = tmp_path / "gen"
        code = main(["generate", "--config", str(config_path), "--run-dir", str(run_dir)])
        assert code == 2
        err = capsys.readouterr().err
        assert "data.synthetic" in err and "off their prevalence" in err
        assert not (run_dir / "triplets.csv").exists()

    def test_split_reports_partition(self, config_path, tmp_path, capsys):
        run_dir = tmp_path / "split"
        assert main(["split", "--config", str(config_path), "--run-dir", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "train" in out and "held-out" in out
        assert not (run_dir / "split_manifest.txt").exists()
        record = json.loads((run_dir / "manifest.json").read_text())["split"]
        rows = lambda name: len(list(csv.DictReader(open(run_dir / name))))
        cfg = experiment.load_config(config_path)
        sd = experiment.prepare_split(cfg, experiment.prepare_dataset(cfg))
        assert record == {
            "seed": cfg.split.seed,
            "events": sd.train.num_events,
            "train_patients": rows("train_demographics.csv"),
            "test_patients": rows("test_demographics.csv"),
            "train_positives": rows("train_triplets.csv"),
            "test_visible_positives": rows("test_visible_triplets.csv"),
            "test_heldout_positives": rows("test_heldout.csv"),
            "train_sha256": sd.train_sha256(),
        }
        assert record["train_patients"] + record["test_patients"] == 120

    def test_split_files_name_cohort_patients(self, config_path, tmp_path):
        gen, spl = tmp_path / "gen", tmp_path / "split"
        assert main(["generate", "--config", str(config_path), "--run-dir", str(gen)]) == 0
        assert main(["split", "--config", str(config_path), "--run-dir", str(spl)]) == 0
        cohort = load_triplets(gen / "triplets.csv", gen / "demographics.csv")
        demo = dict(zip(cohort.patient_labels, cohort.demographics.tolist()))
        events = {pid: set() for pid in cohort.patient_labels}
        for i, j in cohort.positives:
            events[cohort.patient_labels[i]].add(cohort.event_labels[j])
        train = load_triplets(spl / "train_triplets.csv", spl / "train_demographics.csv")
        test = load_triplets(spl / "test_visible_triplets.csv", spl / "test_demographics.csv")
        assert train.num_patients + test.num_patients == cohort.num_patients
        assert not set(train.patient_labels) & set(test.patient_labels)
        with open(spl / "test_heldout.csv") as fh:
            heldout = [(row["patient_id"], row["event_id"]) for row in csv.DictReader(fh)]
        assert heldout and {pid for pid, _ in heldout} <= set(test.patient_labels)
        assert all(eid in events[pid] for pid, eid in heldout)
        for d in (train, test):
            for pid, row in zip(d.patient_labels, d.demographics.tolist()):
                assert row == demo[pid], pid
            for i, j in d.positives:
                assert d.event_labels[j] in events[d.patient_labels[i]]

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
        # the split record names the split the checkpoint was trained on
        assert manifest["split"]["train_sha256"] == load_checkpoint(ckpt)[2]
        assert manifest["split"]["train_positives"] > 0
        assert "split_manifest.txt" not in manifest["files"]

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

    def test_cutoff_flag_sets_fixed_cutoff_only(self, config_path, tmp_path):
        # --cutoff used to drop the train_frequency reports too
        train_dir = tmp_path / "train"
        main(["train", "--config", str(config_path), "--run-dir", str(train_dir)])
        eval_dir = tmp_path / "eval"
        assert main([
            "evaluate", "--config", str(config_path), "--run-dir", str(eval_dir),
            "--checkpoint", str(train_dir / "checkpoint.npz"), "--cutoff", "0.3",
        ]) == 0
        for policy in ("fixed", "train_frequency"):
            for suffix in ("per_event.csv", "summary.json"):
                assert (eval_dir / f"graph_{policy}_{suffix}").exists(), (policy, suffix)
        summary = json.loads((eval_dir / "graph_fixed_summary.json").read_text())
        assert summary["fixed_cutoff"] == 0.3

    @pytest.mark.parametrize("cutoff", ["nan", "2", "-1"])
    def test_cutoff_outside_unit_interval_exits_2(self, config_path, tmp_path, capsys, cutoff):
        eval_dir = tmp_path / "eval"
        code = main([
            "evaluate", "--config", str(config_path), "--run-dir", str(eval_dir),
            "--imputer", "frequency", "--cutoff", cutoff,
        ])
        assert code == 2
        assert "--cutoff" in capsys.readouterr().err
        assert not eval_dir.exists()

    def test_run_evaluate_refuses_non_finite_cutoff(self, config_path, tmp_path):
        from graphimpute import experiment

        cfg = experiment.load_config(config_path)
        with pytest.raises(experiment.ConfigError, match="cutoff"):
            experiment.run_evaluate(
                cfg, tmp_path / "eval", imputer="frequency", fixed_cutoff=float("inf")
            )
        assert experiment.run_evaluate(
            cfg, tmp_path / "eval", imputer="frequency", fixed_cutoff=1.0
        )["fixed"].fixed_cutoff == 1.0

    def test_run_evaluate_refuses_graph_without_parameters_before_data(
        self, config_path, tmp_path, monkeypatch
    ):
        # the refusal used to come after the cohort was generated and split,
        # as a plain ValueError
        cfg = experiment.load_config(config_path)
        monkeypatch.setattr(experiment, "prepare_dataset", lambda cfg: pytest.fail("data prepared"))
        with pytest.raises(experiment.ConfigError, match="checkpoint"):
            experiment.run_evaluate(cfg, tmp_path / "eval")
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("command", ["split", "train"])
    def test_filter_that_keeps_no_event_exits_2(self, tmp_path, capsys, command):
        path = _write_config(tmp_path / "c.json", split={"min_event_frequency": 0.9})
        code = main([command, "--config", str(path), "--run-dir", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: split: " in err and "min_event_frequency" in err

    def test_knn_k_above_train_patients_exits_2(self, config_path, tmp_path, capsys):
        eval_dir = tmp_path / "eval"
        code = main([
            "evaluate", "--config", str(config_path), "--run-dir", str(eval_dir),
            "--imputer", "knn", "--knn-k", "5000",
        ])
        assert code == 2
        assert "config error: knn.k_neighbors=5000 exceeds the 84 train patients" in capsys.readouterr().err
        assert not any(p.suffix == ".csv" for p in eval_dir.glob("*"))

    @pytest.mark.parametrize("imputer", ["knn", "frequency"])
    def test_checkpoint_with_other_imputer_exits_2(self, config_path, tmp_path, capsys, imputer):
        # the checkpoint used to be ignored without a word
        eval_dir = tmp_path / "eval"
        code = main([
            "evaluate", "--config", str(config_path), "--run-dir", str(eval_dir),
            "--imputer", imputer, "--checkpoint", str(tmp_path / "checkpoint.npz"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "--checkpoint" in err and f"--imputer {imputer}" in err
        assert not eval_dir.exists()

    @pytest.mark.parametrize("imputer", ["graph", "frequency"])
    def test_knn_k_with_other_imputer_exits_2(self, config_path, tmp_path, capsys, imputer):
        # the manifest used to echo a k that no imputer read
        eval_dir = tmp_path / "eval"
        checkpoint = ["--checkpoint", str(tmp_path / "checkpoint.npz")] if imputer == "graph" else []
        code = main([
            "evaluate", "--config", str(config_path), "--run-dir", str(eval_dir),
            "--imputer", imputer, "--knn-k", "3", *checkpoint,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "--knn-k" in err and f"--imputer {imputer}" in err
        assert not eval_dir.exists()

    def test_knn_imputer_needs_no_checkpoint(self, config_path, tmp_path):
        eval_dir = tmp_path / "eval"
        assert main([
            "evaluate", "--config", str(config_path), "--run-dir", str(eval_dir),
            "--imputer", "knn", "--knn-k", "3",
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

    def test_export_checkpoint_config_mismatch_exits_2(self, config_path, tmp_path, capsys):
        train_dir = tmp_path / "train"
        main(["train", "--config", str(config_path), "--run-dir", str(train_dir)])
        other = _write_config(tmp_path / "other.json", model={"embedding_dim": 16})
        code = main([
            "export-embeddings", "--config", str(other), "--run-dir", str(tmp_path / "export"),
            "--checkpoint", str(train_dir / "checkpoint.npz"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "checkpoint" in err and "embedding_dim" in err
        assert not (tmp_path / "export" / "event_embeddings.csv").exists()

    def test_checkpoint_of_other_version_exits_2(self, config_path, tmp_path, capsys):
        train_dir = tmp_path / "train"
        main(["train", "--config", str(config_path), "--run-dir", str(train_dir)])
        ckpt = train_dir / "checkpoint.npz"
        with np.load(ckpt, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(str(arrays["meta"]))
        meta["format_version"] = 2
        arrays["meta"] = np.array(json.dumps(meta))
        np.savez(ckpt, **arrays)
        capsys.readouterr()
        for command in ("evaluate", "export-embeddings"):
            run_dir = tmp_path / command
            code = main([
                command, "--config", str(config_path), "--run-dir", str(run_dir),
                "--checkpoint", str(ckpt),
            ])
            assert code == 2, command
            assert "checkpoint version 2" in capsys.readouterr().err, command
            assert not any(p.suffix == ".csv" for p in run_dir.glob("*")), command

    def test_checkpoint_array_of_wrong_shape_exits_2(self, config_path, tmp_path, capsys):
        # each of these shapes broadcasts in the forward pass without an error;
        # an array holding nan or inf (the first such one is named), a string
        # array and an object array (which numpy raised on, exiting 1), an
        # archive that lacks an array or a meta key, and a file that is no
        # archive at all, are refused the same way
        train_dir = tmp_path / "train"
        main(["train", "--config", str(config_path), "--run-dir", str(train_dir)])
        with np.load(train_dir / "checkpoint.npz", allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(str(arrays["meta"]))
        del meta["split_sha256"]
        capsys.readouterr()
        cases = {
            f"shape-{name}": ({**arrays, f"param/{name}": np.zeros(shape)},
                              f"checkpoint array {name} has shape {shape}")
            for name, shape in (("layers.0.b_p", (1,)), ("encoder.bias", (1,)), ("scorer.b2", (1, 1)))
        }
        nan_weight = arrays["param/layers.1.w_self_e"].copy()
        nan_weight[1, 2] = np.nan
        cases["non-finite"] = (
            {**arrays, "param/layers.1.w_self_e": nan_weight, "param/scorer.b2": np.array(np.inf)},
            "checkpoint array layers.1.w_self_e holds a non-finite value")
        cases["string"] = ({**arrays, "param/scorer.b2": np.array("x")},
                           "checkpoint array scorer.b2 has dtype <U1, not a real number type")
        cases["object"] = ({**arrays, "param/scorer.b2": np.array(None, dtype=object)},
                           "checkpoint array param/scorer.b2 cannot be read")
        cases["missing"] = ({k: v for k, v in arrays.items() if k != "param/scorer.b2"},
                            "checkpoint has no array param/scorer.b2")
        cases["meta"] = ({**arrays, "meta": np.array(json.dumps(meta))},
                         "checkpoint has no meta key split_sha256")
        cases["garbage"] = (None, "garbage.npz: not an npz archive")
        for name, (contents, message) in cases.items():
            ckpt = tmp_path / f"{name}.npz"
            if contents is None:
                ckpt.write_bytes(b"not a checkpoint\n")
            else:
                np.savez(ckpt, **contents)
            for command in ("evaluate", "export-embeddings"):
                run_dir = tmp_path / f"{command}-{name}"
                code = main([
                    command, "--config", str(config_path), "--run-dir", str(run_dir),
                    "--checkpoint", str(ckpt),
                ])
                assert code == 2, (command, name)
                assert message in capsys.readouterr().err, (command, name)
                assert not any(p.suffix == ".csv" for p in run_dir.glob("*")), (command, name)

    def _evaluate_with_meta(self, config_path, tmp_path, capsys, edit_meta):
        """Exit code and stderr of `evaluate` on a freshly trained checkpoint
        whose meta text is replaced by `edit_meta(text)`."""
        train_dir = tmp_path / "train"
        main(["train", "--config", str(config_path), "--run-dir", str(train_dir)])
        ckpt = train_dir / "checkpoint.npz"
        with np.load(ckpt, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["meta"] = np.array(edit_meta(str(arrays["meta"])))
        np.savez(ckpt, **arrays)
        capsys.readouterr()
        run_dir = tmp_path / "evaluate"
        code = main([
            "evaluate", "--config", str(config_path), "--run-dir", str(run_dir),
            "--checkpoint", str(ckpt),
        ])
        assert not any(p.suffix == ".csv" for p in run_dir.glob("*"))
        return code, capsys.readouterr().err

    def test_checkpoint_meta_not_json_exits_2(self, config_path, tmp_path, capsys):
        code, err = self._evaluate_with_meta(config_path, tmp_path, capsys, lambda text: text[:-1])
        assert code == 2
        assert "checkpoint.npz: checkpoint meta is not JSON" in err

    def test_checkpoint_config_with_unknown_key_exits_2(self, config_path, tmp_path, capsys):
        def add_key(text):
            meta = json.loads(text)
            meta["config"]["dropout"] = 0.1
            return json.dumps(meta)

        code, err = self._evaluate_with_meta(config_path, tmp_path, capsys, add_key)
        assert code == 2
        assert "checkpoint.npz: checkpoint config has unknown key dropout" in err

    @pytest.mark.parametrize("edit_meta, message", [
        (lambda text: json.dumps([json.loads(text)]), "checkpoint meta is not a JSON object"),
        (_set_meta(["config"], 32), "checkpoint meta key config is not a JSON object"),
        (_set_meta(["config", "embedding_dim"], "8"),
         "checkpoint config key embedding_dim is not an integer"),
        (_set_meta(["config", "embedding_dim"], 0), "checkpoint config: embedding_dim must be >= 1"),
        (_set_meta(["num_events"], 30.0), "checkpoint meta key num_events is not an integer"),
        (_set_meta(["num_events"], -3), "checkpoint meta key num_events must be >= 1"),
    ], ids=["meta-list", "config-number", "config-string", "config-zero", "events-float",
            "events-negative"])
    def test_malformed_checkpoint_meta_exits_2(
        self, config_path, tmp_path, capsys, edit_meta, message
    ):
        code, err = self._evaluate_with_meta(config_path, tmp_path, capsys, edit_meta)
        assert code == 2
        assert f"checkpoint.npz: {message}" in err

    def test_checkpoint_of_other_split_exits_2(self, config_path, tmp_path, capsys):
        # on file data the seed changes only the split: at seed 8, most of the
        # test patients were training patients at seed 7
        gen = tmp_path / "gen"
        assert main(["generate", "--config", str(config_path), "--run-dir", str(gen)]) == 0
        cfg = json.loads(config_path.read_text())
        cfg["data"] = {
            "triplets": str(gen / "triplets.csv"),
            "demographics": str(gen / "demographics.csv"),
        }
        files = tmp_path / "files.json"
        files.write_text(json.dumps(cfg))
        train_dir = tmp_path / "train"
        assert main(["train", "--config", str(files), "--run-dir", str(train_dir)]) == 0
        ckpt = str(train_dir / "checkpoint.npz")
        capsys.readouterr()
        for command in ("evaluate", "export-embeddings"):
            run_dir = tmp_path / command
            code = main([
                command, "--config", str(files), "--run-dir", str(run_dir),
                "--checkpoint", ckpt, "--seed", "8",
            ])
            assert code == 2, command
            assert "checkpoint was trained on split" in capsys.readouterr().err, command
            assert not any(p.suffix == ".csv" for p in run_dir.glob("*")), command
            assert main([
                command, "--config", str(files), "--run-dir", str(run_dir),
                "--checkpoint", ckpt,
            ]) == 0, command

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



class TestRunWriter:
    STAGES = {
        "generate": {"generate", "write"},
        "split": {"data", "write"},
        "train": {"data", "fit", "write"},
        "evaluate": {"data", "score", "evaluate"},
        "compare-samplers": {"data", "sampler_v1", "sampler_v2", "bias"},
        "export-embeddings": {"data", "embed", "write"},
    }

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("writer")
        config = str(_write_config(root / "config.json"))
        ckpt = str(root / "train" / "checkpoint.npz")
        extra = {"evaluate": ["--checkpoint", ckpt], "export-embeddings": ["--checkpoint", ckpt]}
        for command in self.STAGES:
            run_dir = root / command
            assert main([command, "--config", config, "--run-dir", str(run_dir),
                         *extra.get(command, [])]) == 0, command
        return root

    @pytest.mark.parametrize("command", list(STAGES))
    def test_manifest_lists_exactly_the_files_written(self, runs, command):
        run_dir = runs / command
        manifest = "evaluate_manifest.json" if command == "evaluate" else "manifest.json"
        files = json.loads((run_dir / manifest).read_text())["files"]
        assert files == sorted(files)
        assert set(files) == {p.name for p in run_dir.iterdir()} - {"telemetry.json"}

    @pytest.mark.parametrize("command", list(STAGES))
    def test_telemetry_holds_the_command_stages(self, runs, command):
        entries = json.loads((runs / command / "telemetry.json").read_text())
        assert set(entries) == {command}
        telemetry = entries[command]
        assert set(telemetry["stages"]) == self.STAGES[command]
        for record in telemetry["stages"].values():
            assert set(record) == {"seconds", "peak_rss_mb", "minor_faults"}
            assert record["seconds"] >= 0 and record["peak_rss_mb"] > 0
        epochs = telemetry.get("epoch_seconds")
        assert (epochs is not None) == (command == "train")
        if epochs is not None:
            assert len(epochs) == 4 and all(s > 0 for s in epochs)

    @pytest.fixture(scope="class")
    def refusals(self, tmp_path_factory):
        """Arguments (all but --run-dir) and error text of commands refused in
        their data stage, after `RunWriter` exists."""
        root = tmp_path_factory.mktemp("refused")
        config = _write_config(root / "config.json")
        sparse = _write_config(root / "sparse.json", split={"min_event_frequency": 0.9})
        unobserved = json.loads(config.read_text())
        unobserved["data"]["synthetic"]["observe_probability"] = 1.5
        (root / "unobserved.json").write_text(json.dumps(unobserved))
        # on file data the seed changes only the split (see
        # test_checkpoint_of_other_split_exits_2)
        assert main(["generate", "--config", str(config), "--run-dir", str(root / "gen")]) == 0
        cfg = json.loads(config.read_text())
        cfg["data"] = {
            "triplets": str(root / "gen" / "triplets.csv"),
            "demographics": str(root / "gen" / "demographics.csv"),
        }
        files = root / "files.json"
        files.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(files), "--run-dir", str(root / "train")]) == 0
        ckpt = str(root / "train" / "checkpoint.npz")
        garbage = root / "garbage.npz"
        garbage.write_bytes(b"not a checkpoint\n")
        return {
            "generate-observe": (
                ["generate", "--config", str(root / "unobserved.json")],
                "config error: data.synthetic: observe_probability must lie in (0, 1], got 1.5",
            ),
            "train-split": (["train", "--config", str(sparse)], "config error: split: "),
            "evaluate-knn-k": (
                ["evaluate", "--config", str(config), "--imputer", "knn", "--knn-k", "5000"],
                "config error: knn.k_neighbors=5000",
            ),
            "evaluate-other-split": (
                ["evaluate", "--config", str(files), "--checkpoint", ckpt, "--seed", "8"],
                "checkpoint was trained on split",
            ),
            "export-bad-checkpoint": (
                ["export-embeddings", "--config", str(config), "--checkpoint", str(garbage)],
                "garbage.npz: not an npz archive",
            ),
        }

    @pytest.mark.parametrize(
        "case", ["generate-observe", "train-split", "evaluate-knn-k", "evaluate-other-split",
                 "export-bad-checkpoint"]
    )
    def test_refused_command_leaves_no_run_directory(self, refusals, tmp_path, capsys, case):
        # the directory used to be made before the data stage's checks ran
        argv, message = refusals[case]
        capsys.readouterr()
        run_dir = tmp_path / "run"
        assert main([*argv, "--run-dir", str(run_dir)]) == 2
        assert message in capsys.readouterr().err
        assert not run_dir.exists()

    def test_evaluate_into_train_directory_keeps_train_telemetry(self, config_path, tmp_path):
        run_dir = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--run-dir", str(run_dir)]) == 0
        train = json.loads((run_dir / "telemetry.json").read_text())["train"]
        assert main([
            "evaluate", "--config", str(config_path), "--run-dir", str(run_dir),
            "--checkpoint", str(run_dir / "checkpoint.npz"),
        ]) == 0
        entries = json.loads((run_dir / "telemetry.json").read_text())
        assert set(entries) == {"train", "evaluate"}
        assert entries["train"] == train
        assert set(entries["evaluate"]["stages"]) == self.STAGES["evaluate"]

class TestDeterminism:
    def test_same_seed_same_final_loss(self, config_path, tmp_path, capsys):
        for name in ("a", "b"):
            assert main([
                "train", "--config", str(config_path),
                "--run-dir", str(tmp_path / name), "--deterministic",
            ]) == 0
        read = lambda name: (tmp_path / name / "training_log.csv").read_bytes()
        assert read("a") == read("b")

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
