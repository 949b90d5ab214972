"""Config/presets, training-loop contracts (zero-epoch identity, determinism,
NaN abort with last-good checkpoint), warm starts, and evaluation helpers."""

import dataclasses
import json
import os
import struct

import numpy as np
import pytest

from grat import training as tr
from grat.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from grat.data import (gen_copy_dataset, gen_property_dataset, load_dataset,
                       write_jsonl)
from grat.errors import CheckpointError, ContractError, DataError, NumericError
from grat.objectives import exact_match
from grat.training import (PRESETS, RunConfig, config_from_dict, load_config,
                           model_from_checkpoint, train)


@pytest.fixture
def copy_data(tmp_path):
    path = tmp_path / "copy.jsonl"
    write_jsonl(path, gen_copy_dataset(40, 5, 3, 2, seed=0))
    return str(path)


@pytest.fixture
def prop_data(tmp_path):
    path = tmp_path / "prop.jsonl"
    write_jsonl(path, gen_property_dataset(40, seed=0, max_nodes=5))
    return str(path)


def quick_cfg(task, data, tmp_path, **over):
    base = {"task": task, "data": data, "seed": 1, "epochs": 2, "batch_size": 8,
            "max_steps": 4, "eval_every": 1, "patience": 100,
            "out_checkpoint": str(tmp_path / "m.ckpt")}
    base.update(over)
    return config_from_dict(base)


class TestConfig:
    def test_preset_merge_and_overrides(self):
        cfg = config_from_dict({"task": "translate", "preset": "desk",
                                "encoder": {"heads": 8}})
        enc = cfg.encoder_config()
        assert enc.heads == 8 and enc.width == 64 and enc.layers == 2
        assert cfg.batch_size == 16

    def test_unknown_keys_rejected(self):
        with pytest.raises(DataError, match="unknown config keys"):
            config_from_dict({"task": "translate", "bogus": 1})

    def test_unknown_task_and_preset(self):
        with pytest.raises(ContractError):
            config_from_dict({"task": "paint"})
        with pytest.raises(ContractError):
            config_from_dict({"task": "translate", "preset": "galactic"})

    def test_positional_encoding_follows_task(self):
        assert config_from_dict({"task": "translate"}).encoder_config() \
            .use_positional_encoding
        assert not config_from_dict({"task": "property"}).encoder_config() \
            .use_positional_encoding

    def test_paper_presets_match_reference_arithmetic(self):
        qm9 = PRESETS["paper-qm9"]["encoder"]
        assert (qm9["layers"], qm9["heads"], qm9["width"], qm9["ff_width"]) == \
            (32, 32, 256, 1024)
        # conditioner emits one (gamma, beta) pair per layer: 64 outputs
        assert 2 * qm9["layers"] == 64
        uspto = PRESETS["paper-uspto"]["encoder"]
        assert (uspto["layers"], uspto["heads"], uspto["width"]) == (24, 8, 128)
        assert 2 * uspto["layers"] == 48
        assert PRESETS["paper-qm9"]["batch_size"] == 50
        assert PRESETS["paper-uspto"]["batch_size"] == 128
        assert PRESETS["paper-uspto"]["beam_width"] == 8

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"task": "property", "data": "x"}))
        assert load_config(path).task == "property"
        with pytest.raises(DataError):
            load_config(tmp_path / "missing.json")


class TestTrainLoop:
    def test_zero_epochs_checkpoint_equals_initialization(self, copy_data, tmp_path):
        cfg = quick_cfg("translate", copy_data, tmp_path, epochs=0)
        model, report = train(cfg)
        fresh = tr.TranslationModel.build(cfg.encoder_config(), cfg.decoder_config(),
                                          model.label_vocab, model.edge_vocab, cfg.seed)
        for name, p in fresh.params.items():
            assert np.array_equal(model.params[name].data, p.data), name
        assert os.path.exists(cfg.out_checkpoint)
        assert report.counts["steps"] == 0

    def test_same_seed_same_metrics(self, copy_data, tmp_path):
        cfg1 = quick_cfg("translate", copy_data, tmp_path, max_steps=6)
        _, r1 = train(cfg1)
        cfg2 = quick_cfg("translate", copy_data, tmp_path, max_steps=6)
        _, r2 = train(cfg2)
        assert r1.to_dict() == r2.to_dict()

    def test_property_training_runs_and_reports(self, prop_data, tmp_path):
        cfg = quick_cfg("property", prop_data, tmp_path, max_steps=6,
                        property_tasks=["wsum"])
        model, report = train(cfg)
        assert set(report.per_task_mae) == {"wsum"}
        assert report.std_mae is not None and report.std_mae > 0

    def test_pretrain_runs(self, prop_data, tmp_path):
        cfg = quick_cfg("pretrain", prop_data, tmp_path, max_steps=4)
        model, report = train(cfg)
        assert report.counts["steps"] == 4
        assert any(name.startswith("rec.") for name in model.params)

    def test_nan_loss_aborts_and_keeps_last_good_checkpoint(self, prop_data, tmp_path):
        # lr large enough that the second forward pass overflows into NaN
        cfg = quick_cfg("property", prop_data, tmp_path, max_steps=50, lr=1e154)
        with pytest.warns(RuntimeWarning, match="overflow encountered|invalid value"), \
                pytest.raises(NumericError):
            train(cfg)
        ckpt = load_checkpoint(cfg.out_checkpoint)
        for arr in ckpt.params.values():
            assert np.all(np.isfinite(arr.data))

    def test_warm_start_copies_encoder(self, prop_data, tmp_path):
        pre_cfg = quick_cfg("pretrain", prop_data, tmp_path, max_steps=3,
                            out_checkpoint=str(tmp_path / "pre.ckpt"))
        pre_model, _ = train(pre_cfg)
        fine_cfg = quick_cfg("property", prop_data, tmp_path, epochs=0,
                             init_checkpoint=str(tmp_path / "pre.ckpt"))
        fine_model, _ = train(fine_cfg)
        for name, p in fine_model.params.items():
            if name.startswith("enc."):
                assert np.array_equal(p.data, pre_model.params[name].data), name


class TestEvaluation:
    def test_model_round_trip_through_checkpoint(self, prop_data, tmp_path):
        cfg = quick_cfg("property", prop_data, tmp_path, max_steps=4)
        model, _ = train(cfg)
        loaded, _ = model_from_checkpoint(cfg.out_checkpoint)
        data = load_dataset(prop_data, vocabs=(model.label_vocab, model.edge_vocab))
        for g in data.graphs[:5]:
            assert model.predict(g) == loaded.predict(g)

    def test_property_eval_counts(self, prop_data, tmp_path):
        cfg = quick_cfg("property", prop_data, tmp_path, max_steps=3)
        model, _ = train(cfg)
        data = load_dataset(prop_data, vocabs=(model.label_vocab, model.edge_vocab))
        report = tr.evaluate_property(model, data.graphs)
        assert report.counts["graphs"] == len(data.graphs)
        assert set(report.per_task_mae) == set(model.tasks)


def write_parent_format(path, params, config):
    """A checkpoint as older versions wrote it: Adam moments under opt/m|v/
    and an optimizer entry in the manifest."""
    rng = np.random.default_rng(5)
    tensors = {f"param/{name}": p.data for name, p in params.items()}
    for name, p in params.items():
        tensors[f"opt/m/{name}"] = rng.normal(size=p.data.shape)
        tensors[f"opt/v/{name}"] = rng.random(size=p.data.shape)
    entries, blob = {}, bytearray()
    for name, arr in tensors.items():
        raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        entries[name] = {"dtype": "float64", "shape": list(arr.shape),
                         "offset": len(blob), "nbytes": len(raw)}
        blob.extend(raw)
    manifest = json.dumps({"tensors": entries, "config": config, "optimizer": {
        "t": 2, "lr": 1e-3, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8}}).encode()
    path.write_bytes(MAGIC + struct.pack("<I", 1) + struct.pack("<Q", len(manifest))
                     + manifest + bytes(blob))


class TestCheckpointContract:
    def test_parent_format_with_optimizer_state_loads(self, copy_data, tmp_path):
        cfg = quick_cfg("translate", copy_data, tmp_path, max_steps=2)
        model, _ = train(cfg)
        legacy = tmp_path / "legacy.ckpt"
        write_parent_format(legacy, model.params, load_checkpoint(cfg.out_checkpoint).config)
        loaded, ckpt = model_from_checkpoint(legacy)
        assert isinstance(loaded, tr.TranslationModel)
        assert set(loaded.params) == set(model.params)
        for name, p in model.params.items():
            assert np.array_equal(loaded.params[name].data, p.data), name
        assert not hasattr(ckpt, "optimizer")

    def test_graph_level_pretrain_round_trip(self, prop_data, tmp_path):
        cfg = quick_cfg("pretrain", prop_data, tmp_path, max_steps=3,
                        pretrain_graph_level=True)
        model, _ = train(cfg)
        assert model.tasks and any(name.startswith("rec.") for name in model.params)
        loaded, _ = model_from_checkpoint(cfg.out_checkpoint)
        assert loaded.tasks == model.tasks
        data = load_dataset(prop_data, vocabs=(model.label_vocab, model.edge_vocab))
        for g in data.graphs[:5]:
            assert model.predict(g) == loaded.predict(g)

    def test_snapshot_without_optional_keys_loads(self, prop_data, tmp_path):
        # no seed, head_hidden, beam_width or max_nodes: head_hidden falls
        # back to PropertyModel.build's default
        data = load_dataset(prop_data)
        enc_cfg = RunConfig(task="property").encoder_config()
        model = tr.PropertyModel.build(enc_cfg, data.label_vocab, data.edge_vocab,
                                       ["wsum"], np.array([1.5]), np.array([2.0]), seed=3)
        path = tmp_path / "bare.ckpt"
        save_checkpoint(path, model.params, {
            "task": "property", "preset": "desk",
            "labels": list(data.label_vocab.real_names),
            "edges": list(data.edge_vocab.real_names),
            "encoder": dataclasses.asdict(enc_cfg),
            "tasks": ["wsum"], "mu": [1.5], "sigma": [2.0]})
        loaded, _ = model_from_checkpoint(path)
        for g in data.graphs[:5]:
            assert model.predict(g) == loaded.predict(g)

    @pytest.mark.parametrize("change, match", [
        ({"mu": [0.0]}, "mu/sigma"),
        ({"sigma": [1.0, 1.0, 1.0]}, "mu/sigma"),
        ({"tasks": ["wsum"]}, "mu/sigma"),
        ({"head_hidden": 32}, "wrong shape"),
        ({"task": "translate"}, r"missing 65 \(dec\..*; unexpected 4 \(prop\."),
        ({"task": "paint"}, "unknown task"),
        ({"encoder": {"layers": 3}}, r"missing 16 \(enc\.l2"),
        ({"labels": 5}, "version of grat"),
    ], ids=["mu", "sigma", "tasks", "head-hidden", "task-translate", "task-unknown",
            "encoder-layers", "labels-int"])
    def test_config_that_does_not_fit_the_parameters_is_rejected(
            self, prop_data, tmp_path, change, match):
        cfg = quick_cfg("property", prop_data, tmp_path, epochs=0)
        train(cfg)
        ckpt = load_checkpoint(cfg.out_checkpoint)
        ckpt.config.update(change)
        save_checkpoint(cfg.out_checkpoint, ckpt.params, ckpt.config)
        with pytest.raises(CheckpointError, match=match):
            model_from_checkpoint(cfg.out_checkpoint)
