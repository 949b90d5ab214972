"""Config/presets, training-loop contracts (zero-epoch identity, determinism,
NaN abort with last-good checkpoint), warm starts, evaluation helpers, and
the batched mini-batch pass against the per-graph path."""

import dataclasses
import functools
import json
import logging
import math
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from grat import autodiff as ad
from grat import graph as gm
from grat import training as tr
from grat.attention import encode, encode_batch, readout_cls
from grat.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from grat.data import (gen_copy_dataset, gen_property_dataset, load_dataset,
                       write_jsonl)
from grat.decoder import build_decoder_batch, decode_batch
from grat.errors import CheckpointError, ContractError, DataError, NumericError
from grat.objectives import (cross_entropy_mean, exact_match, l1_mean, mask_graph,
                             property_forward)
from grat.training import (PRESETS, RunConfig, config_from_dict, load_config,
                           model_from_checkpoint, train)
from oracles import evaluate_translation_reference, pretrain_loss_reference


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
        cfg = config_from_dict({"task": "property", "preset": "paper-qm9", "batch_size": 4,
                                "head_hidden": 8})
        assert (cfg.batch_size, cfg.head_hidden) == (4, 8)

    def test_unknown_keys_rejected(self):
        with pytest.raises(DataError, match="unknown config keys"):
            config_from_dict({"task": "translate", "bogus": 1})

    @pytest.mark.parametrize("section, key", [("encoder", "edge_feature_dim"),
                                              ("decoder", "use_positional_encoding"),
                                              ("decoder", "bogus")])
    def test_unknown_encoder_and_decoder_keys_rejected(self, section, key):
        with pytest.raises(DataError, match=f"unknown {section} config keys \\['{key}'\\]"):
            config_from_dict({"task": "translate", section: {key: 0}})

    def test_unknown_task_and_preset(self):
        with pytest.raises(ContractError):
            config_from_dict({"task": "paint"})
        with pytest.raises(ContractError, match="names no task"):
            config_from_dict({"data": "copy.jsonl"})
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

    @pytest.mark.parametrize("task", ["property", "translate"])
    @pytest.mark.parametrize("preset, batch_size, head_hidden", [
        ("desk", 16, 64), ("paper-qm9", 50, 512), ("paper-uspto", 128, 512)])
    def test_preset_fills_batch_size_and_head_hidden(self, task, preset, batch_size,
                                                     head_hidden):
        raw = {"task": task, "preset": preset}
        cfg = RunConfig(**raw)
        assert (cfg.batch_size, cfg.head_hidden) == (batch_size, head_hidden)
        assert config_from_dict(raw) == cfg

    def test_readme_configs_are_accepted(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        blocks = [json.loads(block) for block in re.findall(r"```json\n(.*?)```", readme,
                                                             flags=re.DOTALL)
                  if '"task"' in block]
        assert blocks
        for raw in blocks:
            config_from_dict(raw)

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
        assert report.counts["steps"] == 4 and report.split is None
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

    def test_em_stop_ends_the_run_at_the_first_evaluation(self, copy_data, tmp_path, caplog):
        # every exact-match rate reaches 0.0, so the epoch-0 evaluation stops
        cfg = quick_cfg("translate", copy_data, tmp_path, epochs=5, max_steps=None,
                        em_stop=0.0, selection="last")
        with caplog.at_level(logging.INFO, logger="grat"):
            _, report = train(cfg)
        assert report.counts["steps"] == math.ceil(report.counts["train"] / cfg.batch_size)
        # exact match scores held-out pairs, and the log names that split
        assert "epoch 0: val exact-match" in caplog.text

    def test_em_stop_restores_the_best_exact_match_snapshot(self, copy_data, tmp_path,
                                                            monkeypatch):
        one_epoch, _ = train(quick_cfg("translate", copy_data, tmp_path, epochs=1,
                                       max_steps=None, selection="last"))
        # exact match peaks after the first epoch and never reaches em_stop
        rates = iter([0.5, 0.25, 0.0])
        evaluate = tr.evaluate_translation

        def scripted(*args, **kwargs):
            report = evaluate(*args, **kwargs)
            report.exact_match_rate = next(rates, report.exact_match_rate)
            return report

        monkeypatch.setattr(tr, "evaluate_translation", scripted)
        cfg = quick_cfg("translate", copy_data, tmp_path, epochs=3, max_steps=None,
                        em_stop=0.9, selection="last")
        model, report = train(cfg)
        assert report.counts["steps"] == 3 * math.ceil(report.counts["train"] / cfg.batch_size)
        assert next(rates, None) is None
        for name, p in one_epoch.params.items():
            assert np.array_equal(model.params[name].data, p.data), name


class TestEvaluation:
    def test_model_round_trip_through_checkpoint(self, prop_data, tmp_path):
        cfg = quick_cfg("property", prop_data, tmp_path, max_steps=4)
        model, _ = train(cfg)
        loaded, _ = model_from_checkpoint(cfg.out_checkpoint)
        data = load_dataset(prop_data, vocabs=(model.label_vocab, model.edge_vocab))
        assert model.predict_batch(data.graphs[:5]) == loaded.predict_batch(data.graphs[:5])

    @pytest.mark.parametrize("task", ["translate", "property"])
    def test_report_names_the_split_it_scored(self, task, tmp_path):
        # at seed 1, 6 records all fall in the train split
        metrics = tmp_path / "m.json"
        for n, split in ((40, "val"), (6, "train")):
            path = tmp_path / f"{task}{n}.jsonl"
            write_jsonl(path, gen_copy_dataset(n, 4, 3, 2, seed=0) if task == "translate"
                        else gen_property_dataset(n, seed=0, max_nodes=5))
            _, report = train(quick_cfg(task, str(path), tmp_path, max_steps=2,
                                        metrics_out=str(metrics)))
            assert report.split == split
            assert json.loads(metrics.read_text())["split"] == split
            scored = report.counts["pairs" if task == "translate" else "graphs"]
            assert scored == report.counts[split] > 0

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
        assert model.predict_batch(data.graphs[:5]) == loaded.predict_batch(data.graphs[:5])

    def test_snapshot_without_optional_keys_loads(self, prop_data, tmp_path):
        # no seed, head_hidden or max_nodes: head_hidden falls
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
        assert model.predict_batch(data.graphs[:5]) == loaded.predict_batch(data.graphs[:5])

    def test_snapshot_recording_beam_width_loads(self, copy_data, tmp_path):
        # older versions record beam_width, an option nothing read
        cfg = quick_cfg("translate", copy_data, tmp_path, max_steps=2)
        model, _ = train(cfg)
        ckpt = load_checkpoint(cfg.out_checkpoint)
        assert "beam_width" not in ckpt.config
        save_checkpoint(cfg.out_checkpoint, ckpt.params, dict(ckpt.config, beam_width=8))
        loaded, _ = model_from_checkpoint(cfg.out_checkpoint)
        dataset = load_dataset(copy_data, vocabs=(model.label_vocab, model.edge_vocab))
        for srcs, _ in dataset.pairs[:3]:
            assert [(r.graph, r.score, r.truncated) for r in loaded.generate(srcs, 2, 6)] \
                == [(r.graph, r.score, r.truncated) for r in model.generate(srcs, 2, 6)]

    @pytest.mark.parametrize("task", ["property", "translate"])
    def test_snapshot_recording_zero_edge_feature_dim_loads(self, copy_data, prop_data,
                                                            tmp_path, task):
        # older versions record edge_feature_dim, 0 in every file they wrote,
        # and fe_activation, "tanh", and use_positional_encoding, true, in
        # every translation checkpoint
        data = prop_data if task == "property" else copy_data
        cfg = quick_cfg(task, data, tmp_path, max_steps=2)
        model, _ = train(cfg)
        ckpt = load_checkpoint(cfg.out_checkpoint)
        assert "edge_feature_dim" not in ckpt.config["encoder"]
        ckpt.config["encoder"]["edge_feature_dim"] = 0
        if task == "translate":
            assert "fe_activation" not in ckpt.config["decoder"]
            assert "use_positional_encoding" not in ckpt.config["decoder"]
            ckpt.config["decoder"]["fe_activation"] = "tanh"
            ckpt.config["decoder"]["use_positional_encoding"] = True
        save_checkpoint(cfg.out_checkpoint, ckpt.params, ckpt.config)
        loaded, _ = model_from_checkpoint(cfg.out_checkpoint)
        assert loaded.enc_cfg == model.enc_cfg
        dataset = load_dataset(data, vocabs=(model.label_vocab, model.edge_vocab))
        if task == "property":
            graphs = dataset.graphs[:5]
            assert loaded.predict_batch(graphs) == model.predict_batch(graphs)
        else:
            for srcs, _ in dataset.pairs[:3]:
                assert [(r.graph, r.score, r.truncated) for r in loaded.generate(srcs, 2, 6)] \
                    == [(r.graph, r.score, r.truncated) for r in model.generate(srcs, 2, 6)]

    @pytest.mark.parametrize("task, section, field, value, match", [
        ("property", "encoder", "edge_feature_dim", 0, r"unexpected 1 \(enc\.cond\.featw\)"),
        ("property", "encoder", "edge_feature_dim", 3, "encoder field 'edge_feature_dim'"),
        ("translate", "decoder", "fe_activation", "relu", "decoder field 'fe_activation'")],
        ids=["stray-weights", "nonzero-width", "relu-edge-head"])
    def test_checkpoint_with_edge_features_rejected(self, copy_data, prop_data, tmp_path,
                                                     task, section, field, value, match):
        data = prop_data if task == "property" else copy_data
        cfg = quick_cfg(task, data, tmp_path, epochs=0)
        train(cfg)
        ckpt = load_checkpoint(cfg.out_checkpoint)
        ckpt.config[section][field] = value
        featw = ad.Tensor(np.ones((3, ckpt.params["enc.cond.b1"].shape[0])))
        save_checkpoint(cfg.out_checkpoint, dict(ckpt.params, **{"enc.cond.featw": featw}),
                        ckpt.config)
        with pytest.raises(CheckpointError, match=match):
            model_from_checkpoint(cfg.out_checkpoint)

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


# ---------------------------------------------------------------------------
# the batched mini-batch pass


def random_graph(rng, n, n_labels=3, n_edge_types=2):
    labels = [gm.N_RESERVED_LABELS + int(rng.integers(0, n_labels)) for _ in range(n)]
    edges = [(i, j, gm.N_RESERVED_EDGES + int(rng.integers(0, n_edge_types)))
             for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    return gm.graph_from_edge_list(labels, edges)


def perturb_film(params, seed):
    """Move every conditioner output layer off its identity-FiLM zero init."""
    rng = np.random.default_rng(seed)
    for name, p in params.items():
        if ".cond.out." in name:
            p.data = rng.normal(0.0, 0.3, p.data.shape)


def loss_and_grads(params, build):
    for p in params.values():
        p.grad = None
    loss = build()
    ad.backward(loss)
    return loss.item(), {name: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                         for name, p in params.items()}


def mean_of(losses):
    return ad.mul(functools.reduce(ad.add, losses), 1.0 / len(losses))


def assert_close(batched, per_graph, tol=1e-12):
    (loss, grads), (ref_loss, ref_grads) = batched, per_graph
    assert abs(loss - ref_loss) <= tol
    for name, grad in grads.items():
        assert np.max(np.abs(grad - ref_grads[name]), initial=0.0) <= tol, name


def translation_model(seed=0):
    cfg = RunConfig(task="translate")
    model = tr.TranslationModel.build(cfg.encoder_config(), cfg.decoder_config(),
                                      gm.NodeLabelVocab(["A", "B", "C"]),
                                      gm.EdgeTypeVocab(["single", "double"]), seed)
    perturb_film(model.params, seed + 100)
    return model


def per_graph_translation_loss(model, src, batch):
    """One pair's loss composed from its parts: the node cross-entropy plus,
    when the target has edge decisions, the edge cross-entropy."""
    enc_h = encode(model.enc_cfg, model.params, src)
    node_logits, edge_logits = decode_batch(model.dec_cfg, model.params, enc_h, [src.n], [batch])
    loss = cross_entropy_mean(node_logits, batch.node_targets)
    pairs = len(batch.pair_target_classes)
    if pairs:
        loss = ad.add(loss, cross_entropy_mean(edge_logits[:pairs],
                                               batch.pair_target_classes))
    return loss


def translation_pairs(model, rng, source_sizes, target_sizes):
    return ([model.source_input([random_graph(rng, n)]) for n in source_sizes],
            [build_decoder_batch(random_graph(rng, k)) for k in target_sizes])


def copy_pairs(model, rng, sizes, max_nodes, width):
    """Pairs of one-part sources of the given sizes; every other target is
    the model's own top output (an exact match), the rest random graphs."""
    pairs = []
    for i, n in enumerate(sizes):
        srcs = [random_graph(rng, n)]
        target = (model.generate(srcs, width, max_nodes)[0].graph if i % 2
                  else random_graph(rng, int(rng.integers(1, max_nodes + 1))))
        pairs.append((srcs, target))
    return pairs


class TestEvaluateTranslation:
    # at these <EOG> biases the best graph of some pairs is cut at max_nodes
    # 3 and that of others ends earlier
    @pytest.mark.parametrize("width, eog_bias", [(1, 0.5), (3, -2.85)])
    def test_matches_per_source_reference(self, monkeypatch, width, eog_bias):
        # more sources than one chunk, with a short last chunk
        monkeypatch.setattr(tr, "PREDICT_BATCH", 3)
        model = translation_model(seed=7)
        model.params["dec.fl.b"].data[gm.TOK_EOG] = eog_bias
        pairs = copy_pairs(model, np.random.default_rng(8), (1, 4, 2, 6, 3, 5, 1, 2), 3, width)
        expect = evaluate_translation_reference(model, pairs, 3, width)
        assert 0 < expect.counts["matches"] < len(pairs)
        assert 0 < expect.counts["truncated"] < len(pairs)
        assert tr.evaluate_translation(model, pairs, 3, width).to_dict() == expect.to_dict()

    @pytest.mark.parametrize("width", [1, 3])
    def test_eog_always_chosen_gives_empty_graphs(self, width):
        model = translation_model(seed=9)
        model.params["dec.fl.b"].data[gm.TOK_EOG] = 1e3
        rng = np.random.default_rng(10)
        pairs = [([random_graph(rng, n)], random_graph(rng, k))
                 for n, k in ((3, 1), (1, 4), (5, 2), (2, 0))]
        report = tr.evaluate_translation(model, pairs, 4, width)
        # only the empty target matches the empty graph
        assert report.counts == {"pairs": 4, "matches": 1, "truncated": 0}
        assert report.exact_match_rate == 0.25

    @pytest.mark.parametrize("width", [1, 3])
    def test_eog_never_chosen_truncates_every_pair(self, width):
        model = translation_model(seed=11)
        model.params["dec.fl.b"].data[gm.TOK_EOG] = -1e3
        rng = np.random.default_rng(12)
        pairs = [([random_graph(rng, n)], random_graph(rng, k))
                 for n, k in ((3, 3), (1, 4), (5, 5))]
        report = tr.evaluate_translation(model, pairs, 2, width)
        assert report.counts == {"pairs": 3, "matches": 0, "truncated": 3}


class TestBatchedPass:
    @pytest.mark.parametrize("source_sizes, target_sizes", [
        ((5, 2, 6, 1), (4, 0, 6, 1)),   # ragged, with a 0-node target
        ((3, 1, 4), (1, 0, 1)),         # no target pairs in the whole batch
    ])
    def test_translation_batch_matches_mean_of_per_graph_losses(self, source_sizes,
                                                                target_sizes):
        model = translation_model()
        srcs, batches = translation_pairs(model, np.random.default_rng(1), source_sizes,
                                          target_sizes)
        batched = loss_and_grads(model.params, lambda: model.batch_loss(srcs, batches))
        per_graph = loss_and_grads(model.params, lambda: mean_of(
            [per_graph_translation_loss(model, s, b) for s, b in zip(srcs, batches)]))
        assert_close(batched, per_graph)
        for s, b in zip(srcs, batches):
            assert abs(model.loss_on(s, b).item()
                       - per_graph_translation_loss(model, s, b).item()) <= 1e-12

    def test_property_batch_matches_mean_of_per_graph_losses(self):
        cfg = RunConfig(task="property")
        model = tr.PropertyModel.build(cfg.encoder_config(), gm.NodeLabelVocab(["A", "B", "C"]),
                                       gm.EdgeTypeVocab(["single", "double"]), ["x", "y"],
                                       np.zeros(2), np.ones(2), seed=2)
        perturb_film(model.params, 3)
        rng = np.random.default_rng(4)
        inputs = [gm.prepend_token(random_graph(rng, n), gm.TOK_CLS, gm.VIRTUAL)
                  for n in (3, 7, 1, 5)]
        targets = rng.normal(size=(len(inputs), 2))
        batched = loss_and_grads(model.params, lambda: model.batch_loss(inputs, targets))
        per_graph = loss_and_grads(model.params, lambda: mean_of([l1_mean(
            property_forward(model.params, readout_cls(encode(model.enc_cfg, model.params, g),
                                                       [g.n])), t)
            for g, t in zip(inputs, targets)]))
        assert_close(batched, per_graph)

    @pytest.mark.parametrize("graph_level", [False, True])
    def test_pretrain_task_loss_matches_per_graph_oracle(self, prop_data, tmp_path,
                                                         graph_level):
        cfg = quick_cfg("pretrain", prop_data, tmp_path, pretrain_graph_level=graph_level)
        task = tr._pretrain_task(cfg)
        model = task.model
        assert bool(model.tasks) == graph_level
        perturb_film(model.params, 9)
        graphs = load_dataset(prop_data).graphs
        indices = task.split["train"][:9]
        targets = None
        if graph_level:
            raw = np.array([[graphs[j].properties[t] for t in model.tasks] for j in indices])
            targets = (raw - model.mu) / model.sigma
        # training masks are keyed by epoch, validation masks (epoch None) are not
        for epoch, keys in ((0, [[cfg.seed, 2, 0, j] for j in indices]),
                            (3, [[cfg.seed, 2, 3, j] for j in indices]),
                            (None, [[cfg.seed, 3, j] for j in indices])):
            samples = [mask_graph(graphs[j], cfg.mask_rate, np.random.default_rng(key))
                       for j, key in zip(indices, keys)]
            assert_close(loss_and_grads(model.params, lambda: task.loss(indices, epoch)),
                         loss_and_grads(model.params, lambda: pretrain_loss_reference(
                             model.enc_cfg, model.params, samples, targets)))

    def test_padding_neither_leaks_nor_learns(self, monkeypatch):
        model = translation_model(seed=5)
        rng = np.random.default_rng(6)
        (src,), (target,) = translation_pairs(model, rng, (4,), (3,))

        def graph_a_loss(partner_size, partner_k):
            (other,), (other_target,) = translation_pairs(model, rng, (partner_size,),
                                                          (partner_k,))
            with ad.no_grad():
                enc_h = encode_batch(model.enc_cfg, model.params, [src, other])
                node, edge = decode_batch(model.dec_cfg, model.params, enc_h,
                                          [src.n, other.n], [target, other_target])
            pairs = len(target.pair_target_classes)
            return (cross_entropy_mean(node[:target.k + 1], target.node_targets).item()
                    + cross_entropy_mean(edge[:pairs], target.pair_target_classes).item())

        with ad.no_grad():
            alone = model.loss_on(src, target).item()
        # partners with fewer and with more encoder rows and decoder positions
        for partner in ((1, 0), (2, 1), (7, 5), (3, 6)):
            assert abs(graph_a_loss(*partner) - alone) <= 1e-12

        # a ragged batch embeds its real rows only, packed: no <PAD> id reaches
        # either embedding, and every embedded row gets a gradient
        embedded = []
        take = ad.take

        def recording(table, ids):
            out = take(table, ids)
            if table is model.params["enc.embed"] or table is model.params["dec.embed"]:
                embedded.append((out, np.asarray(ids)))
            return out

        monkeypatch.setattr(ad, "take", recording)
        srcs, batches = translation_pairs(model, rng, (2, 6, 3), (5, 1, 0))
        ad.backward(model.batch_loss(srcs, batches))
        assert len(embedded) == 2
        (enc_rows, enc_ids), (dec_rows, dec_ids) = embedded
        assert len(enc_ids) == sum(g.n for g in srcs)
        assert len(dec_ids) == sum(2 * b.k + 1 for b in batches)
        for rows, ids in embedded:
            assert not (ids == gm.TOK_PAD).any()
            assert np.abs(rows.grad).sum(axis=1).all()

    def test_evaluate_property_matches_per_graph_predict(self, tmp_path):
        path = tmp_path / "prop.jsonl"
        # more graphs than one batched pass takes, of 1 to 12 nodes
        write_jsonl(path, gen_property_dataset(tr.PREDICT_BATCH + 6, seed=3, max_nodes=12))
        data = load_dataset(path)
        graphs, tasks = data.graphs, sorted(data.graphs[0].properties)
        model = tr.PropertyModel.build(RunConfig(task="property").encoder_config(),
                                       data.label_vocab, data.edge_vocab, tasks,
                                       np.array([1.0, -2.0]), np.array([0.5, 3.0]), seed=7)
        perturb_film(model.params, 8)
        singles = [model.predict_batch([g])[0] for g in graphs]
        for batched, single in zip(model.predict_batch(graphs), singles):
            for task in tasks:
                assert abs(batched[task] - single[task]) <= 1e-12
        report = tr.evaluate_property(model, graphs)
        for task in tasks:
            expect = np.mean([abs(p[task] - g.properties[task]) for p, g in zip(singles, graphs)])
            assert abs(report.per_task_mae[task] - expect) <= 1e-12
