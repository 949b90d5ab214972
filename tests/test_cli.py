"""Command-line surface: subcommands, exit codes, file outputs."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from grat import cli
from grat import training
from grat.checkpoint import load_checkpoint, save_checkpoint
from grat.data import gen_copy_dataset, gen_property_dataset, load_dataset, write_jsonl
from grat.graph import graph_to_record
from grat.training import evaluate_property, load_config, model_from_checkpoint, train


def run(argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture
def copy_setup(tmp_path):
    data = tmp_path / "copy.jsonl"
    ckpt = tmp_path / "copy.ckpt"
    assert run(["gen-data", "copy", "--out", data, "--seed", 3,
                "--n-graphs", 24, "--max-nodes", 4]) == 0
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "task": "translate", "data": str(data), "seed": 0, "epochs": 1,
        "batch_size": 8, "max_steps": 2, "out_checkpoint": str(ckpt)}))
    assert run(["train", "--config", config]) == 0
    return tmp_path, data, ckpt


def assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.err.startswith("grat: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def property_setup(tmp_path, name, feature_width):
    """A trained property checkpoint on a JSONL whose graphs carry feat rows of
    feature_width (none at 0), with encoder.node_feature_dim set to match."""
    records = gen_property_dataset(24, seed=4, max_nodes=5)
    rng = np.random.default_rng(0)
    for record in records:
        if feature_width:
            record["feat"] = rng.normal(size=(len(record["nodes"]), feature_width)).tolist()
    data, config = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.json"
    write_jsonl(data, records)
    config.write_text(json.dumps({
        "task": "property", "data": str(data), "seed": 0, "epochs": 1, "batch_size": 8,
        "max_steps": 2, "encoder": {"node_feature_dim": feature_width},
        "out_checkpoint": str(tmp_path / f"{name}.ckpt")}))
    assert run(["train", "--config", config]) == 0
    return data, config, tmp_path / f"{name}.ckpt"


class TestGenData:
    def test_writes_all_kinds(self, tmp_path):
        for kind in ("copy", "relabel", "property"):
            out = tmp_path / f"{kind}.jsonl"
            assert run(["gen-data", kind, "--out", out, "--seed", 1,
                        "--n-graphs", 5]) == 0
            lines = out.read_text().strip().splitlines()
            assert len(lines) == 5

    def test_seeded_identical(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run(["gen-data", "property", "--out", a, "--seed", 9, "--n-graphs", 6])
        run(["gen-data", "property", "--out", b, "--seed", 9, "--n-graphs", 6])
        assert a.read_bytes() == b.read_bytes()


class TestTrainEval:
    def test_train_then_eval_exit_zero(self, copy_setup, capsys):
        tmp_path, data, ckpt = copy_setup
        metrics = tmp_path / "m.json"
        assert run(["eval", "--ckpt", ckpt, "--data", data,
                    "--metrics-out", metrics, "--max-nodes", 6]) == 0
        payload = json.loads(metrics.read_text())
        assert "exact_match_rate" in payload

    @pytest.mark.parametrize("flags, code", [
        (["--beam", 0], 1),
        (["--max-nodes", 0], 1),
        (["--max-nodes", 65], 2),     # 131 decoder positions, context 129
    ], ids=["beam-0", "max-nodes-0", "max-nodes-beyond-context"])
    def test_eval_translation_search_limits(self, copy_setup, capsys, flags, code):
        _, data, ckpt = copy_setup
        capsys.readouterr()
        assert run(["eval", "--ckpt", ckpt, "--data", data] + flags) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("grat: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_eval_missing_checkpoint_is_data_error(self, tmp_path):
        data = tmp_path / "d.jsonl"
        write_jsonl(data, [{"nodes": ["A"], "edges": []}])
        assert run(["eval", "--ckpt", tmp_path / "no.ckpt", "--data", data]) == 2

    def test_eval_mismatched_snapshot_is_checkpoint_error(self, copy_setup, capsys):
        _, data, ckpt = copy_setup
        loaded = load_checkpoint(ckpt)
        loaded.config["encoder"]["attention_kind"] = "linear"
        save_checkpoint(ckpt, loaded.params, loaded.config)
        capsys.readouterr()
        assert run(["eval", "--ckpt", ckpt, "--data", data]) == 2
        err = capsys.readouterr().err
        assert err.startswith("grat: ") and "Traceback" not in err

    @pytest.mark.parametrize("corrupt", [
        lambda params, config: ({k: v for k, v in params.items() if k != "dec.fl.b"}, config),
        lambda params, config: (dict(params, **{"dec.fl.b": params["dec.fl.b"][:3]}), config),
        lambda params, config: (dict(params, **{"dec.extra.w": params["dec.fl.w"]}), config),
        lambda params, config: (params, [1, 2]),
        lambda params, config: (params, dict(config, labels=5)),
        lambda params, config: (params, dict(config, labels=["<G>"])),
        lambda params, config: (params, dict(config, encoder=dict(config["encoder"],
                                                                  edge_feature_dim=3))),
        lambda params, config: (dict(params, **{"enc.cond.featw": params["enc.cond.onehot"]}),
                                config),
        lambda params, config: (params, dict(config, decoder=dict(config["decoder"],
                                                                  fe_activation="relu"))),
        lambda params, config: (params, dict(config, decoder=dict(
            config["decoder"], use_positional_encoding=False))),
    ], ids=["missing", "wrong-shape", "extra", "config-list", "labels-int",
            "labels-reserved", "edge-feature-width", "edge-feature-weights", "relu-edge-head",
            "decoder-without-positions"])
    def test_generate_rejects_checkpoint_unlike_its_config(self, copy_setup, capsys,
                                                           corrupt):
        _, data, ckpt = copy_setup
        loaded = load_checkpoint(ckpt)
        save_checkpoint(ckpt, *corrupt(loaded.params, loaded.config))
        capsys.readouterr()
        assert run(["generate", "--ckpt", ckpt, "--src", data, "--beam", 1]) == 2
        err = capsys.readouterr().err
        assert err.startswith("grat: ") and "Traceback" not in err

    def test_train_missing_config_is_data_error(self, tmp_path):
        assert run(["train", "--config", tmp_path / "nope.json"]) == 2

    @pytest.mark.parametrize("key, value", [("beam_width", 8), ("beta1", 0.9),
                                            ("beta2", 0.999), ("eps", 1e-8),
                                            ("warmup_steps", 0)])
    def test_train_config_naming_a_removed_option_is_data_error(self, tmp_path, capsys,
                                                                key, value):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"task": "translate", "data": str(tmp_path / "x.jsonl"),
                                      key: value}))
        assert run(["train", "--config", config]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"grat: unknown config keys ['{key}']\n"

    def test_usage_error_exit_one(self):
        with pytest.raises(SystemExit) as info:
            run(["train"])  # missing --config
        assert info.value.code == 1

    def test_pretrain_subcommand(self, tmp_path):
        data = tmp_path / "p.jsonl"
        run(["gen-data", "property", "--out", data, "--seed", 2, "--n-graphs", 20])
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "task": "pretrain", "data": str(data), "seed": 0, "epochs": 1,
            "batch_size": 8, "max_steps": 2,
            "out_checkpoint": str(tmp_path / "pre.ckpt")}))
        assert run(["pretrain", "--config", config]) == 0

    def test_eval_on_pretrain_checkpoint_is_usage_error(self, tmp_path, capsys):
        data = tmp_path / "p.jsonl"
        run(["gen-data", "property", "--out", data, "--seed", 2, "--n-graphs", 20])
        config = tmp_path / "c.json"
        ckpt = tmp_path / "pre.ckpt"
        config.write_text(json.dumps({
            "task": "pretrain", "data": str(data), "seed": 0, "epochs": 1,
            "batch_size": 8, "max_steps": 2, "pretrain_graph_level": True,
            "out_checkpoint": str(ckpt)}))
        assert run(["pretrain", "--config", config]) == 0
        capsys.readouterr()
        assert run(["eval", "--ckpt", ckpt, "--data", data]) == 1
        assert capsys.readouterr().err == \
            "grat: eval supports property and translation checkpoints\n"


class TestUntrainableData:
    """Data a run cannot train on: exit 2, one grat: line, no checkpoint."""

    def assert_refused(self, tmp_path, capsys, task, records, *fragments, seed=0):
        data, config, ckpt = (tmp_path / "d.jsonl", tmp_path / "c.json",
                              tmp_path / "m.ckpt")
        write_jsonl(data, records)
        config.write_text(json.dumps({"task": task, "data": str(data), "seed": seed,
                                      "max_steps": 2, "out_checkpoint": str(ckpt)}))
        capsys.readouterr()
        assert run(["pretrain" if task == "pretrain" else "train", "--config", config]) == 2
        assert_one_error_line_containing(capsys, *fragments)
        assert not ckpt.exists()

    @pytest.mark.parametrize("task, n_records, seed", [
        ("translate", 1, 4),     # the record lands in test
        ("property", 2, 45),     # both land in val
        ("pretrain", 3, 154),    # none lands in train
    ])
    def test_empty_training_split(self, tmp_path, capsys, task, n_records, seed):
        records = (gen_copy_dataset(n_records, 4, 3, 2, 0) if task == "translate"
                   else gen_property_dataset(n_records, seed=0, max_nodes=4))
        self.assert_refused(tmp_path, capsys, task, records, f"seed {seed}",
                            f"{n_records} records", seed=seed)

    @pytest.mark.parametrize("task, bad", [
        ("translate", {"src": [{"nodes": ["A"], "edges": []}],
                       "tgt": {"nodes": ["A", "<EOG>"], "edges": []}}),
        ("translate", {"src": [{"nodes": ["A"], "edges": []}],
                       "tgt": {"nodes": ["A", "B"], "edges": [[0, 1, "<mask-edge>"]]}}),
        ("translate", {"src": [{"nodes": ["A", "<MASK>"], "edges": [[0, 1, "<virtual>"]]}],
                       "tgt": {"nodes": ["A"], "edges": []}}),
        ("property", {"nodes": ["A", "<PAD>"], "edges": [[0, 1, "<self>"]],
                      "props": {"y": 1.0}}),
    ], ids=["eog-in-target", "mask-edge-in-target", "mask-and-virtual-in-source",
            "pad-and-self-in-property-graph"])
    def test_reserved_tokens_in_data(self, tmp_path, capsys, task, bad):
        records = (gen_copy_dataset(8, 4, 3, 2, 0) if task == "translate"
                   else gen_property_dataset(8, seed=0, max_nodes=4))
        records[2] = bad
        self.assert_refused(tmp_path, capsys, task, records, "reserved", "line 3")


def assert_one_error_line_containing(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.startswith("grat: ") and err.count("\n") == 1 and "Traceback" not in err
    assert all(fragment in err for fragment in fragments), err


def train_argv(tmp_path, data, **paths):
    config = tmp_path / "train.json"
    config.write_text(json.dumps({
        "task": "translate", "data": str(data), "max_steps": 1, "batch_size": 8,
        "out_checkpoint": str(tmp_path / "m.ckpt"), **paths}))
    return ["train", "--config", config]


def dump_argv(tmp_path, ckpt, out):
    graph_file = tmp_path / "one.jsonl"
    graph_file.write_text(json.dumps({"nodes": ["A"], "edges": []}) + "\n")
    return ["dump-attention", "--ckpt", ckpt, "--graph", graph_file, "--layer", 0,
            "--out", out]


class TestFileErrors:
    @pytest.mark.parametrize("argv", [
        lambda tmp, data, ckpt, bad: ["generate", "--ckpt", ckpt, "--src", data,
                                      "--beam", 1, "--max-nodes", 4, "--out", bad],
        lambda tmp, data, ckpt, bad: ["eval", "--ckpt", ckpt, "--data", data,
                                      "--max-nodes", 4, "--metrics-out", bad],
        lambda tmp, data, ckpt, bad: ["gen-data", "copy", "--out", bad, "--n-graphs", 2],
        lambda tmp, data, ckpt, bad: train_argv(tmp, data, metrics_out=str(bad)),
        lambda tmp, data, ckpt, bad: train_argv(tmp, data, out_checkpoint=str(bad)),
        lambda tmp, data, ckpt, bad: dump_argv(tmp, ckpt, bad),
    ], ids=["generate-out", "eval-metrics-out", "gen-data-out", "train-metrics-out",
            "train-out-checkpoint", "dump-attention-out"])
    def test_unwritable_output_is_data_error(self, copy_setup, capsys, argv):
        tmp_path, data, ckpt = copy_setup
        capsys.readouterr()
        assert run(argv(tmp_path, data, ckpt, tmp_path / "missing" / "out")) == 2
        assert_one_error_line(capsys)


class TestGenerate:
    @pytest.mark.parametrize("beam", [1, 2])
    def test_batched_output_matches_per_source_decoding(self, copy_setup, monkeypatch,
                                                        beam):
        tmp_path, data, ckpt = copy_setup
        monkeypatch.setattr(training, "PREDICT_BATCH", 5)   # 24 sources: 5 chunks
        out = tmp_path / "gen.jsonl"
        assert run(["generate", "--ckpt", ckpt, "--src", data, "--beam", beam,
                    "--max-nodes", 4, "--out", out]) == 0
        model, _ = model_from_checkpoint(ckpt)
        pairs = load_dataset(data, vocabs=(model.label_vocab, model.edge_vocab)).pairs
        lines = out.read_text().splitlines()
        assert len(lines) == len(pairs)
        for line, (srcs, _) in zip(lines, pairs):
            got = json.loads(line)
            expect = model.generate(srcs, beam, 4)
            assert [(e["graph"], e["truncated"]) for e in got] == [
                (graph_to_record(r.graph, model.label_vocab, model.edge_vocab), r.truncated)
                for r in expect]
            assert max(abs(e["score"] - r.score) for e, r in zip(got, expect)) <= 1e-12

    def test_generate_graph_format(self, copy_setup, tmp_path):
        _, data, ckpt = copy_setup
        out = tmp_path / "gen.jsonl"
        assert run(["generate", "--ckpt", ckpt, "--src", data, "--beam", 2,
                    "--max-nodes", 4, "--out", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 24
        first = json.loads(lines[0])
        assert first and {"graph", "score", "truncated"} <= set(first[0])
        scores = [e["score"] for e in first]
        assert scores == sorted(scores, reverse=True)

    def test_generate_max_nodes_beyond_context_is_capacity_error(self, copy_setup):
        _, data, ckpt = copy_setup
        assert run(["generate", "--ckpt", ckpt, "--src", data, "--beam", 1,
                    "--max-nodes", 100]) == 2

    def test_generate_smiles_format(self, tmp_path):
        # molecule-labeled copy data; model rigged to emit one C then stop
        data = tmp_path / "mol.jsonl"
        record = {"nodes": ["C", "N"], "edges": [[0, 1, "single"]]}
        write_jsonl(data, [{"src": [dict(record, delim="<REACTANT>")], "tgt": record}])
        config = tmp_path / "c.json"
        ckpt = tmp_path / "m.ckpt"
        config.write_text(json.dumps({
            "task": "translate", "data": str(data), "seed": 0, "epochs": 0,
            "out_checkpoint": str(ckpt)}))
        assert run(["train", "--config", config]) == 0
        loaded = load_checkpoint(ckpt)
        c_id = 8 + sorted(["C", "N"]).index("C")
        loaded.params["dec.fl.w"].data[:] = 0.0
        loaded.params["dec.fl.b"].data[:] = 0.0
        loaded.params["dec.fl.b"].data[c_id] = 50.0
        save_checkpoint(ckpt, loaded.params, loaded.config)
        out = tmp_path / "gen.jsonl"
        assert run(["generate", "--ckpt", ckpt, "--src", data, "--beam", 1,
                    "--max-nodes", 1, "--format", "smiles", "--out", out]) == 0
        entry = json.loads(out.read_text().strip())[0]
        assert entry["graph"] == "C" and entry["truncated"]


class TestDumpAttention:
    def test_rows_sum_to_one_and_match_in_memory(self, copy_setup, tmp_path):
        _, data, ckpt = copy_setup
        graph_file = tmp_path / "g.jsonl"
        record = json.loads(data.read_text().splitlines()[0])["tgt"]
        graph_file.write_text(json.dumps(record) + "\n")
        out = tmp_path / "att.csv"
        assert run(["dump-attention", "--ckpt", ckpt, "--graph", graph_file,
                    "--layer", 1, "--out", out]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        n = len(rows) - 1
        assert rows[0][1:] == [r[0] for r in rows[1:]]
        values = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
        assert np.max(np.abs(values.sum(axis=1) - 1.0)) < 1e-9

        from grat.training import model_from_checkpoint
        from grat.graph import graph_from_record
        model, _ = model_from_checkpoint(str(ckpt))
        g = graph_from_record(record, model.label_vocab, model.edge_vocab)
        expect = cli.dump_attention(model, g, 1, None, tmp_path / "att2.csv")
        assert np.array_equal(values, expect)

    def test_single_node_graph_dumps_unit_weight(self, copy_setup, tmp_path):
        _, _, ckpt = copy_setup
        graph_file = tmp_path / "one.jsonl"
        graph_file.write_text(json.dumps({"nodes": ["A"], "edges": []}) + "\n")
        out = tmp_path / "att.csv"
        assert run(["dump-attention", "--ckpt", ckpt, "--graph", graph_file,
                    "--layer", 0, "--out", out]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert float(rows[1][1]) == 1.0

    @pytest.mark.parametrize("content", [None, "{\"nodes\": [\"A\"]\n", ""],
                             ids=["missing-file", "malformed-json", "empty-file"])
    def test_unreadable_graph_file_is_data_error(self, copy_setup, tmp_path, capsys,
                                                 content):
        _, _, ckpt = copy_setup
        graph_file = tmp_path / "g.jsonl"
        if content is not None:
            graph_file.write_text(content)
        capsys.readouterr()
        assert run(["dump-attention", "--ckpt", ckpt, "--graph", graph_file,
                    "--layer", 0, "--out", tmp_path / "att.csv"]) == 2
        assert_one_error_line(capsys)
        assert not (tmp_path / "att.csv").exists()

    def test_translation_records_are_data_error(self, copy_setup, tmp_path, capsys):
        _, data, ckpt = copy_setup
        capsys.readouterr()
        assert run(["dump-attention", "--ckpt", ckpt, "--graph", data,
                    "--layer", 0, "--out", tmp_path / "att.csv"]) == 2
        assert capsys.readouterr().err == "grat: dump-attention expects a plain graph record\n"

    def test_layer_out_of_range_is_usage_error(self, copy_setup, tmp_path):
        _, data, ckpt = copy_setup
        graph_file = tmp_path / "g.jsonl"
        record = json.loads(data.read_text().splitlines()[0])["tgt"]
        graph_file.write_text(json.dumps(record) + "\n")
        assert run(["dump-attention", "--ckpt", ckpt, "--graph", graph_file,
                    "--layer", 99, "--out", tmp_path / "x.csv"]) == 1


class TestNodeFeatures:
    def test_train_then_eval_matches_in_process_model(self, tmp_path, capsys):
        data, config, ckpt = property_setup(tmp_path, "feat", 3)
        cfg = load_config(config)
        model, _ = train(dataclasses.replace(cfg, out_checkpoint=str(tmp_path / "again.ckpt")))
        loaded, _ = model_from_checkpoint(ckpt)
        assert loaded.enc_cfg.node_feature_dim == 3 and "enc.feat.w" in loaded.params
        graphs = load_dataset(data, vocabs=(model.label_vocab, model.edge_vocab)).graphs
        for g in graphs:
            assert loaded.predict(g) == model.predict(g)
        metrics = tmp_path / "m.json"
        assert run(["eval", "--ckpt", ckpt, "--data", data, "--metrics-out", metrics]) == 0
        expect = json.dumps(evaluate_property(model, graphs).to_dict())
        assert json.loads(metrics.read_text()) == json.loads(expect)

    def test_features_the_model_cannot_use_are_usage_errors(self, tmp_path, capsys):
        feat_data, _, feat_ckpt = property_setup(tmp_path, "feat", 3)
        plain_data, _, plain_ckpt = property_setup(tmp_path, "plain", 0)
        for ckpt, data, widths in ((plain_ckpt, feat_data, (0, 3)),
                                   (feat_ckpt, plain_data, (3, 0))):
            capsys.readouterr()
            assert run(["eval", "--ckpt", ckpt, "--data", data]) == 1
            err = capsys.readouterr().err
            assert err == (f"grat: encoder expects node features of width {widths[0]}, "
                           f"graph has width {widths[1]}\n")


def test_cli_imports_only_grat_numpy_and_the_standard_library():
    # modules loaded before the import do not count: site start-up may load
    # third-party hooks such as _distutils_hack
    code = ("import sys; before = set(sys.modules); import grat.cli; "
            "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True).stdout.split()
    allowed = {"grat", "numpy"} | sys.stdlib_module_names
    assert "grat.cli" in loaded
    assert [name for name in loaded if name.partition(".")[0] not in allowed] == []
