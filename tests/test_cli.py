"""Command-line surface: subcommands, exit codes, file outputs."""

import csv
import json

import numpy as np
import pytest

from grat import cli
from grat.checkpoint import load_checkpoint, save_checkpoint
from grat.data import write_jsonl


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
    ], ids=["missing", "wrong-shape", "extra", "config-list", "labels-int",
            "labels-reserved"])
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


class TestGenerate:
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

    def test_layer_out_of_range_is_usage_error(self, copy_setup, tmp_path):
        _, data, ckpt = copy_setup
        graph_file = tmp_path / "g.jsonl"
        record = json.loads(data.read_text().splitlines()[0])["tgt"]
        graph_file.write_text(json.dumps(record) + "\n")
        assert run(["dump-attention", "--ckpt", ckpt, "--graph", graph_file,
                    "--layer", 99, "--out", tmp_path / "x.csv"]) == 1
