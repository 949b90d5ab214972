"""Command-line interface.

    grat train --config c.json
    grat pretrain --config c.json
    grat eval --ckpt model.ckpt --data d.jsonl --metrics-out m.json
    grat generate --ckpt model.ckpt --src in.jsonl --beam 8 --max-nodes 32
    grat dump-attention --ckpt model.ckpt --graph g.jsonl --layer 0 --out a.csv
    grat gen-data copy --out d.jsonl --seed 0 --n-graphs 200 ...

Exit codes: 0 ok, 1 usage/contract error, 2 data error (including a file that
cannot be read or written), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import sys
from pathlib import Path

from . import autodiff as ad
from .attention import encode_batch
from .data import (gen_copy_dataset, gen_property_dataset, gen_relabel_dataset,
                   load_dataset, write_jsonl, GraphDataset, TranslationDataset)
from .errors import (CapacityError, CheckpointError, ContractError, DataError,
                     GratError, NumericError)
from .graph import graph_to_record
from .smiles import write_smiles_lite
from .training import (evaluate_property, evaluate_translation, load_config,
                       model_from_checkpoint, train)

log = logging.getLogger("grat")


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="grat", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_train = sub.add_parser("train", help="train a model from a JSON config")
    p_train.add_argument("--config", required=True)

    p_pre = sub.add_parser("pretrain", help="masked-graph pretraining from a JSON config")
    p_pre.add_argument("--config", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p_eval.add_argument("--ckpt", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--metrics-out")
    p_eval.add_argument("--beam", type=int, default=1)
    p_eval.add_argument("--max-nodes", type=int, default=32)

    p_gen = sub.add_parser("generate", help="decode graphs for source inputs")
    p_gen.add_argument("--ckpt", required=True)
    p_gen.add_argument("--src", required=True)
    p_gen.add_argument("--beam", type=int, default=8)
    p_gen.add_argument("--max-nodes", type=int, default=32)
    p_gen.add_argument("--format", choices=["graph", "smiles"], default="graph")
    p_gen.add_argument("--out")

    p_dump = sub.add_parser("dump-attention", help="write one layer's attention as CSV")
    p_dump.add_argument("--ckpt", required=True)
    p_dump.add_argument("--graph", required=True)
    p_dump.add_argument("--layer", type=int, required=True)
    p_dump.add_argument("--head", type=int)
    p_dump.add_argument("--out", required=True)

    p_data = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p_data.add_argument("kind", choices=["copy", "relabel", "property"])
    p_data.add_argument("--out", required=True)
    p_data.add_argument("--seed", type=int, default=0)
    p_data.add_argument("--n-graphs", type=int, default=200)
    p_data.add_argument("--max-nodes", type=int, default=8)
    p_data.add_argument("--n-labels", type=int, default=3)
    p_data.add_argument("--n-edge-types", type=int, default=2)
    return parser


def _cmd_train(args, task_override=None) -> int:
    cfg = load_config(args.config)
    if task_override and cfg.task != task_override:
        cfg = dataclasses.replace(cfg, task=task_override)
    _, report = train(cfg)
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def _cmd_eval(args) -> int:
    model, ckpt = model_from_checkpoint(args.ckpt)
    task = ckpt.config["task"]
    data = load_dataset(args.data, vocabs=(model.label_vocab, model.edge_vocab))
    if task == "translate":
        if not isinstance(data, TranslationDataset):
            raise DataError("translation checkpoint needs src/tgt records")
        report = evaluate_translation(model, data.pairs, args.max_nodes,
                                      width=args.beam)
    elif task == "property":
        if not isinstance(data, GraphDataset):
            raise DataError("property checkpoint needs plain graph records")
        report = evaluate_property(model, data.graphs)
    else:
        raise ContractError("eval supports property and translation checkpoints")
    payload = json.dumps(report.to_dict(), indent=2)
    if args.metrics_out:
        Path(args.metrics_out).write_text(payload + "\n", encoding="utf-8")
    print(payload)
    return 0


def _cmd_generate(args) -> int:
    model, ckpt = model_from_checkpoint(args.ckpt)
    if ckpt.config["task"] != "translate":
        raise ContractError("generate requires a translation checkpoint")
    data = load_dataset(args.src, vocabs=(model.label_vocab, model.edge_vocab))
    if isinstance(data, TranslationDataset):
        sources = [srcs for srcs, _ in data.pairs]
    else:
        sources = [[g] for g in data.graphs]
    lines = []
    for results in model.generate_batch(sources, args.beam, args.max_nodes):
        entries = []
        for r in results:
            if args.format == "smiles":
                rendered = write_smiles_lite(r.graph, model.label_vocab, model.edge_vocab)
            else:
                rendered = graph_to_record(r.graph, model.label_vocab, model.edge_vocab)
            entries.append({"graph": rendered, "score": r.score, "truncated": r.truncated})
        lines.append(json.dumps(entries, separators=(",", ":")))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def dump_attention(model, g, layer: int, head: int | None, out_path):
    """Write one layer's post-softmax weights (averaged over heads unless one
    is picked) as CSV with node labels on both axes."""
    if not 0 <= layer < model.enc_cfg.layers:
        raise ContractError(f"layer {layer} out of range (encoder has "
                            f"{model.enc_cfg.layers} layers)")
    if head is not None and not 0 <= head < model.enc_cfg.heads:
        raise ContractError(f"head {head} out of range ({model.enc_cfg.heads} heads)")
    with ad.no_grad():
        _, collected = encode_batch(model.enc_cfg, model.params, [g], collect_attention=True)
    heads = collected[layer][0]
    weights = heads[head] if head is not None else heads.mean(axis=0)
    names = [model.label_vocab.name(lab) for lab in g.labels]
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([""] + names)
        for name, row in zip(names, weights):
            writer.writerow([name] + [repr(float(x)) for x in row])
    return weights


def _cmd_dump_attention(args) -> int:
    model, _ = model_from_checkpoint(args.ckpt)
    data = load_dataset(args.graph, vocabs=(model.label_vocab, model.edge_vocab))
    if not isinstance(data, GraphDataset):
        raise DataError("dump-attention expects a plain graph record")
    dump_attention(model, data.graphs[0], args.layer, args.head, args.out)
    return 0


def _cmd_gen_data(args) -> int:
    if args.kind == "copy":
        records = gen_copy_dataset(args.n_graphs, args.max_nodes, args.n_labels,
                                   args.n_edge_types, args.seed)
    elif args.kind == "relabel":
        records = gen_relabel_dataset(args.n_graphs, args.max_nodes, args.n_labels,
                                      args.n_edge_types, args.seed)
    else:
        records = gen_property_dataset(args.n_graphs, args.seed, args.max_nodes,
                                       args.n_labels, args.n_edge_types)
    write_jsonl(args.out, records)
    log.info("wrote %d records to %s", len(records), args.out)
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "pretrain":
            return _cmd_train(args, task_override="pretrain")
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "dump-attention":
            return _cmd_dump_attention(args)
        if args.command == "gen-data":
            return _cmd_gen_data(args)
        raise ContractError(f"unknown command {args.command!r}")
    except ContractError as exc:
        print(f"grat: {exc}", file=sys.stderr)
        return 1
    except (DataError, CheckpointError, CapacityError, OSError) as exc:
        print(f"grat: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"grat: {exc}", file=sys.stderr)
        return 3
    except GratError as exc:
        print(f"grat: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
