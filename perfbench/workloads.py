"""The benchmark's workloads: seeded inputs, one closed-loop operation, checks.

Each workload drives only what a grat user drives: generated JSONL from
``grat.data.gen_*``, checkpoints from ``save_checkpoint``, and the entry
points ``train``, ``model_from_checkpoint``, ``TranslationModel.generate``
and ``evaluate_property``. grat functions are always reached through their
module (``training.train``), so a traced run sees every call.

Workload sizes are fixed here; only the seed varies between runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from collections import Counter
from pathlib import Path

import numpy as np

from grat import attention, autodiff, checkpoint, data, decoder, graph, training

# train-copy: ROADMAP's desk copy task
COPY_PAIRS = 256
COPY_MAX_NODES = 6
COPY_LABELS = 4
COPY_EDGE_TYPES = 2
TRAIN_STEPS = 24          # per train() call
# train()'s own seed (split, initialisation, shuffling) stays fixed, so every
# --seed trains on 202 and validates on 27 of the 256 generated pairs. The
# validation work in a call grows with the split, which the data seed would
# otherwise vary from 13 to 33 pairs.
TRAIN_SEED = 1
NEVER = 10 ** 9           # eval_every beyond any run: validate only at epoch 0 and the end
TRAIN_EVAL_MAX_NODES = COPY_MAX_NODES  # no target is larger; bounds the final report's decode

# generate-*: an untrained model that never picks <EOG>, so every greedy
# request decodes exactly GEN_NODES nodes and every beam request does the
# same fixed number of forward passes
GEN_SOURCES = 64
GEN_NODES = 8
EOG_BIAS = -1.0e3
BEAM_WIDTH = 8
BEAM1_SAMPLE = 8          # sources on which beam width 1 must equal greedy

# property-eval: larger graphs than train-copy, encoder only. The first
# PROP_PER_SIZE generated graphs of each size 1..PROP_MAX_NODES are kept, so
# every seed evaluates the same number of graphs of each size: the encoder's
# cost grows with size, and a free size mix moved throughput by 10% between
# seeds.
PROP_MAX_NODES = 16
PROP_PER_SIZE = 32
PROP_POOL = 1024          # generated graphs to draw from; about 64 of each size
PROP_CHUNK = 32           # graphs per evaluate_property call


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _finite(x) -> bool:
    return x is None or math.isfinite(x)


def _snapshot(enc_cfg, labels, edges, **extra) -> dict:
    """The run-config snapshot model_from_checkpoint rebuilds a model from."""
    snap = {"preset": "desk", "labels": list(labels.real_names),
            "edges": list(edges.real_names), "encoder": dataclasses.asdict(enc_cfg)}
    snap.update(extra)
    return snap


class Workload:
    """setup() makes and loads the inputs (timed as set-up); op(i) is one
    closed-loop request and returns (graphs processed, output); check()
    returns the problems with one output; final_checks() returns a list of
    problem lists, one per extra check made after the loop."""

    name = ""
    why = ""
    rate_name = None      # the workload's own name for graphs_per_s, if any
    latency_name = None   # prefix of its per-request latency percentiles, if any

    def __init__(self, work: Path, seed: int):
        self.work = Path(work)
        self.seed = seed

    def setup(self) -> list[Path]:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, output) -> list[str]:
        return []

    def final_checks(self) -> list[list[str]]:
        return []


class TrainCopy(Workload):
    name = "train-copy"
    rate_name = "train_graphs_per_s"
    why = ("the only path that records a tape, runs backward and Adam; "
           "tiny graphs make per-op overhead dominate")

    def setup(self):
        path = self.work / "copy.jsonl"
        data.write_jsonl(path, data.gen_copy_dataset(
            COPY_PAIRS, COPY_MAX_NODES, COPY_LABELS, COPY_EDGE_TYPES, self.seed))
        self.dataset = data.load_dataset(path)
        self.cfg = training.RunConfig(
            task="translate", data=str(path), preset="desk", seed=TRAIN_SEED,
            batch_size=16, max_steps=TRAIN_STEPS, eval_every=NEVER,
            max_nodes=TRAIN_EVAL_MAX_NODES, out_checkpoint=str(self.work / "trained.ckpt"))
        # the model train() starts from, kept as the learning check's reference
        enc_cfg, dec_cfg = self.cfg.encoder_config(), self.cfg.decoder_config()
        untrained = training.TranslationModel.build(
            enc_cfg, dec_cfg, self.dataset.label_vocab, self.dataset.edge_vocab, TRAIN_SEED)
        ckpt = self.work / "untrained.ckpt"
        checkpoint.save_checkpoint(ckpt, untrained.params, _snapshot(
            enc_cfg, self.dataset.label_vocab, self.dataset.edge_vocab, task="translate",
            decoder=dataclasses.asdict(dec_cfg)))
        self.untrained, _ = training.model_from_checkpoint(ckpt)
        self.first = None
        self.untrained_val = None
        return [path, ckpt]

    def op(self, i):
        model, report = training.train(self.cfg)
        counts = report.counts
        return trained_graphs(counts["steps"], counts["train"], self.cfg.batch_size), \
            (model, report.to_dict())

    def val_loss(self, model) -> float:
        """Teacher-forced loss over the validation split train() holds out."""
        val = data.split_indices(len(self.dataset.pairs), TRAIN_SEED)["val"]
        losses = []
        with autodiff.no_grad():
            for j in val:
                srcs, tgt = self.dataset.pairs[j]
                losses.append(model.loss_on(model.source_input(srcs),
                                            decoder.build_decoder_batch(tgt)).item())
        return float(np.mean(losses))

    def check(self, i, output):
        model, report = output
        problems = []
        if self.untrained_val is None:
            self.untrained_val = self.val_loss(self.untrained)
        loss = self.val_loss(model)
        if not math.isfinite(loss):
            problems.append(f"non-finite validation loss {loss}")
        elif not loss < self.untrained_val:
            problems.append(f"validation loss {loss:.6f} not below the untrained "
                            f"{self.untrained_val:.6f}")
        if report["counts"].get("steps") != TRAIN_STEPS:
            problems.append(f"ran {report['counts'].get('steps')} steps, not {TRAIN_STEPS}")
        if self.first is None:
            self.first = (report, loss)
        elif (report, loss) != self.first:
            problems.append("same seed, different result: "
                            f"{(report, loss)} != {self.first}")
        return problems


def trained_graphs(steps: int, n_train: int, batch: int) -> int:
    """Graphs in the first `steps` mini-batches of epochs over n_train graphs.

    Only an epoch's last batch is short, and a partial epoch never reaches it.
    """
    full_epochs, rest = divmod(steps, math.ceil(n_train / batch))
    return full_epochs * n_train + rest * batch


class Generate(Workload):
    width = 1

    def setup(self):
        path = self.work / "sources.jsonl"
        data.write_jsonl(path, data.gen_copy_dataset(
            GEN_SOURCES, COPY_MAX_NODES, COPY_LABELS, COPY_EDGE_TYPES, self.seed))
        dataset = data.load_dataset(path)
        cfg = training.RunConfig(task="translate", preset="desk")
        enc_cfg, dec_cfg = cfg.encoder_config(), cfg.decoder_config()
        model = training.TranslationModel.build(
            enc_cfg, dec_cfg, dataset.label_vocab, dataset.edge_vocab, self.seed)
        model.params["dec.fl.b"].data[graph.TOK_EOG] = EOG_BIAS
        ckpt = self.work / "generator.ckpt"
        checkpoint.save_checkpoint(ckpt, model.params, _snapshot(
            enc_cfg, dataset.label_vocab, dataset.edge_vocab, task="translate",
            decoder=dataclasses.asdict(dec_cfg)))
        self.model, _ = training.model_from_checkpoint(ckpt)
        self.sources = [srcs for srcs, _ in dataset.pairs]
        self.first: dict[int, list] = {}
        return [path, ckpt]

    def op(self, i):
        return 1, self.model.generate(self.sources[i % len(self.sources)],
                                      self.width, GEN_NODES)

    def check(self, i, results):
        problems = []
        for r in results:
            bad = graph.validate(r.graph, self.model.label_vocab, self.model.edge_vocab)
            if bad:
                problems.append(f"invalid output graph: {bad[0]}")
            if not math.isfinite(r.score):
                problems.append(f"non-finite score {r.score}")
        problems += self.check_shape(results)
        key = [(r.graph.labels, r.graph.edges.tobytes(), r.score, r.truncated)
               for r in results]
        source = i % len(self.sources)
        if self.first.setdefault(source, key) != key:
            problems.append(f"source {source}: output differs from its first decode")
        return problems

    def check_shape(self, results) -> list[str]:
        raise NotImplementedError

    def final_checks(self):
        """Beam width 1 must reproduce greedy decoding exactly."""
        model = self.model
        outcomes = []
        for srcs in self.sources[:BEAM1_SAMPLE]:
            greedy = model.generate(srcs, 1, GEN_NODES)[0]
            with autodiff.no_grad():
                enc_h = attention.encode(model.enc_cfg, model.params, model.source_input(srcs))
                beam = decoder.generate_beam(model.dec_cfg, model.params, enc_h, 1, GEN_NODES)
            same = (len(beam) == 1 and beam[0].graph == greedy.graph
                    and beam[0].score == greedy.score
                    and beam[0].truncated == greedy.truncated)
            outcomes.append([] if same else ["beam width 1 differs from greedy"])
        return outcomes


class GenerateGreedy(Generate):
    name = "generate-greedy"
    latency_name = "greedy_ms"
    why = ("greedy decoding under no_grad, re-decoding the whole prefix at each "
           "of its 9 steps; caching the prefix shows here")
    width = 1

    def check_shape(self, results):
        if len(results) != 1:
            return [f"greedy returned {len(results)} graphs"]
        r = results[0]
        if r.graph.n != GEN_NODES or not r.truncated:
            return [f"greedy graph has {r.graph.n} nodes, truncated={r.truncated}; "
                    f"expected {GEN_NODES} and True"]
        return []


class GenerateBeam(Generate):
    name = "generate-beam8"
    latency_name = "beam8_ms"
    why = ("beam-8 search: 61 prefix re-decodes per request; batching live "
           "hypotheses and caching prefixes show here")
    width = BEAM_WIDTH

    def check_shape(self, results):
        problems = []
        if not 1 <= len(results) <= BEAM_WIDTH:
            problems.append(f"beam returned {len(results)} graphs")
        scores = [r.score for r in results]
        if any(a < b for a, b in zip(scores, scores[1:])):
            problems.append(f"beam scores not in non-increasing order: {scores}")
        return problems


class PropertyEval(Workload):
    name = "property-eval"
    rate_name = "eval_graphs_per_s"
    latency_name = "eval_call_ms"
    why = ("encoder-only inference without a tape on graphs about twice "
           "train-copy's size; padding and batching costs show here")

    def setup(self):
        path = self.work / "property.jsonl"
        kept, per_size = [], Counter()
        for record in data.gen_property_dataset(PROP_POOL, self.seed, max_nodes=PROP_MAX_NODES):
            size = len(record["nodes"])
            if per_size[size] < PROP_PER_SIZE:
                per_size[size] += 1
                kept.append(record)
        if len(kept) != PROP_PER_SIZE * PROP_MAX_NODES:
            raise RuntimeError(f"seed {self.seed}: too few graphs of some size in the pool")
        data.write_jsonl(path, kept)
        dataset = data.load_dataset(path)
        tasks = sorted(dataset.graphs[0].properties)
        values = np.array([[g.properties[t] for t in tasks] for g in dataset.graphs])
        mu, sigma = values.mean(axis=0), np.maximum(values.std(axis=0), 1e-9)
        enc_cfg = training.RunConfig(task="property", preset="desk").encoder_config()
        model = training.PropertyModel.build(enc_cfg, dataset.label_vocab, dataset.edge_vocab,
                                             tasks, mu, sigma, self.seed)
        ckpt = self.work / "property.ckpt"
        checkpoint.save_checkpoint(ckpt, model.params, _snapshot(
            enc_cfg, dataset.label_vocab, dataset.edge_vocab, task="property",
            tasks=tasks, mu=[float(x) for x in mu], sigma=[float(x) for x in sigma]))
        self.model, _ = training.model_from_checkpoint(ckpt)
        graphs = dataset.graphs
        self.chunks = [graphs[k:k + PROP_CHUNK] for k in range(0, len(graphs), PROP_CHUNK)]
        self.first: dict[int, dict] = {}
        return [path, ckpt]

    def op(self, i):
        chunk = self.chunks[i % len(self.chunks)]
        return len(chunk), training.evaluate_property(self.model, chunk).to_dict()

    def check(self, i, report):
        problems = []
        values = list(report["per_task_mae"].values()) + [report["std_mae"], report["log_mae"]]
        if not report["per_task_mae"] or not all(_finite(v) for v in values):
            problems.append(f"report not finite: {report}")
        chunk = i % len(self.chunks)
        if self.first.setdefault(chunk, report) != report:
            problems.append(f"chunk {chunk}: report differs from its first evaluation")
        return problems


WORKLOADS = {w.name: w for w in (TrainCopy, GenerateGreedy, GenerateBeam, PropertyEval)}
