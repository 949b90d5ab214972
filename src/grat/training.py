"""Run configuration, model assembly, the training loop, and evaluation."""

from __future__ import annotations

import dataclasses
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Adam, Tensor
from .attention import EncoderConfig, encode_batch, init_encoder_params, readout_cls
from .attention import encode  # TranslationModel.generate; perfbench's tracer wraps this site
from .checkpoint import load_checkpoint, save_checkpoint
from .data import GraphDataset, TranslationDataset, load_dataset, split_indices
from .decoder import (DecoderBatch, DecoderConfig, GeneratedGraph, build_decoder_batch,
                      decode_batch, generate_beam, generate_beams, init_decoder_params,
                      n_edge_classes)
from .errors import CheckpointError, ContractError, DataError, NumericError
from .graph import (Graph, EdgeTypeVocab, NodeLabelVocab, TOK_CLS, TOK_REACTANT,
                    VIRTUAL, concat_graphs, prepend_token)
from .objectives import (MetricReport, cross_entropy_mean, exact_match,
                         init_property_head, init_recovery_heads, l1_mean, log_mae,
                         mask_graph, pretrain_loss, property_forward, std_mae)

log = logging.getLogger("grat")

TASKS = ("property", "translate", "pretrain")

PRESETS: dict[str, dict] = {
    # desk scale: trainable on one CPU core
    "desk": {
        "encoder": {"layers": 2, "heads": 4, "width": 64, "ff_width": 128,
                    "cond_hidden": 16},
        "decoder": {"layers": 2, "heads": 4, "width": 64, "ff_width": 128,
                    "cond_hidden": 16, "pair_width": 32, "fe_hidden": 64},
        "batch_size": 16,
        "head_hidden": 64,
    },
    # reference property-prediction scale (documentation / shape tests only)
    "paper-qm9": {
        "encoder": {"layers": 32, "heads": 32, "width": 256, "ff_width": 1024,
                    "cond_hidden": 32},
        "decoder": {"layers": 32, "heads": 32, "width": 256, "ff_width": 1024,
                    "cond_hidden": 32, "pair_width": 128, "fe_hidden": 256},
        "batch_size": 50,
        "head_hidden": 512,
    },
    # reference translation scale (documentation / shape tests only)
    "paper-uspto": {
        "encoder": {"layers": 24, "heads": 8, "width": 128, "ff_width": 256,
                    "cond_hidden": 32},
        "decoder": {"layers": 24, "heads": 8, "width": 128, "ff_width": 256,
                    "cond_hidden": 32, "pair_width": 64, "fe_hidden": 128},
        "batch_size": 128,
        "head_hidden": 512,
    },
}


@dataclass
class RunConfig:
    task: str
    data: str = ""
    preset: str = "desk"
    seed: int = 0
    epochs: int = 200
    batch_size: int | None = None    # None: the preset's
    lr: float = 1e-3
    max_steps: int | None = None
    patience: int = 10
    eval_every: int = 1
    max_nodes: int = 32
    mask_rate: float = 0.15
    pretrain_graph_level: bool = False
    property_tasks: list[str] | None = None
    head_hidden: int | None = None   # None: the preset's
    em_stop: float | None = None
    selection: str = "val"  # "val": restore best-val params; "last": keep final
    init_checkpoint: str | None = None
    out_checkpoint: str = "model.ckpt"
    metrics_out: str | None = None
    encoder: dict = field(default_factory=dict)
    decoder: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.task not in TASKS:
            raise ContractError(f"unknown task {self.task!r}; expected one of {TASKS}")
        if self.preset not in PRESETS:
            raise ContractError(f"unknown preset {self.preset!r}")
        for name in ("batch_size", "head_hidden"):
            if getattr(self, name) is None:
                setattr(self, name, PRESETS[self.preset][name])
        if self.selection not in ("val", "last"):
            raise ContractError(f"selection must be 'val' or 'last', got {self.selection!r}")
        for section, known in (("encoder", EncoderConfig), ("decoder", DecoderConfig)):
            unknown = set(getattr(self, section)) - {f.name for f in dataclasses.fields(known)}
            if unknown:
                raise DataError(f"unknown {section} config keys {sorted(unknown)}")

    def encoder_config(self) -> EncoderConfig:
        fields = dict(PRESETS[self.preset]["encoder"])
        # translation imposes canonical order through the positional encoding;
        # property/pretrain stay permutation-invariant
        fields["use_positional_encoding"] = self.task == "translate"
        fields.update(self.encoder)
        return EncoderConfig(**fields)

    def decoder_config(self) -> DecoderConfig:
        fields = dict(PRESETS[self.preset]["decoder"])
        fields.update(self.decoder)
        return DecoderConfig(**fields)


def config_from_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise DataError("run config must be a JSON object")
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(raw) - known
    if unknown:
        raise DataError(f"unknown config keys {sorted(unknown)}")
    return RunConfig(**raw)


def load_config(path) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"config is not valid JSON: {exc.msg}") from None
    return config_from_dict(raw)


# ---------------------------------------------------------------------------
# models


def _chunks(seq, size):
    for start in range(0, len(seq), size):
        yield seq[start:start + size]


# graphs per padded encoder pass in predict_batch and per batched beam search
# in generate_batch: bounds the (B, n, n) pair arrays of a large input
PREDICT_BATCH = 64


def _transfer_params(params: dict[str, Tensor], ckpt_path: str):
    """Warm-start every parameter whose name and shape match the checkpoint."""
    ckpt = load_checkpoint(ckpt_path)
    copied = 0
    for name, tensor in params.items():
        src = ckpt.params.get(name)
        if src is not None and src.data.shape == tensor.data.shape:
            tensor.data = src.data.copy()
            copied += 1
    log.info("warm start: copied %d/%d tensors from %s", copied, len(params), ckpt_path)


def _init_params(task, enc_cfg, dec_cfg, label_vocab, edge_vocab, n_tasks, head_hidden,
                 rng) -> dict[str, Tensor]:
    """The parameter set of a task's model, drawn from rng in a fixed order:
    encoder, decoder (translate), recovery heads (pretrain), then the
    property head when there are graph-level tasks."""
    n_labels, n_edges = len(label_vocab), len(edge_vocab)
    params = init_encoder_params(enc_cfg, n_labels, n_edges, rng)
    if task == "translate":
        params.update(init_decoder_params(dec_cfg, n_labels, n_edges, rng))
    if task == "pretrain":
        params.update(init_recovery_heads(enc_cfg, n_labels, n_edge_classes(n_edges), rng))
    if n_tasks:
        params.update(init_property_head(enc_cfg, n_tasks, rng, hidden=head_hidden))
    return params


@dataclass
class TranslationModel:
    enc_cfg: EncoderConfig
    dec_cfg: DecoderConfig
    label_vocab: NodeLabelVocab
    edge_vocab: EdgeTypeVocab
    params: dict[str, Tensor]

    @classmethod
    def build(cls, enc_cfg, dec_cfg, label_vocab, edge_vocab, seed) -> "TranslationModel":
        params = _init_params("translate", enc_cfg, dec_cfg, label_vocab, edge_vocab, 0, 0,
                              np.random.default_rng([seed, 0]))
        return cls(enc_cfg, dec_cfg, label_vocab, edge_vocab, params)

    def source_input(self, srcs: list[Graph]) -> Graph:
        return concat_graphs([(g.delim if g.delim is not None else TOK_REACTANT, g)
                              for g in srcs])

    def loss_on(self, enc_input: Graph, batch: DecoderBatch) -> Tensor:
        return self.batch_loss([enc_input], [batch])

    def batch_loss(self, enc_inputs: list[Graph], batches: list[DecoderBatch]) -> Tensor:
        """Mean over the pairs of each pair's node cross-entropy plus, when its
        target has edge decisions, its edge cross-entropy; one padded encoder
        and decoder pass for all of them."""
        enc_h = encode_batch(self.enc_cfg, self.params, enc_inputs)
        node_logits, edge_logits = decode_batch(self.dec_cfg, self.params, enc_h,
                                                [g.n for g in enc_inputs], batches)
        share = 1.0 / len(batches)
        node_targets = np.concatenate([b.node_targets for b in batches])
        node_weights = np.concatenate([np.full(b.k + 1, share / (b.k + 1)) for b in batches])
        loss = cross_entropy_mean(node_logits, node_targets, node_weights)
        if any(len(b.pair_target_classes) for b in batches):
            # the k trailing pairs of each final <EOG> step have no target: weight 0
            edge_targets, edge_weights = [], []
            for b in batches:
                pairs = len(b.pair_target_classes)
                edge_targets += [b.pair_target_classes, np.zeros(b.k, dtype=np.int64)]
                edge_weights += [np.full(pairs, share / max(pairs, 1)), np.zeros(b.k)]
            loss = ad.add(loss, cross_entropy_mean(edge_logits, np.concatenate(edge_targets),
                                                   np.concatenate(edge_weights)))
        return loss

    def generate(self, srcs: list[Graph], width: int, max_nodes: int
                 ) -> list[GeneratedGraph]:
        """Beam search; at width 1 it is greedy decoding, one graph."""
        with ad.no_grad():
            enc_h = encode(self.enc_cfg, self.params, self.source_input(srcs))
            return generate_beam(self.dec_cfg, self.params, enc_h, width, max_nodes)

    def generate_batch(self, sources: list[list[Graph]], width: int, max_nodes: int
                       ) -> list[list[GeneratedGraph]]:
        """generate for each source, as one padded encoder pass and one batched
        beam search (generate_beams) per chunk of up to PREDICT_BATCH sources.
        Graphs and flags equal generate's; scores can differ in the last ulps."""
        results = []
        for chunk in _chunks(sources, PREDICT_BATCH):
            inputs = [self.source_input(srcs) for srcs in chunk]
            with ad.no_grad():
                enc_h = encode_batch(self.enc_cfg, self.params, inputs)
                results += generate_beams(self.dec_cfg, self.params, enc_h,
                                          [g.n for g in inputs], width, max_nodes)
        return results


@dataclass
class PropertyModel:
    """The encoder with a property head; a pretrain model also carries the
    recovery heads, and its tasks are empty unless pretraining is graph-level."""

    enc_cfg: EncoderConfig
    label_vocab: NodeLabelVocab
    edge_vocab: EdgeTypeVocab
    tasks: list[str]
    mu: np.ndarray
    sigma: np.ndarray
    params: dict[str, Tensor]

    @classmethod
    def build(cls, enc_cfg, label_vocab, edge_vocab, tasks, mu, sigma, seed,
              head_hidden=64) -> "PropertyModel":
        params = _init_params("property", enc_cfg, None, label_vocab, edge_vocab, len(tasks),
                              head_hidden, np.random.default_rng([seed, 0]))
        return cls(enc_cfg, label_vocab, edge_vocab, list(tasks), mu, sigma, params)

    def batch_loss(self, enc_inputs: list[Graph], targets_norm: np.ndarray) -> Tensor:
        """Mean L1 error of normalized predictions against targets (B, tasks)."""
        return l1_mean(self._forward(enc_inputs), targets_norm)

    def _forward(self, enc_inputs: list[Graph]) -> Tensor:
        h = encode_batch(self.enc_cfg, self.params, enc_inputs)
        return property_forward(self.params, readout_cls(h, max(g.n for g in enc_inputs)))

    def predict(self, g: Graph) -> dict[str, float]:
        return self.predict_batch([g])[0]

    def predict_batch(self, graphs: list[Graph]) -> list[dict[str, float]]:
        """Raw-unit predictions per graph, from one padded encoder pass per
        chunk of up to PREDICT_BATCH graphs."""
        out = []
        for chunk in _chunks(graphs, PREDICT_BATCH):
            with ad.no_grad():
                preds = self._forward([prepend_token(g, TOK_CLS, VIRTUAL) for g in chunk]).data
            raw = preds * self.sigma + self.mu
            out += [{task: float(row[i]) for i, task in enumerate(self.tasks)} for row in raw]
        return out


# ---------------------------------------------------------------------------
# evaluation


def evaluate_property(model: PropertyModel, graphs: list[Graph]) -> MetricReport:
    """Per-task MAE in raw units plus the stdMAE/logMAE aggregates."""
    if not graphs:
        raise ContractError("evaluate_property on an empty split")
    errors = {task: [] for task in model.tasks}
    for g, preds in zip(graphs, model.predict_batch(graphs)):
        for task in model.tasks:
            errors[task].append(abs(preds[task] - g.properties[task]))
    per_task = {task: float(np.mean(errs)) for task, errs in errors.items()}
    sigma = {task: float(model.sigma[i]) for i, task in enumerate(model.tasks)}
    report = MetricReport(per_task_mae=per_task,
                          std_mae=std_mae(per_task, sigma),
                          counts={"graphs": len(graphs)})
    if all(v > 0 for v in per_task.values()):
        report.log_mae = log_mae(per_task)
    return report


def evaluate_translation(model: TranslationModel, pairs, max_nodes: int,
                         width: int = 1) -> MetricReport:
    """Exact-match rate of each source's best generated graph against its
    target, from one batched generate_batch call."""
    if not pairs:
        raise ContractError("evaluate_translation on an empty split")
    matches = truncated = 0
    beams = model.generate_batch([srcs for srcs, _ in pairs], width, max_nodes)
    for (_, tgt), beam in zip(pairs, beams):
        matches += exact_match(beam[0].graph, tgt)
        truncated += beam[0].truncated
    return MetricReport(exact_match_rate=matches / len(pairs),
                        counts={"pairs": len(pairs), "matches": matches,
                                "truncated": truncated})


# ---------------------------------------------------------------------------
# training


def _snapshot(params):
    return {name: p.data.copy() for name, p in params.items()}


def _restore(params, snap):
    for name, p in params.items():
        p.data = snap[name].copy()


@dataclass
class _Task:
    """What the training loop needs from one task.

    loss(indices, epoch) is the mean loss over those examples of the
    dataset, one mini-batch; epoch is None when validating. report() scores
    the held-out split (scored) once training ends; em(), when given, is
    the exact-match rate on up to 48 pairs of that split, checked against
    cfg.em_stop.
    """

    model: object
    split: dict[str, list[int]]
    loss: Callable[[list[int], int | None], Tensor]
    report: Callable[[], MetricReport]
    em: Callable[[], float] | None = None
    scored: str | None = None    # the split report() scores


def _train_loop(cfg: RunConfig, task: _Task) -> int:
    """Shared epoch scaffold: shuffled mini-batches, Adam, early stopping on
    the mean validation loss, optional exact-match stop.

    Validation falls back to the first tenth of the training split when the
    val split is empty. Returns the number of optimizer steps taken.
    """
    params = task.model.params
    train_idx = task.split["train"]
    val_idx = task.split["val"] or train_idx[: max(1, len(train_idx) // 10)]
    adam = Adam(params, lr=cfg.lr)
    shuffle_rng = np.random.default_rng([cfg.seed, 1])
    track_em = cfg.em_stop is not None and task.em is not None
    best = float("inf")
    best_em = -1.0
    best_snap = _snapshot(params)
    stale = 0
    steps = 0
    stop = False
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(len(train_idx))
        epoch_losses = []
        for batch in _chunks(order, cfg.batch_size):
            loss = task.loss([train_idx[i] for i in batch], epoch)
            if not np.isfinite(loss.data):
                raise NumericError(f"non-finite training loss at step {steps}")
            ad.backward(loss)
            adam.step()
            adam.zero_grad()
            epoch_losses.append(loss.item())
            steps += 1
            if cfg.max_steps is not None and steps >= cfg.max_steps:
                stop = True
                break
        if epoch % cfg.eval_every == 0 or stop:
            with ad.no_grad():
                val = sum(task.loss(chunk, None).item() * len(chunk)
                          for chunk in _chunks(val_idx, cfg.batch_size)) / len(val_idx)
            log.info("epoch %d: train loss %.5f, val %.5f, steps %d",
                     epoch, float(np.mean(epoch_losses)), val, steps)
            if val < best - 1e-12:
                best = val
                stale = 0
                if not track_em:
                    best_snap = _snapshot(params)
            else:
                stale += 1
            if track_em:
                # snapshot selection follows exact-match, not the loss: on
                # teacher-forced graph tasks the val loss can worsen while
                # exact-match still climbs
                em = task.em()
                log.info("epoch %d: %s exact-match %.3f", epoch, task.scored, em)
                if em > best_em:
                    best_em = em
                    best_snap = _snapshot(params)
                if em >= cfg.em_stop:
                    stop = True
            if stale > cfg.patience:
                log.info("early stop at epoch %d", epoch)
                stop = True
        if stop:
            break
    if cfg.selection == "val" or track_em:
        _restore(params, best_snap)
    return steps


def _task_stats(graphs, tasks):
    mu = np.array([np.mean([g.properties[t] for g in graphs]) for t in tasks])
    sigma = np.array([np.std([g.properties[t] for g in graphs]) for t in tasks])
    return mu, np.maximum(sigma, 1e-9)


def _select_tasks(cfg: RunConfig, graphs) -> list[str]:
    available = sorted(set.intersection(*(set(g.properties or {}) for g in graphs))
                       ) if graphs else []
    if cfg.property_tasks is not None:
        missing = set(cfg.property_tasks) - set(available)
        if missing:
            raise DataError(f"requested tasks {sorted(missing)} absent from dataset")
        return list(cfg.property_tasks)
    return available


def _config_snapshot(cfg: RunConfig, model) -> dict:
    snap = {
        "task": cfg.task,
        "preset": cfg.preset,
        "seed": cfg.seed,
        "labels": list(model.label_vocab.real_names),
        "edges": list(model.edge_vocab.real_names),
        "encoder": dataclasses.asdict(model.enc_cfg),
        "max_nodes": cfg.max_nodes,
        "head_hidden": cfg.head_hidden,
    }
    if cfg.task == "translate":
        snap["decoder"] = dataclasses.asdict(model.dec_cfg)
    else:
        snap["tasks"] = list(model.tasks)
        snap["mu"] = [float(x) for x in model.mu]
        snap["sigma"] = [float(x) for x in model.sigma]
    return snap


def train(cfg: RunConfig):
    """Train per the config; writes a checkpoint (and metrics when asked).

    Returns (model, MetricReport). On a non-finite loss or gradient the
    last-good parameters are checkpointed before the error propagates.
    """
    make_task = {"translate": _translation_task, "property": _property_task,
                 "pretrain": _pretrain_task}[cfg.task]
    task = make_task(cfg)
    model = task.model
    if cfg.init_checkpoint:
        _transfer_params(model.params, cfg.init_checkpoint)
    try:
        steps = _train_loop(cfg, task)
    except NumericError:
        save_checkpoint(cfg.out_checkpoint, model.params, _config_snapshot(cfg, model))
        log.error("aborted on non-finite numbers; last-good checkpoint at %s",
                  cfg.out_checkpoint)
        raise
    save_checkpoint(cfg.out_checkpoint, model.params, _config_snapshot(cfg, model))
    report = task.report()
    report.split = task.scored
    report.counts.update(steps=steps, train=len(task.split["train"]),
                         val=len(task.split["val"]), test=len(task.split["test"]))
    if cfg.metrics_out:
        Path(cfg.metrics_out).write_text(json.dumps(report.to_dict(), indent=2),
                                         encoding="utf-8")
    return model, report


def _translation_task(cfg: RunConfig) -> _Task:
    data = load_dataset(cfg.data)
    if not isinstance(data, TranslationDataset):
        raise DataError("translate task needs src/tgt records")
    split = split_indices(len(data.pairs), cfg.seed)
    model = TranslationModel.build(cfg.encoder_config(), cfg.decoder_config(),
                                   data.label_vocab, data.edge_vocab, cfg.seed)
    prepared = [(model.source_input(srcs), build_decoder_batch(tgt))
                for srcs, tgt in data.pairs]
    # exact match scores held-out pairs, so selection and stopping follow
    # held-out behaviour, not training-set recall
    held_out = split["val"] or split["train"][:48]

    def evaluate(idx):
        return evaluate_translation(model, [data.pairs[i] for i in idx], cfg.max_nodes)

    return _Task(model, split,
                 loss=lambda idx, _epoch: model.batch_loss([prepared[j][0] for j in idx],
                                                          [prepared[j][1] for j in idx]),
                 report=lambda: evaluate(held_out),
                 em=lambda: evaluate(held_out[:48]).exact_match_rate,
                 scored="val" if split["val"] else "train")


def _property_task(cfg: RunConfig) -> _Task:
    data = load_dataset(cfg.data)
    if not isinstance(data, GraphDataset):
        raise DataError("property task needs plain graph records with props")
    split = split_indices(len(data.graphs), cfg.seed)
    tasks = _select_tasks(cfg, data.graphs)
    if not tasks:
        raise DataError("property task: no graph-level properties in dataset")
    mu, sigma = _task_stats([data.graphs[i] for i in split["train"]], tasks)
    model = PropertyModel.build(cfg.encoder_config(), data.label_vocab, data.edge_vocab,
                                tasks, mu, sigma, cfg.seed, head_hidden=cfg.head_hidden)
    inputs = [prepend_token(g, TOK_CLS, VIRTUAL) for g in data.graphs]
    targets = np.array([[(g.properties[t] - m) / s
                         for t, m, s in zip(tasks, mu, sigma)] for g in data.graphs])
    held_out = split["val"] or split["train"]
    return _Task(model, split,
                 loss=lambda idx, _epoch: model.batch_loss([inputs[j] for j in idx],
                                                          targets[idx]),
                 report=lambda: evaluate_property(model, [data.graphs[i] for i in held_out]),
                 scored="val" if split["val"] else "train")


def _pretrain_task(cfg: RunConfig) -> _Task:
    data = load_dataset(cfg.data)
    if isinstance(data, TranslationDataset):
        # pretraining on a translation corpus recovers structure on its
        # source graphs (the encoder side that a later fine-tune reuses)
        graphs = [g for srcs, _ in data.pairs for g in srcs]
        data = GraphDataset(label_vocab=data.label_vocab,
                            edge_vocab=data.edge_vocab, graphs=graphs)
    if not isinstance(data, GraphDataset):
        raise DataError("pretrain task needs graph or translation records")
    split = split_indices(len(data.graphs), cfg.seed)
    tasks: list[str] = []
    mu = np.zeros(0)
    sigma = np.ones(0)
    if cfg.pretrain_graph_level:
        tasks = _select_tasks(cfg, data.graphs)
        if tasks:
            mu, sigma = _task_stats([data.graphs[i] for i in split["train"]], tasks)
    enc_cfg = cfg.encoder_config()
    params = _init_params("pretrain", enc_cfg, None, data.label_vocab, data.edge_vocab,
                          len(tasks), cfg.head_hidden, np.random.default_rng([cfg.seed, 0]))
    model = PropertyModel(enc_cfg, data.label_vocab, data.edge_vocab, tasks, mu, sigma,
                          params)
    # _select_tasks has checked that every graph carries every task
    targets = (np.array([[g.properties[t] for t in tasks] for g in data.graphs]) - mu) / sigma

    def loss(indices, epoch):
        # each graph's mask has its own key: training masks are redrawn every
        # epoch, validation masks are fixed
        keys = [[cfg.seed, 3, j] if epoch is None else [cfg.seed, 2, epoch, j] for j in indices]
        samples = [mask_graph(data.graphs[j], cfg.mask_rate, np.random.default_rng(key))
                   for j, key in zip(indices, keys)]
        return pretrain_loss(enc_cfg, params, samples, targets[indices] if tasks else None)

    return _Task(model, split, loss=loss, report=MetricReport)


# ---------------------------------------------------------------------------
# rebuilding models from checkpoints


class _ShapeOnly:
    """Generator stand-in for _init_params: arrays of the right shape, no draws."""

    def uniform(self, low=0.0, high=1.0, size=None):
        return np.empty(size)

    normal = uniform


# fields older versions record and this one removed, each with the one value
# it loads at: the value under which the old model behaves as this version does
_REMOVED_FIELDS = {"encoder": {"edge_feature_dim": 0},
                   "decoder": {"fe_activation": "tanh", "use_positional_encoding": True}}


def _current_fields(cfg: dict, section: str) -> dict:
    """The snapshot's encoder or decoder fields, less the removed ones."""
    fields = dict(cfg.get(section, {}))
    for name, value in _REMOVED_FIELDS[section].items():
        if name in fields and fields.pop(name) != value:
            raise CheckpointError(f"checkpoint sets {section} field {name!r}, which this "
                                  f"version of grat has only as {value!r}")
    return fields


def model_from_checkpoint(path):
    """Reconstruct the task's model from a checkpoint's snapshot.

    Fails closed: the stored parameters must be exactly the set, with the
    shapes, that the snapshot's task and configs imply.
    """
    ckpt = load_checkpoint(path)
    cfg = ckpt.config
    if not isinstance(cfg, dict):
        raise CheckpointError("checkpoint config snapshot is not a JSON object")
    task = cfg.get("task")
    if task not in TASKS:
        raise CheckpointError(f"checkpoint has unknown task {task!r}")
    try:
        lv = NodeLabelVocab(cfg.get("labels", []))
        ev = EdgeTypeVocab(cfg.get("edges", []))
        enc_cfg = EncoderConfig(**_current_fields(cfg, "encoder"))
        dec_cfg = DecoderConfig(**_current_fields(cfg, "decoder")) if task == "translate" else None
        tasks = [] if task == "translate" else list(cfg.get("tasks", []))
        mu = np.array(cfg.get("mu", []), dtype=np.float64)
        sigma = (np.array(cfg["sigma"], dtype=np.float64) if cfg.get("sigma")
                 else np.ones(len(tasks)))
        expected = _init_params(task, enc_cfg, dec_cfg, lv, ev, len(tasks),
                                cfg.get("head_hidden", 64), _ShapeOnly())
    except (TypeError, ValueError, ContractError) as exc:
        raise CheckpointError(f"checkpoint config snapshot does not match this "
                              f"version of grat: {exc}") from None
    if task != "translate" and not mu.shape == sigma.shape == (len(tasks),):
        raise CheckpointError(f"checkpoint mu/sigma do not match its {len(tasks)} tasks")
    missing = sorted(set(expected) - set(ckpt.params))
    extra = sorted(set(ckpt.params) - set(expected))
    reshaped = sorted(name for name, p in expected.items()
                      if name in ckpt.params and ckpt.params[name].shape != p.shape)
    problems = [f"{what} {len(names)} ({', '.join(names[:3])}{', ...' * (len(names) > 3)})"
                for what, names in (("missing", missing), ("unexpected", extra),
                                    ("wrong shape", reshaped)) if names]
    if problems:
        raise CheckpointError("checkpoint parameters do not match its config: "
                              + "; ".join(problems))
    if task == "translate":
        return TranslationModel(enc_cfg, dec_cfg, lv, ev, ckpt.params), ckpt
    return PropertyModel(enc_cfg, lv, ev, tasks, mu, sigma, ckpt.params), ckpt
