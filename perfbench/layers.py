"""Per-layer metrics of a traced run, named after the grat modules.

Every "per graph" figure divides by the graphs the traced requests of the
workload processed (trained, generated or evaluated). A layer that does not
run on a workload reports 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from .stats import self_times

ATTENTION_BLOCKS = ("multi_head_film_attention", "_multi_head_cross_attention")
EVALUATIONS = ("evaluate_translation", "evaluate_property")
EDGE_HEAD = ("dec.fp", "dec.fe1", "dec.fe2")
SETUP_LAYERS = {
    "checkpoint.save_s": ("save_checkpoint",),
    "checkpoint.load_s": ("load_checkpoint",),
    "data.gen_s": ("gen_copy_dataset", "gen_property_dataset", "write_jsonl"),
    "data.load_s": ("load_dataset",),
}


def layer_metrics(spans, loop_graphs: dict[int, int], setup_requests,
                  tensors: dict[int, int], enc_layers: int, dec_layers: int) -> dict:
    """name -> (value, unit) from a tracer's spans.

    loop_graphs maps each traced closed-loop request to the graphs it
    processed; setup_requests lists the traced set-up repetitions; tensors
    maps requests to Tensor constructions.
    """
    graphs = sum(loop_graphs.values())
    selfs = self_times([(parent, start, end) for _, parent, _, _, start, end, _ in spans])
    total = defaultdict(float)   # (label, scope) -> seconds, loop requests only
    calls = defaultdict(int)
    setup = {r: defaultdict(float) for r in setup_requests}
    tape = positions = new_positions = 0
    search_self = 0.0
    for i, (request, parent, label, scope, start, end, extra) in enumerate(spans):
        if request in setup:
            setup[request][label] += end - start
        if request not in loop_graphs:
            continue
        total[label, scope] += end - start
        calls[label, scope] += 1
        if label == "backward":
            tape += extra
        elif label == "decode_forward":
            positions += extra[0]
            new_positions += extra[1]
        elif label in ("generate_greedy", "generate_beam"):
            search_self += selfs[i]

    def seconds(labels, match=lambda scope: True):
        return sum(t for (label, scope), t in total.items() if label in labels and match(scope))

    def per_graph_ms(labels, match=lambda scope: True):
        return 1000.0 * seconds(labels, match) / graphs if graphs else 0.0

    def scope_is(name):
        return lambda scope: scope == name

    def under(prefix):
        return lambda scope: scope.startswith(prefix)

    n_steps = calls["Adam.step", ""]
    intervals = step_intervals(spans, loop_graphs)
    backward_s = seconds(("backward",))
    m = {}
    ms_per_graph = "ms/graph"
    m["autodiff.backward_ms_per_step"] = (
        1000.0 * backward_s / n_steps if n_steps else 0.0, "ms")
    m["autodiff.backward_share"] = (
        (backward_s / n_steps) / statistics.fmean(intervals) if intervals else 0.0, "ratio")
    m["autodiff.adam_ms_per_step"] = (
        1000.0 * seconds(("Adam.step",)) / n_steps if n_steps else 0.0, "ms")
    m["autodiff.tape_nodes_per_graph"] = (tape / graphs if graphs else 0.0, "count")
    m["autodiff.tensors_per_graph"] = (
        sum(tensors.get(r, 0) for r in loop_graphs) / graphs if graphs else 0.0, "count")

    m["attention.encode_ms_per_graph"] = (per_graph_ms(("encode",), scope_is("enc")),
                                          ms_per_graph)
    m["attention.edge_cond_ms_per_graph"] = (
        per_graph_ms(("edge_gamma_beta",), scope_is("enc.cond")), ms_per_graph)
    for i in range(enc_layers):
        base = f"enc.l{i}"
        m[f"attention.l{i}.attn_ms"] = (per_graph_ms(ATTENTION_BLOCKS, scope_is(base)),
                                        ms_per_graph)
        m[f"attention.l{i}.ff_ms"] = (per_graph_ms(("feed_forward",), scope_is(base)),
                                      ms_per_graph)
        m[f"attention.l{i}.ln_ms"] = (per_graph_ms(("layer_norm",), under(base + ".")),
                                      ms_per_graph)

    m["decoder.forward_ms_per_graph"] = (per_graph_ms(("decode_forward",), scope_is("dec")),
                                         ms_per_graph)
    m["decoder.edge_cond_ms_per_graph"] = (
        per_graph_ms(("edge_gamma_beta",), scope_is("dec.cond")), ms_per_graph)
    m["decoder.edge_head_ms_per_graph"] = (
        per_graph_ms(("affine",), lambda scope: scope in EDGE_HEAD), ms_per_graph)
    for i in range(dec_layers):
        base = f"dec.l{i}"
        m[f"decoder.l{i}.self_ms"] = (per_graph_ms(ATTENTION_BLOCKS, scope_is(base + ".self")),
                                      ms_per_graph)
        m[f"decoder.l{i}.cross_ms"] = (
            per_graph_ms(ATTENTION_BLOCKS, scope_is(base + ".cross")), ms_per_graph)
        m[f"decoder.l{i}.ff_ms"] = (per_graph_ms(("feed_forward",), scope_is(base)),
                                    ms_per_graph)
        m[f"decoder.l{i}.ln_ms"] = (per_graph_ms(("layer_norm",), under(base + ".")),
                                    ms_per_graph)
    forward_calls = sum(n for (label, _), n in calls.items() if label == "decode_forward")
    m["decoder.forward_calls_per_graph"] = (forward_calls / graphs if graphs else 0.0,
                                            "count")
    m["decoder.positions_per_graph"] = (positions / graphs if graphs else 0.0, "count")
    m["decoder.new_position_ratio"] = (new_positions / positions if positions else 0.0,
                                       "ratio")
    m["decoder.build_batch_ms_per_graph"] = (per_graph_ms(("build_decoder_batch",)),
                                             ms_per_graph)
    m["decoder.search_self_ms_per_graph"] = (
        1000.0 * search_self / graphs if graphs else 0.0, ms_per_graph)

    m["objectives.loss_ms_per_graph"] = (per_graph_ms(("cross_entropy_mean", "l1_mean")),
                                         ms_per_graph)
    m["graph.build_ms_per_graph"] = (per_graph_ms(("prepend_token", "concat_graphs")),
                                     ms_per_graph)

    m["training.step_ms_p50"] = (
        1000.0 * statistics.median(intervals) if intervals else 0.0, "ms")
    m["training.final_eval_s"] = (_final_eval_s(spans, loop_graphs), "s")
    for name, labels in SETUP_LAYERS.items():
        per_rep = [sum(t[label] for label in labels) for t in setup.values()]
        m[name] = (statistics.median(per_rep) if per_rep else 0.0, "s")
    return m


def step_intervals(spans, requests) -> list[float]:
    """Seconds between consecutive Adam.step calls within each request
    (spans are stored in the order their calls began)."""
    starts = defaultdict(list)
    for request, _, label, _, start, _, _ in spans:
        if label == "Adam.step" and request in requests:
            starts[request].append(start)
    return [b - a for s in starts.values() for a, b in zip(s, s[1:])]


def _final_eval_s(spans, loop_graphs) -> float:
    """Median over train() calls of the evaluation time nested inside each."""
    per_train = {i: 0.0 for i, span in enumerate(spans)
                 if span[2] == "train" and span[0] in loop_graphs}
    for span in spans:
        if span[2] in EVALUATIONS:
            ancestor = span[1]
            while ancestor >= 0 and ancestor not in per_train:
                ancestor = spans[ancestor][1]
            if ancestor >= 0:
                per_train[ancestor] += span[5] - span[4]
    return statistics.median(per_train.values()) if per_train else 0.0
