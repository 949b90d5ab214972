"""Traced run: wrap grat's layer functions from outside and record spans.

Nothing inside grat knows about tracing. ``Tracer.install`` replaces each
target function at every module attribute that holds it (``grat.attention.
encode`` is also ``grat.training.encode`` and ``grat.objectives.encode``),
plus two methods and ``Tensor.__init__`` on their classes; ``uninstall``
puts every original object back. Spans stay in memory until ``write``.

A span is attributed by the scope string its call receives (the ``base``,
``name`` or ``prefix`` argument, e.g. ``dec.l0.self``). ``layer_norm``
receives no scope, so its gain tensor's parameter name stands in for one.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# (defining module, attribute); a target missing from the code is skipped so
# that refactors inside grat do not break the harness
FUNCTIONS = (
    ("grat.data", "gen_copy_dataset"),
    ("grat.data", "gen_property_dataset"),
    ("grat.data", "write_jsonl"),
    ("grat.data", "load_dataset"),
    ("grat.checkpoint", "save_checkpoint"),
    ("grat.checkpoint", "load_checkpoint"),
    ("grat.graph", "prepend_token"),
    ("grat.graph", "concat_graphs"),
    ("grat.nn", "affine"),
    ("grat.autodiff", "backward"),
    ("grat.autodiff", "layer_norm"),
    ("grat.attention", "encode"),
    ("grat.attention", "edge_gamma_beta"),
    ("grat.attention", "multi_head_film_attention"),
    ("grat.attention", "feed_forward"),
    ("grat.decoder", "build_decoder_batch"),
    ("grat.decoder", "decode_forward"),
    # private, but the only call that carries the cross-attention scope
    ("grat.decoder", "_multi_head_cross_attention"),
    ("grat.decoder", "generate_greedy"),
    ("grat.decoder", "generate_beam"),
    ("grat.objectives", "cross_entropy_mean"),
    ("grat.objectives", "l1_mean"),
    ("grat.training", "train"),
    ("grat.training", "evaluate_translation"),
    ("grat.training", "evaluate_property"),
    ("grat.training", "model_from_checkpoint"),
)
METHODS = (
    ("grat.autodiff", "Adam", "step"),
    ("grat.training", "TranslationModel", "generate"),
)
COUNTED_INIT = ("grat.autodiff", "Tensor")

SCOPE_ARGS = ("base", "name", "prefix")
SPAN_FIELDS = ("request", "parent", "name", "scope", "start", "end", "extra")
GENERATORS = ("generate_greedy", "generate_beam")


def tape_size(loss) -> int:
    """Recorded operations (tensors with a backward rule) reachable from loss
    through ``_parents``; leaves such as parameters and constants excluded."""
    seen = {id(loss)}
    stack = [loss]
    ops = 0
    while stack:
        node = stack.pop()
        ops += node._backward is not None
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return ops


def _arg_reader(fn, names):
    """Reader of the first parameter of fn named in names, or None."""
    params = inspect.signature(fn).parameters
    order = list(params)
    for name in names:
        if name in params:
            index = order.index(name)
            default = params[name].default

            def read(args, kwargs, name=name, index=index, default=default):
                if name in kwargs:
                    return kwargs[name]
                return args[index] if len(args) > index else default
            return read
    return None


class Tracer:
    """Spans and counters for one traced run.

    spans holds (request, parent, label, scope, start, end, extra) tuples;
    parent indexes spans (-1 for a root). extra is the tape size for
    backward and (positions, new positions) for decode_forward.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.tensors: dict[int, int] = {}
        self.request = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._param_names: dict[int, str] = {}
        self._param_dicts: list[dict] = []  # held so their ids stay unique
        self._decoded: set[bytes] | None = None
        self._tensor_count = 0

    # -- requests ----------------------------------------------------------

    def begin(self, request: int):
        self.request = request
        self._tensor_count = 0

    def end(self):
        self.tensors[self.request] = self._tensor_count
        self._param_names.clear()
        self._param_dicts.clear()
        self._decoded = None

    # -- patching ----------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if name == "grat" or name.startswith("grat.")]
        for module_name, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, attr)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for module_name, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name, None)
            if cls is not None and attr in vars(cls):
                original = vars(cls)[attr]
                self._patch(cls, attr, self._wrap(original, f"{cls_name}.{attr}"))
        cls = getattr(importlib.import_module(COUNTED_INIT[0]), COUNTED_INIT[1])
        self._patch(cls, "__init__", self._counting(vars(cls)["__init__"]))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner, key, replacement):
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, replacement)

    def _counting(self, init):
        tracer = self

        @functools.wraps(init)
        def counted(obj, *args, **kwargs):
            tracer._tensor_count += 1
            init(obj, *args, **kwargs)
        return counted

    def _wrap(self, fn, label):
        read_scope = _arg_reader(fn, SCOPE_ARGS)
        read_params = _arg_reader(fn, ("params",))
        read_gain = _arg_reader(fn, ("gain",)) if label == "layer_norm" else None
        enter = {"backward": self._enter_backward,
                 "decode_forward": self._enter_decode}.get(label)
        generator = label in GENERATORS
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if read_params is not None:
                self._register(read_params(args, kwargs))
            if read_gain is not None:
                scope = self._param_names.get(id(read_gain(args, kwargs)), "")
                scope = scope.rsplit(".", 1)[0]
            else:
                scope = read_scope(args, kwargs) if read_scope is not None else ""
            extra = enter(args, kwargs) if enter is not None else None
            if generator:
                outer, self._decoded = self._decoded, set()
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (self.request, parent, label, scope, start, end, extra)
                if generator:
                    self._decoded = outer
        return traced

    def _register(self, params):
        if isinstance(params, dict) and not any(d is params for d in self._param_dicts):
            self._param_dicts.append(params)
            for name, tensor in params.items():
                self._param_names[id(tensor)] = name

    # -- per-call counters -------------------------------------------------

    def _enter_backward(self, args, kwargs):
        return tape_size(args[0] if args else kwargs["loss"])

    def _enter_decode(self, args, kwargs):
        """(positions decoded, positions no earlier pass of this generation
        call decoded). Under the causal mask a position's state depends only
        on the tokens and edges up to it, so a pass whose first l positions
        repeat an earlier pass's sequence recomputes l positions."""
        batch = args[3] if len(args) > 3 else kwargs["batch"]
        tokens, edges = batch.tokens, batch.edge_matrix
        length = len(tokens)
        if self._decoded is None:
            return length, length
        known = 0
        for ell in range(length, 0, -2):
            if tokens[:ell].tobytes() + edges[:ell, :ell].tobytes() in self._decoded:
                known = ell
                break
        self._decoded.add(tokens.tobytes() + edges.tobytes())
        return length, length - known

    # -- output ------------------------------------------------------------

    def write(self, path):
        """JSON lines: a header naming the fields, then one array per span
        (a span's id is its line number after the header)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
