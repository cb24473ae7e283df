"""Runtime span tracing of factfusion's layers, installed from outside.

A Tracer wraps the public functions and methods of each layer (the TARGETS
table) in timing shims while it is installed, and restores the originals on
uninstall. No program file is edited: module-level functions are replaced in
every factfusion module that holds them (so `from .x import f` call sites
are covered), methods on their class. Each call records one span: name,
start, end, parent span, operation id and optional attributes. Generator
functions (data.ingest) record one span per yielded item. Spans stay in
memory until the caller writes them out.

layer_metrics() turns the spans of one traced run into the per-layer
metrics named in BENCHMARK.json; self_times() gives each span name's
inclusive and self time (a span minus the part its children cover).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import statistics
import sys
import time

MARK = "__factbench_span__"
VARIANTS = ("weighted", "power", "unified")


def graph_size(root) -> int:
    """Distinct tensors reachable from root through autograd parent links."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def _backward_attrs(args, kwargs, result):
    return {"nodes": graph_size(args[0])}


def _forward_attrs(args, kwargs, result):
    training = bool(kwargs.get("training", args[3] if len(args) > 3 else False))
    attrs = {"training": training}
    if not training:
        attrs["nodes"] = graph_size(result[0])
    return attrs


def _fuse_attrs(args, kwargs, result):
    return {"pairs": [i + 1 for i, _ in args[0].pairings]}


def _file_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _tune_attrs(args, kwargs, result):
    variant = kwargs.get("variant", args[2] if len(args) > 2 else "unified")
    return {"variant": variant, "evaluations": result.evaluations}


# (span name, module, attribute path, attribute hook run after the call).
TARGETS = (
    ("autograd.backward", "factfusion.autograd", "Tensor.backward", _backward_attrs),
    ("model.forward_batch", "factfusion.model", "VerificationModel.forward_batch", _forward_attrs),
    ("model.save", "factfusion.model", "VerificationModel.save", None),
    ("embedding.tail", "factfusion.embedding", "BackboneTail.__call__", None),
    ("embedding.embed", "factfusion.embedding", "StreamEmbedder.__call__", None),
    ("fusion.fuse", "factfusion.fusion", "FusionStack.fuse", _fuse_attrs),
    ("fusion.co_attend", "factfusion.fusion", "CoAttentionBlock.co_attend", None),
    ("classifier.head", "factfusion.classifier", "ClassifierHead.__call__", None),
    ("classifier.loss", "factfusion.classifier", "total_loss", None),
    ("optim.adam_step", "factfusion.optim", "Adam.step", None),
    ("optim.zero_grad", "factfusion.optim", "Adam.zero_grad", None),
    ("training.train", "factfusion.training", "train", None),
    ("training.evaluate", "factfusion.training", "evaluate", None),
    ("training.predict", "factfusion.training", "_predict_probs", None),
    ("training.write_meta", "factfusion.training", "_write_meta", None),
    ("data.synthesize", "factfusion.data", "synthesize", None),
    ("data.ingest", "factfusion.data", "ingest", None),
    ("tensor_io.read_tensor", "factfusion.tensor_io", "read_tensor", _file_attrs),
    ("tensor_io.read_checkpoint", "factfusion.tensor_io", "read_checkpoint", _file_attrs),
    ("features.raw_vector", "factfusion.features", "raw_feature_vector", None),
    ("features.scaler_fit", "factfusion.features", "FeatureScaler.fit", None),
    ("ensemble.tune", "factfusion.ensemble", "tune", _tune_attrs),
    ("metrics.weighted_f1_batch", "factfusion.metrics", "weighted_f1_batch", None),
)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "attrs")

    def __init__(self, sid, name, start, parent, op):
        self.id = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.attrs = None

    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "op": self.op, "attrs": self.attrs,
        }


def factfusion_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "factfusion" or n.startswith("factfusion."))]


def installed_wrappers() -> list:
    """Names of every traced shim currently reachable in factfusion's modules."""
    found = []
    for module in factfusion_modules():
        for name, value in vars(module).items():
            if getattr(value, MARK, None):
                found.append(f"{module.__name__}.{name}")
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if getattr(getattr(member, "__func__", member), MARK, None):
                        found.append(f"{module.__name__}.{name}.{attr}")
    return found


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[Span] = []
        self._patches: list = []  # (owner, attribute, original value)

    # -- recording ------------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent, self.op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _shim(self, name: str, fn, hook):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    span = tracer._open(name)
                    try:
                        item = next(items)
                    except StopIteration:
                        span.attrs = {"exhausted": True}
                        return
                    finally:
                        tracer._close(span)
                    yield item
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = tracer._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(span)
                if hook is not None:
                    span.attrs = hook(args, kwargs, result)
                return result
        setattr(traced, MARK, name)
        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module_name, path, hook in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = vars(owner)[attr]
                if isinstance(original, classmethod):
                    shim = classmethod(self._shim(name, original.__func__, hook))
                else:
                    shim = self._shim(name, original, hook)
                self._patch(owner, attr, original, shim)
                continue
            original = getattr(module, path)
            shim = self._shim(name, original, hook)
            for holder in factfusion_modules():
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, attr, original, shim)

    def _patch(self, owner, attr, original, shim) -> None:
        setattr(owner, attr, shim)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans left open")


# -- analysis ------------------------------------------------------------------

def _pct(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _ms(seconds: float) -> float:
    return 1000.0 * seconds


def _secs(spans) -> float:
    return sum(s.duration() for s in spans)


def _ratio(total: float, count: float) -> float:
    return total / count if count else 0.0


def _p50_ms(spans) -> float:
    return _ms(_median([s.duration() for s in spans]))


def self_times(spans) -> dict:
    """Per span name: calls, inclusive seconds and self seconds."""
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration()
    out = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.duration()
        row["self_s"] += s.duration() - child_time.get(s.id, 0.0)
    return out


def layer_metrics(spans, overhead_share: float) -> dict:
    """Per-layer metrics from the spans of measured operations (integer op ids).

    A step is one training-mode forward_batch when the operations train, else
    one inference forward_batch; per-step figures divide by the step count.
    Metrics of layers that the workload never reaches read 0.
    """
    measured = [s for s in spans if isinstance(s.op, int)]
    setup = [s for s in spans if isinstance(s.op, str)]
    by_id = {s.id: s for s in spans}
    named = {}
    for s in measured:
        named.setdefault(s.name, []).append(s)

    def spans_of(name):
        return named.get(name, [])

    forwards = spans_of("model.forward_batch")
    train_fwd = [s for s in forwards if s.attrs["training"]]
    eval_fwd = [s for s in forwards if not s.attrs["training"]]
    steps = train_fwd or forwards
    step_ids = {s.id for s in steps}
    n_steps = max(len(steps), 1)

    def in_step(span) -> bool:
        while span.parent is not None:
            span = by_id[span.parent]
            if span.name == "model.forward_batch":
                return span.id in step_ids
        return False

    def per_step(name):
        inside = [s for s in spans_of(name) if in_step(s)]
        return _ms(_secs(inside)) / n_steps, len(inside) / n_steps

    m = {}
    backward = spans_of("autograd.backward")
    m["autograd.graph_nodes_per_step"] = _ratio(
        sum(s.attrs["nodes"] for s in backward), len(backward))
    m["autograd.backward_ms_p50"] = _p50_ms(backward)
    m["autograd.eval_graph_nodes_per_batch"] = _ratio(
        sum(s.attrs["nodes"] for s in eval_fwd), len(eval_fwd))

    pair_s = {k: 0.0 for k in range(1, 7)}
    children = {}
    for s in spans_of("fusion.co_attend"):
        children.setdefault(s.parent, []).append(s)
    for fuse in spans_of("fusion.fuse"):
        if in_step(fuse):
            calls = sorted(children.get(fuse.id, []), key=lambda c: c.start)
            for pair, call in zip(fuse.attrs["pairs"], calls):
                pair_s[pair] += call.duration()
    for k in range(1, 7):
        m[f"fusion.pair{k}_ms"] = _ms(pair_s[k]) / n_steps
    m["fusion.co_attend_calls_per_step"] = per_step("fusion.co_attend")[1]

    for layer, name in (("tail", "embedding.tail"), ("embed", "embedding.embed")):
        ms, calls = per_step(name)
        m[f"embedding.{layer}_ms_per_step"] = ms
        m[f"embedding.{layer}_calls_per_step"] = calls

    fwd_ms = [_ms(s.duration()) for s in steps]
    m["model.forward_batch_ms_p50"] = _median(fwd_ms)
    m["model.forward_batch_ms_p90"] = _pct(fwd_ms, 0.9)

    m["classifier.head_ms_per_step"] = per_step("classifier.head")[0]
    m["classifier.loss_ms_per_step"] = _ratio(
        _ms(_secs(spans_of("classifier.loss"))), len(train_fwd))
    m["optim.adam_step_ms_p50"] = _p50_ms(spans_of("optim.adam_step"))
    m["optim.zero_grad_ms_p50"] = _p50_ms(spans_of("optim.zero_grad"))

    adam_ends = sorted((s.op, s.start, s.end) for s in spans_of("optim.adam_step"))
    step_ms = []
    for fwd in train_fwd:
        end = next((e for op, st, e in adam_ends if op == fwd.op and st >= fwd.end), None)
        if end is not None:
            step_ms.append(_ms(end - fwd.start))
    m["training.step_ms_p50"] = _median(step_ms)
    m["training.step_ms_p90"] = _pct(step_ms, 0.9)
    val = [s for s in spans_of("training.predict")
           if s.parent is not None and by_id[s.parent].name == "training.train"]
    m["training.val_ms_per_epoch"] = _ratio(_ms(_secs(val)), len(val))
    saves = spans_of("model.save")
    writes = saves + spans_of("training.write_meta")
    m["training.checkpoint_write_ms"] = _ratio(_ms(_secs(writes)), len(saves))

    m["data.synthesize_s"] = _ratio(
        _secs(s for s in setup if s.name == "data.synthesize"), len({s.op for s in setup}))
    samples = [s for s in spans_of("data.ingest") if not s.attrs]
    m["data.ingest_ms_per_sample"] = _ratio(_ms(_secs(samples)), len(samples))
    ckpt_reads = spans_of("tensor_io.read_checkpoint")
    m["tensor_io.read_checkpoint_ms"] = _p50_ms(ckpt_reads)
    m["tensor_io.bytes_read"] = _ratio(
        sum(s.attrs["bytes"] for s in spans_of("tensor_io.read_tensor") + ckpt_reads),
        len({s.op for s in measured}))
    raw = spans_of("features.raw_vector")
    m["features.raw_vector_ms_per_sample"] = _ratio(_ms(_secs(raw)), len(raw))
    m["features.scaler_fit_ms"] = _p50_ms(spans_of("features.scaler_fit"))

    tunes = spans_of("ensemble.tune")
    for variant in VARIANTS:
        mine = [s for s in tunes if s.attrs["variant"] == variant]
        m[f"ensemble.tune_s.{variant}"] = _ratio(_secs(mine), len(mine))
        m[f"ensemble.evals_per_s.{variant}"] = _ratio(
            sum(s.attrs["evaluations"] for s in mine), _secs(mine))
    scoring = _secs(s for s in spans_of("metrics.weighted_f1_batch")
                    if s.parent is not None and by_id[s.parent].name == "ensemble.tune")
    m["metrics.weighted_f1_batch_ms_total"] = _ratio(_ms(scoring), len(tunes) / len(VARIANTS))
    m["ensemble.f1_scoring_share"] = _ratio(scoring, _secs(tunes))
    m["trace.overhead_share"] = overhead_share
    return m
