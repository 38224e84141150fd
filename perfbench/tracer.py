"""Outside-in tracer for the samb package.

It wraps the package's public functions by replacing the module and class
attributes their callers look up, so nothing under ``src/`` changes:

* every tensor op is timed and each tape node it appends is attributed to
  the innermost open span (the i-th ``masked_attention`` call of a forward
  is the scope ``block{i}.attn``);
* just before ``backward`` runs, each node's ``backward_fn`` is wrapped and
  timed, keyed by its scope and by the op named in its ``__qualname__``;
* spans (name, start, end, parent) are kept in memory and written out by
  ``write_spans``; a span's self time is its duration minus the part its
  children cover.

A wrapped function that no longer exists makes ``install`` raise
``TraceError``; ``check_expected`` raises when a layer a workload must
execute recorded no call, so a rename cannot silently read as zero.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

OP_CATEGORIES = ("matmul", "add", "softmax", "layer_norm", "gelu", "other")

# every public differentiable op of samb.tensor; the value is its category
TENSOR_OPS = {
    "add": "add", "sub": "other", "mul": "other", "scale": "other",
    "matmul": "matmul", "reshape": "other", "transpose": "other",
    "concat": "other", "narrow": "other", "broadcast_to": "other",
    "sum_all": "other", "sum_axis": "other", "mean_all": "other",
    "tanh": "other", "sigmoid": "other", "gelu": "gelu", "log": "other",
    "exp": "other", "clamp_min": "other", "softmax": "softmax",
    "layer_norm": "layer_norm", "cross_entropy": "other", "custom_op": "other",
}

# (owner, attribute, span name); an owner "module:Class" names a class
SPANS = (
    ("samb.cli", "main", "cli.main"),
    ("samb.cli", "write_manifest", "cli.write"),
    ("samb.trainer:MetricLog", "to_csv", "cli.write"),
    ("samb.trainer:Trainer", "save_checkpoint", "cli.write"),
    ("samb.trainer:Trainer", "run", "trainer.run"),
    ("samb.trainer:Trainer", "refresh_pseudo_labels", "trainer.refresh"),
    ("samb.trainer", "evaluate", "trainer.evaluate"),
    ("samb.trainer", "build_table", "pseudo_label.build_table"),
    ("samb.trainer", "domain_loss", "alignment.domain_loss"),
    ("samb.trainer", "grl", "alignment.grl"),
    ("samb.model:VitSamb", "forward", "model.forward"),
    ("samb.model", "masked_attention", "attention.attn"),
    ("samb.model", "gumbel_assign", "attention.gumbel"),
    ("samb.model", "mode_masks", "attention.masks"),
    ("samb.tensor", "backward", "tensor.backward"),
    ("samb.tensor", "sgd_step", "tensor.sgd"),
    ("samb.tensor", "save_checkpoint", "tensor.ckpt_save"),
    ("samb.tensor", "load_checkpoint", "tensor.ckpt_load"),
    ("samb.data:Dataset", "load", "data.load"),
)

# generator functions: each next() on the returned iterator is one span
GENERATORS = (
    ("samb.trainer", "batch_iter", "data.batch"),
    ("samb.cli", "batch_iter", "data.batch"),
)

# span name -> layer a tape node created directly inside it belongs to
_NODE_LAYER = {
    "attention.attn": "attention",
    "model.forward": "model",
    "alignment.domain_loss": "alignment",
    "alignment.grl": "alignment",
}


_END = object()


class TraceError(RuntimeError):
    """The traced program no longer matches the tracer's wiring."""


def _resolve(owner: str):
    module_name, _, cls = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, cls) if cls else obj


def _lookup(owner: str, attr: str):
    """(object, raw attribute); a class attribute is read from the class
    dict so that a staticmethod stays recognisable."""
    obj = _resolve(owner)
    raw = obj.__dict__.get(attr) if isinstance(obj, type) else getattr(obj, attr, None)
    if raw is None:
        raise TraceError(f"{owner}.{attr} is missing: the tracer's wiring is stale")
    return obj, raw


class Tracer:
    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent, scope]
        self._stack: list[int] = []
        self._layers: list[str] = ["none"]     # layer of the innermost span
        self._forward_depth = 0
        self._category: dict[str, str] = {}    # backward_fn qualname -> op
        self._attn_index: dict[int, int] = {}   # forward span -> attn calls
        self._restore: list[tuple] = []
        self.fwd_s = defaultdict(float)   # op category -> forward seconds
        self.bwd_s = defaultdict(float)   # (layer, category) -> seconds
        self.node_layer: dict[int, str] = {}
        self.nodes_total = 0
        self.nodes_in_forward = 0
        self.backward_nodes = 0
        self.tape_bytes = 0
        self.peak_tape_bytes = 0
        self.forward_flops = 0.0
        self.flops = 0.0

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        scope = name
        if name in ("attention.attn", "attention.gumbel"):
            fwd = self._enclosing("model.forward")
            i = self._attn_index.get(fwd, 0)
            if name == "attention.attn":
                self._attn_index[fwd] = i + 1
            scope = f"block{i}.{name.split('.')[1]}"
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, scope])
        self._stack.append(idx)
        self._layers.append(_NODE_LAYER.get(name, name))
        self._forward_depth += name == "model.forward"
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        self._layers.pop()
        self._forward_depth -= self.spans[idx][0] == "model.forward"

    def _enclosing(self, name: str) -> int:
        for idx in reversed(self._stack):
            if self.spans[idx][0] == name:
                return idx
        return -1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the enclosed block."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap_span(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _wrap_generator(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                with self.span(name):
                    item = next(it, _END)
                if item is _END:
                    return
                yield item
        return wrapper

    # -- tape ---------------------------------------------------------------

    def _wrap_op(self, fn, category, nodes):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n0 = len(nodes)
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            self.fwd_s[category] += time.perf_counter() - t0
            n1 = len(nodes)
            if n1 > n0:
                layer = self._layers[-1]
                for node in nodes[n0:n1]:
                    self.node_layer[id(node)] = layer
                    self.tape_bytes += node.output.data.nbytes
                self.nodes_total += n1 - n0
                if self._forward_depth:
                    self.nodes_in_forward += n1 - n0
                if self.tape_bytes > self.peak_tape_bytes:
                    self.peak_tape_bytes = self.tape_bytes
            return out
        return wrapper

    def _wrap_clear(self, fn):
        @functools.wraps(fn)
        def wrapper():
            self.node_layer.clear()
            self.tape_bytes = 0
            return fn()
        return wrapper

    def _timed_backward_fn(self, fn, key):
        def timed(g):
            t0 = time.perf_counter()
            out = fn(g)
            self.bwd_s[key] += time.perf_counter() - t0
            return out
        return timed

    def _wrap_backward(self, fn, nodes):
        @functools.wraps(fn)
        def wrapper(loss):
            self.backward_nodes += len(nodes)
            for node in nodes:
                qualname = node.backward_fn.__qualname__
                category = self._category.get(qualname)
                if category is None:
                    op = qualname.split(".")[0]
                    category = self._category[qualname] = op if op in OP_CATEGORIES else "other"
                key = (self.node_layer.get(id(node), "none"), category)
                node.backward_fn = self._timed_backward_fn(node.backward_fn, key)
            return fn(loss)
        return wrapper

    def _wrap_forward(self, fn):
        @functools.wraps(fn)
        def wrapper(model, images, *args, **kwargs):
            self.forward_flops += model.flops_estimate(len(images))
            return fn(model, images, *args, **kwargs)
        return wrapper

    # -- install ------------------------------------------------------------

    def _wrap_named(self, fn, name, nodes):
        if name == "tensor.backward":
            fn = self._wrap_backward(fn, nodes)
        wrapped = self._wrap_span(fn, name)
        return self._wrap_forward(wrapped) if name == "model.forward" else wrapped

    def install(self):
        """Replace every traced attribute.  Each one is looked up before any
        is replaced, so a missing one raises TraceError and changes nothing."""
        T = _resolve("samb.tensor")
        nodes = T.tape().nodes
        plan = [("samb.tensor", attr, lambda fn, c=cat: self._wrap_op(fn, c, nodes))
                for attr, cat in TENSOR_OPS.items()]
        plan.append(("samb.tensor", "clear_tape", self._wrap_clear))
        plan += [(owner, attr, lambda fn, n=name: self._wrap_named(fn, n, nodes))
                 for owner, attr, name in SPANS]
        plan += [(owner, attr, lambda fn, n=name: self._wrap_generator(fn, n))
                 for owner, attr, name in GENERATORS]
        found = [(*_lookup(owner, attr), attr, make) for owner, attr, make in plan]
        for obj, raw, attr, make in found:
            static = isinstance(raw, staticmethod)
            wrapped = make(raw.__func__ if static else raw)
            setattr(obj, attr, staticmethod(wrapped) if static else wrapped)
            self._restore.append((obj, attr, raw))
        T.start_flop_count()

    def uninstall(self):
        self.flops = _resolve("samb.tensor").stop_flop_count()
        for obj, attr, raw in reversed(self._restore):
            setattr(obj, attr, raw)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "scope"],
                       "spans": self.spans}, f)

    def _durations(self):
        dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        return dur, [d - c for d, c in zip(dur, child)]

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def check_expected(self, names):
        """Raise if a layer the workload must execute recorded no call."""
        missing = [n for n in names if self.calls(n) == 0]
        if missing:
            raise TraceError(f"no calls recorded for {missing}: a traced "
                             "function was renamed or is bypassed")

    def exact_counts(self) -> dict:
        """Counts that must repeat bit-for-bit for one seed."""
        return {"tape_nodes": self.nodes_total,
                "tape_bytes": self.peak_tape_bytes,
                "matmul_flop": self.flops,
                "forwards": self.calls("model.forward"),
                "refreshes": self.calls("pseudo_label.build_table")}

    def summary(self, root: str, steps: int) -> dict:
        """Per-layer metrics; ``root`` is the span that holds the timed steps."""
        dur, self_s = self._durations()
        total = defaultdict(float)
        own = defaultdict(float)
        for s, d, o in zip(self.spans, dur, self_s):
            total[s[0]] += d
            own[s[0]] += o

        def per_step(seconds):
            return 1e3 * seconds / steps

        def per_call(name, scale=1e3):
            n = self.calls(name)
            return scale * total[name] / n if n else 0.0

        roots = [i for i, s in enumerate(self.spans) if s[0] == root]
        inside = set(roots)
        for i, s in enumerate(self.spans):
            if s[3] in inside:
                inside.add(i)
        root_s = sum(dur[i] for i in roots)
        self_sum = sum(self_s[i] for i in inside)

        def bwd(layer=None, category=None):
            return sum(v for (lay, cat), v in self.bwd_s.items()
                       if layer in (None, lay) and category in (None, cat))

        forwards = self.calls("model.forward")
        backwards = self.calls("tensor.backward")
        m = {"tensor.tape_nodes": self.nodes_total / steps,
             "tensor.backward_nodes": self.backward_nodes / backwards if backwards else 0.0}
        for cat in OP_CATEGORIES:
            m[f"tensor.fwd.{cat}_ms"] = per_step(self.fwd_s[cat])
        for cat in OP_CATEGORIES:
            m[f"tensor.bwd.{cat}_ms"] = per_step(bwd(category=cat))
        fwd_bwd = total["model.forward"] + total["tensor.backward"]
        m.update({
            "tensor.backward_ms": per_step(total["tensor.backward"]),
            "tensor.sgd_ms": per_step(total["tensor.sgd"]),
            "tensor.tape_mb": self.peak_tape_bytes / 2 ** 20,
            "tensor.matmul_mflop": self.flops / 1e6 / steps,
            "tensor.softmax_share": ((self.fwd_s["softmax"] + bwd(category="softmax"))
                                     / fwd_bwd if fwd_bwd else 0.0),
            "tensor.ckpt_save_ms": per_call("tensor.ckpt_save"),
            "tensor.ckpt_load_ms": per_call("tensor.ckpt_load"),
            "attention.fwd_ms": per_step(total["attention.attn"]),
            "attention.bwd_ms": per_step(bwd(layer="attention")),
            "attention.gumbel_ms": per_step(total["attention.gumbel"]),
            "attention.masks_ms": per_step(total["attention.masks"]),
            "model.fwd_ms": per_call("model.forward"),
            "model.fwd_self_ms": per_step(own["model.forward"]),
            "model.bwd_self_ms": per_step(bwd(layer="model")),
            "model.forwards": forwards,
            "model.nodes_per_fwd": self.nodes_in_forward / forwards if forwards else 0.0,
            "model.gflops": (self.forward_flops / total["model.forward"] / 1e9
                             if forwards else 0.0),
            "alignment.fwd_ms": per_step(total["alignment.domain_loss"]
                                         + total["alignment.grl"]),
            "alignment.bwd_ms": per_step(bwd(layer="alignment")),
            "pseudo_label.build_table_ms": per_call("pseudo_label.build_table"),
            "pseudo_label.refreshes": self.calls("pseudo_label.build_table"),
            "trainer.refresh_ms": per_call("trainer.refresh"),
            "trainer.evaluate_ms": per_call("trainer.evaluate"),
            "trainer.step_self_ms": per_step(own["trainer.run"]),
            "data.load_ms": per_call("data.load"),
            "data.batch_ms": per_call("data.batch"),
            "cli.setup_ms": 1e3 * self._cli_setup_s(),
            "cli.write_ms": 1e3 * total["cli.write"],
            "cli.export_attn_s": per_call("cli.export_attn", 1.0),
            "trace.step_ms": per_step(root_s),
            "trace.self_sum_ms": per_step(self_sum),
        })
        return m

    def _cli_setup_s(self) -> float:
        """Mean time from ``cli.main`` entry to its first trainer run or
        forward, i.e. config parsing, data loading and model set-up."""
        gaps = []
        for i, s in enumerate(self.spans):
            if s[0] != "cli.main":
                continue
            for j in range(i + 1, len(self.spans)):
                if self.spans[j][0] in ("trainer.run", "model.forward"):
                    gaps.append(self.spans[j][1] - s[1])
                    break
        return sum(gaps) / len(gaps) if gaps else 0.0
