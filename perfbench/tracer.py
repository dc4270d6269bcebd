"""Outside-in tracer for monosep: spans recorded around the package's public
functions by rebinding them in every ``monosep.*`` module namespace.

Nothing in the package is edited. ``Tracer.install`` replaces each traced
function object wherever a module namespace holds it (``from .block import
block_forward`` copies the binding, so the defining module alone is not
enough), patches three methods on their classes, and ``Tracer.uninstall``
puts every original object back. Backward time per primitive comes from
wrapping the backward closure stored on the tensor a primitive returns.

A span is ``[name, start, end, parent, op]``: times from
``time.perf_counter``, ``parent`` the index of the enclosing span (-1 at
top level) and ``op`` the id of the benchmark operation it belongs to
(``None`` outside one). Spans stay in memory until ``write`` is called.

FLOP and byte figures are computed from operand shapes (the arithmetic a
kernel must do and the bytes it must read and write once); they are not
measured cache or memory traffic.

Which end-to-end metric each layer metric should move, and where:

- ``autodiff.<kernel>.fwd_ms``: ``op_ms_p50``/``rtf`` on separate_S;
  ``.bwd_ms``: ``ops_per_s`` on train_wide. Kernel work should leave
  train_tiny unchanged.
- ``autodiff.layout.*``: separate_S and train_wide (frames-major layout).
- ``autodiff.us_per_op``, ``autodiff.ops``, ``autodiff.tape_nodes``:
  ``op_ms_p50`` on train_tiny (per-op overhead); ``autodiff.tape_mb``:
  ``peak_rss_mb`` on train_wide.
- ``attention.*``, ``conv_module.*``, ``block.*``, ``masking.*``,
  ``codec.*``, ``model.separate_ms``: separate_S.
- ``train.*`` and ``losses.pit_loss_ms``: ``ops_per_s`` on train_tiny.
- ``checkpoint.*`` and ``audio.*``: ``op_ms_p50`` on separate_S (about
  2%) and ``setup_s``.
"""

from __future__ import annotations

import collections
import functools
import gzip
import json
import math
import statistics
import sys
import time

# autodiff primitives -> kernel family reported under autodiff.<family>
PRIMITIVES = {
    "depthwise_conv1d": "depthwise_conv1d",
    "matmul": "matmul",
    "conv1d": "conv1d",
    "transposed_conv1d": "transposed_conv1d",
    "layer_norm": "layer_norm",
    **{name: "layout" for name in
       ("transpose", "permute", "reshape", "narrow", "pad_axis_end")},
    # elementwise arithmetic, reductions, activations, dropout, custom ops;
    # activation() is traced itself because its kind table holds the
    # original activation functions
    **{name: "pointwise" for name in
       ("add", "sub", "mul", "div", "neg", "log", "sum_all", "mean_all",
        "relu", "relu_squared", "sigmoid", "silu", "gelu", "activation",
        "dropout", "make_op")},
}
KERNELS = ("depthwise_conv1d", "matmul", "conv1d", "transposed_conv1d",
           "layer_norm", "layout", "pointwise")
FLOP_KERNELS = ("depthwise_conv1d", "matmul", "conv1d", "transposed_conv1d")
RATE_KERNELS = ("depthwise_conv1d", "matmul")

# (module, function) -> span name
SCOPES = {
    ("attention", "joint_attention"): "attention.joint",
    ("attention", "local_attention"): "attention.local",
    ("attention", "global_attention"): "attention.global",
    ("attention", "rope"): "attention.rope",
    ("conv_module", "conv_module_forward"): "conv_module.forward",
    ("block", "block_forward"): "block.forward",
    ("masking", "masking_net_forward"): "masking.forward",
    ("codec", "encode"): "codec.encode",
    ("codec", "decode"): "codec.decode",
    ("model", "separate"): "model.separate",
    ("losses", "pit_loss"): "losses.pit_loss",
    ("train", "clip_gradient_norm"): "train.clip",
    ("train", "dataset_loss"): "train.validate",
    ("checkpoint", "load_checkpoint"): "checkpoint.load",
    ("checkpoint", "restore_model"): "checkpoint.restore",
    ("checkpoint", "save_checkpoint"): "checkpoint.save",
    ("audio", "read_wav"): "audio.read",
    ("audio", "write_wav"): "audio.write",
}

# (module, class, method) -> span name
METHODS = {
    ("autodiff", "Tape", "backward"): "autodiff.backward",
    ("train", "Adam", "step"): "train.adam_step",
    ("autodiff", "ParamStore", "zero_grad"): "train.zero_grad",
}

# scope spans reported as inclusive time per op
SCOPE_METRICS = {
    "attention.joint": "attention.joint_ms",
    "attention.local": "attention.local_ms",
    "attention.global": "attention.global_ms",
    "attention.rope": "attention.rope_ms",
    "conv_module.forward": "conv_module.forward_ms",
    "block.forward": "block.forward_ms",
    "masking.forward": "masking.forward_ms",
    "codec.encode": "codec.encode_ms",
    "codec.decode": "codec.decode_ms",
    "model.separate": "model.separate_ms",
    "losses.pit_loss": "losses.pit_loss_ms",
    "train.adam_step": "train.adam_step_ms",
    "train.clip": "train.clip_ms",
    "train.zero_grad": "train.zero_grad_ms",
    "train.validate": "train.validate_ms",
    "checkpoint.load": "checkpoint.load_ms",
    "checkpoint.restore": "checkpoint.restore_ms",
    "checkpoint.save": "checkpoint.save_ms",
    "audio.read": "audio.read_ms",
    "audio.write": "audio.write_ms",
    "autodiff.backward": "autodiff.backward_ms",
}


def kernel_cost(family: str, args, out) -> tuple[int, int]:
    """Forward FLOPs and compulsory bytes of one kernel call, from shapes;
    operands are tensors or arrays."""
    if family == "matmul":
        flop = 2 * math.prod(out.shape) * args[0].shape[-1]
        operands = (args[0], args[1])
    elif family == "depthwise_conv1d":
        flop = 2 * math.prod(args[0].shape) * args[1].shape[1]
        operands = (args[0], args[1])
    elif family == "conv1d":
        _, cin, k = args[1].shape
        flop = 2 * math.prod(out.shape) * cin * k
        operands = (args[0], args[1], args[2])
    else:  # transposed_conv1d
        cin, length = args[0].shape
        _, cout, k = args[1].shape
        flop = 2 * cin * cout * k * length
        operands = (args[0], args[1])
    elems = sum(math.prod(a.shape) for a in operands) + math.prod(out.shape)
    return flop, elems * out.dtype.itemsize


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children = collections.defaultdict(list)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child in sorted(children.get(index, ()),
                            key=lambda c: spans[c][1]):
            lo = max(spans[child][1], reach)
            hi = min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def namespace_snapshot() -> dict:
    """Every function and class bound in a monosep module, and every traced
    method, by identity (module-level data the package itself updates, such
    as counters, is left out)."""
    snap = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "monosep" or mod_name.startswith("monosep."):
            for key, value in vars(module).items():
                if callable(value):
                    snap[(mod_name, key)] = value
    for mod, cls, meth in METHODS:
        klass = getattr(sys.modules[f"monosep.{mod}"], cls)
        snap[(f"monosep.{mod}.{cls}", meth)] = klass.__dict__[meth]
    return snap


class Tracer:
    """Span recorder with per-op counters; install() / uninstall() bracket
    the traced phase."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = collections.defaultdict(collections.Counter)
        self.op = None
        self.op_ids: list = []
        self._steps = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- operation boundaries -------------------------------------------

    def begin_op(self, op_id) -> None:
        """Attribute the spans and counts that follow to op ``op_id``."""
        self.op = op_id
        self.op_ids.append(op_id)

    def end_op(self) -> None:
        self.op = None

    # -- span recording -------------------------------------------------

    def _open(self, name) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(index)
        return index

    def _close(self, index) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()

    def span(self, name, fn, *args, **kwargs):
        """Run fn inside a span recorded from the benchmark's own code."""
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def _scope(self, name, fn, on_call=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)
        return wrapper

    def _primitive(self, prim, family, fn, tensor_type):
        name = f"autodiff.{prim}"
        bwd_name = f"autodiff.{family}.bwd"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(index)
            counts = self.counts[self.op]
            counts["autodiff.ops"] += 1
            if family in FLOP_KERNELS:
                flop, nbytes = kernel_cost(family, args, out)
                counts[f"autodiff.{family}.flop"] += flop
                counts[f"autodiff.{family}.bytes"] += nbytes
            if (isinstance(out, tensor_type) and out._backward is not None
                    and not any(out is a for a in args)):
                counts["tape_bytes"] += out.data.nbytes
                out._backward = self._backward(bwd_name, out._backward)
            return out
        return wrapper

    def _backward(self, name, closure):
        def backward(g):
            index = self._open(name)
            try:
                return closure(g)
            finally:
                self._close(index)
        return backward

    def _count_chunks(self, args, kwargs):
        frames = args[0].shape[0]
        size = kwargs.get("chunk_size", args[4] if len(args) > 4 else None)
        self.counts[self.op]["attention.local_chunks"] += -(-frames // size)

    def _count_nodes(self, args, kwargs):
        self.counts[self.op]["autodiff.tape_nodes"] += len(args[0])

    def _next_step(self, args, kwargs):
        self.begin_op(self._steps)
        self._steps += 1

    # -- installation ---------------------------------------------------

    def install(self, step_ops: bool = False) -> None:
        """Rebind every traced function and method. With ``step_ops``, each
        ParamStore.zero_grad call (the start of an optimizer step) opens a
        new op."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        ad = sys.modules["monosep.autodiff"]
        replace = {}
        for prim, family in PRIMITIVES.items():
            orig = getattr(ad, prim)
            replace[id(orig)] = (orig, self._primitive(prim, family, orig,
                                                       ad.Tensor))
        for (mod, fn_name), span_name in SCOPES.items():
            orig = getattr(sys.modules[f"monosep.{mod}"], fn_name)
            hook = self._count_chunks if span_name == "attention.local" else None
            replace[id(orig)] = (orig, self._scope(span_name, orig, hook))
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "monosep" or mod_name.startswith("monosep."):
                for key, value in list(vars(module).items()):
                    hit = replace.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._saved.append((module, key, value))
                        setattr(module, key, hit[1])
        for (mod, cls, meth), span_name in METHODS.items():
            klass = getattr(sys.modules[f"monosep.{mod}"], cls)
            orig = klass.__dict__[meth]
            hook = {"autodiff.backward": self._count_nodes,
                    "train.zero_grad": self._next_step if step_ops else None,
                    }.get(span_name)
            self._saved.append((klass, meth, orig))
            setattr(klass, meth, self._scope(span_name, orig, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, key, orig = self._saved.pop()
            setattr(owner, key, orig)

    # -- results --------------------------------------------------------

    def per_layer(self, ops) -> dict[str, float]:
        """Per-layer metrics over the given op ids: per-op sums of times and
        counts, reported as the median over ops."""
        ops = list(ops)
        per_op = {op: collections.Counter() for op in ops}
        fwd_s = 0.0
        for (name, start, end, _, op), own in zip(self.spans,
                                                  self_times(self.spans)):
            bucket = per_op.get(op)
            if bucket is None:
                continue
            family = PRIMITIVES.get(name.removeprefix("autodiff."))
            if name.endswith(".bwd"):
                bucket[name + "_ms"] += own * 1e3
            elif family is not None:
                bucket[f"autodiff.{family}.fwd_ms"] += own * 1e3
                fwd_s += own
            elif name in SCOPE_METRICS:
                bucket[SCOPE_METRICS[name]] += (end - start) * 1e3
        for op, bucket in per_op.items():
            bucket.update(self.counts.get(op, {}))
            bucket["autodiff.tape_mb"] = bucket["tape_bytes"] / 1e6
            bucket["masking.head_ms"] = (bucket["masking.forward_ms"]
                                         - bucket["block.forward_ms"])

        def median(key):
            return statistics.median(b[key] for b in per_op.values()) \
                if ops else 0.0

        def total(key):
            return sum(b[key] for b in per_op.values())

        names = [f"autodiff.{family}.{part}" for family in KERNELS
                 for part in ("fwd_ms", "bwd_ms")]
        names += [f"autodiff.{family}.{part}" for family in FLOP_KERNELS
                  for part in ("flop", "bytes")]
        names += ["autodiff.ops", "autodiff.tape_nodes", "autodiff.tape_mb",
                  "attention.local_chunks", "masking.head_ms",
                  *SCOPE_METRICS.values()]
        metrics = {key: median(key) for key in names}
        for family in RATE_KERNELS:
            secs = total(f"autodiff.{family}.fwd_ms") / 1e3
            metrics[f"autodiff.{family}.gflops"] = (
                total(f"autodiff.{family}.flop") / secs / 1e9 if secs else 0.0)
        calls = total("autodiff.ops")
        metrics["autodiff.us_per_op"] = fwd_s / calls * 1e6 if calls else 0.0
        # validation runs once per epoch, so its per-op median is zero:
        # report its mean share of a step instead
        metrics["train.validate_ms"] = (total("train.validate_ms") / len(ops)
                                        if ops else 0.0)
        return metrics

    def self_time_shares(self, ops, top: int = 8) -> list[tuple[str, float]]:
        """Largest total self times over the given ops, in ms per op."""
        ops = set(ops)
        totals = collections.Counter()
        for span, own in zip(self.spans, self_times(self.spans)):
            if span[4] in ops:
                totals[span[0]] += own * 1e3
        n = max(1, len(ops))
        return [(name, ms / n) for name, ms in totals.most_common(top)]

    def write(self, path) -> None:
        """Spans as gzip JSON lines: name, start, end, parent, op."""
        with gzip.open(path, "wt") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
