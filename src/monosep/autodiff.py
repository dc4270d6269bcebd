"""Reverse-mode automatic differentiation over numpy arrays.

Define-by-run: primitives executed while a ``Tape`` is active append a node
holding a backward closure; ``Tape.backward`` replays the nodes in exact
reverse execution order, accumulating gradients into every tensor on the
path to the loss. Without an active tape the same primitives run as plain
numpy forward code, so one implementation serves training, evaluation and
the finite-difference oracle.

Every primitive has the same shape: it computes its forward array, defines
a ``backward(g)`` closure that pushes gradients into its inputs with
``_accum``, and returns ``_op(data, inputs, backward)``. ``_op`` is the one
registration point: it wraps the array and, only when a tape is active and
some input requires grad, marks the output and appends it to the tape.
Code outside this module registers fused primitives through ``make_op``.

Shape conventions follow the rest of the package: sequences are (frames,
features), and every convolution (``conv1d``, ``transposed_conv1d``,
``depthwise_conv1d``) runs over frames with no transpose around it. Element
precision is whatever dtype the arrays carry; tests use float64, training
may use float32.
"""

from __future__ import annotations

import contextvars
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, NumericalError

# per thread: one thread's forward never records into another thread's tape
_active_tape: contextvars.ContextVar["Tape | None"] = contextvars.ContextVar(
    "monosep_active_tape", default=None)


class Tensor:
    """A numpy array plus a gradient slot and an optional backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_backward")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{tag})"

    # operator sugar; all routed through the module-level primitives
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


class Tape:
    """Ordered record of executed primitives for one forward pass.

    Use as a context manager; a tape is rebuilt per forward pass and records
    only the primitives run by the thread that entered it. Leaving a nested
    tape makes the enclosing one active again.
    """

    def __init__(self):
        self._nodes: list[Tensor] = []
        self._token: contextvars.Token | None = None

    def __enter__(self) -> "Tape":
        self._token = _active_tape.set(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _active_tape.reset(self._token)
        return False

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, root: Tensor) -> None:
        """Seed d(root)/d(root) = 1 and visit nodes in reverse execution order."""
        if root.data.ndim != 0:
            raise DimensionError(
                f"backward root must be scalar, got shape {root.data.shape}"
            )
        if not np.isfinite(root.data):
            raise NumericalError(f"backward root is non-finite: {root.data}")
        seed = np.ones((), dtype=root.data.dtype)
        root.grad = seed if root.grad is None else root.grad + seed
        for node in reversed(self._nodes):
            if node.grad is not None and node._backward is not None:
                node._backward(node.grad)


def as_tensor(x) -> Tensor:
    """Wrap scalars / numpy arrays as constant tensors; pass tensors through."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x))


def _pair(a, b) -> tuple[Tensor, Tensor]:
    """Wrap binary operands; Python scalars adopt the tensor side's dtype so
    constants like 1/S never upcast a float32 graph (mirrors numpy's weak
    scalar promotion, which is lost once the scalar becomes a 0-d array)."""
    if isinstance(a, Tensor) and isinstance(b, (int, float)):
        return a, Tensor(np.asarray(b, dtype=a.data.dtype))
    if isinstance(b, Tensor) and isinstance(a, (int, float)):
        return Tensor(np.asarray(a, dtype=b.data.dtype)), b
    return as_tensor(a), as_tensor(b)


def constant(x, dtype=None) -> Tensor:
    return Tensor(np.asarray(x, dtype=dtype))


def _op(data, inputs: Iterable[Tensor],
        backward: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap a primitive's forward array; record it on the active tape when
    any input requires grad. The only code that appends tape nodes."""
    out = Tensor(data)
    tape = _active_tape.get()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._backward = backward
        tape._nodes.append(out)
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    # never in-place: g may alias another node's grad buffer
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _pair(a, b)

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.data.shape))

    return _op(a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _pair(a, b)

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g, b.data.shape))

    return _op(a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _pair(a, b)

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return _op(a.data * b.data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = _pair(a, b)

    def backward(g):
        if a.requires_grad:
            _accum(a, _unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _op(a.data / b.data, (a, b), backward)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accum(a, -g)

    return _op(-a.data, (a,), backward)


# ---------------------------------------------------------------------------
# linear algebra and shape ops
# ---------------------------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(
            f"matmul inner axes disagree: {a.data.shape} @ {b.data.shape}"
        )
    if a.data.ndim == 3 and b.data.ndim == 3 and a.data.shape[0] != b.data.shape[0]:
        raise DimensionError(
            f"matmul batch axes disagree: {a.data.shape[0]} vs {b.data.shape[0]}"
        )

    def backward(g):
        if a.requires_grad:
            _accum(a, g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            _accum(b, np.swapaxes(a.data, -1, -2) @ g)

    return _op(a.data @ b.data, (a, b), backward)


def transpose(a) -> Tensor:
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise DimensionError(f"transpose expects a 2-D tensor, got {a.data.shape}")

    def backward(g):
        _accum(a, g.T)

    return _op(a.data.T, (a,), backward)


def permute(a, axes: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)

    def backward(g):
        _accum(a, np.transpose(g, np.argsort(axes)))

    return _op(np.transpose(a.data, axes), (a,), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accum(a, g.reshape(a.data.shape))

    return _op(a.data.reshape(shape), (a,), backward)


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Slice ``length`` entries from ``start`` along ``axis``."""
    a = as_tensor(a)
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def backward(g):
        full = np.zeros_like(a.data)
        full[idx] = g
        _accum(a, full)

    return _op(a.data[idx], (a,), backward)


def pad_axis_end(a, axis: int, extra: int) -> Tensor:
    """Append ``extra`` zeros at the end of ``axis``."""
    a = as_tensor(a)
    if extra == 0:
        return a
    widths = [(0, 0)] * a.data.ndim
    widths[axis] = (0, extra)

    def backward(g):
        idx = [slice(None)] * a.data.ndim
        idx[axis] = slice(0, a.data.shape[axis])
        _accum(a, g[tuple(idx)])

    return _op(np.pad(a.data, widths), (a,), backward)


def sum_all(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accum(a, np.broadcast_to(g, a.data.shape))

    return _op(a.data.sum(), (a,), backward)


def mean_all(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accum(a, np.broadcast_to(g / a.data.size, a.data.shape))

    return _op(a.data.mean(), (a,), backward)


def log(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accum(a, g / a.data)

    return _op(np.log(a.data), (a,), backward)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def relu(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accum(a, g * (a.data > 0))

    return _op(np.maximum(a.data, 0), (a,), backward)


def relu_squared(a) -> Tensor:
    a = as_tensor(a)
    pos = np.maximum(a.data, 0)

    def backward(g):
        _accum(a, g * (2.0 * pos))

    return _op(pos * pos, (a,), backward)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    s = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        _accum(a, g * (s * (1.0 - s)))

    return _op(s, (a,), backward)


def silu(a) -> Tensor:
    a = as_tensor(a)
    s = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        _accum(a, g * (s * (1.0 + a.data * (1.0 - s))))

    return _op(a.data * s, (a,), backward)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(a) -> Tensor:
    """GELU, tanh approximation (keeps the package free of an erf dependency)."""
    a = as_tensor(a)
    x = a.data
    inner = _GELU_C * (x + _GELU_A * x * x * x)
    t = np.tanh(inner)

    def backward(g):
        d_inner = _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
        _accum(a, g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner))

    return _op(0.5 * x * (1.0 + t), (a,), backward)


_ACTIVATIONS = {
    "relu": relu,
    "relu_squared": relu_squared,
    "sigmoid": sigmoid,
    "silu": silu,
    "swish": silu,
    "gelu": gelu,
    "bilinear": lambda a: as_tensor(a),  # identity: gate stays a plain product
}


def activation(kind: str, a) -> Tensor:
    try:
        fn = _ACTIVATIONS[kind]
    except KeyError:
        raise ConfigError(
            f"unknown activation {kind!r}; expected one of {sorted(_ACTIVATIONS)}"
        ) from None
    return fn(a)


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------


def dropout(a, p: float, rng: np.random.Generator | None, train: bool) -> Tensor:
    """Inverted dropout: scale by 1/(1-p) at train time, identity at eval."""
    a = as_tensor(a)
    if not train or p == 0.0:
        return a
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if rng is None:
        raise ConfigError("training-mode dropout needs an explicit RNG")
    keep = (rng.random(a.data.shape) >= p).astype(a.data.dtype)
    keep /= 1.0 - p

    def backward(g):
        _accum(a, g * keep)

    return _op(a.data * keep, (a,), backward)


# ---------------------------------------------------------------------------
# convolutions
# ---------------------------------------------------------------------------


def _frame_contract(x: np.ndarray, w: np.ndarray,
                    stride: int) -> tuple[np.ndarray, np.ndarray]:
    """out[t, o] = sum_{i,k} w[o, i, k] * x[t*stride + k, i]; x (L, I),
    w (O, I, K). Returns out (n, O), n = (L - K) // stride + 1, and the
    (n, I, K) window view that weight gradients contract against."""
    n_out, n_in, K = w.shape
    win = np.lib.stride_tricks.sliding_window_view(x, K, axis=0)[::stride]
    cols = np.ascontiguousarray(win).reshape(len(win), n_in * K)
    return cols @ w.reshape(n_out, n_in * K).T, win


def _contract_overlap_add(y: np.ndarray, w: np.ndarray, stride: int,
                          length: int) -> np.ndarray:
    """out[t*stride + k, o] += sum_i y[t, i] * w[i, o, k], the adjoint of
    _frame_contract in x; y (n, I), w (I, O, K) -> out (length, O)."""
    n, n_in = y.shape
    _, n_out, K = w.shape
    spread = (y @ w.reshape(n_in, n_out * K)).reshape(n, n_out, K)
    out = np.zeros((length, n_out), dtype=spread.dtype)
    span = stride * (n - 1) + 1
    for k in range(K):
        out[k : k + span : stride] += spread[:, :, k]
    return out


def conv1d(x, weight, bias, stride: int) -> Tensor:
    """Strided 1-D convolution over frames. x (L, Cin), weight (Cout, Cin, K),
    bias (Cout,) -> (Lout, Cout).

    out[t, c] = bias[c] + sum_{i,k} weight[c, i, k] * x[t*stride + k, i]
    Lout = (L - K) // stride + 1.
    """
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    if x.data.ndim != 2 or weight.data.ndim != 3:
        raise DimensionError(
            "conv1d expects x (L, Cin) and weight (Cout, Cin, K); "
            f"got {x.data.shape} and {weight.data.shape}"
        )
    L, cin = x.data.shape
    cout, w_cin, K = weight.data.shape
    if w_cin != cin:
        raise DimensionError(
            f"conv1d channel axes disagree: x has Cin={cin}, weight has Cin={w_cin}"
        )
    if bias.data.shape != (cout,):
        raise DimensionError(
            f"conv1d bias axis disagrees: expected ({cout},), got {bias.data.shape}"
        )
    if L < K:
        raise DimensionError(f"conv1d input length {L} shorter than kernel {K}")
    if stride < 1:
        raise ConfigError(f"conv1d stride must be >= 1, got {stride}")

    out_data, win = _frame_contract(x.data, weight.data, stride)
    out_data += bias.data

    def backward(g):
        if bias.requires_grad:
            _accum(bias, g.sum(axis=0))
        if weight.requires_grad:
            _accum(weight, np.tensordot(g, win, axes=(0, 0)))
        if x.requires_grad:
            _accum(x, _contract_overlap_add(g, weight.data, stride, L))

    return _op(out_data, (x, weight, bias), backward)


def transposed_conv1d(x, weight, stride: int) -> Tensor:
    """Adjoint of conv1d over frames. x (L, Cin), weight (Cin, Cout, K)
    -> (Lout, Cout).

    Lout = (L - 1) * stride + K; out[t*stride + k, o] += x[t, i] * weight[i, o, k].
    """
    x, weight = as_tensor(x), as_tensor(weight)
    if x.data.ndim != 2 or weight.data.ndim != 3:
        raise DimensionError(
            "transposed_conv1d expects x (L, Cin) and weight (Cin, Cout, K); "
            f"got {x.data.shape} and {weight.data.shape}"
        )
    L, cin = x.data.shape
    w_cin, _, K = weight.data.shape
    if w_cin != cin:
        raise DimensionError(
            f"transposed_conv1d channel axes disagree: x has Cin={cin}, "
            f"weight has Cin={w_cin}"
        )
    if stride < 1:
        raise ConfigError(f"transposed_conv1d stride must be >= 1, got {stride}")

    lout = (L - 1) * stride + K
    out_data = _contract_overlap_add(x.data, weight.data, stride, lout)

    def backward(g):
        gx, win = _frame_contract(g, weight.data, stride)
        if x.requires_grad:
            _accum(x, gx)
        if weight.requires_grad:
            _accum(weight, np.tensordot(x.data, win, axes=(0, 0)))

    return _op(out_data, (x, weight), backward)


# cache budget for one block of depthwise output frames: all K taps
# accumulate into the block while it stays resident
_DEPTHWISE_BLOCK_BYTES = 256 * 1024


def _depthwise_frames(xp: np.ndarray, taps: np.ndarray, L: int) -> np.ndarray:
    """out[s] = sum_k taps[k] * xp[s + k] for s < L, accumulated in k order.

    xp (L + K - 1, C) is frame-padded input, taps (K, C) one weight row per
    tap. Output frames go in blocks of at most _DEPTHWISE_BLOCK_BYTES; a
    width whose whole output fits the budget runs as a single block.
    """
    K, C = taps.shape
    out = np.empty((L, C), dtype=np.result_type(xp, taps))
    rows = max(1, _DEPTHWISE_BLOCK_BYTES // max(1, C * out.itemsize))
    for s0 in range(0, L, rows):
        block = out[s0 : s0 + rows]
        n = len(block)
        np.multiply(taps[0], xp[s0 : s0 + n], out=block)
        for k in range(1, K):
            block += taps[k] * xp[s0 + k : s0 + k + n]
    return out


def depthwise_conv1d(x, weight) -> Tensor:
    """Per-channel same-length convolution over frames. x (L, C), weight
    (C, K), K odd -> (L, C).

    Symmetric zero padding of (K-1)/2 frames on each side keeps the output
    length L; channel c of the output depends only on channel c of the input.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise DimensionError(
            f"depthwise_conv1d expects x (L, C) and weight (C, K); "
            f"got {x.data.shape} and {weight.data.shape}"
        )
    L, C = x.data.shape
    w_c, K = weight.data.shape
    if w_c != C:
        raise DimensionError(
            f"depthwise_conv1d channel axes disagree: x has C={C}, weight has C={w_c}"
        )
    if K % 2 == 0:
        raise ConfigError(f"depthwise kernel size must be odd, got {K}")

    pad = (K - 1) // 2
    xp = np.pad(x.data, ((pad, pad), (0, 0)))
    taps = np.ascontiguousarray(weight.data.T)
    out_data = _depthwise_frames(xp, taps, L)

    def backward(g):
        if weight.requires_grad:
            gw = np.empty_like(weight.data)
            for k in range(K):
                gw[:, k] = np.einsum("sc,sc->c", g, xp[k : k + L])
            _accum(weight, gw)
        if x.requires_grad:
            # the adjoint of a symmetric same-length correlation is the
            # same correlation with the taps reversed
            _accum(x, _depthwise_frames(np.pad(g, ((pad, pad), (0, 0))),
                                        taps[::-1], L))

    return _op(out_data, (x, weight), backward)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Per-frame layer normalization over the feature axis.

    x (S, N), gain (N,), bias (N,): each frame is centered, scaled to unit
    variance (guarded by eps), then affinely transformed.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    if x.data.ndim != 2:
        raise DimensionError(f"layer_norm expects x (S, N), got {x.data.shape}")
    N = x.data.shape[1]
    if gain.data.shape != (N,) or bias.data.shape != (N,):
        raise DimensionError(
            f"layer_norm gain/bias must be ({N},), got "
            f"{gain.data.shape} and {bias.data.shape}"
        )
    mean = x.data.mean(axis=1, keepdims=True)
    centered = x.data - mean
    var = (centered * centered).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std

    def backward(g):
        if bias.requires_grad:
            _accum(bias, g.sum(axis=0))
        if gain.requires_grad:
            _accum(gain, (g * xhat).sum(axis=0))
        if x.requires_grad:
            gh = g * gain.data
            # d/dx of (x - mean) * inv_std, both mean and var depend on x
            gx = inv_std * (
                gh
                - gh.mean(axis=1, keepdims=True)
                - xhat * (gh * xhat).mean(axis=1, keepdims=True)
            )
            _accum(x, gx)

    return _op(xhat * gain.data + bias.data, (x, gain, bias), backward)


def linear(x, weight, bias) -> Tensor:
    """Per-frame affine map: x (S, N_in) @ weight (N_out, N_in)^T + bias."""
    y = matmul(x, transpose(weight))
    return add(y, bias)


# ---------------------------------------------------------------------------
# custom op hook (used by rope in the attention module)
# ---------------------------------------------------------------------------


def make_op(data: np.ndarray, inputs: Iterable[Tensor],
            backward: Callable[[np.ndarray], None]) -> Tensor:
    """Register a fused primitive: forward result + backward closure.

    The closure receives the output gradient and must push gradients into
    its inputs via ``accumulate_grad``.
    """
    return _op(data, inputs, backward)


def accumulate_grad(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad`` without aliasing; for make_op closures."""
    _accum(t, g)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


class ParamStore:
    """Named trainable tensors with paired gradient slots.

    Names are unique and hierarchical ("block0.convm_u.proj_w"); every entry
    keeps a gradient of the same shape as its value.
    """

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self._entries: dict[str, Tensor] = {}

    def add(self, name: str, value, trainable: bool = True) -> Tensor:
        if name in self._entries:
            raise ConfigError(f"duplicate parameter name {name!r}")
        # np.array rather than ascontiguousarray: the latter turns 0-d into (1,)
        t = Tensor(
            np.array(value, dtype=self.dtype, order="C"),
            requires_grad=trainable,
            name=name,
        )
        t.grad = np.zeros_like(t.data)
        self._entries[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> list[str]:
        return list(self._entries)

    def items(self):
        return self._entries.items()

    def tensors(self) -> list[Tensor]:
        return list(self._entries.values())

    def trainable(self):
        return [(n, t) for n, t in self._entries.items() if t.requires_grad]

    def zero_grad(self) -> None:
        for t in self._entries.values():
            t.grad = np.zeros_like(t.data)

    def total_scalars(self, trainable_only: bool = True) -> int:
        return sum(
            t.data.size
            for t in self._entries.values()
            if t.requires_grad or not trainable_only
        )

    def grad_norm(self) -> float:
        total = 0.0
        for _, t in self.trainable():
            if t.grad is not None:
                total += float(np.dot(t.grad.ravel(), t.grad.ravel()))
        return math.sqrt(total)

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        missing = set(self._entries) - set(arrays)
        extra = set(arrays) - set(self._entries)
        if missing or extra:
            raise ConfigError(
                f"parameter set mismatch: missing={sorted(missing)} extra={sorted(extra)}"
            )
        for n, t in self._entries.items():
            src = np.asarray(arrays[n], dtype=self.dtype)
            if src.shape != t.data.shape:
                raise DimensionError(
                    f"parameter {n!r} shape mismatch: {src.shape} vs {t.data.shape}"
                )
            t.data = np.ascontiguousarray(src)


# ---------------------------------------------------------------------------
# finite-difference gradient checking
# ---------------------------------------------------------------------------


def gradient_check(
    f: Callable[[ParamStore], Tensor],
    params: ParamStore,
    h: float = 1e-5,
    rel_floor: float = 1e-8,
    verbose: bool = False,
) -> float:
    """Compare reverse-mode gradients against central finite differences.

    Runs f once under a tape for analytic gradients, then perturbs every
    trainable scalar by +/-h and recomputes f without a tape. Returns the
    worst relative error max(|a - n| / max(|a|, |n|, rel_floor)).
    """
    if params.dtype != np.float64:
        raise ConfigError("gradient_check requires a float64 ParamStore")
    if not 1e-6 <= h <= 1e-4:
        raise ConfigError(f"step size h must lie in [1e-6, 1e-4], got {h}")

    params.zero_grad()
    with Tape() as tape:
        loss = f(params)
        tape.backward(loss)
    analytic = {n: t.grad.copy() for n, t in params.trainable()}

    worst = 0.0
    worst_at = ""
    for name, t in params.trainable():
        flat = t.data.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = float(f(params).data)
            flat[i] = orig - h
            f_minus = float(f(params).data)
            flat[i] = orig
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise NumericalError(
                    f"non-finite loss while perturbing {name}[{i}]"
                )
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = float(a_flat[i])
            if not math.isfinite(a):
                raise NumericalError(f"non-finite analytic gradient at {name}[{i}]")
            rel = abs(a - numeric) / max(abs(a), abs(numeric), rel_floor)
            if rel > worst:
                worst = rel
                worst_at = f"{name}[{i}]"
        if verbose:
            print(f"gradient_check: done {name}, worst so far {worst:.3e} at {worst_at}")
    if verbose and worst_at:
        print(f"gradient_check: max relative error {worst:.3e} at {worst_at}")
    return worst
