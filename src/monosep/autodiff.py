"""Reverse-mode automatic differentiation over numpy arrays.

Define-by-run: primitives executed while a ``Tape`` is active append a node
holding a backward closure; ``Tape.backward`` replays the nodes in exact
reverse execution order, accumulating gradients into every input on the
path to the loss. Without an active tape the same primitives run as plain
numpy forward code, so one implementation serves training, evaluation and
the finite-difference oracle.

Tape nodes are apart from tensors. A recorded op's node holds only its
output's gradient slot, its backward closure and where its inputs'
gradients go; the ``Tensor`` it returns
holds the output array and points to the node. The tape holds nodes, so an
output array lives only as long as the model code or some closure keeps it.

Every primitive has the same shape: it computes its forward array, defines
a ``backward(g)`` closure that returns its input gradients, one per input
in input order (None for an input that needs none), and returns
``_op(data, inputs, backward)``, as ``torch.autograd.Function.backward``
and ``jax.vjp`` do. A closure captures the arrays that the gradients it
computes read (``mul`` keeps ``b`` for ``a``'s gradient and ``a`` for
``b``'s, ``silu`` its input, ``relu`` its output, ``add`` and ``reshape``
nothing) and which inputs need a gradient, and nothing else: never an
input ``Tensor``, which would keep that input's array alive until
backward. ``_op`` is the one registration point: it wraps the array and,
only when a tape is active and some input requires grad, gives the output
a node holding the closure and each input's gradient destination (the
input's node, the leaf tensor itself, or None), and appends the node to
the tape.
``Tape.backward`` is the only place gradients are added into those
destinations. Code outside this module registers fused primitives, with
one output or several, through ``make_op``. ``Tensor`` has no operator
overloads: every op is a call to a named primitive.

Backward consumes the tape, like PyTorch's default (``retain_graph=False``):
it pops each node, and once the node's closure has run drops its gradient
and closure, so every array that only backward needed is freed as backward
goes rather than when the tape is dropped. Non-leaf gradients are not kept;
leaf tensors (parameters, and inputs made with ``requires_grad=True``
outside the tape) keep theirs. A second ``backward`` on the same tape
raises ``TapeError``.

Shape conventions follow the rest of the package: sequences are (frames,
features), and every convolution (``conv1d``, ``transposed_conv1d``,
``depthwise_conv1d``) takes and returns frames-major arrays. Element
precision is whatever dtype the arrays carry; models default to float32,
and ``gradient_check`` needs float64.

``depthwise_conv1d`` is one batched BLAS GEMM per call (im2col): inside the
kernel the input is packed channel-major and zero-padded, cut into blocks
of B = K + 1 output frames, and each block's B + K - 1 frame window is
multiplied by a banded Toeplitz matrix of its channel's taps. Backward
packs again from the input the tape already holds, so no packed copy
outlives the call: the x-gradient is the same GEMM with the taps reversed,
and the weight gradient one GEMM whose K diagonals are summed. The packing
stays private to the kernel, like ``conv1d``'s im2col copy.
Outputs match the tap-by-tap sum within a relative 1e-13 (float64) or 1e-5
(float32) per frame rather than bitwise, and a non-finite input entry
poisons its whole frame block (0 * inf is NaN), not just its K neighbours.

``conv_stage`` is a convolution module's layer_norm -> linear -> silu ->
depthwise_conv1d, with the skip folded into the centre tap, as one
primitive. It runs the private kernels those primitives run
(``_normalize``, ``_affine``, ``_matmul_grads``, ``_silu_grad``,
``_depthwise_pack``, ``_depthwise_grads``), so its output and gradients
are bitwise theirs, but keeps only the normalized input, its 1/sigma and
the pre-activation for backward, which rebuilds the norm output, the
logistic and the silu output from them (selective recomputation, after
Korthikanti et al. 2022): no GEMM runs twice.

Reductions avoid numpy's axis sums, which cost several times a BLAS call
at (frames, features) shapes: a plain sum over frames or features (bias
gradients, broadcast gradients, ``layer_norm``'s means) is one
matrix-vector product with a ones or 1/N vector, and a dot-product
reduction (``layer_norm``'s variance and projections) is one ``np.einsum``.
"""

from __future__ import annotations

import contextvars
import math
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, NumericalError, TapeError

# per thread: one thread's forward never records into another thread's tape
_active_tape: contextvars.ContextVar["Tape | None"] = contextvars.ContextVar(
    "monosep_active_tape", default=None)


# a backward closure: output gradient -> one gradient (or None) per input
_Backward = Callable[[np.ndarray], Sequence[np.ndarray | None]]


class _Node:
    """A recorded op on the tape: its output's gradient slot, its backward
    closure and its inputs' gradient destinations. The output array stays
    with the ``Tensor``."""

    __slots__ = ("grad", "backward", "targets")

    def __init__(self, backward: _Backward,
                 targets: tuple[_Node | Tensor | None, ...]):
        self.grad: np.ndarray | None = None
        self.backward: _Backward | None = backward
        self.targets = targets


class Tensor:
    """A numpy array plus a gradient slot; an op output recorded on a tape
    also points to its tape node."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_node")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._node: _Node | None = None

    @property
    def _backward(self) -> _Backward | None:
        """The backward closure of the op that recorded this tensor, None
        when no tape recorded it or backward has consumed it."""
        return None if self._node is None else self._node.backward

    @_backward.setter
    def _backward(self, closure: _Backward) -> None:
        self._node.backward = closure

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


class Tape:
    """Ordered record of the nodes of the primitives run in one forward pass.

    Use as a context manager; a tape is rebuilt per forward pass and records
    only the primitives run by the thread that entered it. Leaving a nested
    tape makes the enclosing one active again.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._token: contextvars.Token | None = None
        self._consumed = False

    def __enter__(self) -> "Tape":
        self._token = _active_tape.set(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _active_tape.reset(self._token)
        return False

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, root: Tensor) -> None:
        """Seed d(root)/d(root) = 1 and visit nodes in reverse execution order.

        Each node's closure returns its input gradients, and this loop is
        the only place they are added into the inputs' destinations.
        Backward consumes the tape: each node is popped, and once its
        closure has run its gradient, closure and destinations are dropped,
        which frees whatever only backward still needed (non-leaf gradients
        are not kept). Leaf tensors, such as parameters, keep their
        gradients. A second call raises ``TapeError``.
        """
        if self._consumed:
            raise TapeError("backward already ran on this tape; record a "
                            "new forward pass under a new Tape")
        if root.data.ndim != 0:
            raise DimensionError(
                f"backward root must be scalar, got shape {root.data.shape}"
            )
        if not np.isfinite(root.data):
            raise NumericalError(f"backward root is non-finite: {root.data}")
        self._consumed = True
        _accum(root if root._node is None else root._node,
               np.ones((), dtype=root.data.dtype))
        nodes = self._nodes
        while nodes:
            node = nodes.pop()
            if node.grad is not None and node.backward is not None:
                grads = node.backward(node.grad)
                if len(grads) != len(node.targets):
                    raise TapeError(f"backward returned {len(grads)} "
                                    f"gradients for {len(node.targets)} inputs")
                for target, g in zip(node.targets, grads):
                    if target is not None and g is not None:
                        _accum(target, g)
                grads = g = None  # free them now, not at the next node
            node.grad = node.backward = node.targets = None


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


def _op(data, inputs: Sequence[Tensor], backward: _Backward) -> Tensor:
    """Wrap a primitive's forward array; when a tape is active and any
    input requires grad, give the output a node holding ``backward`` and
    the inputs' gradient destinations, and append the node to the tape.
    The only code that appends tape nodes."""
    out = Tensor(data)
    if _records(inputs):
        out.requires_grad = True
        out._node = _Node(backward, tuple(map(_grad_target, inputs)))
        _active_tape.get()._nodes.append(out._node)
    return out


def _records(inputs: Sequence[Tensor]) -> bool:
    """Whether ``_op`` records a node for these inputs: a tape is active and
    some input requires grad. A primitive that does not record can free
    what only its backward would read."""
    return (_active_tape.get() is not None
            and any(t.requires_grad for t in inputs))


def _grad_target(t: Tensor) -> _Node | Tensor | None:
    """Where backward adds ``t``'s gradient: its tape node, or the tensor
    itself when it is a leaf; None when ``t`` needs no gradient."""
    if not t.requires_grad:
        return None
    return t if t._node is None else t._node


def _accum(target: _Node | Tensor, g: np.ndarray) -> None:
    # never in-place: g may alias another node's grad buffer. A leaf takes g
    # in C order, its value's, or Adam would stride a transposed view
    if isinstance(target, Tensor):
        g = np.asarray(g, order="C")
    target.grad = g if target.grad is None else target.grad + g


def _sum_rows(m: np.ndarray) -> np.ndarray:
    """Sum of the rows of a 2-D array, (R, C) -> (C,), as one BLAS
    matrix-vector product with a ones vector: several times faster than
    ``m.sum(axis=0)`` at (frames, features) shapes."""
    return np.ones(m.shape[0], dtype=m.dtype) @ m


def _mean_cols(m: np.ndarray) -> np.ndarray:
    """Mean of the columns of a 2-D array, (R, C) -> (R,), as one BLAS
    matrix-vector product with a 1/C vector."""
    return m @ np.full(m.shape[1], 1.0 / m.shape[1], dtype=m.dtype)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        lead, rest = g.shape[:extra], g.shape[extra:]
        # both sizes given: reshape(-1, 0) cannot infer a zero-size axis
        g = _sum_rows(g.reshape(math.prod(lead), math.prod(rest))).reshape(rest)
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _pair(a, b)
    ra, rb = a.requires_grad, b.requires_grad
    sa, sb = a.data.shape, b.data.shape

    def backward(g):
        return (_unbroadcast(g, sa) if ra else None,
                _unbroadcast(g, sb) if rb else None)

    return _op(a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _pair(a, b)
    ra, rb = a.requires_grad, b.requires_grad
    sa, sb = a.data.shape, b.data.shape

    def backward(g):
        return (_unbroadcast(g, sa) if ra else None,
                _unbroadcast(-g, sb) if rb else None)

    return _op(a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _pair(a, b)
    sa, sb = a.data.shape, b.data.shape
    # each operand's gradient reads only the other operand
    av = a.data if b.requires_grad else None
    bv = b.data if a.requires_grad else None

    def backward(g):
        return (None if bv is None else _unbroadcast(g * bv, sa),
                None if av is None else _unbroadcast(g * av, sb))

    return _op(a.data * b.data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = _pair(a, b)
    ra = a.requires_grad
    sa, sb = a.data.shape, b.data.shape
    av = a.data if b.requires_grad else None
    bv = b.data

    def backward(g):
        return (_unbroadcast(g / bv, sa) if ra else None,
                None if av is None else _unbroadcast(-g * av / (bv * bv), sb))

    return _op(a.data / b.data, (a, b), backward)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        return (-g,)

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
    av = a.data if b.requires_grad else None
    bv = b.data if a.requires_grad else None

    def backward(g):
        return _matmul_grads(g, av, bv)

    return _op(a.data @ b.data, (a, b), backward)


def _matmul_grads(g: np.ndarray, av: np.ndarray | None,
                  bv: np.ndarray | None) -> tuple:
    """The gradients of a @ b: a's reads b, b's reads a, and either is None
    when the operand it reads was not kept."""
    return (None if bv is None else g @ np.swapaxes(bv, -1, -2),
            None if av is None else np.swapaxes(av, -1, -2) @ g)


def transpose(a) -> Tensor:
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise DimensionError(f"transpose expects a 2-D tensor, got {a.data.shape}")

    def backward(g):
        return (g.T,)

    return _op(a.data.T, (a,), backward)


def permute(a, axes: Sequence[int]) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)

    def backward(g):
        return (np.transpose(g, np.argsort(axes)),)

    return _op(np.transpose(a.data, axes), (a,), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    sa = a.data.shape

    def backward(g):
        return (g.reshape(sa),)

    return _op(a.data.reshape(shape), (a,), backward)


def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Slice ``length`` entries from ``start`` along ``axis``."""
    a = as_tensor(a)
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    sa, dtype = a.data.shape, a.data.dtype

    def backward(g):
        full = np.zeros(sa, dtype=dtype)
        full[idx] = g
        return (full,)

    return _op(a.data[idx], (a,), backward)


def pad_axis_end(a, axis: int, extra: int) -> Tensor:
    """Append ``extra`` zeros at the end of ``axis``."""
    a = as_tensor(a)
    if extra == 0:
        return a
    keep = [slice(None)] * a.data.ndim
    keep[axis] = slice(0, a.data.shape[axis])
    keep = tuple(keep)
    shape = list(a.data.shape)
    shape[axis] += extra
    # zeros plus a slice copy: np.pad's result without its per-call cost
    out = np.zeros(shape, dtype=a.data.dtype)
    out[keep] = a.data

    def backward(g):
        return (g[keep],)

    return _op(out, (a,), backward)


def sum_all(a) -> Tensor:
    a = as_tensor(a)
    sa = a.data.shape

    def backward(g):
        return (np.broadcast_to(g, sa),)

    return _op(a.data.sum(), (a,), backward)


def mean_all(a) -> Tensor:
    a = as_tensor(a)
    sa, size = a.data.shape, a.data.size

    def backward(g):
        return (np.broadcast_to(g / size, sa),)

    return _op(a.data.mean(), (a,), backward)


def log(a) -> Tensor:
    a = as_tensor(a)
    x = a.data

    def backward(g):
        return (g / x,)

    return _op(np.log(x), (a,), backward)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def relu(a) -> Tensor:
    a = as_tensor(a)
    # the closure keeps the output, which the next op usually holds anyway:
    # out > 0 exactly where x > 0, for -0.0 and NaN too
    out = np.maximum(a.data, 0)

    def backward(g):
        return (g * (out > 0),)

    return _op(out, (a,), backward)


def relu_squared(a) -> Tensor:
    a = as_tensor(a)
    pos = np.maximum(a.data, 0)

    def backward(g):
        return (g * (2.0 * pos),)

    return _op(pos * pos, (a,), backward)


def _logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) computed in one buffer, bitwise equal to that
    expression; ``out=`` keeps a 0-d input an array. exp(-x) overflows to
    inf below about -88.7 (float32) or -709 (float64), where the result, 0,
    is exact, so that overflow raises no warning."""
    s = np.negative(x, out=np.empty_like(x))
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def _times(g: np.ndarray, d: np.ndarray) -> np.ndarray:
    """g * d, written into ``d`` when the product keeps d's dtype."""
    if np.result_type(g, d) == d.dtype:
        return np.multiply(g, d, out=d)
    return g * d


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    s = _logistic(a.data)

    def backward(g):
        # g * (s * (1 - s)), one temporary
        d = np.subtract(1.0, s, out=np.empty_like(s))
        d *= s
        return (_times(g, d),)

    return _op(s, (a,), backward)


def silu(a) -> Tensor:
    a = as_tensor(a)
    x = a.data
    s = _logistic(x)

    def backward(g):
        return (_silu_grad(g, x, s),)

    return _op(x * s, (a,), backward)


def _silu_grad(g: np.ndarray, x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """g times silu's derivative at x, s = _logistic(x):
    g * (s * (1 + x * (1 - s))), one temporary."""
    d = np.subtract(1.0, s, out=np.empty_like(s))
    d *= x
    d += 1.0
    d *= s
    return _times(g, d)


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
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner),)

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


def dropout(a, p: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: the RNG is the training signal. With an ``rng``,
    zero each entry with probability ``p`` and scale survivors by 1/(1-p);
    without one (inference), return ``a`` unchanged. A ``p`` outside
    [0, 1) raises ``ConfigError`` either way."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    a = as_tensor(a)
    if rng is None or p == 0.0:
        return a
    # the mask stays bool (a quarter of a float32 mask); times the mask,
    # then times 1/(1-p) rounded as the float mask rounded it, is bitwise
    # the product with that float mask of 0 and 1/(1-p), signed zeros
    # included
    keep = rng.random(a.data.shape) >= p
    scale = np.ones((), dtype=a.data.dtype)
    scale /= 1.0 - p

    def masked(x):
        out = x * keep
        out *= scale
        return out

    def backward(g):
        return (masked(g),)

    return _op(masked(a.data), (a,), backward)


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
    rx, rb = x.requires_grad, bias.requires_grad
    # the window view holds x: keep it only for the weight gradient
    win, w = (win if weight.requires_grad else None), weight.data

    def backward(g):
        return (_contract_overlap_add(g, w, stride, L) if rx else None,
                None if win is None else np.tensordot(g, win, axes=(0, 0)),
                _sum_rows(g) if rb else None)

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
    rx = x.requires_grad
    xv, w = (x.data if weight.requires_grad else None), weight.data

    def backward(g):
        gx, win = _frame_contract(g, w, stride)
        return (gx if rx else None,
                None if xv is None else np.tensordot(xv, win, axes=(0, 0)))

    return _op(out_data, (x, weight), backward)


# frames per tile of the (L, C) -> (C, L) copy into the depthwise GEMM: one
# whole-array transposed copy strides through memory, tiles stay in cache
_TRANSPOSE_TILE = 64


def _depthwise_block(K: int) -> int:
    """Output frames per GEMM block B of a K-tap depthwise convolution. Each
    block reads a B + K - 1 frame window, so B ~ K wastes about half the
    products on Toeplitz zeros; K + 1 measured fastest (32 for K=31)."""
    return K + 1


def _padded_width(L: int, K: int) -> int:
    """Columns of the zero-padded channel-major input of a K-tap depthwise
    convolution over L frames: whole blocks of output frames, plus K - 1."""
    B = _depthwise_block(K)
    return -(-L // B) * B + K - 1


def _channels_major(a: np.ndarray, lead: int, width: int, dtype) -> np.ndarray:
    """``a`` (L, C) as a zero-padded channel-major (C, width) array whose
    columns lead .. lead + L - 1 hold a.T, copied in frame tiles."""
    L, C = a.shape
    out = np.empty((C, width), dtype=dtype)
    out[:, :lead] = 0
    out[:, lead + L :] = 0
    for s0 in range(0, L, _TRANSPOSE_TILE):
        tile = a[s0 : s0 + _TRANSPOSE_TILE]
        out[:, lead + s0 : lead + s0 + len(tile)] = tile.T
    return out


def _frames_major(y: np.ndarray, L: int) -> np.ndarray:
    """The first L columns of ``y`` (C, n) as a contiguous (L, C) array."""
    return np.ascontiguousarray(y[:, :L].T)


def _depthwise_windows(xp: np.ndarray, B: int, K: int) -> np.ndarray:
    """(C, n_blocks, B + K - 1) contiguous copy of the overlapping windows
    of the channel-major padded input ``xp`` (C, n_blocks * B + K - 1);
    window j starts at column j * B."""
    C, width = xp.shape
    s = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp, (C, (width - K + 1) // B, B + K - 1), (s[0], B * s[1], s[1]),
        writeable=False)
    return np.ascontiguousarray(view)


def _toeplitz(w: np.ndarray, B: int, dtype) -> np.ndarray:
    """Banded (C, B + K - 1, B) matrices with T[c, i + k, i] = w[c, k],
    written through a strided view of the band: T[c, i + k, i] sits at
    i * (B + 1) + k * B within channel c."""
    C, K = w.shape
    T = np.zeros((C, B + K - 1, B), dtype=dtype)
    s = T.strides
    band = np.lib.stride_tricks.as_strided(
        T, (C, B, K), (s[0], s[1] + s[2], s[1]))
    band[...] = w[:, None, :]
    return T


def _depthwise_gemm(windows: np.ndarray, w: np.ndarray, L: int) -> np.ndarray:
    """out[s, c] = sum_k w[c, k] * xp[c, s + k] for s < L, frames-major,
    from the ``_depthwise_windows`` of channel-major padded input xp.

    One batched GEMM multiplies each channel's frame windows by its
    Toeplitz matrix, so every output is one inner product over the window,
    taps in k order between zero products.
    """
    C, K = w.shape
    y = np.matmul(windows, _toeplitz(w, _depthwise_block(K),
                                     np.result_type(windows, w)))
    return _frames_major(y.reshape(C, -1), L)


def _depthwise_pack(x: np.ndarray, K: int, dtype) -> np.ndarray:
    """The ``_depthwise_windows`` of x (L, C), packed channel-major and
    zero-padded by (K - 1) / 2 frames each side for a same-length K-tap
    convolution."""
    width = _padded_width(len(x), K)
    return _depthwise_windows(_channels_major(x, (K - 1) // 2, width, dtype),
                              _depthwise_block(K), K)


def _depthwise_grads(g: np.ndarray, xv: np.ndarray | None, w: np.ndarray,
                     dtype, rx: bool) -> tuple:
    """The gradients of depthwise_conv1d(x, w) of dtype ``dtype``: x's when
    ``rx``, w's when its input ``xv`` is given, each None otherwise."""
    L, C = g.shape
    K = w.shape[1]
    pad, B, width = (K - 1) // 2, _depthwise_block(K), _padded_width(L, K)
    # the packing is rebuilt from x, which the closure holds anyway, rather
    # than keeping a second input-sized copy until backward
    gp = _channels_major(g, pad, width, np.result_type(g, dtype))
    gx = gw = None
    if xv is not None:
        # gw[c, k] = sum_s g[s, c] * xp[c, s + k]: per channel, the blocks
        # of g transposed times the windows, (B, B + K - 1), then summed
        # along its K diagonals m[i, i + k]
        blocks = gp[:, pad : width - pad].reshape(C, -1, B)
        m = np.matmul(blocks.transpose(0, 2, 1), _depthwise_pack(xv, K, dtype))
        s = m.strides
        diagonals = np.lib.stride_tricks.as_strided(
            m, (C, K, B), (s[0], s[2], s[1] + s[2]), writeable=False)
        gw = diagonals.sum(axis=2).astype(w.dtype, copy=False)
    if rx:
        # the adjoint of a symmetric same-length correlation is the same
        # correlation with the taps reversed
        gx = _depthwise_gemm(_depthwise_windows(gp, B, K), w[:, ::-1], L)
    return gx, gw


def _check_taps(name: str, C: int, w: np.ndarray) -> None:
    """Depthwise taps must be (C, K) with K odd."""
    if w.ndim != 2:
        raise DimensionError(f"{name} expects taps (C, K), got {w.shape}")
    if w.shape[0] != C:
        raise DimensionError(f"{name} channel axes disagree: x has C={C}, "
                             f"weight has C={w.shape[0]}")
    if w.shape[1] % 2 == 0:
        raise ConfigError(f"depthwise kernel size must be odd, got {w.shape[1]}")


def depthwise_conv1d(x, weight) -> Tensor:
    """Per-channel same-length convolution over frames. x (L, C), weight
    (C, K), K odd -> (L, C).

    Symmetric zero padding of (K-1)/2 frames on each side keeps the output
    length L; channel c of the output depends only on channel c of the input.

    The kernel is a GEMM (im2col): the input is packed channel-major and
    zero-padded, cut into blocks of B = K + 1 output frames whose B + K - 1
    frame windows multiply a banded Toeplitz matrix of the channel's taps,
    and the result is copied back to (L, C). Summation order is BLAS's, so
    outputs match the tap-by-tap sum within a relative 1e-13 (float64) or
    1e-5 (float32) per frame, not bitwise. A non-finite input entry reaches
    every output of its frame block (0 * inf is NaN), not just its K
    neighbours.
    """
    x, weight = as_tensor(x), as_tensor(weight)
    if x.data.ndim != 2:
        raise DimensionError(
            f"depthwise_conv1d expects x (L, C) and weight (C, K); "
            f"got {x.data.shape} and {weight.data.shape}"
        )
    L, C = x.data.shape
    _check_taps("depthwise_conv1d", C, weight.data)
    dtype = np.result_type(x.data, weight.data)
    out_data = _depthwise_gemm(_depthwise_pack(x.data, weight.shape[1], dtype),
                               weight.data, L)
    rx = x.requires_grad
    # the weight gradient reads x; the taps are kept whole, being small
    xv, w = (x.data if weight.requires_grad else None), weight.data

    def backward(g):
        return _depthwise_grads(g, xv, w, dtype, rx)

    return _op(out_data, (x, weight), backward)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def _check_norm(name: str, x: np.ndarray, gain: np.ndarray,
                bias: np.ndarray) -> None:
    if x.ndim != 2:
        raise DimensionError(f"{name} expects x (S, N), got {x.shape}")
    N = x.shape[1]
    if gain.shape != (N,) or bias.shape != (N,):
        raise DimensionError(
            f"{name} gain/bias must be ({N},), got {gain.shape} and "
            f"{bias.shape}"
        )


def _normalize(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Each frame of x (S, N) centred and scaled to unit variance, guarded
    by eps: (xhat, 1/sigma as (S, 1)). Frame means and variances are
    matrix-vector products; xhat is centred and scaled in its own buffer."""
    xhat = x - _mean_cols(x)[:, None]
    var = np.einsum("sn,sn->s", xhat, xhat) * (1.0 / x.shape[1])
    inv_std = (1.0 / np.sqrt(var + eps))[:, None]
    xhat *= inv_std
    return xhat, inv_std


def _affine(xhat: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """layer_norm's output from the normalized input."""
    out = xhat * gain
    out += bias
    return out


def _normalize_grads(g: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray,
                     gain: np.ndarray, rx: bool, rg: bool, rb: bool) -> tuple:
    """layer_norm's (x, gain, bias) gradients, each None unless asked for."""
    gx = None
    if rx:
        # d/dx of (x - mean) * inv_std, both mean and var depend on x:
        # inv_std * (gh - mean(gh) - xhat * mean(gh * xhat))
        gx = g * gain
        proj = np.einsum("sn,sn->s", gx, xhat) * (1.0 / xhat.shape[1])
        gx -= _mean_cols(gx)[:, None]
        gx -= xhat * proj[:, None]
        gx *= inv_std
    return (gx, np.einsum("sn,sn->n", g, xhat) if rg else None,
            _sum_rows(g) if rb else None)


_NORM_EPS = 1e-5  # guards the variance of layer_norm and conv_stage


def layer_norm(x, gain, bias, eps: float = _NORM_EPS) -> Tensor:
    """Per-frame layer normalization over the feature axis.

    x (S, N), gain (N,), bias (N,): each frame is centered, scaled to unit
    variance (guarded by eps), then affinely transformed.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    _check_norm("layer_norm", x.data, gain.data, bias.data)
    xhat, inv_std = _normalize(x.data, eps)
    rx, rg, rb = x.requires_grad, gain.requires_grad, bias.requires_grad
    gv = gain.data

    def backward(g):
        return _normalize_grads(g, xhat, inv_std, gv, rx, rg, rb)

    return _op(_affine(xhat, gv, bias.data), (x, gain, bias), backward)


def linear(x, weight, bias) -> Tensor:
    """Per-frame affine map: x (S, N_in) @ weight (N_out, N_in)^T + bias."""
    y = matmul(x, transpose(weight))
    return add(y, bias)


def conv_stage(x, gain, bias, weight, proj_bias, taps=None) -> Tensor:
    """A convolution module's stage as one primitive: ``layer_norm(x, gain,
    bias)``, then ``linear(., weight, proj_bias)``, then, given ``taps``
    (N_out, K), ``silu`` and a depthwise convolution with a skip around it.
    x (S, N_in) -> (S, N_out).

    The skip is folded into the centre tap: y0 + depthwise(y0, taps) is
    computed as depthwise(y0, taps + e_centre), one convolution and no extra
    (frames, channels) sum. ``taps`` are passed as stored (without the
    skip), so checkpoints are unchanged; outputs match the unfolded sum
    within a relative 1e-13 (float64) or 1e-5 (float32) per frame.

    It makes the folded taps first, as ``add(taps, e_centre)`` would, then
    runs the kernels of those primitives, so its output and gradients are
    bitwise theirs. It keeps less for backward: the normalized input with
    its 1/sigma and, with taps, the projection output (the
    pre-activation). Backward rebuilds the norm output for the weight
    gradient, and the logistic and the silu output for the silu and taps
    gradients, with the forward's own expressions. Unrecorded, the stage
    frees each intermediate where the separate primitives would, the
    pre-activation before the depthwise packing.
    """
    x, gain, bias, weight, proj_bias = (
        as_tensor(t) for t in (x, gain, bias, weight, proj_bias))
    _check_norm("conv_stage", x.data, gain.data, bias.data)
    wv = weight.data
    if (wv.ndim != 2 or wv.shape[1] != x.data.shape[1]
            or proj_bias.data.shape != wv.shape[:1]):
        raise DimensionError(
            f"conv_stage projection must be weight (N_out, "
            f"{x.data.shape[1]}) and bias (N_out,); got {wv.shape} and "
            f"{proj_bias.data.shape}")
    inputs = (x, gain, bias, weight, proj_bias)
    tv = dtype = None
    if taps is not None:
        taps = as_tensor(taps)
        _check_taps("conv_stage", wv.shape[0], taps.data)
        inputs += (taps,)
        centre = np.zeros(taps.data.shape[1], dtype=taps.data.dtype)
        centre[len(centre) // 2] = 1.0
        tv = taps.data + centre
    record = _records(inputs)
    rx, rg, rb, rw, rpb = (t.requires_grad for t in inputs[:5])
    rt = tv is not None and taps.requires_grad
    gv, bv = gain.data, bias.data

    # arrays are made and freed in the order the separate primitives make
    # and free them: freeing the silu output before the depthwise GEMM, or
    # adding the bias in place, lowers the peak a little but lets glibc
    # trim the heap and fault it back (on glibc 2.36, about 80k minor
    # faults per S separate of 2 s of audio, against about 12k)
    xhat, inv_std = _normalize(x.data, _NORM_EPS)
    norm_out = _affine(xhat, gv, bv)
    if not record:  # the closure below is dropped unrun: free as we go
        xhat = inv_std = None
    proj = norm_out @ wv.T
    pre = proj + proj_bias.data
    del norm_out, proj
    if tv is None:
        out, pre = pre, None  # without taps backward reads no pre-activation
    else:
        s = _logistic(pre)
        act = pre * s  # the silu output
        del s
        dtype = np.result_type(act, tv)
        if not record:
            pre = None
        out = _depthwise_gemm(_depthwise_pack(act, tv.shape[1], dtype), tv,
                              len(act))

    def backward(g):
        gt = None
        if tv is not None:
            s = _logistic(pre)
            g, gt = _depthwise_grads(g, pre * s if rt else None, tv, dtype,
                                     rx or rg or rb or rw or rpb)
            g = None if g is None else _silu_grad(g, pre, s)
            del s
        taps_grad = () if tv is None else (gt,)
        if g is None:
            return (None,) * 5 + taps_grad
        norm_out = _affine(xhat, gv, bv) if rw else None
        g_norm, g_wt = _matmul_grads(g, norm_out,
                                     wv.T if rx or rg or rb else None)
        del norm_out
        return (*_normalize_grads(g_norm, xhat, inv_std, gv, rx, rg, rb),
                None if g_wt is None else g_wt.T,
                _sum_rows(g) if rpb else None, *taps_grad)

    return _op(out, inputs, backward)


# ---------------------------------------------------------------------------
# custom op hook (used by rope and local_attention in the attention module
# and by si_sdr)
# ---------------------------------------------------------------------------


def make_op(data: np.ndarray | tuple[np.ndarray, ...], inputs: Sequence[Tensor],
            backward: Callable) -> Tensor | tuple[Tensor, ...]:
    """Register a fused primitive: forward result + backward closure.

    Like a built-in primitive's, the closure returns one gradient per
    input, in input order, None for an input that needs none, and captures
    only the arrays it reads and which inputs need a gradient, never an
    input tensor, so that no input array outlives its last use for longer
    than backward needs it.

    ``data`` may be a tuple of output arrays: ``make_op`` then returns a
    tuple of tensors, and the closure runs once, on the tuple of the
    outputs' gradients (None for an output no gradient reached).
    """
    if not isinstance(data, tuple):
        return _op(data, inputs, backward)
    nodes = []

    def backward_once(_g):
        # the outputs' nodes sit next to each other on the tape, so every
        # output's gradient is complete at the first of them the tape runs
        grads = tuple(node.grad for node in nodes)
        for node in nodes:
            node.backward = None  # the tape skips the others
        return backward(grads)

    outputs = tuple(_op(d, inputs, backward_once) for d in data)
    nodes += [out._node for out in outputs]
    return outputs


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def uniform(bound: float, rng: np.random.Generator):
    """Initializer for ``ParamStore.param``: U(-bound, bound) drawn with ``rng``."""
    return lambda shape: rng.uniform(-bound, bound, shape)


class ParamStore:
    """Named trainable tensors with gradient slots allocated on demand.

    Names are unique and hierarchical ("net.block0.gate.proj_w"); every
    entry requires grad. Model init code declares each parameter with
    ``param``; ``add`` registers a given array. Both leave ``grad`` as
    ``None``, so a model that only runs forward (``separate``) holds its
    weights and nothing else. ``zero_grad`` sets every slot back to
    ``None``, like torch's ``zero_grad(set_to_none=True)``; backward adopts
    the first gradient that reaches an entry, and the rest stay ``None``.
    """

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self._entries: dict[str, Tensor] = {}

    def add(self, name: str, value) -> Tensor:
        """Register a copy of ``value`` in the store's dtype as ``name``."""
        # np.array rather than ascontiguousarray: the latter turns 0-d into (1,)
        return self._register(name, np.array(value, dtype=self.dtype,
                                             order="C"))

    def param(self, name: str, shape: tuple, init) -> Tensor:
        """Declare ``name`` of ``shape``: the base store registers
        ``init(shape)`` (``np.ones``, ``np.zeros`` or ``uniform(bound, rng)``)
        in its dtype; a subclass may take the value from elsewhere."""
        return self.add(name, init(shape))

    def _register(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._entries:
            raise ConfigError(f"duplicate parameter name {name!r}")
        t = Tensor(data, requires_grad=True, name=name)
        self._entries[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def items(self):
        return self._entries.items()

    def zero_grad(self) -> None:
        for t in self._entries.values():
            t.grad = None

    def total_scalars(self) -> int:
        return sum(t.data.size for t in self._entries.values())

    def grad_norm(self) -> float:
        total = 0.0
        for t in self._entries.values():
            if t.grad is not None:
                total += float(np.dot(t.grad.ravel(), t.grad.ravel()))
        return math.sqrt(total)


# ---------------------------------------------------------------------------
# finite-difference gradient checking
# ---------------------------------------------------------------------------

_REL_FLOOR = 1e-8  # relative-error denominator floor for near-zero gradients


def gradient_check(
    f: Callable[[ParamStore], Tensor],
    params: ParamStore,
    h: float = 1e-5,
    verbose: bool = False,
) -> float:
    """Compare reverse-mode gradients against central finite differences.

    Runs f once under a tape for analytic gradients, then perturbs every
    trainable scalar by +/-h and recomputes f without a tape. Returns the
    worst relative error max(|a - n| / max(|a|, |n|, _REL_FLOOR)).
    """
    if params.dtype != np.float64:
        raise ConfigError(
            f"gradient_check requires a float64 ParamStore, got "
            f"{params.dtype}; build the model with "
            f"build_model(cfg, dtype=np.float64)"
        )
    if not 1e-6 <= h <= 1e-4:
        raise ConfigError(f"step size h must lie in [1e-6, 1e-4], got {h}")

    params.zero_grad()
    with Tape() as tape:
        loss = f(params)
        tape.backward(loss)
    analytic = {n: np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                for n, t in params.items()}

    worst = 0.0
    worst_at = ""
    for name, t in params.items():
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
            rel = abs(a - numeric) / max(abs(a), abs(numeric), _REL_FLOOR)
            if rel > worst:
                worst = rel
                worst_at = f"{name}[{i}]"
        if verbose:
            print(f"gradient_check: done {name}, worst so far {worst:.3e} at {worst_at}")
    if verbose and worst_at:
        print(f"gradient_check: max relative error {worst:.3e} at {worst_at}")
    return worst
