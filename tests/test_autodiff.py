"""Tests for the autodiff core: primitives, adjointness, gradient checking."""

import threading
import warnings
import weakref

import numpy as np
import pytest

from monosep import attention as attn
from monosep import autodiff as ad
from monosep import conv_module as cm
from monosep.block import block_forward
from monosep.config import preset
from monosep.losses import si_sdr
from monosep.errors import ConfigError, DimensionError, TapeError
from monosep.model import build_model, separate


def backprop_scalar(build):
    """Run build() under a tape, backprop its scalar output, return the loss."""
    with ad.Tape() as tape:
        loss = build()
        tape.backward(loss)
    return loss


def sigmoid_gate(u, v):
    """sigmoid(u) * v: a function of its inputs alone, as ``recompute``
    requires."""
    return ad.mul(ad.sigmoid(u), v)


# every public primitive: callable over tensor inputs, and the input shapes
PRIMITIVES = {
    "add": (ad.add, [(3,), (3,)]),
    "sub": (ad.sub, [(3,), (3,)]),
    "mul": (ad.mul, [(3,), (3,)]),
    "div": (ad.div, [(3,), (3,)]),
    "neg": (ad.neg, [(3,)]),
    "matmul": (ad.matmul, [(2, 3), (3, 4)]),
    "transpose": (ad.transpose, [(2, 3)]),
    "permute": (lambda a: ad.permute(a, (1, 0, 2)), [(2, 3, 4)]),
    "reshape": (lambda a: ad.reshape(a, (3, 2)), [(2, 3)]),
    "narrow": (lambda a: ad.narrow(a, 0, 1, 2), [(4, 3)]),
    "pad_axis_end": (lambda a: ad.pad_axis_end(a, 0, 2), [(3, 2)]),
    "sum_all": (ad.sum_all, [(3,)]),
    "mean_all": (ad.mean_all, [(3,)]),
    "log": (ad.log, [(3,)]),
    "relu": (ad.relu, [(3,)]),
    "relu_squared": (ad.relu_squared, [(3,)]),
    "sigmoid": (ad.sigmoid, [(3,)]),
    "silu": (ad.silu, [(3,)]),
    "gelu": (ad.gelu, [(3,)]),
    "dropout": (lambda a: ad.dropout(a, 0.5, np.random.default_rng(0)),
                [(3,)]),
    "conv1d": (lambda x, w, b: ad.conv1d(x, w, b, stride=2),
               [(9, 2), (3, 2, 3), (3,)]),
    "transposed_conv1d": (lambda x, w: ad.transposed_conv1d(x, w, stride=2),
                          [(5, 2), (2, 3, 4)]),
    "depthwise_conv1d": (ad.depthwise_conv1d, [(9, 2), (2, 3)]),
    "layer_norm": (ad.layer_norm, [(4, 3), (3,), (3,)]),
    "conv_stage": (ad.conv_stage, [(9, 4), (4,), (4,), (3, 4), (3,), (3, 3)]),
    "make_op": (lambda a: ad.make_op(2.0 * a.data, [a], lambda g: (2.0 * g,)),
                [(3,)]),
    "recompute": (lambda a, b: ad.recompute(sigmoid_gate, a, b),
                  [(3,), (3,)]),
}


def reference_conv1d(x, w, stride):
    """Naive frames-major convolution: contract w with one input frame at a time."""
    K = w.shape[2]
    lout = (len(x) - K) // stride + 1
    return np.stack([np.einsum("oik,ki->o", w, x[t * stride : t * stride + K])
                     for t in range(lout)])


def reference_transposed_conv1d(x, w, stride):
    """Naive frames-major transposed convolution: scatter one frame at a time."""
    K = w.shape[2]
    out = np.zeros(((len(x) - 1) * stride + K, w.shape[1]))
    for t in range(len(x)):
        out[t * stride : t * stride + K] += np.einsum("i,iok->ko", x[t], w)
    return out


class TestConv1d:
    def test_hand_sum(self):
        x = ad.Tensor(np.array([[1.0], [2.0], [3.0], [4.0]]))
        w = ad.Tensor(np.array([[[1.0, 1.0]]]))
        b = ad.Tensor(np.zeros(1))
        out = ad.conv1d(x, w, b, stride=2)
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_zero_input_passes_bias(self):
        rng = np.random.default_rng(0)
        x = ad.Tensor(np.zeros((8, 1)))
        w = ad.Tensor(rng.normal(size=(1, 1, 4)))
        b = ad.Tensor(np.array([5.0]))
        out = ad.conv1d(x, w, b, stride=4)
        np.testing.assert_array_equal(out.data, [[5.0], [5.0]])

    def test_output_length_formula(self):
        rng = np.random.default_rng(1)
        x = ad.Tensor(rng.normal(size=(16, 1)))
        w = ad.Tensor(rng.normal(size=(2, 1, 8)))
        b = ad.Tensor(np.zeros(2))
        out = ad.conv1d(x, w, b, stride=4)
        assert out.shape == (3, 2)  # floor((16 - 8) / 4) + 1 frames, Cout=2

    def test_channel_mismatch_names_axes(self):
        x = ad.Tensor(np.zeros((10, 3)))
        w = ad.Tensor(np.zeros((2, 4, 3)))
        with pytest.raises(DimensionError, match="Cin=3.*Cin=4"):
            ad.conv1d(x, w, ad.Tensor(np.zeros(2)), stride=1)

    def test_channels_major_input_rejected(self):
        x = ad.Tensor(np.zeros((4, 40)))  # (Cin, L) instead of (L, Cin)
        with pytest.raises(DimensionError, match="Cin=40.*Cin=4"):
            ad.conv1d(x, ad.Tensor(np.zeros((3, 4, 2))), ad.Tensor(np.zeros(3)),
                      stride=1)

    def test_input_shorter_than_kernel(self):
        with pytest.raises(DimensionError, match="shorter than kernel"):
            ad.conv1d(
                ad.Tensor(np.zeros((3, 1))),
                ad.Tensor(np.zeros((1, 1, 5))),
                ad.Tensor(np.zeros(1)),
                stride=1,
            )


class TestTransposedConv1d:
    def test_single_frame_copies_kernel(self):
        x = ad.Tensor(np.array([[1.0]]))
        w = ad.Tensor(np.array([[[1.0, 2.0, 3.0]]]))
        out = ad.transposed_conv1d(x, w, stride=2)
        np.testing.assert_array_equal(out.data, [[1.0], [2.0], [3.0]])

    def test_stride_interleave(self):
        x = ad.Tensor(np.array([[1.0], [1.0]]))
        w = ad.Tensor(np.array([[[1.0, 0.0]]]))
        out = ad.transposed_conv1d(x, w, stride=2)
        np.testing.assert_array_equal(out.data, [[1.0], [0.0], [1.0], [0.0]])

    def test_channels_major_input_rejected(self):
        x = ad.Tensor(np.zeros((4, 40)))  # (Cin, L) instead of (L, Cin)
        with pytest.raises(DimensionError, match="Cin=40.*Cin=4"):
            ad.transposed_conv1d(x, ad.Tensor(np.zeros((4, 3, 2))), stride=1)

    @pytest.mark.parametrize("stride,k", [(1, 3), (2, 4), (4, 8)])
    def test_adjoint_identity(self, stride, k):
        # <conv1d(x, w), y> must equal <x, transposed_conv1d(y, w)>
        rng = np.random.default_rng(7)
        cin, cout, L = 3, 2, 17
        x = rng.normal(size=(L, cin))
        w = rng.normal(size=(cout, cin, k))
        lout = (L - k) // stride + 1
        y = rng.normal(size=(lout, cout))
        fwd = ad.conv1d(
            ad.Tensor(x), ad.Tensor(w), ad.Tensor(np.zeros(cout)), stride
        ).data
        adj = ad.transposed_conv1d(ad.Tensor(y), ad.Tensor(w), stride).data
        # samples past the last window never enter the forward output, so the
        # adjoint image is zero there; extend it to L to take the inner product
        padded = np.zeros_like(x)
        padded[: adj.shape[0]] = adj
        lhs = float(np.sum(fwd * y))
        rhs = float(np.sum(x * padded))
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))

    def test_forward_equals_conv_backward_data(self):
        # transposed conv forward is the backward-data pass of conv1d
        rng = np.random.default_rng(8)
        x = ad.Tensor(rng.normal(size=(9, 2)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(4, 2, 3)))
        g = rng.normal(size=(4, 4))  # (lout for stride 2, Cout)

        with ad.Tape() as tape:
            out = ad.conv1d(x, w, ad.Tensor(np.zeros(4)), stride=2)
            loss = ad.sum_all(ad.mul(out, ad.Tensor(g)))
            tape.backward(loss)
        via_transposed = ad.transposed_conv1d(ad.Tensor(g), ad.Tensor(w.data), 2)
        np.testing.assert_allclose(x.grad, via_transposed.data, atol=1e-12)

    @pytest.mark.parametrize("K", [1, 3, 8], ids=lambda k: f"K{k}")
    @pytest.mark.parametrize("stride", [1, 2, 4], ids=lambda s: f"stride{s}")
    def test_kernels_match_per_frame_reference(self, stride, K):
        # values and all gradients of both kernels; L=21 leaves trailing
        # samples outside the last window for some (stride, K)
        rng = np.random.default_rng(10 * stride + K)
        L, cin, cout = 21, 3, 2
        x = ad.Tensor(rng.normal(size=(L, cin)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(cout, cin, K)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=cout))
        lout = (L - K) // stride + 1
        g = rng.normal(size=(lout, cout))
        with ad.Tape() as tape:
            out = ad.conv1d(x, w, b, stride)
            tape.backward(ad.sum_all(ad.mul(out, ad.Tensor(g))))
        tol = dict(rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(
            out.data, reference_conv1d(x.data, w.data, stride) + b.data, **tol)
        gx = np.zeros((L, cin))
        scattered = reference_transposed_conv1d(g, w.data, stride)
        gx[: len(scattered)] = scattered
        np.testing.assert_allclose(x.grad, gx, **tol)
        gw = sum(np.einsum("o,ki->oik", g[t], x.data[t * stride : t * stride + K])
                 for t in range(lout))
        np.testing.assert_allclose(w.grad, gw, **tol)

        y = ad.Tensor(rng.normal(size=(L, cout)), requires_grad=True)
        wt = ad.Tensor(rng.normal(size=(cout, cin, K)), requires_grad=True)
        gt = rng.normal(size=((L - 1) * stride + K, cin))
        with ad.Tape() as tape:
            out = ad.transposed_conv1d(y, wt, stride)
            tape.backward(ad.sum_all(ad.mul(out, ad.Tensor(gt))))
        np.testing.assert_allclose(
            out.data, reference_transposed_conv1d(y.data, wt.data, stride), **tol)
        np.testing.assert_allclose(
            y.grad, reference_conv1d(gt, wt.data, stride), **tol)
        gwt = sum(np.einsum("i,ko->iok", y.data[t], gt[t * stride : t * stride + K])
                  for t in range(L))
        np.testing.assert_allclose(wt.grad, gwt, **tol)


def reference_depthwise(x, w):
    """Naive frames-major depthwise convolution, one tap at a time in k order."""
    L = x.shape[0]
    K = w.shape[1]
    xp = np.pad(x, (((K - 1) // 2, (K - 1) // 2), (0, 0)))
    out = w[:, 0] * xp[0:L]
    for k in range(1, K):
        out = out + w[:, k] * xp[k : k + L]
    return out


class TestPadAxisEnd:
    @pytest.mark.parametrize("axis,extra", [(0, 3), (1, 1), (-1, 5), (0, 0)],
                             ids=["axis0", "axis1", "axis-1", "none"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_matches_np_pad_bitwise(self, dtype, axis, extra):
        x = np.random.default_rng(1).normal(size=(4, 3)).astype(dtype)
        widths = [(0, 0), (0, 0)]
        widths[axis] = (0, extra)
        ref = np.pad(x, widths)
        out = ad.pad_axis_end(ad.Tensor(x), axis, extra).data
        assert out.dtype == ref.dtype and out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()


class TestDepthwiseConv1d:
    def test_center_tap_identity(self):
        rng = np.random.default_rng(2)
        x = ad.Tensor(rng.normal(size=(9, 1)))
        w = ad.Tensor(np.array([[0.0, 1.0, 0.0]]))
        out = ad.depthwise_conv1d(x, w)
        np.testing.assert_array_equal(out.data, x.data)

    def test_edge_zero_padding(self):
        x = ad.Tensor(np.ones((4, 1)))
        w = ad.Tensor(np.ones((1, 3)))
        out = ad.depthwise_conv1d(x, w)
        np.testing.assert_array_equal(out.data, [[2.0], [3.0], [3.0], [2.0]])

    def test_channel_isolation(self):
        rng = np.random.default_rng(3)
        x = ad.Tensor(rng.normal(size=(12, 2)))
        w = ad.Tensor(np.vstack([rng.normal(size=3), np.zeros(3)]))
        out = ad.depthwise_conv1d(x, w)
        np.testing.assert_array_equal(out.data[:, 1], np.zeros(12))
        # perturbing channel 1 input leaves channel 0 output unchanged
        x2 = x.data.copy()
        x2[:, 1] += 100.0
        out2 = ad.depthwise_conv1d(ad.Tensor(x2), w)
        np.testing.assert_array_equal(out.data[:, 0], out2.data[:, 0])

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError, match="odd"):
            ad.depthwise_conv1d(ad.Tensor(np.zeros((8, 1))), ad.Tensor(np.zeros((1, 4))))

    def test_channels_major_input_rejected(self):
        x = ad.Tensor(np.zeros((512, 40)))  # (C, L) instead of (L, C)
        with pytest.raises(DimensionError, match="C=40.*C=512"):
            ad.depthwise_conv1d(x, ad.Tensor(np.zeros((512, 3))))

    @pytest.mark.parametrize("K", [1, 3, 31], ids=lambda k: f"K{k}")
    @pytest.mark.parametrize("blocks,extra", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 5)],
                             ids=["L1", "Lrows-1", "Lrows", "Lrows+1", "L3rows+5"])
    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-13)],
                             ids=["f32", "f64"])
    def test_blocks_match_reference_bitwise(self, dtype, tol, blocks, extra, K):
        # the GEMM sums in BLAS order, so the match is within tol per frame;
        # the test id keeps its name so results stay comparable across runs
        C = 512
        rows = ad._depthwise_block(K)
        rng = np.random.default_rng(K)
        x = rng.normal(size=(blocks * rows + extra, C)).astype(dtype)
        w = rng.normal(size=(C, K)).astype(dtype)
        out = ad.depthwise_conv1d(ad.Tensor(x), ad.Tensor(w)).data
        assert out.dtype == dtype and out.shape == x.shape
        assert max_rel_err(out, reference_depthwise(x, w)) <= tol

    @pytest.mark.parametrize("L,K", [(9, 1), (1, 1), (2, 7), (1, 3), (12, 5)],
                             ids=["L9K1", "L1K1", "L2K7", "L1K3", "L12K5"])
    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-13)],
                             ids=["f32", "f64"])
    def test_padding_matches_np_pad_bitwise(self, dtype, tol, L, K):
        rng = np.random.default_rng(L * 10 + K)
        x = ad.Tensor(rng.normal(size=(L, 3)).astype(dtype), requires_grad=True)
        w = rng.normal(size=(3, K)).astype(dtype)
        g = rng.normal(size=(L, 3)).astype(dtype)
        with ad.Tape() as tape:
            out = ad.depthwise_conv1d(x, ad.Tensor(w))
            tape.backward(ad.sum_all(ad.mul(out, ad.Tensor(g))))
        ref = reference_depthwise(x.data, w)
        assert out.data.dtype == ref.dtype and max_rel_err(out.data, ref) <= tol
        # the x-gradient is the same correlation with the taps reversed
        ref = reference_depthwise(g, w[:, ::-1])
        assert x.grad.dtype == ref.dtype and max_rel_err(x.grad, ref) <= tol

    @pytest.mark.parametrize("K", [1, 3, 17, 31], ids=lambda k: f"K{k}")
    @pytest.mark.parametrize("blocks,extra", [(1, -1), (1, 0), (1, 1), (3, 5)],
                             ids=["LB-1", "LB", "LB+1", "L3B+5"])
    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-13)],
                             ids=["f32", "f64"])
    def test_gradients_match_tap_loop(self, dtype, tol, blocks, extra, K):
        C = 24
        L = blocks * ad._depthwise_block(K) + extra
        rng = np.random.default_rng(100 * K + L)
        x = ad.Tensor(rng.normal(size=(L, C)).astype(dtype), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(C, K)).astype(dtype), requires_grad=True)
        g = rng.normal(size=(L, C)).astype(dtype)
        with ad.Tape() as tape:
            out = ad.depthwise_conv1d(x, w)
            tape.backward(ad.sum_all(ad.mul(out, ad.Tensor(g))))
        pad = (K - 1) // 2
        xp = np.pad(x.data, ((pad, pad), (0, 0)))
        # d/dw[c, k] = sum_s g[s, c] * xp[s + k, c], one tap at a time
        gw = np.stack([np.einsum("sc,sc->c", g, xp[k : k + L]) for k in range(K)],
                      axis=1)
        assert x.grad.dtype == dtype and w.grad.dtype == dtype
        assert max_rel_err(x.grad, reference_depthwise(g, w.data[:, ::-1])) <= tol
        assert max_rel_err(w.grad, gw) <= tol

    @pytest.mark.parametrize("L", [1, 11], ids=lambda n: f"L{n}")
    @pytest.mark.parametrize("K", [1, 3, 7], ids=lambda k: f"K{k}")
    def test_gradient_across_blocks(self, L, K):
        # B = K + 1 frames per block puts L=11 in 2 to 6 blocks, the last
        # one partial
        C = 3
        rng = np.random.default_rng(L * 10 + K)
        store = ad.ParamStore()
        store.add("x", rng.normal(size=(L, C)))
        store.add("w", rng.normal(size=(C, K)))

        def f(p):
            y = ad.depthwise_conv1d(p["x"], p["w"])
            return ad.sum_all(ad.mul(y, y))

        assert ad.gradient_check(f, store, h=1e-5) < 1e-6


def reference_layer_norm(x, gain, bias, g, eps=1e-5):
    """Axis-reduction expressions the matrix-vector kernel replaced:
    forward output and the gradients of sum(g * out) in x, gain and bias."""
    mean = x.mean(axis=1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    gh = g * gain
    gx = inv_std * (gh - gh.mean(axis=1, keepdims=True)
                    - xhat * (gh * xhat).mean(axis=1, keepdims=True))
    return xhat * gain + bias, gx, (g * xhat).sum(axis=0), g.sum(axis=0)


def max_rel_err(got, want):
    """Worst error relative to the largest entry, per frame for 2-D arrays
    so that one large row cannot hide the others."""
    return float((np.abs(got - want).max(axis=-1)
                  / np.abs(want).max(axis=-1)).max())


class TestLayerNorm:
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12),
                                           (np.float32, 1e-5)])
    @pytest.mark.parametrize("width", [16, 32, 512])
    def test_matches_reduction_expressions(self, dtype, tol, width):
        rng = np.random.default_rng(width)
        x = rng.normal(size=(999, width)).astype(dtype)
        x[7] = 0.3  # a constant row: centred to zero, scaled by 1/sqrt(eps)
        gain, bias, g = (rng.normal(size=s).astype(dtype)
                         for s in (width, width, x.shape))
        want = reference_layer_norm(x, gain, bias, g)
        tx, tgain, tbias = (ad.Tensor(a, requires_grad=True)
                            for a in (x, gain, bias))
        with ad.Tape() as tape:
            out = ad.layer_norm(tx, tgain, tbias)
            tape.backward(ad.sum_all(ad.mul(out, ad.Tensor(g))))
        for got, ref in zip((out.data, tx.grad, tgain.grad, tbias.grad), want):
            assert got.dtype == dtype
            assert max_rel_err(got, ref) <= tol

    def test_constant_frame_goes_to_zero(self):
        x = ad.Tensor(np.full((1, 4), 5.0))
        out = ad.layer_norm(x, ad.Tensor(np.ones(4)), ad.Tensor(np.zeros(4)), eps=1e-5)
        np.testing.assert_allclose(out.data, np.zeros((1, 4)), atol=1e-12)

    def test_unit_variance_frame_fixed_point(self):
        x = ad.Tensor(np.array([[1.0, -1.0]]))
        out = ad.layer_norm(x, ad.Tensor(np.ones(2)), ad.Tensor(np.zeros(2)), eps=1e-14)
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-7)

    def test_output_statistics(self):
        # constant gain g and bias b: per-frame mean == b, variance approx g^2
        rng = np.random.default_rng(4)
        x = ad.Tensor(rng.normal(size=(6, 32)))
        out = ad.layer_norm(
            x, ad.Tensor(np.full(32, 2.0)), ad.Tensor(np.full(32, 3.0)), eps=1e-10
        )
        np.testing.assert_allclose(out.data.mean(axis=1), np.full(6, 3.0), atol=1e-9)
        np.testing.assert_allclose(out.data.var(axis=1), np.full(6, 4.0), rtol=1e-6)

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(5, 16))
        shift = rng.normal(size=(5, 1))  # per-frame constant
        gain = ad.Tensor(rng.normal(size=16))
        bias = ad.Tensor(rng.normal(size=16))
        a = ad.layer_norm(ad.Tensor(x), gain, bias).data
        b = ad.layer_norm(ad.Tensor(x + shift), gain, bias).data
        np.testing.assert_allclose(a, b, atol=1e-8)


def reference_logistic_grads(x, g):
    """The expressions sigmoid and silu computed before they used one
    buffer: (sigmoid, its x-gradient, silu, its x-gradient)."""
    s = 1.0 / (1.0 + np.exp(-x))
    return (s, g * (s * (1.0 - s)),
            x * s, g * (s * (1.0 + x * (1.0 - s))))


class TestActivations:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(), (7,), (33, 5)])
    def test_logistic_kernels_match_expressions_bitwise(self, dtype, shape):
        rng = np.random.default_rng(len(shape))
        x = (4.0 * rng.normal(size=shape)).astype(dtype)
        g = rng.normal(size=shape).astype(dtype)
        got = []
        for fn in (ad.sigmoid, ad.silu):
            t = ad.Tensor(x, requires_grad=True)
            with ad.Tape() as tape:
                out = fn(t)
                tape.backward(ad.sum_all(ad.mul(out, ad.Tensor(g))))
            got += [out.data, t.grad]
        for a, b in zip(got, reference_logistic_grads(x, g)):
            assert a.dtype == dtype and a.shape == shape
            assert a.tobytes() == np.asarray(b).tobytes()

    @pytest.mark.parametrize("dtype,low", [(np.float32, -89.0), (np.float64, -710.0)])
    def test_logistic_overflow_is_silent(self, dtype, low):
        # exp(-x) overflows to inf, and the exact result is 0 (or -0 for silu)
        x = np.array([low, 2.0 * low, -1.0, 0.0, 3.0], dtype=dtype)
        with np.errstate(over="ignore"):
            want = 1.0 / (1.0 + np.exp(-x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = ad.sigmoid(ad.Tensor(x)).data
            y = ad.silu(ad.Tensor(x)).data
        assert s.tobytes() == want.tobytes()
        assert y.tobytes() == (x * want).tobytes()
        assert s[0] == 0.0 and y[0] == 0.0

    def test_relu_squared_values(self):
        out = ad.relu_squared(ad.Tensor(np.array([-2.0, 3.0])))
        np.testing.assert_array_equal(out.data, [0.0, 9.0])

    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(ad.Tensor(np.zeros(()))).item() == 0.5

    def test_silu_matches_definition(self):
        x = np.linspace(-3, 3, 13)
        out = ad.activation("silu", ad.Tensor(x))
        np.testing.assert_allclose(out.data, x / (1 + np.exp(-x)), rtol=1e-12)

    def test_swish_is_silu(self):
        x = ad.Tensor(np.linspace(-2, 2, 9))
        np.testing.assert_array_equal(
            ad.activation("swish", x).data, ad.activation("silu", x).data
        )

    def test_bilinear_is_identity(self):
        x = ad.Tensor(np.linspace(-2, 2, 9))
        assert ad.activation("bilinear", x) is x

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown activation"):
            ad.activation("softmax", ad.Tensor(np.zeros(3)))


def linear_adjoint_pair(op, x_shape, out_of, seed):
    """<J dx, y> vs <dx, J^T y> for an op that is linear in x."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=x_shape)
    dx = rng.normal(size=x_shape)
    base = op(ad.Tensor(x)).data
    jdx = op(ad.Tensor(x + dx)).data - base  # exact for linear maps
    y = rng.normal(size=out_of(base))

    leaf = ad.Tensor(x, requires_grad=True)
    with ad.Tape() as tape:
        out = op(leaf)
        loss = ad.sum_all(ad.mul(out, ad.Tensor(y)))
        tape.backward(loss)
    lhs = float(np.sum(jdx * y))
    rhs = float(np.sum(dx * leaf.grad))
    return lhs, rhs


class TestAdjointness:
    @pytest.mark.parametrize(
        "name,op,x_shape",
        [
            (
                "conv1d",
                lambda t: ad.conv1d(
                    t,
                    ad.Tensor(np.random.default_rng(11).normal(size=(3, 2, 4))),
                    ad.Tensor(np.zeros(3)),
                    stride=2,
                ),
                (15, 2),
            ),
            (
                "transposed_conv1d",
                lambda t: ad.transposed_conv1d(
                    t,
                    ad.Tensor(np.random.default_rng(12).normal(size=(2, 3, 5))),
                    stride=3,
                ),
                (6, 2),
            ),
            (
                "depthwise_conv1d",
                lambda t: ad.depthwise_conv1d(
                    t, ad.Tensor(np.random.default_rng(13).normal(size=(3, 5)))
                ),
                (11, 3),
            ),
            ("matmul_left", lambda t: ad.matmul(
                t, ad.Tensor(np.random.default_rng(14).normal(size=(4, 6)))
            ), (5, 4)),
            ("transpose", ad.transpose, (4, 7)),
            ("narrow", lambda t: ad.narrow(t, 0, 1, 3), (6, 4)),
            ("pad", lambda t: ad.pad_axis_end(t, 0, 3), (6, 4)),
        ],
    )
    def test_linear_ops(self, name, op, x_shape):
        lhs, rhs = linear_adjoint_pair(op, x_shape, lambda b: b.shape, seed=21)
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs)), name


class TestTapeMechanics:
    def test_shared_node_accumulates(self):
        # y = x * x uses the same node twice; dy/dx = 2x
        x = ad.Tensor(np.array(3.0), requires_grad=True)
        with ad.Tape() as tape:
            y = ad.mul(x, x)
            tape.backward(y)
        assert x.grad == pytest.approx(6.0)

    def test_broadcast_bias_backward(self):
        rng = np.random.default_rng(6)
        b = ad.Tensor(rng.normal(size=4), requires_grad=True)
        x = ad.Tensor(rng.normal(size=(5, 4)))
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.add(x, b))
            tape.backward(loss)
        np.testing.assert_allclose(b.grad, np.full(4, 5.0))

    @pytest.mark.parametrize("g_shape,shape", [
        ((40, 6), (6,)),          # a per-feature bias
        ((3, 4, 5), ()),          # a 3-D tensor reduced to a scalar
        ((9, 5, 4), (5, 1)),      # leading sum, then a keepdims axis
        ((0, 5), (5,)),           # zero frames
        ((3, 0), (0,)),           # zero features: reshape(-1, 0) would fail
    ])
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12),
                                           (np.float32, 1e-5)])
    def test_unbroadcast_matches_np_sum(self, g_shape, shape, dtype, tol):
        g = np.random.default_rng(3).normal(size=g_shape).astype(dtype)
        lead = g.sum(axis=tuple(range(g.ndim - len(shape))))
        axes = tuple(i for i, s in enumerate(shape)
                     if s == 1 and lead.shape[i] != 1)
        want = lead.sum(axis=axes, keepdims=True)
        got = ad._unbroadcast(g, shape)
        assert got.shape == shape and got.dtype == dtype
        np.testing.assert_allclose(got, want, rtol=tol, atol=tol)

    @pytest.mark.parametrize("name", sorted(PRIMITIVES))
    def test_no_tape_means_no_graph(self, name):
        fn, shapes = PRIMITIVES[name]

        def inputs(grad_at=None):
            rng = np.random.default_rng(0)
            return [ad.Tensor(rng.uniform(0.5, 1.5, size=s),
                              requires_grad=i == grad_at)
                    for i, s in enumerate(shapes)]

        out = fn(*inputs(grad_at=0))
        assert not out.requires_grad and out._backward is None
        with ad.Tape() as tape:
            out = fn(*inputs())
        assert not out.requires_grad and out._backward is None
        assert len(tape) == 0
        for i in range(len(shapes)):
            with ad.Tape() as tape:
                out = fn(*inputs(grad_at=i))
            assert len(tape) == 1
            assert out.requires_grad and out._backward is not None

    def test_graph_cases_cover_every_primitive(self):
        registered = {
            name for name, fn in vars(ad).items()
            if not name.startswith("_") and callable(fn)
            and "_op" in getattr(getattr(fn, "__code__", None), "co_names", ())
        }
        assert registered == set(PRIMITIVES)

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(42)
            x = ad.Tensor(rng.normal(size=(8, 4)))
            w = ad.Tensor(rng.normal(size=(3, 4, 2)))
            out = ad.conv1d(x, w, ad.Tensor(np.zeros(3)), stride=2)
            return ad.silu(out).data

        a, b = run(), run()
        assert np.array_equal(a, b)

    def test_tape_is_confined_to_its_thread(self):
        # parameters require grad, so inference on another thread would
        # record into this thread's tape if the active tape were shared
        m = build_model(preset("tiny", dropout_p=0.0), seed=0)
        mixture = np.random.default_rng(1).normal(size=400)
        results = []
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with ad.Tape() as outer:
            worker = threading.Thread(
                target=lambda: results.append(separate(m, mixture)))
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive() and len(results) == 1
            assert len(outer) == 0
            with ad.Tape() as inner:
                ad.mul(x, x)
            ad.mul(x, x)  # the outer tape is active again
        assert len(inner) == 1 and len(outer) == 1
        assert not ad.mul(x, x).requires_grad  # and no tape after the outer

    def test_backward_requires_scalar(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with ad.Tape() as tape:
            y = ad.mul(x, x)
            with pytest.raises(DimensionError, match="scalar"):
                tape.backward(y)

    def test_second_backward_raises(self):
        x = ad.Tensor(np.array(3.0), requires_grad=True)
        with ad.Tape() as tape:
            y = ad.mul(x, x)
            tape.backward(y)
            with pytest.raises(TapeError, match="already ran"):
                tape.backward(y)
        assert x.grad == pytest.approx(6.0)  # counted once

    def test_backward_releases_the_tape(self):
        x = ad.Tensor(np.linspace(-1.0, 1.0, 50), requires_grad=True)
        with ad.Tape() as tape:
            h = ad.relu(ad.mul(x, 2.0))
            loss = ad.sum_all(ad.mul(h, h))
            intermediate = weakref.ref(h.data)
            del h
            assert len(tape) == 4 and intermediate() is not None
            tape.backward(loss)
        assert len(tape) == 0
        assert intermediate() is None  # freed during backward
        assert loss.grad is None and loss._backward is None  # non-leaf
        np.testing.assert_allclose(x.grad, 8.0 * np.maximum(x.data, 0.0))


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = ad.Tensor(np.ones((3, 3)))
        assert ad.dropout(x, 0.5, None) is x

    def test_inverted_scaling_preserves_mean(self):
        rng = np.random.default_rng(9)
        x = ad.Tensor(np.ones((200, 200)))
        out = ad.dropout(x, 0.25, rng)
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, np.full(kept.size, 1.0 / 0.75))
        assert abs(out.data.mean() - 1.0) < 0.02

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
    def test_bool_mask_matches_float_mask_bitwise(self, dtype, p):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(64, 48)).astype(dtype)
        x[0, :2] = [0.0, -0.0]
        g = rng.normal(size=x.shape).astype(dtype)
        g[1, :2] = [0.0, -0.0]
        a = ad.Tensor(x, requires_grad=True)
        with ad.Tape() as tape:
            out = ad.dropout(a, p, np.random.default_rng(11))
            tape.backward(ad.sum_all(ad.mul(out, ad.Tensor(g))))
        # the float-mask formula, same draws: dropped entries of negative
        # inputs and gradients are -0.0
        keep = (np.random.default_rng(11).random(x.shape) >= p).astype(dtype)
        keep /= 1.0 - p
        assert out.data.dtype == dtype and a.grad.dtype == dtype
        assert out.data.tobytes() == (x * keep).tobytes()
        assert a.grad.tobytes() == (g * keep).tobytes()


    @pytest.mark.parametrize("p", [1.0, 1.5, -0.1, float("nan")])
    @pytest.mark.parametrize("with_rng", [True, False])
    def test_probability_outside_range_rejected(self, p, with_rng):
        rng = np.random.default_rng(12) if with_rng else None
        with pytest.raises(ConfigError, match="dropout probability"):
            ad.dropout(ad.Tensor(np.ones(3)), p, rng)


# the make_op users outside autodiff, a convolution module's dense ablation
# stand-in (a conv_stage head without taps), and conv_stage with two heads
# on one input, in the same form as PRIMITIVES; of the two heads, only the
# second one's output is returned
FUSED = {
    "conv_module_dense": (
        lambda x, g, b, w, pb: cm.conv_module_forward(
            x, cm.ConvModuleParams(g, b, w, pb, None)),
        [(9, 4), (4,), (4,), (3, 4), (3,)]),
    "conv_stage_heads": (
        lambda x, *heads: ad.conv_stage(x, *heads)[1],
        [(9, 4), (4,), (4,), (3, 4), (3,), (3, 3),
         (4,), (4,), (2, 4), (2,), (2, 5)]),
    "conv_stage_dense_head": (
        lambda x, *heads: ad.conv_stage(x, *heads, None)[1],
        [(9, 4), (4,), (4,), (3, 4), (3,), (3, 3),
         (4,), (4,), (2, 4), (2,)]),
    "rope": (attn.rope, [(5, 4)]),
    "local_attention": (
        lambda q, k, v, u: attn.local_attention(q, k, v, u, 3)[0],
        [(5, 2), (5, 2), (5, 3), (5, 3)]),
    "si_sdr": (si_sdr, [(8,), (8,)]),
}


def reachable(closure):
    """Every object a backward closure reaches through its cells, the cells
    of nested functions and the items of lists and tuples; tape nodes (a
    multi-output op's closure holds its outputs' nodes) are not entered."""
    found, seen = [], set()
    stack = [closure]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        found.append(obj)
        if callable(obj) and getattr(obj, "__closure__", None):
            stack += [cell.cell_contents for cell in obj.__closure__]
        elif isinstance(obj, (list, tuple)):
            stack += obj
    return found


class TestLiveness:
    """Under a tape, an op output that no backward closure reads is freed
    as soon as the caller drops it; one that a closure reads lives until
    backward."""

    @pytest.mark.parametrize("name", sorted(PRIMITIVES) + sorted(FUSED))
    def test_closures_capture_no_recorded_tensor(self, name):
        fn, shapes = {**PRIMITIVES, **FUSED}[name]
        rng = np.random.default_rng(0)
        with ad.Tape():
            # inputs recorded on the tape, as inside a model
            inputs = [ad.mul(ad.Tensor(rng.uniform(0.5, 1.5, size=s),
                                       requires_grad=True), 1.0)
                      for s in shapes]
            out = fn(*inputs)
        held = [obj for obj in reachable(out._backward)
                if isinstance(obj, ad.Tensor)]
        assert held == []

    def test_matmul_output_freed_once_added(self):
        rng = np.random.default_rng(1)
        x = ad.Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = ad.Tensor(rng.normal(size=3), requires_grad=True)
        with ad.Tape() as tape:
            y = ad.matmul(x, w)
            freed = weakref.ref(y.data)
            z = ad.add(y, b)
            del y
            assert freed() is None
            tape.backward(ad.sum_all(z))
        np.testing.assert_allclose(w.grad, x.data.T @ np.ones((6, 3)))
        np.testing.assert_allclose(x.grad, np.ones((6, 3)) @ w.data.T)
        np.testing.assert_array_equal(b.grad, np.full(3, 6.0))

    def test_depthwise_output_freed_once_dropped_out(self):
        rng = np.random.default_rng(2)
        x_data, w_data = rng.normal(size=(20, 3)), rng.normal(size=(3, 5))

        def grads(keep_output):
            x = ad.Tensor(x_data, requires_grad=True)
            w = ad.Tensor(w_data, requires_grad=True)
            with ad.Tape() as tape:
                y = ad.depthwise_conv1d(x, w)
                freed = weakref.ref(y.data)
                z = ad.dropout(y, 0.5, np.random.default_rng(3))
                kept = [y] if keep_output else []
                del y
                assert (freed() is None) != keep_output
                tape.backward(ad.sum_all(z))
            del kept
            return x.grad, w.grad

        for dropped, kept in zip(grads(False), grads(True)):
            assert dropped.tobytes() == kept.tobytes()

    def test_relu_keeps_its_output_not_its_input(self):
        x = ad.Tensor(np.array([-1.0, -0.0, 0.0, 2.0, np.nan]),
                      requires_grad=True)
        with ad.Tape():
            h = ad.mul(x, 1.0)
            out = ad.relu(h)
            held = reachable(out._backward)
            assert not any(obj is h.data for obj in held)
            assert any(obj is out.data for obj in held)
            g = np.arange(1.0, 6.0)
            (gx,) = out._backward(g)
        # (out > 0) == (x > 0) for -0.0 and NaN too
        assert gx.tobytes() == (g * (x.data > 0)).tobytes()

    def test_conv_stage_keeps_normalized_input_and_pre_activation(self):
        # of the frame-sized arrays, the closure keeps xhat (S, N_in), 1/sigma
        # (S, 1) and the pre-activation (S, N_out); never the norm output,
        # the logistic or the silu output
        rng = np.random.default_rng(5)
        shapes = [(40, 6), (6,), (6,), (10, 6), (10,), (10, 5)]
        inputs = [ad.Tensor(rng.normal(size=s), requires_grad=True)
                  for s in shapes]
        with ad.Tape():
            out = ad.conv_stage(*inputs)
        framed = sorted(obj.shape for obj in reachable(out._backward)
                        if isinstance(obj, np.ndarray) and obj.ndim == 2
                        and obj.shape[0] == 40)
        assert framed == [(40, 1), (40, 6), (40, 10)]

    def test_conv_stage_heads_keep_one_normalized_input(self):
        # three heads on one input: one xhat (S, N_in) and one 1/sigma for
        # all of them, and the pre-activation of each head with taps
        rng = np.random.default_rng(6)
        shapes = [(40, 6), (6,), (6,), (10, 6), (10,), (10, 5),
                  (6,), (6,), (8, 6), (8,), (8, 3),
                  (6,), (6,), (4, 6), (4,)]
        x, *heads = [ad.Tensor(rng.normal(size=s), requires_grad=True)
                     for s in shapes]
        with ad.Tape():
            outs = ad.conv_stage(x, *heads, None)
        assert [o.shape for o in outs] == [(40, 10), (40, 8), (40, 4)]
        framed = sorted(obj.shape for obj in reachable(outs[0]._backward)
                        if isinstance(obj, np.ndarray) and obj.ndim == 2
                        and obj.shape[0] == 40)
        assert framed == [(40, 1), (40, 6), (40, 8), (40, 10)]

    def test_block_modules_share_one_normalized_input(self):
        # the gate, value and shared attention modules read the block
        # input: the tape reaches one normalized copy of it, not three
        # equal ones
        block = build_model(preset("tiny"), seed=1).net.blocks[0]
        x = ad.Tensor(np.random.default_rng(7).normal(size=(20, 16)),
                      requires_grad=True)
        xhat = ad._normalize(x.data, ad._NORM_EPS)[0]
        with ad.Tape() as tape:
            block_forward(x, block)
            copies = {id(obj) for node in tape._nodes
                      for obj in reachable(node.backward)
                      if isinstance(obj, np.ndarray)
                      and obj.shape == xhat.shape
                      and np.array_equal(obj, xhat)}
        assert len(copies) == 1

    def test_mul_inputs_kept_until_backward(self):
        x = ad.Tensor(np.linspace(-1.0, 1.0, 7), requires_grad=True)
        with ad.Tape() as tape:
            a, b = ad.add(x, 1.0), ad.add(x, 2.0)
            refs = [weakref.ref(a.data), weakref.ref(b.data)]
            loss = ad.sum_all(ad.mul(a, b))
            del a, b
            assert all(ref() is not None for ref in refs)
            tape.backward(loss)
        assert all(ref() is None for ref in refs)
        np.testing.assert_allclose(x.grad, 2.0 * x.data + 3.0)


# (case, input index) pairs whose output takes no gradient from that input:
# si_sdr is differentiable in the estimate only, the local_attention case
# keeps the attended values, which do not read the gates, and the conv_stage
# cases keep the second head's output, which does not read the first head
NO_GRADIENT = {("si_sdr", 1), ("local_attention", 3),
               *((name, i) for name in ("conv_stage_heads",
                                        "conv_stage_dense_head")
                 for i in range(1, 6))}


class TestBackwardContract:
    """Closures return one gradient per input and ``Tape.backward`` adds
    them; ``make_op`` also registers ops with several outputs."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name,index", [
        (name, i) for name, (_, shapes) in {**PRIMITIVES, **FUSED}.items()
        for i in range(len(shapes))])
    def test_each_input_gets_its_own_shape_and_dtype(self, name, index,
                                                     dtype):
        fn, shapes = {**PRIMITIVES, **FUSED}[name]
        rng = np.random.default_rng(0)
        inputs = [ad.Tensor(rng.uniform(0.5, 1.5, size=s).astype(dtype),
                            requires_grad=i == index)
                  for i, s in enumerate(shapes)]
        with ad.Tape() as tape:
            tape.backward(ad.sum_all(fn(*inputs)))
        grad = inputs[index].grad
        if (name, index) in NO_GRADIENT:
            assert grad is None
        else:
            assert grad.shape == shapes[index] and grad.dtype == dtype
        assert all(t.grad is None for i, t in enumerate(inputs) if i != index)

    @staticmethod
    def two_outputs(x, calls):
        """(2x, 3x) as one op; its closure logs the gradients it gets."""
        def backward(grads):
            calls.append(grads)
            g0, g1 = (np.zeros_like(x.data) if g is None else g
                      for g in grads)
            return (2.0 * g0 + 3.0 * g1,)

        return ad.make_op((2.0 * x.data, 3.0 * x.data), [x], backward)

    @pytest.mark.parametrize("used", [(0,), (1,), (0, 1), (1, 0)])
    def test_closure_runs_once_on_every_output_gradient(self, used):
        x = ad.Tensor(np.linspace(-1.0, 1.0, 4), requires_grad=True)
        scale = (5.0, 7.0)
        calls = []
        with ad.Tape() as tape:
            outs = self.two_outputs(x, calls)
            assert len(tape) == 2  # one node per output
            terms = [ad.sum_all(ad.mul(outs[i], scale[i])) for i in used]
            loss = terms[0] if len(terms) == 1 else ad.add(*terms)
            tape.backward(loss)
        assert len(calls) == 1
        for i, g in enumerate(calls[0]):
            if i in used:
                np.testing.assert_array_equal(g, np.full(4, scale[i]))
            else:
                assert g is None  # no gradient reached this output
        want = sum((2.0, 3.0)[i] * scale[i] for i in used)
        np.testing.assert_array_equal(x.grad, np.full(4, want))

    def test_no_tape_means_no_nodes(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        calls = []
        outs = self.two_outputs(x, calls)
        assert all(not o.requires_grad and o._backward is None for o in outs)
        with ad.Tape() as tape:
            outs = self.two_outputs(ad.Tensor(np.ones(3)), calls)
        assert len(tape) == 0
        assert all(not o.requires_grad and o._backward is None for o in outs)
        np.testing.assert_array_equal(outs[1].data, np.full(3, 3.0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_local_attention_gates_gradient(self, dtype):
        # only the attended gates reach the loss: the values get none
        rng = np.random.default_rng(4)
        shapes = [(7, 2), (7, 2), (7, 3), (7, 3)]
        inputs = [ad.Tensor(rng.normal(size=s).astype(dtype),
                            requires_grad=True) for s in shapes]
        with ad.Tape() as tape:
            _, attended_gates = attn.local_attention(*inputs, 3)
            tape.backward(ad.sum_all(attended_gates))
        q, k, values, gates = inputs
        assert values.grad is None
        for t in (q, k, gates):
            assert t.grad.shape == t.shape and t.grad.dtype == dtype

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_recompute_matches_recording_bitwise(self, dtype):
        # one node on the tape instead of fn's; the same gradients, with
        # an input read twice inside fn
        def fn(u, v):
            return ad.mul(ad.silu(ad.mul(u, v)), v)

        rng = np.random.default_rng(5)
        data = [rng.normal(size=(6, 4)).astype(dtype) for _ in range(3)]

        def grads(wrap):
            u, v = (ad.Tensor(d, requires_grad=True) for d in data[:2])
            with ad.Tape() as tape:
                out = wrap(fn, ad.mul(u, 1.0), ad.mul(v, 1.0))
                nodes = len(tape)
                tape.backward(ad.sum_all(ad.mul(out, ad.Tensor(data[2]))))
            return nodes, out.data.tobytes(), u.grad.tobytes(), v.grad.tobytes()

        direct = grads(lambda f, *inputs: f(*inputs))
        again = grads(ad.recompute)
        assert (direct[0], again[0]) == (5, 3)
        assert again[1:] == direct[1:]

    def test_conv_stage_heads_match_separate_stages_bitwise(self):
        # x's gradient entries come last head first, as separately recorded
        # stages' backwards would add them
        rng = np.random.default_rng(8)
        shapes = [(6,), (6,), (10, 6), (10,), (10, 5),
                  (6,), (6,), (4, 6), (4,), None]
        x_data = rng.normal(size=(30, 6))
        head_data = [None if s is None else rng.normal(size=s)
                     for s in shapes]
        probes = [ad.Tensor(rng.normal(size=(30, n))) for n in (10, 4)]

        def grads(stages):
            x = ad.Tensor(x_data, requires_grad=True)
            heads = [None if d is None else ad.Tensor(d, requires_grad=True)
                     for d in head_data]
            with ad.Tape() as tape:
                outs = stages(ad.mul(x, 1.0), heads)
                tape.backward(ad.add(*(ad.sum_all(ad.mul(o, p))
                                       for o, p in zip(outs, probes))))
            return [x.grad.tobytes()] + [t.grad.tobytes() for t in heads
                                         if t is not None]

        def separate(x, heads):
            return [ad.conv_stage(x, *heads[:5]),
                    cm.conv_module_forward(
                        x, cm.ConvModuleParams(*heads[5:9], None))]

        assert grads(lambda x, heads: ad.conv_stage(x, *heads)) == \
            grads(separate)

    def test_wrong_gradient_count_raises(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with ad.Tape() as tape:
            y = ad.make_op(x.data * 2.0, [x, ad.Tensor(1.0)],
                           lambda g: (2.0 * g,))
            with pytest.raises(TapeError, match="returned 1 gradients for 2 inputs"):
                tape.backward(ad.sum_all(y))


class TestGradientCheck:
    def test_square_function(self):
        store = ad.ParamStore()
        store.add("theta", np.array(3.0))

        def f(p):
            t = p["theta"]
            return ad.mul(t, t)

        err = ad.gradient_check(f, store, h=1e-5)
        assert err < 1e-9
        # the analytic gradient itself
        store.zero_grad()
        with ad.Tape() as tape:
            tape.backward(f(store))
        assert store["theta"].grad == pytest.approx(6.0)

    def test_conv_sum(self):
        rng = np.random.default_rng(10)
        store = ad.ParamStore()
        store.add("x", rng.normal(size=(10, 2)))
        store.add("w", rng.normal(size=(3, 2, 3)))
        store.add("b", rng.normal(size=3))

        def f(p):
            return ad.sum_all(ad.conv1d(p["x"], p["w"], p["b"], stride=2))

        assert ad.gradient_check(f, store, h=1e-5) < 1e-6

    def test_composite_nonlinear(self):
        rng = np.random.default_rng(20)
        store = ad.ParamStore()
        store.add("x", rng.normal(size=(4, 6)))
        store.add("gain", rng.normal(size=6))
        store.add("bias", rng.normal(size=6))
        store.add("w", rng.normal(size=(5, 6)))
        store.add("b2", rng.normal(size=5))
        store.add("dw", rng.normal(size=(5, 3)))

        def f(p):
            y = ad.layer_norm(p["x"], p["gain"], p["bias"])
            y = ad.silu(ad.linear(y, p["w"], p["b2"]))
            y = ad.depthwise_conv1d(y, p["dw"])
            # leaky bypass keeps every tap alive; a fully gated-off channel
            # has gradient exactly 0 and the relative error floor then
            # amplifies finite-difference noise
            y = ad.add(ad.relu_squared(y), ad.mul(y, 0.1))
            y = ad.sigmoid(ad.mean_all(y))
            return ad.log(ad.add(y, 0.1))

        # deeper chains shrink some gradients to ~1e-6, where fd noise costs
        # an extra digit; the shallow conv case above keeps the 1e-6 bar
        assert ad.gradient_check(f, store, h=1e-5) < 1e-5

    def test_conv_stage(self):
        rng = np.random.default_rng(24)
        shapes = {"x": (7, 4), "g": (4,), "b": (4,), "w": (5, 4), "pb": (5,),
                  "t": (5, 3)}
        store = ad.ParamStore()
        for name, shape in shapes.items():
            store.add(name, rng.normal(size=shape))
        probe = ad.Tensor(rng.normal(size=(7, 5)))

        def f(p):
            out = ad.conv_stage(p["x"], p["g"], p["b"], p["w"], p["pb"],
                                p["t"])
            return ad.sum_all(ad.mul(out, probe))

        assert ad.gradient_check(f, store, h=1e-5) < 1e-6

    def test_conv_stage_heads(self):
        rng = np.random.default_rng(25)
        shapes = {"x": (7, 4), "g": (4,), "b": (4,), "w": (5, 4), "pb": (5,),
                  "t": (5, 3), "g2": (4,), "b2": (4,), "w2": (3, 4),
                  "pb2": (3,)}
        store = ad.ParamStore()
        for name, shape in shapes.items():
            store.add(name, rng.normal(size=shape))
        probes = [ad.Tensor(rng.normal(size=(7, n))) for n in (5, 3)]

        def f(p):
            outs = ad.conv_stage(p["x"], p["g"], p["b"], p["w"], p["pb"],
                                 p["t"], p["g2"], p["b2"], p["w2"], p["pb2"],
                                 None)
            return ad.add(*(ad.sum_all(ad.mul(o, probe))
                            for o, probe in zip(outs, probes)))

        assert ad.gradient_check(f, store, h=1e-5) < 1e-6

    def test_recompute(self):
        # inputs and probe in [0.5, 1.5]: no gradient entry near zero,
        # where the relative error would measure finite-difference noise
        rng = np.random.default_rng(26)
        store = ad.ParamStore()
        store.add("u", rng.uniform(0.5, 1.5, size=(4, 5)))
        store.add("v", rng.uniform(0.5, 1.5, size=(4, 5)))
        probe = ad.Tensor(rng.uniform(0.5, 1.5, size=(4, 5)))

        def gate(u, v):
            return ad.mul(ad.sigmoid(ad.mul(u, v)), ad.mul(v, v))

        def f(p):
            return ad.sum_all(ad.mul(ad.recompute(gate, p["u"], p["v"]),
                                     probe))

        assert ad.gradient_check(f, store, h=1e-5) < 1e-6

    def test_gelu_gradient(self):
        rng = np.random.default_rng(23)
        store = ad.ParamStore()
        store.add("x", rng.normal(size=(3, 5)))

        def f(p):
            return ad.sum_all(ad.gelu(ad.mul(p["x"], p["x"])))

        assert ad.gradient_check(f, store, h=1e-5) < 1e-6

    def test_requires_double(self):
        store = ad.ParamStore(dtype=np.float32)
        store.add("x", np.ones(2))
        with pytest.raises(ConfigError, match="float64"):
            ad.gradient_check(lambda p: ad.sum_all(p["x"]), store)

    def test_step_size_bounds(self):
        store = ad.ParamStore()
        store.add("x", np.ones(2))
        with pytest.raises(ConfigError, match="1e-6"):
            ad.gradient_check(lambda p: ad.sum_all(p["x"]), store, h=1e-2)


class TestParamStore:
    def test_duplicate_name_rejected(self):
        store = ad.ParamStore()
        store.add("a", np.zeros(2))
        with pytest.raises(ConfigError, match="duplicate"):
            store.add("a", np.zeros(2))

    def test_grad_slots_pair_values(self):
        store = ad.ParamStore(np.float32)
        t = store.add("w", np.arange(12.0).reshape(3, 4))
        assert t.grad is None  # made by backward, not by add
        x = np.ones((5, 4), dtype=np.float32)
        with ad.Tape() as tape:
            # linear's transpose hands the weight a transposed view
            tape.backward(ad.sum_all(ad.linear(x, t, np.float32(0.0))))
        assert t.grad.shape == t.data.shape and t.grad.dtype == t.data.dtype
        assert t.grad.flags.c_contiguous
        np.testing.assert_array_equal(t.grad, np.full((3, 4), 5.0))
        store.zero_grad()
        assert t.grad is None

    def test_total_scalars_and_norm(self):
        store = ad.ParamStore()
        store.add("a", np.ones((2, 3)))
        store.add("b", np.full(4, 2.0))
        assert store.total_scalars() == 10
        store["a"].grad = np.full((2, 3), 2.0)
        assert store.grad_norm() == pytest.approx(np.sqrt(24.0))
