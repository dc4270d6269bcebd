"""Tests for the autodiff core: primitives, adjointness, gradient checking."""

import threading

import numpy as np
import pytest

from monosep import autodiff as ad
from monosep.config import preset
from monosep.errors import ConfigError, DimensionError
from monosep.model import build_model, separate


def backprop_scalar(build):
    """Run build() under a tape, backprop its scalar output, return the loss."""
    with ad.Tape() as tape:
        loss = build()
        tape.backward(loss)
    return loss


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
    "dropout": (lambda a: ad.dropout(a, 0.5, np.random.default_rng(0), True),
                [(3,)]),
    "conv1d": (lambda x, w, b: ad.conv1d(x, w, b, stride=2),
               [(9, 2), (3, 2, 3), (3,)]),
    "transposed_conv1d": (lambda x, w: ad.transposed_conv1d(x, w, stride=2),
                          [(5, 2), (2, 3, 4)]),
    "depthwise_conv1d": (ad.depthwise_conv1d, [(9, 2), (2, 3)]),
    "layer_norm": (ad.layer_norm, [(4, 3), (3,), (3,)]),
    "make_op": (lambda a: ad.make_op(
        2.0 * a.data, [a], lambda g: ad.accumulate_grad(a, 2.0 * g)), [(3,)]),
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
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_blocks_match_reference_bitwise(self, dtype, blocks, extra, K):
        C = 512
        rows = ad._DEPTHWISE_BLOCK_BYTES // (C * np.dtype(dtype).itemsize)
        rng = np.random.default_rng(K)
        x = rng.normal(size=(blocks * rows + extra, C)).astype(dtype)
        w = rng.normal(size=(C, K)).astype(dtype)
        out = ad.depthwise_conv1d(ad.Tensor(x), ad.Tensor(w)).data
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, reference_depthwise(x, w))

    @pytest.mark.parametrize("L", [1, 11], ids=lambda n: f"L{n}")
    @pytest.mark.parametrize("K", [1, 3, 7], ids=lambda k: f"K{k}")
    def test_gradient_across_blocks(self, monkeypatch, L, K):
        # a 4-frame budget puts L=11 in three blocks, the last one partial
        C = 3
        monkeypatch.setattr(ad, "_DEPTHWISE_BLOCK_BYTES", 4 * C * 8)
        rng = np.random.default_rng(L * 10 + K)
        store = ad.ParamStore()
        store.add("x", rng.normal(size=(L, C)))
        store.add("w", rng.normal(size=(C, K)))

        def f(p):
            y = ad.depthwise_conv1d(p["x"], p["w"])
            return ad.sum_all(ad.mul(y, y))

        assert ad.gradient_check(f, store, h=1e-5) < 1e-6


class TestLayerNorm:
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


class TestActivations:
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


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = ad.Tensor(np.ones((3, 3)))
        assert ad.dropout(x, 0.5, None, train=False) is x

    def test_inverted_scaling_preserves_mean(self):
        rng = np.random.default_rng(9)
        x = ad.Tensor(np.ones((200, 200)))
        out = ad.dropout(x, 0.25, rng, train=True)
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, np.full(kept.size, 1.0 / 0.75))
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_train_mode_needs_rng(self):
        with pytest.raises(ConfigError, match="RNG"):
            ad.dropout(ad.Tensor(np.ones(3)), 0.5, None, train=True)


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
        store = ad.ParamStore()
        t = store.add("w", np.ones((3, 4)))
        assert t.grad.shape == t.data.shape
        store.zero_grad()
        assert np.all(t.grad == 0)

    def test_total_scalars_and_norm(self):
        store = ad.ParamStore()
        store.add("a", np.ones((2, 3)))
        store.add("b", np.full(4, 2.0), trainable=False)
        assert store.total_scalars() == 6
        assert store.total_scalars(trainable_only=False) == 10
        store["a"].grad = np.full((2, 3), 2.0)
        assert store.grad_norm() == pytest.approx(np.sqrt(24.0))
