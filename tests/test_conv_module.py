"""Tests for the convolution module and its dense ablation stand-in."""

import gc
import tracemalloc

import numpy as np
import pytest

from monosep import autodiff as ad
from monosep import conv_module as cm
from monosep.block import block_forward
from monosep.config import preset
from monosep.errors import ConfigError
from monosep.losses import pit_loss
from monosep.model import build_model, separate


def build(n_in=6, n_out=12, kernel=3, dropout_p=0.0, seed=0):
    store = ad.ParamStore()
    rng = np.random.default_rng(seed)
    p = cm.init_conv_module(store, "m", n_in, n_out, kernel, dropout_p, rng)
    return p, store


def reference_pre_depthwise(x, p):
    """silu(layer_norm(x) @ W^T + b) computed with plain numpy."""
    mean = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    xn = (x - mean) / np.sqrt(var + 1e-5)
    xn = xn * p.norm_gain.data + p.norm_bias.data
    pre = xn @ p.proj_weight.data.T + p.proj_bias.data
    return pre / (1.0 + np.exp(-pre))


class TestForward:
    def test_zero_depthwise_passes_projection(self):
        p, _ = build()
        p.dw_weight.data[:] = 0.0
        x = np.random.default_rng(1).normal(size=(10, 6))
        out = cm.conv_module_forward(ad.Tensor(x), p)
        np.testing.assert_allclose(out.data, reference_pre_depthwise(x, p),
                                   atol=1e-12)

    def test_zero_input_zero_bias_gives_zeros(self):
        p, _ = build()
        out = cm.conv_module_forward(ad.Tensor(np.zeros((7, 6))), p)
        np.testing.assert_array_equal(out.data, np.zeros((7, 12)))

    def test_center_tap_doubles(self):
        p, _ = build(kernel=5)
        p.dw_weight.data[:] = 0.0
        p.dw_weight.data[:, 2] = 1.0  # identity depthwise kernel
        x = np.random.default_rng(2).normal(size=(9, 6))
        out = cm.conv_module_forward(ad.Tensor(x), p)
        np.testing.assert_allclose(out.data, 2.0 * reference_pre_depthwise(x, p),
                                   atol=1e-12)

    @pytest.mark.parametrize("n_in,n_out", [(16, 32), (16, 8), (32, 16)])
    def test_width_contracts(self, n_in, n_out):
        # the three widths a block instantiates: expansion, attention, output
        p, _ = build(n_in=n_in, n_out=n_out, kernel=7, seed=3)
        x = np.random.default_rng(4).normal(size=(11, n_in))
        assert cm.conv_module_forward(ad.Tensor(x), p).shape == (11, n_out)

    def test_eval_mode_bitwise_deterministic(self):
        p, _ = build(dropout_p=0.3)
        x = ad.Tensor(np.random.default_rng(5).normal(size=(8, 6)))
        a = cm.conv_module_forward(x, p)
        b = cm.conv_module_forward(x, p)
        assert np.array_equal(a.data, b.data)

    def test_train_dropout_reproducible_with_seeded_rng(self):
        p, _ = build(dropout_p=0.5)
        x = ad.Tensor(np.random.default_rng(6).normal(size=(8, 6)))
        a = cm.conv_module_forward(x, p, rng=np.random.default_rng(9))
        b = cm.conv_module_forward(x, p, rng=np.random.default_rng(9))
        assert np.array_equal(a.data, b.data)
        c = cm.conv_module_forward(x, p, rng=np.random.default_rng(10))
        assert not np.array_equal(a.data, c.data)

    def test_even_kernel_rejected_at_init(self):
        store = ad.ParamStore()
        with pytest.raises(ConfigError, match="odd"):
            cm.init_conv_module(store, "m", 4, 8, 4, 0.0, np.random.default_rng(0))


class TestSkipFold:
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-13),
                                           (np.float32, 1e-5)])
    @pytest.mark.parametrize("kernel", [1, 7, 31])
    def test_matches_skip_plus_depthwise(self, kernel, dtype, tol):
        # the skip folded into the centre tap against y0 + depthwise(y0)
        store = ad.ParamStore(dtype)
        rng = np.random.default_rng(kernel)
        p = cm.init_conv_module(store, "m", 16, 24, kernel, 0.0, rng)
        x = ad.Tensor(rng.normal(size=(70, 16)).astype(dtype))
        y0 = ad.silu(ad.linear(ad.layer_norm(x, p.norm_gain, p.norm_bias),
                               p.proj_weight, p.proj_bias))
        want = ad.add(y0, ad.depthwise_conv1d(y0, p.dw_weight)).data
        got = cm.conv_module_forward(x, p).data
        assert got.dtype == dtype
        # worst error relative to each frame's largest entry
        err = np.abs(got - want).max(axis=1) / np.abs(want).max(axis=1)
        assert err.max() <= tol


class TestDense:
    def test_norm_and_projection_only(self):
        store = ad.ParamStore()
        rng = np.random.default_rng(7)
        p = cm.init_conv_module(store, "d", 6, 12, None, 0.0, rng)
        x = rng.normal(size=(5, 6))
        out = cm.conv_module_forward(ad.Tensor(x), p)
        mean = x.mean(axis=1, keepdims=True)
        xn = (x - mean) / np.sqrt(x.var(axis=1, keepdims=True) + 1e-5)
        expected = (xn * p.norm_gain.data + p.norm_bias.data) @ p.proj_weight.data.T
        expected += p.proj_bias.data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_project_dispatch(self):
        # calling either params flavour runs its own forward function
        p_conv, _ = build(dropout_p=0.5)
        store = ad.ParamStore()
        p_dense = cm.init_conv_module(store, "d", 6, 12, None, 0.0,
                                      np.random.default_rng(8))
        x = ad.Tensor(np.random.default_rng(9).normal(size=(4, 6)))
        np.testing.assert_array_equal(
            p_conv(x, np.random.default_rng(3)).data,
            cm.conv_module_forward(x, p_conv, np.random.default_rng(3)).data,
        )
        np.testing.assert_array_equal(
            p_dense(x).data, cm.conv_module_forward(x, p_dense).data
        )


class TestGradients:
    def test_full_module(self):
        p, store = build(n_in=5, n_out=7, kernel=3, seed=10)
        x = np.random.default_rng(11).normal(size=(6, 5))
        probe = np.random.default_rng(12).normal(size=(6, 7))

        def f(params):
            out = cm.conv_module_forward(ad.Tensor(x), p)
            return ad.sum_all(ad.mul(out, ad.Tensor(probe)))

        assert ad.gradient_check(f, store, h=1e-5) < 1e-6

    def test_dense_module(self):
        store = ad.ParamStore()
        p = cm.init_conv_module(store, "d", 5, 7, None, 0.0,
                                np.random.default_rng(13))
        x = np.random.default_rng(14).normal(size=(6, 5))
        probe = np.random.default_rng(15).normal(size=(6, 7))

        def f(params):
            return ad.sum_all(ad.mul(cm.conv_module_forward(ad.Tensor(x), p),
                                     ad.Tensor(probe)))

        assert ad.gradient_check(f, store, h=1e-5) < 1e-6


def composed_conv_module(x, p, rng=None):
    """The module as separate primitives: each keeps its own arrays for
    backward (the norm output, the logistic, the silu output)."""
    y0 = ad.linear(ad.layer_norm(x, p.norm_gain, p.norm_bias),
                   p.proj_weight, p.proj_bias)
    if p.dw_weight is None:
        return y0
    y0 = ad.silu(y0)
    taps = p.dw_weight.shape[1]
    centre = np.zeros(taps, dtype=p.dw_weight.dtype)
    centre[taps // 2] = 1.0
    y = ad.depthwise_conv1d(y0, ad.add(p.dw_weight, centre))
    return ad.dropout(y, p.dropout_p, rng)


class TestFusedStage:
    """``conv_stage`` against the same module composed from the standalone
    primitives."""

    @staticmethod
    def step(cfg, dtype):
        """Loss and every parameter gradient of one taped step, as bytes."""
        model = build_model(cfg, seed=3, dtype=dtype)
        data = np.random.default_rng(4)
        mixture = data.normal(size=1200).astype(dtype)
        sources = [data.normal(size=1200).astype(dtype) for _ in range(2)]
        model.store.zero_grad()
        with ad.Tape() as tape:
            loss, _ = pit_loss(separate(model, mixture,
                                        rng=np.random.default_rng(5)),
                               sources)
            tape.backward(loss)
        # an unreached parameter (global attention under local_only) has no
        # gradient on either path
        return [loss.data.tobytes()] + [
            None if t.grad is None else t.grad.tobytes()
            for _, t in model.store.items()]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("overrides", [
        {"dropout_p": 0.3},
        {"dense_uv": True, "dense_qk": True},
        {"single_gate": True},
        {"attention_mode": "local_only"},
    ], ids=["dropout", "dense_uv_qk", "single_gate", "local_only"])
    def test_loss_and_gradients_bitwise(self, monkeypatch, overrides, dtype):
        cfg = preset("tiny", **overrides)
        fused = self.step(cfg, dtype)
        monkeypatch.setattr(cm, "conv_module_forward", composed_conv_module)
        assert self.step(cfg, dtype) == fused

    def test_block_keeps_at_most_three_quarters(self, monkeypatch):
        # one S-width block's taped forward on 1000 frames (0.5 s of audio):
        # the memory its tape holds, fused against composed
        bp = build_model(preset("S", n_blocks=1), seed=0).net.blocks[0]
        x = ad.Tensor(np.random.default_rng(6).normal(size=(1000, 256))
                      .astype(np.float32), requires_grad=True)

        def held():
            gc.collect()
            tracemalloc.start()
            try:
                with ad.Tape():
                    out = block_forward(x, bp, np.random.default_rng(7))
                    gc.collect()
                    size = tracemalloc.get_traced_memory()[0]
                del out
            finally:
                tracemalloc.stop()
            return size

        fused = held()
        monkeypatch.setattr(cm, "conv_module_forward", composed_conv_module)
        assert fused <= 0.75 * held()
