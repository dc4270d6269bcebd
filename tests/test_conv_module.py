"""Tests for the convolution module and its dense ablation stand-in."""

import gc
import tracemalloc

import numpy as np
import pytest

from monosep import attention as attn
from monosep import autodiff as ad
from monosep import conv_module as cm
from monosep import masking
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


def reference_joint_attention(x, values, gates, p, rng=None):
    """Joint attention that runs its own shared module on the block input."""
    q_loc, k_loc, q_glob, k_glob = attn.derive_qk(
        composed_conv_module(x, p.shared, rng), p)
    if p.mode == "local_only":
        return attn.local_attention(q_loc, k_loc, values, gates, p.chunk_size)
    if p.mode == "global_only":
        return attn.global_attention(q_glob, k_glob, values, gates)
    lv, lg = attn.local_attention(q_loc, k_loc, values, gates, p.chunk_size)
    gv, gg = attn.global_attention(q_glob, k_glob, values, gates)
    return ad.add(lv, gv), ad.add(lg, gg)


def reference_block(x, p, rng=None):
    """The block as separate primitives: each of the gate, value and shared
    modules normalizes its own copy of the input, and the gating products
    and activation are recorded, each keeping its own arrays for backward.
    Dropout masks are drawn in the same order as the block draws them."""
    x = ad.as_tensor(x)
    gate_seq = composed_conv_module(x, p.to_gate, rng)
    value_seq = composed_conv_module(x, p.to_value, rng)
    value_attn, gate_attn = reference_joint_attention(x, value_seq, gate_seq,
                                                      p.attn, rng)
    gated = ad.mul(gate_attn, value_seq)
    if not p.single_gate:
        gated = ad.mul(
            ad.activation(p.gate_phi, ad.mul(gate_seq, value_attn)), gated
        )
    return ad.add(x, composed_conv_module(gated, p.out_proj, rng))


class TestFusedStage:
    """The block, with its shared-normalization ``conv_stage``, recomputed
    gating and recomputed chunk scores, against ``reference_block``."""

    @staticmethod
    def compose(monkeypatch):
        """Run every block as ``reference_block`` from now on; returns the
        list of blocks it has run, so that a test sees whether the model
        reached it."""
        ran = []

        def composed(x, p, rng=None):
            ran.append(p)
            return reference_block(x, p, rng)

        monkeypatch.setattr(masking, "block_forward", composed)
        return ran

    @staticmethod
    def step(cfg, dtype, samples=1200):
        """Loss and every parameter gradient of one taped step, as bytes."""
        model = build_model(cfg, seed=3, dtype=dtype)
        data = np.random.default_rng(4)
        mixture = data.normal(size=samples).astype(dtype)
        sources = [data.normal(size=samples).astype(dtype) for _ in range(2)]
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
        {"attention_mode": "global_only"},
        {"dense_uv": True},
        {"dense_qk": True},
        *({"gate_phi": phi} for phi in ("relu", "relu_squared", "silu",
                                        "swish", "gelu", "bilinear")),
    ], ids=["dropout", "dense_uv_qk", "single_gate", "local_only",
            "global_only", "dense_uv", "dense_qk", "relu", "relu_squared",
            "silu", "swish", "gelu", "bilinear"])
    def test_loss_and_gradients_bitwise(self, monkeypatch, overrides, dtype):
        # the default tiny preset: joint attention, sigmoid gate, dropout on
        cfg = preset("tiny", **overrides)
        fused = self.step(cfg, dtype)
        ran = self.compose(monkeypatch)
        assert self.step(cfg, dtype) == fused
        assert len(ran) == cfg.n_blocks

    def test_s_width_bitwise(self, monkeypatch):
        # the train_wide shape: S width, 2 blocks, 0.5 s of audio, float32
        cfg = preset("S", n_blocks=2, dropout_p=0.1)
        fused = self.step(cfg, np.float32, samples=4000)
        ran = self.compose(monkeypatch)
        assert self.step(cfg, np.float32, samples=4000) == fused
        assert len(ran) == 2

    def test_block_keeps_at_most_three_quarters(self):
        # one S-width block's taped forward on 1000 frames (0.5 s of audio):
        # the memory its tape holds, fused against composed
        bp = build_model(preset("S", n_blocks=1), seed=0).net.blocks[0]
        x = ad.Tensor(np.random.default_rng(6).normal(size=(1000, 256))
                      .astype(np.float32), requires_grad=True)

        def held(block):
            gc.collect()
            tracemalloc.start()
            try:
                with ad.Tape():
                    out = block(x, bp, np.random.default_rng(7))
                    gc.collect()
                    size = tracemalloc.get_traced_memory()[0]
                del out
            finally:
                tracemalloc.stop()
            return size

        assert held(block_forward) <= 0.75 * held(reference_block)
