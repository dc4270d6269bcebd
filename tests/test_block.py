"""Tests for the gated attention block: residual, gating algebra, ablations."""

import dataclasses

import numpy as np
import pytest

from monosep import autodiff as ad
from monosep.block import block_forward, init_block
from monosep.config import ModelConfig, preset
from monosep.errors import ConfigError


def build(n_feat=6, attn_dim=4, chunk=8, seed=0, phi="sigmoid", **flags):
    cfg = ModelConfig(n_feat=n_feat, attn_dim=attn_dim, dw_kernel=3,
                      chunk_size=chunk, dropout_p=0.0, gate_phi=phi, **flags)
    store = ad.ParamStore()
    p = init_block(store, "b0", cfg, np.random.default_rng(seed))
    return p, store


def rand(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


class TestBlockForward:
    def test_zero_output_projection_is_identity(self):
        p, _ = build()
        p.out_proj.proj_weight.data[:] = 0.0
        p.out_proj.dw_weight.data[:] = 0.0
        x = rand((10, 6), 1)
        out = block_forward(x, p)
        # residual only: bitwise identity (projection output is exactly zero)
        np.testing.assert_array_equal(out.data, x)

    def test_zero_attention_gate_algebra(self):
        # zero keys on both branches make the attended pair vanish; with
        # phi=sigmoid the first gate saturates to 0.5 but the second gate is
        # zero, so the projected input is exactly ConvM(0)
        p, _ = build()
        for t in (p.attn.local_k_scale, p.attn.global_k_scale):
            t.data[:] = 0.0
        x = rand((10, 6), 2)
        out = block_forward(x, p)
        from monosep.conv_module import conv_module_forward
        want = x + conv_module_forward(ad.Tensor(np.zeros((10, 12))),
                                       p.out_proj).data
        np.testing.assert_allclose(out.data, want, atol=1e-12)

    def test_single_gate_differs_from_triple(self):
        p, _ = build(seed=3)
        x = rand((10, 6), 4)
        triple = block_forward(x, p)
        single = block_forward(x, dataclasses.replace(p, single_gate=True))
        assert np.abs(triple.data - single.data).max() > 0

    @pytest.mark.parametrize("mode", ["joint", "local_only", "global_only"])
    def test_shape_preserved(self, mode):
        p, _ = build(seed=5, attention_mode=mode)
        x = rand((13, 6), 6)
        out = block_forward(x, p)
        assert out.shape == (13, 6)

    @pytest.mark.parametrize(
        "abl",
        [dict(dense_uv=True), dict(dense_qk=True),
         dict(dense_uv=True, dense_qk=True)],
    )
    def test_dense_ablations_run(self, abl):
        p, _ = build(seed=7, **abl)
        x = rand((9, 6), 8)
        assert block_forward(x, p).shape == (9, 6)

    def test_scores_computed_once_per_chunk(self, score_builds):
        p, _ = build(seed=9)
        x = rand((20, 6), 10)  # 2 chunks of 8 and a ragged one of 4
        block_forward(x, p)
        # one score build per chunk for the single local_attention call,
        # shared by the value and gate paths
        assert score_builds == [(2, 8, 8), (1, 4, 4)]

    @pytest.mark.parametrize("phi", ["relu", "gelu", "swish", "bilinear",
                                     "sigmoid"])
    def test_gate_activation_variants(self, phi):
        p, _ = build(seed=11, phi=phi)
        x = rand((10, 6), 12)
        out = block_forward(x, p)
        assert np.isfinite(out.data).all()

    def test_unknown_gate_phi(self):
        with pytest.raises(ConfigError, match="gate_phi"):
            preset("tiny", gate_phi="tanh")

    def test_eval_deterministic(self):
        p, _ = build(seed=13)
        x = rand((10, 6), 14)
        assert np.array_equal(block_forward(x, p).data, block_forward(x, p).data)


class TestBlockGradient:
    def test_full_block(self):
        p, store = build(n_feat=4, attn_dim=4, chunk=4, seed=15)
        x = rand((6, 4), 16)
        probe = rand((6, 4), 17)

        def f(params):
            return ad.sum_all(ad.mul(block_forward(ad.Tensor(x), p),
                                     ad.Tensor(probe)))

        assert ad.gradient_check(f, store, h=1e-5) < 1e-4

    def test_input_gradient_flows(self):
        p, _ = build(seed=18)
        x = ad.Tensor(rand((8, 6), 19), requires_grad=True)
        with ad.Tape() as tape:
            tape.backward(ad.sum_all(block_forward(x, p)))
        assert x.grad is not None and np.abs(x.grad).max() > 0
