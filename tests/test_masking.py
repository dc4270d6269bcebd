"""Tests for positional encodings, the masking net, and model assembly."""

import numpy as np
import pytest

from monosep import autodiff as ad
from monosep import config as cfg_mod
from monosep import masking, model
from monosep.errors import ConfigError


class TestPositionalEncoding:
    def test_row_zero(self):
        pe = masking.positional_encoding(4, 6)
        np.testing.assert_array_equal(pe[0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])

    def test_bounded(self):
        pe = masking.positional_encoding(200, 16)
        assert pe.min() >= -1.0 and pe.max() <= 1.0

    def test_rows_distinct(self):
        pe = masking.positional_encoding(64, 8)
        for m in range(64):
            for n in range(m + 1, 64):
                assert np.abs(pe[m] - pe[n]).max() > 1e-6

    def test_odd_dim_rejected(self):
        with pytest.raises(ConfigError, match="even"):
            masking.positional_encoding(4, 5)


def tiny_model(seed=0, **overrides):
    cfg = cfg_mod.preset("tiny", dropout_p=0.0, **overrides)
    return model.build_model(cfg, seed=seed)


class TestMaskingNet:
    def test_mask_shape_and_sign(self):
        m = tiny_model()
        rng = np.random.default_rng(1)
        feats = ad.Tensor(rng.uniform(0, 1, size=(20, 16)))
        masks = masking.masking_net_forward(feats, m.net)
        assert masks.shape == (20, 2, 16)
        assert masks.data.min() >= 0.0

    def test_zero_output_head_gives_zero_masks(self):
        m = tiny_model()
        m.net.out_weight.data[:] = 0.0
        m.net.out_bias.data[:] = 0.0
        feats = ad.Tensor(np.random.default_rng(2).uniform(0, 1, size=(9, 16)))
        masks = masking.masking_net_forward(feats, m.net)
        np.testing.assert_array_equal(masks.data, np.zeros((9, 2, 16)))

    def test_speaker_major_reshape(self):
        # bias the output head so speaker 0 rows get +1 and speaker 1 rows +3;
        # masks must separate them along the speaker axis
        m = tiny_model()
        m.net.out_weight.data[:] = 0.0
        m.net.out_bias.data[:16] = 1.0
        m.net.out_bias.data[16:] = 3.0
        feats = ad.Tensor(np.random.default_rng(3).uniform(0, 1, size=(5, 16)))
        masks = masking.masking_net_forward(feats, m.net)
        np.testing.assert_array_equal(masks.data[:, 0], np.ones((5, 16)))
        np.testing.assert_array_equal(masks.data[:, 1], np.full((5, 16), 3.0))

    def test_eval_deterministic(self):
        m = tiny_model(seed=4)
        feats = ad.Tensor(np.random.default_rng(5).uniform(0, 1, size=(12, 16)))
        a = masking.masking_net_forward(feats, m.net)
        b = masking.masking_net_forward(feats, m.net)
        assert np.array_equal(a.data, b.data)

    def test_bad_feature_rank(self):
        m = tiny_model()
        with pytest.raises(ConfigError, match="S, N"):
            masking.masking_net_forward(np.zeros(16), m.net)


class TestModelAssembly:
    def test_separation_shapes(self):
        m = tiny_model(seed=6)
        rng = np.random.default_rng(7)
        mixture = rng.normal(size=500) * 0.1
        outs = model.separate(m, mixture)
        assert len(outs) == 2
        for est in outs:
            assert est.shape == (500,)

    def test_three_speakers(self):
        m = tiny_model(seed=8, n_speakers=3)
        outs = model.separate(m, np.random.default_rng(9).normal(size=300))
        assert len(outs) == 3

    def test_float32_stays_float32(self):
        cfg = cfg_mod.preset("tiny", dropout_p=0.0)
        m = model.build_model(cfg, seed=10, dtype=np.float32)
        outs = model.separate(m, np.random.default_rng(11).normal(size=200))
        assert all(est.dtype == np.float32 for est in outs)

    def test_count_parameters_r_doubling(self):
        base = cfg_mod.preset("tiny", dropout_p=0.0)
        doubled = cfg_mod.preset("tiny", dropout_p=0.0, n_blocks=2)
        n1 = model.count_parameters(base)
        n2 = model.count_parameters(doubled)
        per_block = n2 - n1  # one extra block's worth
        non_block = n1 - per_block
        assert per_block > 0 and non_block > 0
        # block subtotal doubles when R doubles
        assert n2 == non_block + 2 * per_block

    def test_forward_ignores_config_after_build(self):
        # ablation choices are fixed when the model is built
        m = tiny_model(seed=14, attention_mode="local_only", single_gate=True)
        mixture = np.random.default_rng(15).normal(size=300)
        before = [t.data for t in model.separate(m, mixture)]
        m.config.attention_mode, m.config.single_gate = "joint", False
        after = [t.data for t in model.separate(m, mixture)]
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a, b)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            cfg_mod.preset("XL")

    def test_full_model_gradient(self):
        m = tiny_model(seed=12)
        rng = np.random.default_rng(13)
        mixture = rng.normal(size=96) * 0.5
        probe = [rng.normal(size=96) for _ in range(2)]

        def f(store):
            outs = model.separate(m, mixture)
            total = ad.sum_all(ad.mul(outs[0], ad.Tensor(probe[0])))
            return ad.add(total, ad.sum_all(ad.mul(outs[1], ad.Tensor(probe[1]))))

        assert ad.gradient_check(f, m.store, h=1e-5) < 1e-4
