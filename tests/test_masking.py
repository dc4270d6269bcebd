"""Tests for positional encodings, the masking net, and model assembly."""

import tracemalloc

import numpy as np
import pytest

from monosep import autodiff as ad
from monosep import config as cfg_mod
from monosep import masking, model
from monosep.errors import ConfigError, NumericalError


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cached_read_only_table(self, dtype):
        n_pos, dim = 50, 8
        pe = masking.positional_encoding(n_pos, dim, np.dtype(dtype))
        angles = (np.arange(n_pos)[:, None]
                  * 10000.0 ** (-np.arange(0, dim, 2) / dim))
        want = np.empty((n_pos, dim))
        want[:, 0::2], want[:, 1::2] = np.sin(angles), np.cos(angles)
        assert pe.dtype == dtype and not pe.flags.writeable
        assert pe.tobytes() == want.astype(dtype).tobytes()
        with pytest.raises(ValueError):
            pe[0, 0] = 1.0

        # every forward of the same (S, N, dtype) reads the one table
        m = tiny_model()
        features = model.encode_features(m, np.zeros(400))
        masking.masking_net_forward(features, m.net)
        table = masking.positional_encoding(*features.shape, features.dtype)
        hits = masking.positional_encoding.cache_info().hits
        masking.masking_net_forward(features, m.net)
        assert masking.positional_encoding.cache_info().hits == hits + 1
        assert masking.positional_encoding(
            *features.shape, features.dtype) is table


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

    def test_rng_means_training_mode(self):
        # passing an RNG is what turns dropout on
        cfg = cfg_mod.preset("tiny", dropout_p=0.5)
        m = model.build_model(cfg, seed=16)
        mixture = np.random.default_rng(17).normal(size=300)
        inference = [t.data for t in model.separate(m, mixture)]
        first = [t.data for t in
                 model.separate(m, mixture, rng=np.random.default_rng(1))]
        again = [t.data for t in
                 model.separate(m, mixture, rng=np.random.default_rng(1))]
        assert not np.array_equal(first[0], inference[0])
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a, b)

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

    def test_default_dtype_is_float32(self):
        m = model.build_model(cfg_mod.preset("tiny"))
        assert m.store.dtype == np.float32

    def test_gradient_check_on_default_model_says_how_to_fix(self):
        m = tiny_model()
        with pytest.raises(ConfigError, match=r"dtype=np\.float64"):
            ad.gradient_check(lambda store: ad.sum_all(m.net.out_bias), m.store)

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

    @pytest.mark.parametrize("name,overrides", [
        ("tiny", {}), ("S", {}),
        ("tiny", {"dense_uv": True}), ("tiny", {"dense_qk": True}),
        ("tiny", {"single_gate": True}),
        ("tiny", {"attention_mode": "local_only"}),
    ])
    def test_count_parameters_matches_built_model(self, name, overrides):
        cfg = cfg_mod.preset(name, **overrides)
        assert (model.count_parameters(cfg)
                == model.build_model(cfg).store.total_scalars())

    def test_count_parameters_allocates_no_weights(self):
        cfg = cfg_mod.preset("L")
        tracemalloc.start()
        try:
            total = model.count_parameters(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert total > 40e6 and peak < 1e6  # the weights alone are 178 MB

    def test_forward_ignores_config_after_build(self):
        # every choice, the codec kernel and speaker count included, is
        # fixed when the model is built
        m = tiny_model(seed=14, attention_mode="local_only", single_gate=True)
        mixture = np.random.default_rng(15).normal(size=300)
        before = [t.data for t in model.separate(m, mixture)]
        m.config.attention_mode, m.config.single_gate = "joint", False
        m.config.enc_kernel, m.config.n_speakers = 16, 1
        after = [t.data for t in model.separate(m, mixture)]
        assert len(after) == len(before) == 2
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_mixture_rejected(self, bad):
        mixture = np.random.default_rng(16).normal(size=300)
        mixture[7] = bad
        with pytest.raises(NumericalError, match="mixture"):
            model.separate(tiny_model(seed=17), mixture)

    @pytest.mark.parametrize("field,value", [
        ("enc_kernel", 0), ("n_feat", 15), ("chunk_size", 0),
        ("n_blocks", 0), ("n_blocks", -1), ("attn_dim", 0),
        ("dw_kernel", -1), ("sample_rate", 0),
    ])
    def test_invalid_config_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            cfg_mod.preset("tiny", **{field: value})

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            cfg_mod.preset("XL")

    def test_full_model_gradient(self):
        # finite differences need double precision; models default to float32
        m = model.build_model(cfg_mod.preset("tiny", dropout_p=0.0), seed=12,
                              dtype=np.float64)
        rng = np.random.default_rng(13)
        mixture = rng.normal(size=96) * 0.5
        probe = [rng.normal(size=96) for _ in range(2)]

        def f(store):
            outs = model.separate(m, mixture)
            total = ad.sum_all(ad.mul(outs[0], ad.Tensor(probe[0])))
            return ad.add(total, ad.sum_all(ad.mul(outs[1], ad.Tensor(probe[1]))))

        assert ad.gradient_check(f, m.store, h=1e-5) < 1e-4
