"""Tests for the waveform codec: framing formula, masking, round trips."""

import numpy as np
import pytest

from monosep import autodiff as ad
from monosep import codec
from monosep.errors import ConfigError, InputTooShortError


def make_params(n_feat=4, kernel=8, seed=0):
    store = ad.ParamStore()
    rng = np.random.default_rng(seed)
    return codec.init_codec(store, "codec", n_feat, kernel, rng), store


class TestEncode:
    @pytest.mark.parametrize("t,k,expected", [(16, 8, 3), (32000, 16, 3999)])
    def test_frame_count_formula(self, t, k, expected):
        assert codec.num_frames(t, k) == expected
        params, _ = make_params(n_feat=3, kernel=k)
        out = codec.encode(np.zeros(t), params, k)
        assert out.shape == (expected, 3)

    def test_zero_input_negative_bias_clamps(self):
        params, _ = make_params()
        params.enc_bias.data[:] = -1.0
        out = codec.encode(np.zeros(64), params, 8)
        np.testing.assert_array_equal(out.data, np.zeros_like(out.data))

    def test_output_non_negative(self):
        params, _ = make_params()
        rng = np.random.default_rng(1)
        out = codec.encode(rng.normal(size=123), params, 8)
        assert out.data.min() >= 0.0

    def test_too_short(self):
        params, _ = make_params()
        with pytest.raises(InputTooShortError):
            codec.encode(np.zeros(7), params, 8)

    def test_odd_kernel_rejected(self):
        params, _ = make_params()
        with pytest.raises(ConfigError, match="even"):
            codec.encode(np.zeros(32), params, 7)

    def test_padding_to_next_stride(self):
        # T=17, K=8, stride 4: remainder 1 -> pad 3 -> S=4
        assert codec.pad_amount(17, 8) == 3
        assert codec.num_frames(17, 8) == 4


class TestApplyMask:
    def setup_method(self):
        rng = np.random.default_rng(2)
        self.feats = ad.Tensor(rng.uniform(0, 1, size=(6, 4)))
        self.rng = rng

    def test_identity_mask(self):
        masks = ad.Tensor(np.ones((6, 2, 4)))
        out = codec.apply_mask(self.feats, masks, 0)
        np.testing.assert_array_equal(out.data, self.feats.data)

    def test_zero_mask(self):
        masks = ad.Tensor(np.zeros((6, 2, 4)))
        out = codec.apply_mask(self.feats, masks, 1)
        np.testing.assert_array_equal(out.data, np.zeros((6, 4)))

    def test_masks_partitioning_unity(self):
        a = self.rng.uniform(0, 1, size=(6, 4))
        masks = ad.Tensor(np.stack([a, 1.0 - a], axis=1))
        total = sum(
            codec.apply_mask(self.feats, masks, i).data for i in range(2)
        )
        np.testing.assert_allclose(total, self.feats.data, atol=1e-15)

    def test_speaker_out_of_range(self):
        masks = ad.Tensor(np.ones((6, 2, 4)))
        with pytest.raises(IndexError, match="speaker 2"):
            codec.apply_mask(self.feats, masks, 2)


class TestDecode:
    def test_length_formula(self):
        params, _ = make_params()
        out = codec.decode(np.zeros((3, 4)), params, 8)
        assert out.shape == (16,)  # (3-1)*4 + 8

    def test_zeros_decode_to_zeros(self):
        params, _ = make_params()
        out = codec.decode(np.zeros((5, 4)), params, 8)
        np.testing.assert_array_equal(out.data, np.zeros(24))

    @pytest.mark.parametrize("t,k", [(16000, 8), (16000, 16), (1234, 8)])
    def test_round_trip_length(self, t, k):
        params, _ = make_params(n_feat=6, kernel=k, seed=3)
        rng = np.random.default_rng(4)
        wave = rng.normal(size=t)
        feats = codec.encode(wave, params, k)
        back = codec.decode(feats, params, k, trim_to=t)
        assert back.shape == (t,)

    def test_trim_longer_than_output(self):
        params, _ = make_params()
        with pytest.raises(ConfigError, match="trim"):
            codec.decode(np.zeros((3, 4)), params, 8, trim_to=99)

    def test_positive_orthant_linearity(self):
        # positive weights, zero bias, positive input: the encoder ReLU never
        # gates, so encode->decode is linear and scaling commutes through
        params, _ = make_params(n_feat=5, kernel=8, seed=5)
        rng = np.random.default_rng(6)
        params.enc_weight.data[:] = np.abs(params.enc_weight.data)
        wave = rng.uniform(0.1, 1.0, size=200)

        def round_trip(w):
            return codec.decode(codec.encode(w, params, 8), params, 8, trim_to=200)

        a = 3.7
        one = round_trip(wave)
        scaled = round_trip(a * wave)
        np.testing.assert_allclose(scaled.data, a * one.data, atol=1e-8)

    def test_gradient_through_codec(self):
        store = ad.ParamStore()
        rng = np.random.default_rng(7)
        params = codec.init_codec(store, "codec", 3, 8, rng)
        wave = rng.normal(size=40)
        probe = rng.normal(size=40)

        def f(p):
            feats = codec.encode(wave, params, 8)
            return ad.sum_all(
                ad.mul(codec.decode(feats, params, 8, trim_to=40), ad.Tensor(probe))
            )

        assert ad.gradient_check(f, store, h=1e-5) < 1e-6
