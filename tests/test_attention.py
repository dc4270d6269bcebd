"""Tests for joint attention: dense oracles, RoPE, chunking, branch algebra."""

import math
import weakref
from dataclasses import replace

import numpy as np
import pytest

from monosep import attention as attn
from monosep import autodiff as ad
from monosep import conv_module as cm
from monosep.config import ModelConfig, preset
from monosep.errors import ConfigError


def dense_local_oracle(q, k, v, chunk):
    """Naive triple-loop chunked squared-ReLU attention; the defining oracle."""
    frames, _ = q.shape
    out = np.zeros((frames, v.shape[1]), dtype=v.dtype)
    n_chunks = math.ceil(frames / chunk)
    for h in range(n_chunks):
        lo, hi = h * chunk, min((h + 1) * chunk, frames)
        for i in range(lo, hi):
            for j in range(lo, hi):
                score = np.dot(q[i], k[j]) / chunk
                weight = max(score, 0.0) ** 2
                out[i] += weight * v[j]
    return out


def dense_global_oracle(q, k, v):
    """Quadratic-order product (1/S) (q k^T) v, materializing the score matrix."""
    frames = q.shape[0]
    return ((q @ k.T) / frames) @ v


def rand(shape, seed):
    return np.random.default_rng(seed).normal(size=shape)


class TestLocalAttention:
    def test_single_chunk_matches_dense_oracle(self):
        q, k = rand((8, 4), 0), rand((8, 4), 1)
        v, u = rand((8, 8), 2), rand((8, 8), 3)
        got_v, got_u = attn.local_attention(q, k, v, u, chunk_size=8)
        assert np.abs(got_v.data - dense_local_oracle(q, k, v, 8)).max() < 1e-10
        assert np.abs(got_u.data - dense_local_oracle(q, k, u, 8)).max() < 1e-10

    def test_multi_chunk_matches_dense_oracle(self):
        q, k = rand((20, 4), 4), rand((20, 4), 5)
        v, u = rand((20, 6), 6), rand((20, 6), 7)
        got_v, _ = attn.local_attention(q, k, v, u, chunk_size=8)
        assert np.abs(got_v.data - dense_local_oracle(q, k, v, 8)).max() < 1e-10

    def test_zero_keys_give_zero_output(self):
        q = rand((8, 4), 8)
        v = rand((8, 6), 9)
        got_v, _ = attn.local_attention(q, np.zeros((8, 4)), v, v, chunk_size=8)
        np.testing.assert_array_equal(got_v.data, np.zeros((8, 6)))

    def test_chunks_are_independent(self):
        q, k = rand((16, 4), 10), rand((16, 4), 11)
        v = rand((16, 6), 12)
        base_v, _ = attn.local_attention(q, k, v, v, chunk_size=8)
        bumped = v.copy()
        bumped[8:] += 50.0  # perturb chunk 2 only
        got_v, _ = attn.local_attention(q, k, bumped, bumped, chunk_size=8)
        np.testing.assert_array_equal(got_v.data[:8], base_v.data[:8])
        assert np.abs(got_v.data[8:] - base_v.data[8:]).max() > 0

    def test_padding_neutrality(self):
        # S=12 with P=8 pads the tail chunk; padded rows must not leak
        q, k = rand((12, 4), 13), rand((12, 4), 14)
        v, u = rand((12, 6), 15), rand((12, 6), 16)
        got_v, got_u = attn.local_attention(q, k, v, u, chunk_size=8)
        assert np.abs(got_v.data - dense_local_oracle(q, k, v, 8)).max() < 1e-10
        assert np.abs(got_u.data - dense_local_oracle(q, k, u, 8)).max() < 1e-10

    @pytest.mark.parametrize("unused", ["values", "gates", None])
    def test_gradient_ragged(self, unused):
        # S=21, P=8: two whole chunks and a ragged one of 5. An unused
        # output (the value output under single gating) gets no gradient,
        # so its input's slot stays empty and gradient_check reads it as
        # zero; with both used, the shared closure must run once, not once
        # per output
        store = ad.ParamStore()
        for name, width, seed in (("q", 4, 62), ("k", 4, 63), ("v", 6, 64),
                                  ("u", 6, 65)):
            store.add(name, rand((21, width), seed))
        probes = [ad.Tensor(rand((21, 6), 66)), ad.Tensor(rand((21, 6), 67))]

        def f(p):
            outs = attn.local_attention(p["q"], p["k"], p["v"], p["u"],
                                        chunk_size=8)
            terms = [ad.sum_all(ad.mul(out, probe))
                     for name, out, probe in zip(("values", "gates"), outs,
                                                 probes) if name != unused]
            return terms[0] if len(terms) == 1 else ad.add(*terms)

        assert ad.gradient_check(f, store, h=1e-5) < 1e-6
        if unused is not None:
            assert store["v" if unused == "values" else "u"].grad is None

    def test_score_matrices_counted_once_per_chunk(self, score_builds):
        q, k = rand((20, 4), 17), rand((20, 4), 18)
        v = rand((20, 6), 19)
        attn.local_attention(q, k, v, v, chunk_size=8)
        # one (chunks, P, P) build for the 2 whole chunks of 8 and one for
        # the ragged last chunk of 4: each chunk's scores are built once
        assert score_builds == [(2, 8, 8), (1, 4, 4)]

    def test_scores_freed_before_backward(self, monkeypatch):
        # the tape keeps q and k, not the chunks' scores: backward builds
        # them again, once, from q and k
        made = []
        original = attn._chunk_scores

        def spy(q3, k3, gamma):
            scores = original(q3, k3, gamma)
            made.append(weakref.ref(scores))
            return scores

        monkeypatch.setattr(attn, "_chunk_scores", spy)
        q, k, v, u = (ad.Tensor(rand(s, seed), requires_grad=True)
                      for s, seed in (((20, 4), 27), ((20, 4), 28),
                                      ((20, 6), 29), ((20, 6), 30)))
        with ad.Tape() as tape:
            out_v, out_u = attn.local_attention(q, k, v, u, chunk_size=8)
            assert len(made) == 2 and all(ref() is None for ref in made)
            tape.backward(ad.sum_all(ad.add(out_v, out_u)))
        assert len(made) == 4
        assert all(np.abs(t.grad).max() > 0 for t in (q, k, v, u))


class TestGlobalAttention:
    def test_single_frame(self):
        q, k = rand((1, 4), 20), rand((1, 4), 21)
        v = rand((1, 6), 22)
        got_v, _ = attn.global_attention(q, k, v, v)
        np.testing.assert_allclose(got_v.data, (q @ k.T).item() * v, atol=1e-14)

    def test_associativity_against_dense_order(self):
        q, k = rand((64, 8), 23), rand((64, 8), 24)
        v, u = rand((64, 16), 25), rand((64, 16), 26)
        got_v, got_u = attn.global_attention(q, k, v, u)
        for got, x in ((got_v, v), (got_u, u)):
            want = dense_global_oracle(q, k, x)
            rel = np.abs(got.data - want).max() / np.abs(want).max()
            assert rel < 1e-8

    def test_zero_values(self):
        q, k = rand((8, 4), 27), rand((8, 4), 28)
        got_v, _ = attn.global_attention(q, k, np.zeros((8, 6)), np.zeros((8, 6)))
        np.testing.assert_array_equal(got_v.data, np.zeros((8, 6)))


class TestRope:
    def test_position_zero_identity(self):
        x = rand((5, 8), 32)
        out = attn.rope(x)
        np.testing.assert_array_equal(out.data[0], x[0])

    def test_norm_preserved(self):
        x = rand((50, 16), 33)
        out = attn.rope(x)
        np.testing.assert_allclose(
            np.linalg.norm(out.data, axis=1), np.linalg.norm(x, axis=1),
            atol=1e-12,
        )

    def test_inner_products_depend_on_offset_only(self):
        q, k = rand((9, 8), 34), rand((9, 8), 35)
        rq, rk = attn.rope(q).data, attn.rope(k).data
        a = np.dot(rq[5], rk[3])
        # same query/key content placed at positions 7 and 5: same offset 2
        q2, k2 = q.copy(), k.copy()
        q2[7], k2[5] = q[5], k[3]
        b = np.dot(attn.rope(q2).data[7], attn.rope(k2).data[5])
        assert abs(a - b) < 1e-10

    def test_first_pair_angle_is_position(self):
        # theta_0 = 1 for any base: row m of a 2-dim input rotates by m radians
        x = np.tile([1.0, 0.0], (4, 1))
        for base in (10.0, 10000.0):
            out = attn.rope(x, base=base)
            m = np.arange(4)
            np.testing.assert_allclose(out.data[:, 0], np.cos(m), atol=1e-12)
            np.testing.assert_allclose(out.data[:, 1], np.sin(m), atol=1e-12)

    def test_odd_dim_rejected(self):
        with pytest.raises(ConfigError, match="even"):
            attn.rope(np.zeros((4, 5)))

    def test_gradient(self):
        store = ad.ParamStore()
        store.add("x", rand((6, 8), 36))
        probe = rand((6, 8), 37)

        def f(p):
            return ad.sum_all(ad.mul(attn.rope(p["x"]), ad.Tensor(probe)))

        assert ad.gradient_check(f, store, h=1e-5) < 1e-6


def attention_config(**fields):
    return ModelConfig(**{"n_feat": 6, "attn_dim": 4, "dw_kernel": 3,
                          "chunk_size": 8, "dropout_p": 0.0, **fields})


def build_attention(n_in=6, attn_dim=4, chunk=8, seed=38, dense=False):
    store = ad.ParamStore()
    rng = np.random.default_rng(seed)
    p = attn.init_attention(store, "attn", attention_config(
        n_feat=n_in, attn_dim=attn_dim, chunk_size=chunk, dense_qk=dense), rng)
    # break the identity initialization so branches differ
    for t in (p.local_q_scale, p.local_k_scale, p.global_q_scale,
              p.global_k_scale):
        t.data[:] = rng.uniform(0.5, 1.5, t.shape)
    for t in (p.local_q_offset, p.local_k_offset, p.global_q_offset,
              p.global_k_offset):
        t.data[:] = rng.uniform(-0.5, 0.5, t.shape)
    return p, store


class TestDeriveQk:
    def test_identity_transform_at_position_zero(self):
        store = ad.ParamStore()
        p = attn.init_attention(store, "attn", attention_config(),
                                np.random.default_rng(39))
        shared = ad.Tensor(rand((5, 4), 40))
        q_loc, k_loc, q_glob, k_glob = attn.derive_qk(shared, p)
        for t in (q_loc, k_loc, q_glob, k_glob):
            np.testing.assert_array_equal(t.data[0], shared.data[0])

    def test_zero_scale_keeps_only_offset(self):
        store = ad.ParamStore()
        p = attn.init_attention(store, "attn", attention_config(),
                                np.random.default_rng(41))
        p.local_q_scale.data[:] = 0.0
        p.local_q_offset.data[:] = [1.0, 2.0, 3.0, 4.0]
        shared = ad.Tensor(rand((5, 4), 42))
        q_loc = attn.derive_qk(shared, p)[0]
        want = attn.rope(np.tile(p.local_q_offset.data, (5, 1))).data
        np.testing.assert_allclose(q_loc.data, want, atol=1e-14)

    def test_four_streams_distinct(self):
        p, _ = build_attention()
        shared = ad.Tensor(rand((7, 4), 43))
        outs = [t.data for t in attn.derive_qk(shared, p)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.abs(outs[i] - outs[j]).max() > 1e-6


class TestJointAttention:
    def test_joint_is_sum_of_branches(self):
        p, _ = build_attention()
        x = ad.Tensor(rand((20, 6), 44))
        v, u = ad.Tensor(rand((20, 8), 45)), ad.Tensor(rand((20, 8), 46))
        shared = cm.conv_module_forward(x, p.shared)
        jv, ju = attn.joint_attention(shared, v, u, p)
        lv, lu = attn.joint_attention(shared, v, u,
                                      replace(p, mode="local_only"))
        gv, gu = attn.joint_attention(shared, v, u,
                                      replace(p, mode="global_only"))
        assert np.array_equal(jv.data, lv.data + gv.data)
        assert np.array_equal(ju.data, lu.data + gu.data)

    def test_zeroed_global_keys_reduce_to_local(self):
        p, _ = build_attention()
        p.global_k_scale.data[:] = 0.0
        p.global_k_offset.data[:] = 0.0
        x = ad.Tensor(rand((12, 6), 47))
        v, u = ad.Tensor(rand((12, 8), 48)), ad.Tensor(rand((12, 8), 49))
        shared = cm.conv_module_forward(x, p.shared)
        jv, _ = attn.joint_attention(shared, v, u, p)
        lv, _ = attn.joint_attention(shared, v, u,
                                     replace(p, mode="local_only"))
        np.testing.assert_array_equal(jv.data, lv.data)

    def test_zeroed_local_keys_reduce_to_global(self):
        p, _ = build_attention()
        p.local_k_scale.data[:] = 0.0
        p.local_k_offset.data[:] = 0.0
        x = ad.Tensor(rand((12, 6), 50))
        v, u = ad.Tensor(rand((12, 8), 51)), ad.Tensor(rand((12, 8), 52))
        shared = cm.conv_module_forward(x, p.shared)
        jv, _ = attn.joint_attention(shared, v, u, p)
        gv, _ = attn.joint_attention(shared, v, u,
                                     replace(p, mode="global_only"))
        np.testing.assert_array_equal(jv.data, gv.data)

    def test_unknown_mode(self):
        # the mode is checked once, when the config is validated
        with pytest.raises(ConfigError, match="attention_mode"):
            preset("tiny", attention_mode="softmax")

    def test_dense_shared_variant_runs(self):
        p, _ = build_attention(dense=True)
        x = ad.Tensor(rand((10, 6), 54))
        v, u = ad.Tensor(rand((10, 8), 55)), ad.Tensor(rand((10, 8), 56))
        jv, ju = attn.joint_attention(cm.conv_module_forward(x, p.shared), v,
                                      u, p)
        assert jv.shape == (10, 8) and ju.shape == (10, 8)

    def test_branch_outputs_freed_before_backward(self, monkeypatch):
        # once the joint sum has consumed local_attention's outputs, no
        # backward closure reads them, so the tape does not keep them alive
        p, store = build_attention(seed=62)
        seen = []
        local = attn.local_attention

        def spy(*args, **kwargs):
            outs = local(*args, **kwargs)
            seen.extend(weakref.ref(o.data) for o in outs)
            return outs

        monkeypatch.setattr(attn, "local_attention", spy)
        store.zero_grad()
        with ad.Tape() as tape:
            jv, ju = attn.joint_attention(
                cm.conv_module_forward(ad.Tensor(rand((20, 6), 63)), p.shared),
                ad.Tensor(rand((20, 8), 64)),
                ad.Tensor(rand((20, 8), 65)), p)
            assert len(seen) == 2 and all(ref() is None for ref in seen)
            tape.backward(ad.sum_all(ad.mul(ad.add(jv, ju),
                                            ad.Tensor(rand((20, 8), 66)))))
        # the local branch's closure still ran, reading its outputs'
        # gradients from their nodes
        assert np.abs(p.local_q_scale.grad).max() > 0

    def test_gradient_through_joint(self):
        p, store = build_attention(seed=57)
        x_data = rand((10, 6), 58)
        v_data, u_data = rand((10, 8), 59), rand((10, 8), 60)
        probe = rand((10, 8), 61)

        def f(params):
            jv, ju = attn.joint_attention(
                cm.conv_module_forward(ad.Tensor(x_data), p.shared),
                ad.Tensor(v_data), ad.Tensor(u_data), p
            )
            return ad.sum_all(ad.mul(ad.add(jv, ju), ad.Tensor(probe)))

        assert ad.gradient_check(f, store, h=1e-5) < 1e-5
