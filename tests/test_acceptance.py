"""Acceptance suite: twelve numbered criteria, one pass/fail line each.

Every criterion pins its tolerance and runtime envelope in the test body.
Run with plain pytest; the per-criterion verdict lines print even under
output capture so a full run reads as a checklist.
"""

import dataclasses
import itertools
import time

import numpy as np
import pytest

from monosep import autodiff as ad
from monosep import config as cfg_mod
from monosep import model as model_mod
from monosep import synth, train
from monosep.attention import (global_attention, init_attention,
                               joint_attention, local_attention, rope)
from monosep.audio import read_wav, write_wav
from monosep.checkpoint import Checkpoint, load_checkpoint, restore_model, \
    save_checkpoint
from monosep.codec import apply_mask, decode
from monosep.config import PRESET_PARAM_TARGETS, ModelConfig
from monosep.losses import pit_loss, si_sdr
from monosep.masking import masking_net_forward
from monosep.model import build_model, count_parameters, separate


@pytest.fixture(name="verdict")
def verdict_fixture(capsys):
    def emit(number, title, ok, detail):
        line = (f"[criterion {number:02d}] {title}: "
                f"{'PASS' if ok else 'FAIL'} ({detail})")
        with capsys.disabled():
            print(line)
        assert ok, line
    return emit


def fresh_attention(rng, n_in, attn_dim, chunk, dtype=np.float64):
    store = ad.ParamStore(dtype=dtype)
    cfg = ModelConfig(n_feat=n_in, attn_dim=attn_dim, dw_kernel=7,
                      chunk_size=chunk, dropout_p=0.0)
    params = init_attention(store, "a", cfg, rng)
    return store, params


class TestAcceptance:
    def test_01_local_attention_matches_dense_oracle(self, verdict):
        tol = 1e-10
        rng = np.random.default_rng(0)
        frames, chunk, dim, width = 8, 8, 4, 8
        q = rng.normal(size=(frames, dim))
        k = rng.normal(size=(frames, dim))
        values = rng.normal(size=(frames, width))
        gates = rng.normal(size=(frames, width))

        def oracle(x):
            out = np.zeros_like(x)
            for i in range(frames):
                for j in range(frames):
                    score = max(float(q[i] @ k[j]) / chunk, 0.0) ** 2
                    out[i] += score * x[j]
            return out

        got_v, got_g = local_attention(q, k, values, gates, chunk)
        diff = max(np.abs(got_v.data - oracle(values)).max(),
                   np.abs(got_g.data - oracle(gates)).max())
        verdict(1, "local attention matches dense oracle", diff < tol,
                f"max_abs_diff={diff:.3e}, tol={tol:.0e}")

    def test_02_global_attention_associativity(self, verdict):
        tol = 1e-8
        rng = np.random.default_rng(1)
        frames, dim, width = 64, 8, 16
        q = rng.normal(size=(frames, dim))
        k = rng.normal(size=(frames, dim))
        v = rng.normal(size=(frames, width))

        key_first, _ = global_attention(q, k, v, v)
        query_first = ((q @ k.T) / frames) @ v
        rel = np.abs(key_first.data - query_first).max() / \
            np.abs(query_first).max()
        verdict(2, "global attention associativity", rel < tol,
                f"rel_diff={rel:.3e}, tol={tol:.0e}")

    def test_03_joint_equals_local_plus_global(self, verdict):
        exact = True
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            store, params = fresh_attention(rng, n_in=4, attn_dim=4, chunk=8)
            x = ad.Tensor(rng.normal(size=(24, 4)))
            values = ad.Tensor(rng.normal(size=(24, 8)))
            gates = ad.Tensor(rng.normal(size=(24, 8)))
            # all three share the same tensors; only the mode differs
            local = dataclasses.replace(params, mode="local_only")
            glob = dataclasses.replace(params, mode="global_only")
            jv, jg = joint_attention(x, values, gates, params)
            lv, lg = joint_attention(x, values, gates, local)
            gv, gg = joint_attention(x, values, gates, glob)
            exact &= np.array_equal(jv.data, lv.data + gv.data)
            exact &= np.array_equal(jg.data, lg.data + gg.data)
        verdict(3, "joint branch equals local + global", exact,
                "bitwise over 20 seeds")

    def test_04_full_model_gradient_check(self, verdict):
        tol = 1e-4
        start = time.time()
        cfg = cfg_mod.preset("tiny")
        model = build_model(cfg, seed=2, dtype=np.float64)
        mixture, sources = synth.synth_dataset(3, 1, 2, 64)[0]

        def loss_of(store):
            loss, _ = pit_loss(separate(model, mixture), sources)
            return loss

        worst = ad.gradient_check(loss_of, model.store, h=1e-5)
        elapsed = time.time() - start
        verdict(4, "full-model gradient check",
                worst < tol and elapsed < 120,
                f"max_rel_err={worst:.3e}, tol={tol:.0e}, "
                f"elapsed={elapsed:.0f}s < 120s")

    def test_05_preset_shape_conformance(self, verdict):
        start = time.time()
        n_samples = 16000
        ok = True
        details = []
        for name in ("S", "M", "L"):
            cfg = cfg_mod.preset(name)
            model = build_model(cfg, seed=4, dtype=np.float32)
            frames = 2 * (n_samples - cfg.enc_kernel) // cfg.enc_kernel + 1
            mixture = np.random.default_rng(5).normal(
                size=n_samples).astype(np.float32) * 0.1
            features = model_mod.encode_features(model, mixture)
            masks = masking_net_forward(features, model.net)
            ests = [
                decode(apply_mask(features, masks, spk), model.codec,
                       trim_to=n_samples)
                for spk in range(cfg.n_speakers)
            ]
            ok &= features.shape == (frames, cfg.n_feat)
            ok &= masks.shape == (frames, cfg.n_speakers, cfg.n_feat)
            ok &= all(e.shape == (n_samples,) for e in ests)
            details.append(f"{name}:S={frames}")
        elapsed = time.time() - start
        verdict(5, "preset shape conformance",
                ok and elapsed < 30,
                f"{' '.join(details)}, T=16000, elapsed={elapsed:.0f}s < 30s")

    def test_06_parameter_totals_near_published(self, verdict):
        ok = True
        details = []
        for name in ("S", "M"):
            total = count_parameters(cfg_mod.preset(name))
            target = PRESET_PARAM_TARGETS[name]
            rel = total / target - 1.0
            ok &= abs(rel) <= 0.25
            details.append(f"{name}={total} ({rel:+.1%} of {target:.3g})")
        verdict(6, "parameter totals within 25% of published sizes", ok,
                "; ".join(details))

    def test_07_si_sdr_properties(self, verdict):
        tol = 1e-10
        rng = np.random.default_rng(6)
        ref = rng.normal(size=400)
        est = ref + 0.1 * rng.normal(size=400)
        base = si_sdr(est, ref, eps=0.0).item()
        worst = 0.0
        for a in (0.1, 2.0, 100.0):
            worst = max(worst, abs(si_sdr(a * est, ref, eps=0.0).item() - base))
        worst = max(worst, abs(si_sdr(-est, ref, eps=0.0).item() - base))
        hand = si_sdr(np.array([1.0, 1.0]), np.array([1.0, 0.0])).item()

        refs = [rng.normal(size=300) for _ in range(3)]
        ests = [r + 0.2 * rng.normal(size=300) for r in refs]
        loss_id, perm_id = pit_loss(ests[:2], refs[:2])
        loss_sw, perm_sw = pit_loss(ests[:2][::-1], refs[:2])
        pit2 = (abs(loss_id.item() - loss_sw.item()) < 1e-12
                and perm_id == (0, 1) and perm_sw == (1, 0))
        loss3a, _ = pit_loss(ests, refs)
        loss3b, perm3 = pit_loss([ests[2], ests[0], ests[1]], refs)
        pit3 = (abs(loss3a.item() - loss3b.item()) < 1e-12
                and perm3 == (1, 2, 0))
        ok = worst < tol and hand == 0.0 and pit2 and pit3
        verdict(7, "scale-invariant SDR properties", ok,
                f"scale/flip_delta={worst:.3e} < {tol:.0e}, "
                f"hand_case={hand:.1f} dB, pit2={pit2}, pit3={pit3}")

    def test_08_rotary_embedding_properties(self, verdict):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(12, 8))
        rx = rope(x).data
        pos0 = np.abs(rx[0] - x[0]).max()
        norms = np.abs(np.linalg.norm(rx, axis=1)
                       - np.linalg.norm(x, axis=1)).max()
        q = rng.normal(size=8)
        k = rng.normal(size=8)
        tiled_q = rope(np.tile(q, (12, 1))).data
        tiled_k = rope(np.tile(k, (12, 1))).data
        # same positional offset -> same inner product, wherever it sits
        rel = abs(tiled_q[5] @ tiled_k[3] - tiled_q[9] @ tiled_k[7])
        ok = pos0 == 0.0 and norms < 1e-12 and rel < 1e-10
        verdict(8, "rotary embedding properties", ok,
                f"pos0_diff={pos0:.1e}, norm_drift={norms:.3e} < 1e-12, "
                f"offset_dependence={rel:.3e} < 1e-10")

    def test_09_overfit_small_training_set(self, verdict):
        target_db = 10.0
        start = time.time()
        data = synth.synth_dataset(11, 8, 2, 4000)
        cfg = cfg_mod.preset("tiny", dropout_p=0.0)
        model = build_model(cfg, seed=0)
        tcfg = cfg_mod.TrainConfig(lr=2e-3, max_epochs=10 ** 6,
                                   max_steps=2000, hold_epochs=120,
                                   patience=2, seed=1)
        train.train(model, tcfg, data)
        train_items, _ = train.split_dataset(data)
        gain = train.dataset_si_sdri(model, train_items)
        elapsed = time.time() - start
        verdict(9, "overfit eight fixed mixtures",
                gain >= target_db and elapsed < 1800,
                f"train_si_sdri={gain:.1f} dB >= {target_db} dB, "
                f"steps<=2000, elapsed={elapsed:.0f}s < 1800s")

    def test_10_joint_attention_near_linear_scaling(self, verdict):
        slope_tol = 1.3
        start = time.time()
        rng = np.random.default_rng(8)
        store, params = fresh_attention(rng, n_in=64, attn_dim=32, chunk=256,
                                        dtype=np.float32)
        sizes = [2048, 4096, 8192, 16384]

        def time_joint(frames):
            x = ad.Tensor(rng.normal(size=(frames, 64)).astype(np.float32))
            v = ad.Tensor(rng.normal(size=(frames, 128)).astype(np.float32))
            g = ad.Tensor(rng.normal(size=(frames, 128)).astype(np.float32))
            best = np.inf
            for _ in range(3):
                t0 = time.perf_counter()
                joint_attention(x, v, g, params)
                best = min(best, time.perf_counter() - t0)
            return best

        def time_dense(frames):
            q = rng.normal(size=(frames, 32)).astype(np.float32)
            k = rng.normal(size=(frames, 32)).astype(np.float32)
            v = rng.normal(size=(frames, 128)).astype(np.float32)
            best = np.inf
            for _ in range(3):
                t0 = time.perf_counter()
                scores = np.maximum(q @ k.T / 256.0, 0.0) ** 2
                scores @ v
                best = min(best, time.perf_counter() - t0)
            return best

        time_joint(sizes[0])  # warm up BLAS and the rotation-table cache
        joint_times = [time_joint(s) for s in sizes]
        # the dense reference stops at 8192 frames: a 16384^2 float32 score
        # matrix plus temporaries would not fit comfortably in memory
        dense_sizes = sizes[:3]
        dense_times = [time_dense(s) for s in dense_sizes]
        slope = np.polyfit(np.log(sizes), np.log(joint_times), 1)[0]
        dense_slope = np.polyfit(np.log(dense_sizes),
                                 np.log(dense_times), 1)[0]
        elapsed = time.time() - start
        verdict(10, "joint attention scales near-linearly",
                slope < slope_tol and elapsed < 300,
                f"joint_slope={slope:.2f} < {slope_tol}, "
                f"dense_slope={dense_slope:.2f}, elapsed={elapsed:.0f}s")

    def test_11_ablation_variants_train_and_differ(self, verdict):
        start = time.time()
        data = synth.synth_dataset(9, 4, 2, 1200)
        train_items, _ = train.split_dataset(data)
        variants = {
            "local_only": {"attention_mode": "local_only"},
            "global_only": {"attention_mode": "global_only"},
            "single_gate": {"single_gate": True},
            "dense_uv": {"dense_uv": True},
            "dense_qk": {"dense_qk": True},
        }
        losses = {}
        for name, delta in variants.items():
            cfg = cfg_mod.preset("tiny", **delta)
            model = build_model(cfg, seed=10)
            tcfg = cfg_mod.TrainConfig(lr=1e-3, max_epochs=100, max_steps=50,
                                       hold_epochs=100, seed=11)
            train.train(model, tcfg, data)
            losses[name] = train.dataset_loss(model, train_items)
        distinct = len(set(losses.values())) == len(losses)
        finite = all(np.isfinite(v) for v in losses.values())
        elapsed = time.time() - start
        verdict(11, "ablation variants train and stay distinct",
                distinct and finite and elapsed < 600,
                f"losses={{{', '.join(f'{k}={v:.4f}' for k, v in losses.items())}}}, "
                f"elapsed={elapsed:.0f}s < 600s")

    def test_12_checkpoint_round_trip_bitwise(self, verdict, tmp_path):
        start = time.time()
        mixture = synth.synth_dataset(12, 1, 2, 900)[0][0]
        wav = tmp_path / "fixed.wav"
        write_wav(wav, mixture, 8000)
        samples, _ = read_wav(wav)

        cfg = cfg_mod.preset("tiny")
        model = build_model(cfg, seed=13)
        before = [t.data for t in separate(model, samples)]
        ckpt = Checkpoint(
            config=cfg,
            params={n: t.data.copy() for n, t in model.store.items()},
        )
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        restored = restore_model(load_checkpoint(path))
        after = [t.data for t in separate(restored, samples)]
        same = all(np.array_equal(a, b) for a, b in zip(before, after))
        elapsed = time.time() - start
        verdict(12, "checkpoint round-trip reproduces outputs", same,
                f"bitwise over {len(before)} speakers, "
                f"elapsed={elapsed:.0f}s < 60s")
