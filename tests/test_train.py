"""Tests for data synthesis, the optimizer, the schedule, and the loop."""

import re

import numpy as np
import pytest

from monosep import autodiff as ad
from monosep import config as cfg_mod
from monosep import model as model_mod
from monosep import synth, train
from monosep.checkpoint import Checkpoint
from monosep.errors import ConfigError, NumericalError


class TestSynth:
    def test_mixture_is_exact_sum(self):
        for mixture, sources in synth.synth_dataset(0, 3, 2, 500):
            exact = sources[0] + sources[1]
            np.testing.assert_array_equal(mixture, exact)

    def test_three_speaker_sum(self):
        for mixture, sources in synth.synth_dataset(1, 2, 3, 400):
            exact = (sources[0] + sources[1]) + sources[2]
            np.testing.assert_array_equal(mixture, exact)

    def test_seed_reproducible(self):
        a = synth.synth_dataset(7, 4, 2, 300)
        b = synth.synth_dataset(7, 4, 2, 300)
        for (ma, sa), (mb, sb) in zip(a, b):
            assert np.array_equal(ma, mb)
            for x, y in zip(sa, sb):
                assert np.array_equal(x, y)

    def test_fundamentals_distinct_across_draws(self):
        seen = set()
        for seed in range(100):
            rng = np.random.default_rng(seed)
            for f0 in synth.draw_fundamentals(rng, 3):
                assert f0 not in seen
                seen.add(f0)

    def test_speaker_bands_disjoint(self):
        rng = np.random.default_rng(2)
        lows, mids, highs = zip(
            *(synth.draw_fundamentals(rng, 3) for _ in range(50))
        )
        assert max(lows) < min(mids) < max(mids) < min(highs)

    def test_speaker_count_bounds(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ConfigError, match="n_speakers"):
            synth.draw_fundamentals(rng, 4)

    @pytest.mark.parametrize("count,n_speakers,n_samples,field", [
        (1, 2, 0, "n_samples"), (2, 2, -5, "n_samples"),
        (0, 2, 0, "n_samples"), (0, 0, 100, "n_speakers"),
    ])
    def test_empty_request_rejected(self, count, n_speakers, n_samples, field):
        with pytest.raises(ConfigError, match=field):
            synth.synth_dataset(0, count, n_speakers, n_samples)


class TestAdam:
    def test_matches_reference_update(self):
        store = ad.ParamStore()
        p = store.add("theta", np.array([1.0]))
        opt = train.Adam(store, lr=0.1)

        theta = 1.0
        m = v = 0.0
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        for t in range(1, 4):
            g = 0.5 * theta  # gradient of 0.25 * theta^2
            p.grad = np.array([g])
            opt.step()
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            theta -= 0.1 * (m / (1 - beta1 ** t)) / (
                np.sqrt(v / (1 - beta2 ** t)) + eps
            )
            assert abs(p.data[0] - theta) < 1e-12

    def test_clip_rescales_to_bound(self):
        store = ad.ParamStore()
        a = store.add("a", np.zeros(3))
        b = store.add("b", np.zeros(4))
        a.grad = np.full(3, 10.0)
        b.grad = np.full(4, 10.0)  # global norm sqrt(700) ~ 26.5
        pre = train.clip_gradient_norm(store, 5.0)
        assert pre == pytest.approx(np.sqrt(700.0))
        assert store.grad_norm() == pytest.approx(5.0, abs=1e-6)

    def test_clip_leaves_small_gradients_alone(self):
        store = ad.ParamStore()
        a = store.add("a", np.zeros(2))
        a.grad = np.array([0.3, 0.4])
        train.clip_gradient_norm(store, 5.0)
        np.testing.assert_array_equal(a.grad, [0.3, 0.4])

    def test_step_skips_a_missing_gradient(self):
        store = ad.ParamStore()
        a = store.add("a", np.ones(3))
        b = store.add("b", np.full(2, 2.0))
        opt = train.Adam(store, lr=0.1)
        a.grad = np.full(3, 0.5)  # b.grad stays None: no backward reached it
        opt.step()
        assert b.grad is None
        np.testing.assert_array_equal(b.data, [2.0, 2.0])
        assert not opt.m["b"].any() and not opt.v["b"].any()
        assert (a.data < 1.0).all() and opt.m["a"].all() and opt.v["a"].all()

    def test_clip_ignores_a_missing_gradient(self):
        store = ad.ParamStore()
        a = store.add("a", np.zeros(2))
        b = store.add("b", np.zeros(4))
        a.grad = np.array([30.0, 40.0])
        pre = train.clip_gradient_norm(store, 5.0)
        assert pre == pytest.approx(50.0)
        np.testing.assert_allclose(a.grad, [3.0, 4.0])
        assert b.grad is None

    def test_step_without_zero_grad(self):
        # a backward on a fresh model writes gradients only on the path to
        # the loss; clipping and the update leave the other slots None
        model = model_mod.build_model(cfg_mod.preset("tiny"), seed=0)
        store = model.store
        before = {n: t.data.copy() for n, t in store.items()}
        mixture = synth.synth_dataset(0, 1, 2, 400)[0][0]
        with ad.Tape() as tape:
            loss = ad.sum_all(model_mod.encode_features(model, mixture))
            tape.backward(loss)
        opt = train.Adam(store, lr=1e-2)
        train.clip_gradient_norm(store, 1.0)
        opt.step()
        for name, t in store.items():
            if name.startswith("codec.enc"):
                assert t.grad is not None
                assert not np.array_equal(t.data, before[name])
            else:
                assert t.grad is None, name
                np.testing.assert_array_equal(t.data, before[name])


class TestPlateauSchedule:
    def test_holds_then_decays(self):
        s = train.PlateauSchedule(1.0, hold_epochs=3, decay=0.5, patience=2)
        # no improvement from the start: epochs 0-2 are protected by the hold
        for epoch in range(3):
            assert s.update(epoch, 10.0) == 1.0
        assert s.update(3, 10.0) == 1.0  # bad run 1
        assert s.update(4, 10.0) == 1.0  # bad run 2, still within patience
        assert s.update(5, 10.0) == 0.5  # patience exceeded

    def test_improvement_resets_patience(self):
        s = train.PlateauSchedule(1.0, hold_epochs=0, decay=0.5, patience=2)
        s.update(0, 5.0)
        s.update(1, 6.0)
        s.update(2, 6.0)
        assert s.update(3, 4.0) == 1.0  # improvement wipes the bad streak
        s.update(4, 6.0)
        s.update(5, 6.0)
        assert s.update(6, 6.0) == 0.5


class TestSplit:
    def test_last_eighth_validates(self):
        data = list(range(8))
        tr, val = train.split_dataset(data)
        assert tr == [0, 1, 2, 3, 4, 5, 6] and val == [7]

    def test_single_item(self):
        tr, val = train.split_dataset([42])
        assert tr == [42] and val == [42]


def tiny_setup(seed=0, count=4, n_samples=600):
    cfg = cfg_mod.preset("tiny")
    model = model_mod.build_model(cfg, seed=seed)
    data = synth.synth_dataset(seed + 100, count, 2, n_samples)
    return model, data


class TestTrainLoop:
    def test_loss_decreases(self):
        model, data = tiny_setup()
        tcfg = cfg_mod.TrainConfig(lr=2e-3, max_epochs=12, hold_epochs=100,
                                   seed=1)
        lines = []
        train.train(model, tcfg, data, log=lines.append)
        first = float(re.search(r"train_loss=(\S+)", lines[0]).group(1))
        last = float(re.search(r"train_loss=(\S+)", lines[-1]).group(1))
        assert last < first

    def test_log_format(self):
        model, data = tiny_setup(seed=2)
        tcfg = cfg_mod.TrainConfig(lr=1e-3, max_epochs=2, seed=3)
        lines = []
        train.train(model, tcfg, data, log=lines.append)
        pattern = (r"^epoch=\d+ lr=[0-9.e+-]+ train_loss=-?\d+\.\d{4} "
                   r"val_loss=-?\d+\.\d{4}$")
        assert len(lines) == 2
        for line in lines:
            assert re.match(pattern, line), line

    def test_deterministic_given_seed(self):
        runs = []
        for _ in range(2):
            model, data = tiny_setup(seed=4)
            tcfg = cfg_mod.TrainConfig(lr=1e-3, max_epochs=3, seed=5)
            lines = []
            train.train(model, tcfg, data, log=lines.append)
            runs.append(lines)
        assert runs[0] == runs[1]

    def test_max_steps_caps_work(self):
        model, data = tiny_setup(seed=6)
        tcfg = cfg_mod.TrainConfig(lr=1e-3, max_epochs=50, max_steps=5, seed=7)
        ckpt = train.train(model, tcfg, data)
        # 3 train items per epoch: the cap stops inside epoch 2
        assert ckpt.adam_step <= 5

    def test_best_checkpoint_returned(self):
        model, data = tiny_setup(seed=8)
        tcfg = cfg_mod.TrainConfig(lr=2e-3, max_epochs=6, seed=9)
        ckpt = train.train(model, tcfg, data)
        assert np.isfinite(ckpt.best_val)
        assert set(ckpt.params) == {name for name, _ in model.store.items()}
        assert ckpt.adam_m is not None and ckpt.adam_v is not None

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gradient_stops_before_update(self, monkeypatch, bad):
        model, data = tiny_setup(seed=12)
        store = model.store
        poisoned = [name for name, _ in store.items()][3]
        before = {n: t.data.copy() for n, t in store.items()}
        backward = ad.Tape.backward

        def poison(tape, root):
            backward(tape, root)
            store[poisoned].grad[0] = bad

        monkeypatch.setattr(ad.Tape, "backward", poison)
        tcfg = cfg_mod.TrainConfig(lr=1e-3, max_epochs=1, max_steps=1, seed=13)
        with pytest.raises(NumericalError, match=re.escape(repr(poisoned))):
            train.train(model, tcfg, data)
        for n, t in store.items():
            np.testing.assert_array_equal(t.data, before[n], err_msg=n)

    def test_non_finite_source_is_numerical_error(self):
        model, data = tiny_setup(seed=14)
        data[0][1][1][5] = np.nan
        tcfg = cfg_mod.TrainConfig(lr=1e-3, max_epochs=1, max_steps=1, seed=15)
        with pytest.raises(NumericalError, match="reference 1"):
            train.train(model, tcfg, data)

    def test_non_finite_loss_message(self, monkeypatch):
        model, data = tiny_setup(seed=16)

        def nan_loss(ests, refs):
            return ad.mul(ad.sum_all(ests[0]), np.nan), (0, 1)

        monkeypatch.setattr(train, "pit_loss", nan_loss)
        tcfg = cfg_mod.TrainConfig(lr=1e-3, max_epochs=1, max_steps=1, seed=17)
        with pytest.raises(NumericalError,
                           match=r"^non-finite loss nan at epoch 0 batch 0$"):
            train.train(model, tcfg, data)

    def test_empty_data_rejected(self):
        model, _ = tiny_setup(seed=10)
        with pytest.raises(ConfigError, match="empty"):
            train.train(model, cfg_mod.TrainConfig(), [])

    @pytest.mark.parametrize("field,value", [
        ("max_steps", -1),
        ("lr_decay", -1.0), ("lr_decay", 0.0), ("lr_decay", 1.5),
        ("patience", -3), ("seed", -1), ("hold_epochs", -1),
        # wrong types: a float or a bool where an int goes, a bool or a
        # str where a float goes
        ("max_epochs", 2.5), ("max_epochs", True), ("seed", 1.5),
        ("max_steps", 1.5), ("patience", 1.5), ("lr", True),
        ("clip_norm", "5"),
    ])
    def test_invalid_train_config_rejected(self, field, value):
        model, data = tiny_setup(seed=18)
        tcfg = cfg_mod.TrainConfig(**{"lr": 1e-3, "max_epochs": 1,
                                      field: value})
        with pytest.raises(ConfigError, match=field):
            train.train(model, tcfg, data)

    @pytest.mark.parametrize("field,value", [
        ("n_blocks", 0), ("n_feat", 15), ("dw_kernel", 8),
        ("dropout_p", 1.0), ("gate_phi", "tanh"),
        ("chunk_size", 8.0), ("chunk_size", True), ("chunk_size", 1e300),
        ("n_blocks", 1.0), ("n_feat", 16.0), ("single_gate", "no"),
        ("single_gate", 1), ("dropout_p", False), ("attention_mode", 1),
    ])
    def test_invalid_model_config_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            cfg_mod.preset("tiny", **{field: value})

    def test_int_accepted_for_float_fields(self):
        cfg_mod.TrainConfig(lr=1, clip_norm=5, lr_decay=1).validate()
        assert cfg_mod.preset("tiny", dropout_p=0).dropout_p == 0

    def test_one_epoch_builds_one_checkpoint(self, monkeypatch):
        # the best snapshot is taken when validation improves, and not
        # before the first epoch as well
        built = []

        def counting(**fields):
            built.append(fields["epoch"])
            return Checkpoint(**fields)

        monkeypatch.setattr(train, "Checkpoint", counting)
        model, data = tiny_setup(seed=20)
        ckpt = train.train(
            model, cfg_mod.TrainConfig(lr=1e-3, max_epochs=1, seed=21), data)
        assert built == [0] and ckpt.epoch == 0

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["lr", "clip_norm"])
    def test_non_finite_step_settings_rejected(self, field, value):
        # a NaN passes "<= 0"; clip_norm=nan would silently turn clipping off
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            cfg_mod.TrainConfig(**{field: value}).validate()

    def test_no_decay_and_zero_patience_accepted(self):
        cfg_mod.TrainConfig(lr_decay=1.0, patience=0).validate()

    @pytest.mark.parametrize("score", ["dataset_loss", "dataset_si_sdri"])
    def test_empty_evaluation_set_rejected(self, score):
        model, _ = tiny_setup(seed=19)
        with pytest.raises(ConfigError, match="empty"):
            getattr(train, score)(model, [])
