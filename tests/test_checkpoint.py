"""Checkpoint format round-trip and error handling."""

import dataclasses
import json

import numpy as np
import pytest

from monosep import checkpoint as ckpt_mod
from monosep import cli
from monosep import config as cfg_mod
from monosep import model as model_mod
from monosep import synth, train
from monosep.audio import write_wav
from monosep.checkpoint import (Checkpoint, load_checkpoint, restore_model,
                                save_checkpoint)
from monosep.errors import CheckpointError, ConfigError


def trained_checkpoint(seed=0, **ablation):
    cfg = cfg_mod.preset("tiny", **ablation)
    model = model_mod.build_model(cfg, seed=seed)
    data = synth.synth_dataset(seed + 50, 3, 2, 400)
    tcfg = cfg_mod.TrainConfig(lr=1e-3, max_epochs=2, seed=seed + 1)
    return model, train.train(model, tcfg, data)


class TestRoundTrip:
    def test_arrays_bitwise_equal(self, tmp_path):
        _, ckpt = trained_checkpoint()
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)

        assert set(loaded.params) == set(ckpt.params)
        for name, arr in ckpt.params.items():
            got = loaded.params[name]
            assert got.dtype == arr.dtype and got.shape == arr.shape
            np.testing.assert_array_equal(got, arr)
        for name in ckpt.adam_m:
            np.testing.assert_array_equal(loaded.adam_m[name],
                                          ckpt.adam_m[name])
            np.testing.assert_array_equal(loaded.adam_v[name],
                                          ckpt.adam_v[name])

    def test_metadata_survives(self, tmp_path):
        _, ckpt = trained_checkpoint(seed=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.config == ckpt.config
        assert loaded.epoch == ckpt.epoch
        assert loaded.best_val == ckpt.best_val
        assert loaded.adam_step == ckpt.adam_step
        assert loaded.rng_state == ckpt.rng_state

    # restore_model alone carries the ablation choices into the rebuilt model
    @pytest.mark.parametrize(
        "ablation",
        [{}, {"single_gate": True}, {"dense_uv": True}, {"dense_qk": True},
         {"attention_mode": "local_only"}, {"attention_mode": "global_only"}],
        ids=["default", "single_gate", "dense_uv", "dense_qk", "local_only",
             "global_only"],
    )
    def test_restored_model_separates_identically(self, tmp_path, ablation):
        model, ckpt = trained_checkpoint(seed=2, **ablation)
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        restored = restore_model(load_checkpoint(path))

        # the in-memory model drifted past the best epoch; load its snapshot
        model.store.load_state_arrays(ckpt.params)
        mixture = synth.synth_dataset(99, 1, 2, 500)[0][0]
        before = [t.data for t in model_mod.separate(model, mixture)]
        after = [t.data for t in model_mod.separate(restored, mixture)]
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a, b)

    def test_without_moments(self, tmp_path):
        cfg = cfg_mod.preset("tiny")
        model = model_mod.build_model(cfg, seed=3)
        ckpt = Checkpoint(
            config=cfg,
            params={n: t.data.copy() for n, t in model.store.items()},
        )
        path = tmp_path / "bare.ckpt"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.adam_m is None and loaded.adam_v is None

    def test_float32_dtype_preserved(self, tmp_path):
        cfg = cfg_mod.preset("tiny")
        model = model_mod.build_model(cfg, seed=4, dtype=np.float32)
        ckpt = Checkpoint(
            config=cfg,
            params={n: t.data.copy() for n, t in model.store.items()},
        )
        path = tmp_path / "f32.ckpt"
        save_checkpoint(ckpt, path)
        restored = restore_model(load_checkpoint(path))
        assert all(t.data.dtype == np.float32
                   for _, t in restored.store.items())


class TestErrors:
    def make_file(self, tmp_path):
        _, ckpt = trained_checkpoint(seed=5)
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        return path

    def test_bad_magic(self, tmp_path):
        path = self.make_file(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_unknown_version(self, tmp_path):
        path = self.make_file(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = self.make_file(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = self.make_file(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_every_corruption_is_a_checkpoint_error(self, tmp_path):
        raw = self.make_file(tmp_path).read_bytes()
        header_end = 16 + int.from_bytes(raw[8:16], "little")

        def corruptions():
            # truncate inside preamble and header, then every 997th payload
            # byte; then set each preamble and header byte to 0xFF
            for n in [*range(header_end), *range(header_end, len(raw), 997)]:
                yield raw[:n]
            for i in range(header_end):
                yield raw[:i] + b"\xff" + raw[i + 1:]

        path = tmp_path / "corrupt.ckpt"
        for blob in corruptions():
            path.write_bytes(blob)
            try:
                load_checkpoint(path)
            except CheckpointError:
                pass

    def test_invalid_config_rejected_on_load(self, tmp_path):
        raw = self.make_file(tmp_path).read_bytes()
        header_end = 16 + int.from_bytes(raw[8:16], "little")
        header = json.loads(raw[16:header_end])
        header["config"]["attention_mode"] = "softmax"
        blob = json.dumps(header).encode("utf-8")
        path = tmp_path / "softmax.ckpt"
        path.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob
                         + raw[header_end:])
        with pytest.raises(CheckpointError, match="softmax"):
            load_checkpoint(path)

    @pytest.mark.parametrize("case", ["n_feat=32", "parameter dropped"])
    def test_parameter_table_disagreeing_with_config(self, tmp_path, case):
        cfg = cfg_mod.preset("tiny")
        params = {n: t.data for n, t in
                  model_mod.build_model(cfg, seed=0).store.items()}
        if case == "n_feat=32":
            cfg, name = dataclasses.replace(cfg, n_feat=32), "codec.enc_w"
        else:
            name = next(iter(params))
            del params[name]
        ckpt = Checkpoint(config=cfg, params=params)
        with pytest.raises(CheckpointError, match=name):
            restore_model(ckpt)
        path = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, path)
        wav = tmp_path / "mix.wav"
        write_wav(wav, synth.synth_dataset(9, 1, 2, 700)[0][0], 8000)
        assert cli.main(["separate", str(wav), "--ckpt", str(path),
                         "--out-dir", str(tmp_path / "out")]) == 2

    def test_empty_parameter_table_names_missing(self):
        ckpt = Checkpoint(config=cfg_mod.preset("tiny"), params={})
        with pytest.raises(CheckpointError, match="missing=.*codec.enc_w"):
            restore_model(ckpt)

    def test_invalid_config_rejected_on_save(self, tmp_path):
        cfg = dataclasses.replace(cfg_mod.preset("tiny"), attention_mode="softmax")
        ckpt = Checkpoint(config=cfg, params={"a": np.zeros(3)})
        with pytest.raises(ConfigError, match="softmax"):
            save_checkpoint(ckpt, tmp_path / "bad.ckpt")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind,index", [
        ("parameter", 0), ("adam_m", 1), ("adam_v", 2),
    ])
    def test_non_finite_array_rejected_on_load(self, tmp_path, kind, index):
        path = self.make_file(tmp_path)
        raw = bytearray(path.read_bytes())
        header_end = 16 + int.from_bytes(raw[8:16], "little")
        table = json.loads(raw[16:header_end])["params"]
        # first array of the kind-th section: all NaN, in the stored dtype
        start = header_end + index * sum(
            int(np.prod(m["shape"])) * np.dtype(m["dtype"]).itemsize
            for m in table)
        first = table[0]
        nan = np.full(int(np.prod(first["shape"])), np.nan,
                      dtype=np.dtype(first["dtype"])).tobytes()
        raw[start:start + len(nan)] = nan
        path.write_bytes(bytes(raw))
        name = table[0]["name"]
        with pytest.raises(CheckpointError, match=f"{kind} '{name}'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("kind", ["params", "adam_m", "adam_v"])
    def test_non_finite_array_rejected_on_save(self, tmp_path, kind):
        _, ckpt = trained_checkpoint(seed=6)
        name = list(ckpt.params)[2]
        getattr(ckpt, kind)[name][...] = np.nan
        with pytest.raises(CheckpointError, match=repr(name)):
            save_checkpoint(ckpt, tmp_path / "nan.ckpt")
        assert list(tmp_path.iterdir()) == []

    def test_mismatched_moments(self, tmp_path):
        ckpt = Checkpoint(
            config=cfg_mod.preset("tiny"),
            params={"a": np.zeros(3)},
            adam_m={"b": np.zeros(3)},
            adam_v={"a": np.zeros(3)},
        )
        with pytest.raises(CheckpointError, match="moments"):
            save_checkpoint(ckpt, tmp_path / "bad.ckpt")

    def test_no_temp_file_left_on_error(self, tmp_path):
        self.test_mismatched_moments(tmp_path)
        leftovers = [p for p in tmp_path.iterdir()
                     if p.name.startswith(".ckpt-")]
        assert leftovers == []
