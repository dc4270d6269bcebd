"""Checkpoint format round-trip and error handling."""

import dataclasses
import gc
import hashlib
import json
import struct
import weakref

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
        for name, t in model.store.items():
            t.data = ckpt.params[name]
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


def version1_bytes(ckpt):
    """The version-1 file for ``ckpt``, encoded independently of
    save_checkpoint: the whole payload joined from each array's bytes."""
    def stored(arr):
        arr = np.asarray(arr)
        return np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))

    names = list(ckpt.params)
    has_moments = ckpt.adam_m is not None and ckpt.adam_v is not None
    sections = [ckpt.params] + ([ckpt.adam_m, ckpt.adam_v]
                                if has_moments else [])
    header = json.dumps({
        "config": dataclasses.asdict(ckpt.config),
        "epoch": ckpt.epoch,
        "best_val": ckpt.best_val,
        "adam_step": ckpt.adam_step,
        "rng_state": ckpt.rng_state,
        "has_moments": has_moments,
        "params": [{"name": n, "shape": list(stored(ckpt.params[n]).shape),
                    "dtype": stored(ckpt.params[n]).dtype.str}
                   for n in names],
    }).encode("utf-8")
    return (b"MSEP" + struct.pack("<IQ", 1, len(header)) + header
            + b"".join(stored(sec[n]).tobytes()
                       for sec in sections for n in names))


def assert_bit_exact(got: dict, want: dict):
    assert list(got) == list(want)
    for name, arr in want.items():
        ref = np.asarray(arr)
        ref = ref.astype(ref.dtype.newbyteorder("<"))
        assert got[name].dtype == ref.dtype and got[name].shape == ref.shape
        assert got[name].tobytes() == ref.tobytes(), name


class TestFormatCompatibility:
    @pytest.mark.parametrize("moments", [False, True],
                             ids=["params", "with_moments"])
    def test_files_match_the_version1_encoding(self, tmp_path, moments):
        _, ckpt = trained_checkpoint(seed=7)
        if not moments:
            ckpt = dataclasses.replace(ckpt, adam_m=None, adam_v=None)
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        assert path.read_bytes() == version1_bytes(ckpt)

    def test_version1_bytes_load_bit_exactly(self, tmp_path):
        _, ckpt = trained_checkpoint(seed=8)
        path = tmp_path / "v1.ckpt"
        path.write_bytes(version1_bytes(ckpt))
        loaded = load_checkpoint(path)
        for section in ("params", "adam_m", "adam_v"):
            assert_bit_exact(getattr(loaded, section), getattr(ckpt, section))
        assert loaded.rng_state == ckpt.rng_state

    def test_mixed_and_big_endian_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        params = {
            "odd_f4": rng.standard_normal(3).astype(np.float32),
            "f8": rng.standard_normal((2, 5)),  # section offset 12
            "big_endian": rng.standard_normal(7).astype(">f8"),
            "f4": rng.standard_normal((4, 3)).astype(np.float32),
        }
        ckpt = Checkpoint(config=cfg_mod.preset("tiny"), params=params,
                          adam_m={n: a * 2 for n, a in params.items()},
                          adam_v={n: a * a for n, a in params.items()})
        path = tmp_path / "mixed.ckpt"
        save_checkpoint(ckpt, path)
        assert path.read_bytes() == version1_bytes(ckpt)
        loaded = load_checkpoint(path)
        for section in ("params", "adam_m", "adam_v"):
            got = getattr(loaded, section)
            assert_bit_exact(got, getattr(ckpt, section))
            assert all(a.flags.aligned for a in got.values())

    def test_huge_table_rejected_before_allocating(self, tmp_path):
        raw = bytearray(version1_bytes(Checkpoint(
            config=cfg_mod.preset("tiny"), params={"a": np.zeros(3)})))
        header_end = 16 + int.from_bytes(raw[8:16], "little")
        header = json.loads(raw[16:header_end])
        header["params"][0]["shape"] = [2 ** 40, 2 ** 20]
        blob = json.dumps(header).encode("utf-8")
        path = tmp_path / "huge.ckpt"
        path.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob
                         + raw[header_end:])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)


class TestAdoption:
    """restore_model holds one copy of the weights and no training state."""

    def saved(self, tmp_path, seed=9):
        _, ckpt = trained_checkpoint(seed=seed)
        path = tmp_path / "model.ckpt"
        save_checkpoint(ckpt, path)
        return path

    def test_separate_allocates_no_gradients(self, tmp_path):
        model = restore_model(load_checkpoint(self.saved(tmp_path)))
        model_mod.separate(model, synth.synth_dataset(1, 1, 2, 500)[0][0])
        assert all(t.grad is None for _, t in model.store.items())

    def test_params_are_the_loaded_arrays(self, tmp_path):
        loaded = load_checkpoint(self.saved(tmp_path))
        model = restore_model(loaded)
        for name, t in model.store.items():
            assert t.data is loaded.params[name]
            assert not np.shares_memory(t.data, loaded.adam_m[name])
            assert not np.shares_memory(t.data, loaded.adam_v[name])
        buffers = [next(iter(getattr(loaded, s).values())).base
                   for s in ("params", "adam_m", "adam_v")]
        assert all(np.shares_memory(a, buffers[0])
                   for a in loaded.params.values())
        assert not any(np.shares_memory(a, b) for a in buffers
                       for b in buffers if a is not b)

    def test_loaded_arrays_are_ready_for_training(self, tmp_path):
        loaded = load_checkpoint(self.saved(tmp_path))
        for section in (loaded.params, loaded.adam_m, loaded.adam_v):
            for arr in section.values():
                flags = arr.flags
                assert flags.aligned and flags.c_contiguous and flags.writeable
        model = restore_model(loaded)
        before = {n: t.data.copy() for n, t in model.store.items()}
        tcfg = cfg_mod.TrainConfig(lr=1e-3, max_epochs=1, max_steps=1)
        train.train(model, tcfg, synth.synth_dataset(3, 2, 2, 400))
        assert any(not np.array_equal(t.data, before[n])
                   for n, t in model.store.items())

    def test_restore_draws_nothing(self, monkeypatch):
        cfg = cfg_mod.preset("tiny")
        params = {n: t.data for n, t in
                  model_mod.build_model(cfg, seed=0).store.items()}
        made = []
        default_rng = np.random.default_rng

        def spy(*args, **kwargs):
            rng = default_rng(*args, **kwargs)
            made.append((rng, rng.bit_generator.state))
            return rng

        monkeypatch.setattr(np.random, "default_rng", spy)
        restore_model(Checkpoint(config=cfg, params=params))
        # the initializer's generator was made, and not one value drawn
        assert made and all(rng.bit_generator.state == state
                            for rng, state in made)

    def test_section_buffer_freed_without_collection(self, tmp_path):
        loaded = load_checkpoint(self.saved(tmp_path))
        model = restore_model(loaded)
        model_mod.separate(model, synth.synth_dataset(1, 1, 2, 500)[0][0])
        refs = [weakref.ref(next(iter(getattr(loaded, s).values())).base)
                for s in ("params", "adam_m", "adam_v")]
        enabled = gc.isenabled()
        gc.disable()
        try:
            del model, loaded
            assert all(ref() is None for ref in refs)
        finally:
            if enabled:
                gc.enable()


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

    @pytest.mark.parametrize("edit", [
        {"chunk_size": 8.0}, {"chunk_size": True}, {"chunk_size": 1e300},
        {"n_blocks": 1.0}, {"n_feat": 16.0}, {"single_gate": "no"},
        {"single_gate": 1},
    ], ids=repr)
    def test_wrong_type_in_header_config_exits_2(self, tmp_path, capsys,
                                                 edit):
        # a float or a bool in an int field, or a non-bool flag: once a raw
        # TypeError (exit 1) or, for the flags, a single-gate model
        path = tmp_path / "typed.ckpt"
        path.write_bytes(
            with_header_config(self.make_file(tmp_path).read_bytes(), **edit))
        (field,) = edit
        with pytest.raises(CheckpointError, match=f"{field} expects"):
            load_checkpoint(path)
        wav = tmp_path / "mix.wav"
        write_wav(wav, synth.synth_dataset(9, 1, 2, 700)[0][0], 8000)
        assert cli.main(["separate", str(wav), "--ckpt", str(path),
                         "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: malformed checkpoint: {field} expects ")
        assert not (tmp_path / "out").exists()

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


def with_header_config(raw: bytes, **edits) -> bytes:
    """``raw`` with its header's model config edited; the parameter table
    and the payload are left as they are."""
    header_end = 16 + int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16:header_end])
    header["config"].update(edits)
    blob = json.dumps(header).encode("utf-8")
    return raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[header_end:]


class TestHostileHeader:
    """A header config that disagrees with its parameter table fails at the
    first parameter, and costs no more than the table: no array is made at
    the config's size."""

    EDITS = [{"n_feat": 4096}, {"n_feat": 100000}, {"n_speakers": 1000000},
             {"n_blocks": 3000}, {"dw_kernel": 10000001},
             {"enc_kernel": 100000000}, {"attn_dim": 2000000}]

    def test_separate_fails_fast_under_1gib(self, tmp_path, capped_cli):
        cfg = cfg_mod.preset("tiny")
        params = {n: t.data for n, t in
                  model_mod.build_model(cfg, seed=0).store.items()}
        base = tmp_path / "base.ckpt"
        save_checkpoint(Checkpoint(config=cfg, params=params), base)
        wav = tmp_path / "mix.wav"
        write_wav(wav, synth.synth_dataset(9, 1, 2, 700)[0][0], 8000)
        argvs = []
        for i, edit in enumerate(self.EDITS):
            path = tmp_path / f"hostile{i}.ckpt"
            path.write_bytes(with_header_config(base.read_bytes(), **edit))
            argvs.append(["separate", str(wav), "--ckpt", str(path),
                          "--out-dir", str(tmp_path / "out")])
        results = capped_cli(argvs)
        for edit, (code, err, seconds) in zip(self.EDITS, results):
            assert code == 2, (edit, err)
            assert err.startswith("error: parameter table disagrees with "
                                  "the checkpoint's config: "), (edit, err)
            assert seconds < 1.0, (edit, seconds)
        assert not (tmp_path / "out").exists()


def names_and_shapes_digest(store) -> str:
    lines = "".join(f"{name}:{tuple(t.shape)}\n" for name, t in store.items())
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()[:16]


def params_digest(store) -> str:
    h = hashlib.sha256()
    for name, t in store.items():
        for part in (name, repr(t.data.shape), t.data.dtype.str):
            h.update(part.encode("utf-8"))
        h.update(t.data.tobytes())
    return h.hexdigest()[:16]


class TestParameterLayout:
    """Checkpoints stay loadable only while ``build_model`` declares the
    same parameters, in the same order, at the same shapes and (per seed)
    with the same values. These digests pin that."""

    @pytest.mark.parametrize("name,overrides,digest", [
        ("tiny", {}, "f837ecbac68dc27a"),
        ("S", {}, "f6fc8427c39e2925"),
        ("M", {}, "c438de4d0f9de2ac"),
        ("L", {}, "31c2f2872fef4a22"),
        ("tiny", {"dense_uv": True}, "26450533826af344"),
        ("tiny", {"dense_qk": True}, "81f6e37ebc5f68f9"),
        ("tiny", {"single_gate": True}, "f837ecbac68dc27a"),
        ("tiny", {"attention_mode": "local_only"}, "f837ecbac68dc27a"),
    ], ids=["tiny", "S", "M", "L", "dense_uv", "dense_qk", "single_gate",
            "local_only"])
    def test_names_and_shapes(self, name, overrides, digest):
        cfg = cfg_mod.preset(name, **overrides)
        store = model_mod.build_model(cfg).store
        assert names_and_shapes_digest(store) == digest

    @pytest.mark.parametrize("dtype,digest", [
        (np.float32, {"tiny": "4664563feb6acd12", "dense": "385a42143d86a9f8",
                      "S2": "10477c5ebf233a9d"}),
        (np.float64, {"tiny": "70c2032778a0822b", "dense": "8e302b3a790a8388",
                      "S2": "214acc5c7d491e00"}),
    ], ids=["float32", "float64"])
    def test_seed0_values(self, dtype, digest):
        configs = {"tiny": cfg_mod.preset("tiny"),
                   "dense": cfg_mod.preset("tiny", dense_uv=True,
                                           dense_qk=True),
                   "S2": cfg_mod.preset("S", n_blocks=2)}
        got = {label: params_digest(model_mod.build_model(
                   cfg, seed=0, dtype=dtype).store)
               for label, cfg in configs.items()}
        assert got == digest
