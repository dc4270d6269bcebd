"""Seeded probe over every file the CLI reads: checkpoints, WAVs and config
files, and over settings whose model or synthetic data cannot fit. Each
mutated file or setting is run through ``cli.main`` in one subprocess that
caps its own address space, and must end with exit 2 and a package error,
or with exit 0 where the edit leaves a usable file (a changed
``dropout_p``, a byte flip inside the samples): never exit 1 or a raw
exception."""

import json

import numpy as np
import pytest

from monosep import config as cfg_mod
from monosep import model as model_mod
from monosep import synth
from monosep.audio import write_wav
from monosep.checkpoint import Checkpoint, save_checkpoint
from monosep.train import Adam

_SEED = 2020
_HEADER_FLIPS, _PAYLOAD_FLIPS, _TRUNCATIONS = 150, 10, 40
_WAV_FLIPS, _CONFIG_BLOBS = 120, 20

# header edits that must exit 2: the config fields' wrong types
_WRONG_TYPES = [
    {"chunk_size": 8.0}, {"chunk_size": True}, {"chunk_size": 1e300},
    {"n_blocks": 1.0}, {"n_feat": 16.0}, {"single_gate": "no"},
    {"single_gate": 1}, {"dropout_p": "0.1"}, {"gate_phi": 3},
    {"attention_mode": None}, {"preset": 1},
]


def _parent(header, path):
    for key in path[:-1]:
        header = header[key]
    return header


def _set(path, value):
    """An edit that sets ``header[path[0]][path[1]]...`` to ``value``."""
    def edit(header):
        _parent(header, path)[path[-1]] = value
        return header
    return edit


def _replace(value):
    return lambda header: value


def _delete(*path):
    def edit(header):
        del _parent(header, path)[path[-1]]
        return header
    return edit


def _duplicate_name(header):
    header["params"][1]["name"] = header["params"][0]["name"]
    return header


def _swap_entries(header):
    table = header["params"]
    table[0], table[1] = table[1], table[0]
    return header


# header edits that may exit 0 or 2
_STRUCTURED = [
    _set(("config", "dropout_p"), 0.5), _set(("config", "preset"), "S"),
    _set(("config", "chunk_size"), 10 ** 18),
    _set(("config", "sample_rate"), 16000), _set(("config", "bogus"), 1),
    _set(("config", "n_feat"), 4096), _set(("config", "n_speakers"), 0),
    _delete("config", "n_feat"), _delete("config"),
    _set(("config",), []), _set(("config",), None),
    _set(("params", 0, "dtype"), "<i4"), _set(("params", 0, "dtype"), "<f2"),
    _set(("params", 0, "dtype"), ">f8"), _set(("params", 0, "dtype"), "zz"),
    _set(("params", 0, "dtype"), 8),
    _set(("params", 0, "shape"), [-1]), _set(("params", 0, "shape"), [2.5]),
    _set(("params", 0, "shape"), ["3"]), _set(("params", 0, "shape"), [[1]]),
    _set(("params", 0, "shape"), [10 ** 12]),
    _set(("params", 0, "shape"), []), _set(("params", 0, "shape"), 7),
    _set(("params", 0, "name"), 5), _delete("params", 0, "name"),
    _delete("params", 0, "dtype"), _set(("params", 0), []),
    _duplicate_name, _swap_entries,
    _set(("params",), {}), _set(("params",), "x"), _set(("params",), []),
    _delete("params"), _set(("has_moments",), False),
    _set(("epoch",), "x"), _set(("best_val",), "x"),
    _set(("rng_state",), 5), _set(("adam_step",), -1),
    _replace([]), _replace("x"), _replace(None), _replace(1.5),
]

# config-file lines; ``max_epochs``, ``data_count`` and ``data_samples`` are
# fixed on the command line, so a file that parses trains for one short step
_CONFIG_LINES = [
    "lr", "=", "lr =", "lr == 1", "= 1", "lr = abc", "lr = nan",
    "lr = -1", "clip_norm = inf", "n_feat = 16.0", "n_feat = 15",
    "n_blocks = 0", "single_gate = maybe", "seed = -1", "seed = 1.5",
    "hold_epochs = -2", "patience = 1.5", "preset = Q", "gate_phi = tanh",
    "attention_mode = softmax", "dropout_p = nan", "dropout_p = 1",
    "lr_decay = 0", "data_seed = x", "unknown = 1", "batch_size = 2",
    "dw_kernel = 8", "\x00 = 1", "lr = 1e-3 = 2", "dropout_p = 0.2",
]


# settings whose parameters or synthetic data alone exceed the cap
_OVERSIZED = [
    ["train", "--set", "n_feat=100000"],
    ["train", "--set", "data_samples=10000000000"],
    ["gradcheck", "--samples", "10000000000"],
]


def _with_header(raw: bytes, header) -> bytes:
    blob = json.dumps(header).encode("utf-8")
    header_end = 16 + int.from_bytes(raw[8:16], "little")
    return raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[header_end:]


def _flip(raw: bytes, pos: int, rng) -> bytes:
    value = (raw[pos] + int(rng.integers(1, 256))) % 256
    return raw[:pos] + bytes([value]) + raw[pos + 1:]


def checkpoint_blobs(raw: bytes, rng):
    """(file bytes, the exit codes it may end with)"""
    header_end = 16 + int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16:header_end])
    for pos in rng.integers(0, header_end, _HEADER_FLIPS):
        yield _flip(raw, int(pos), rng), (0, 2)
    for pos in rng.integers(header_end, len(raw), _PAYLOAD_FLIPS):
        yield _flip(raw, int(pos), rng), (0, 2)
    for n in rng.integers(0, len(raw), _TRUNCATIONS):
        yield raw[:n], (0, 2)
    for edit in _WRONG_TYPES:
        config = dict(header["config"], **edit)
        yield _with_header(raw, dict(header, config=config)), (2,)
    for edit in _STRUCTURED:
        yield _with_header(raw, edit(json.loads(json.dumps(header)))), (0, 2)


def wav_blobs(raw: bytes, rng):
    for pos in rng.integers(0, 44, _WAV_FLIPS):
        yield _flip(raw, int(pos), rng)
    for n in [*range(45), *rng.integers(45, len(raw), 10)]:
        yield raw[:n]

    def field(offset, fmt_bytes):
        return raw[:offset] + fmt_bytes + raw[offset + len(fmt_bytes):]

    yield field(0, b"RIFX")
    yield field(8, b"AVI ")
    yield field(16, (1 << 31).to_bytes(4, "little"))  # fmt chunk size
    yield field(20, (3).to_bytes(2, "little"))  # IEEE float format
    yield field(22, (2).to_bytes(2, "little"))  # two channels
    yield field(24, (16000).to_bytes(4, "little"))  # sample rate
    yield field(34, (8).to_bytes(2, "little"))  # 8-bit samples
    yield field(34, (24).to_bytes(2, "little"))
    yield field(40, (0).to_bytes(4, "little"))  # empty data chunk
    yield field(40, (2 ** 32 - 1).to_bytes(4, "little"))
    yield field(40, (len(raw) - 43).to_bytes(4, "little"))  # one byte over


def config_blobs(rng):
    for _ in range(_CONFIG_BLOBS):
        yield rng.integers(0, 256, int(rng.integers(1, 120)),
                           dtype=np.uint8).tobytes()
    for line in _CONFIG_LINES:
        yield f"preset = tiny\n{line}\nlr = 2e-3\n".encode("utf-8")


@pytest.fixture
def base_files(tmp_path):
    """A tiny checkpoint with moments and a 700-sample WAV that separate
    accepts."""
    cfg = cfg_mod.preset("tiny")
    model = model_mod.build_model(cfg, seed=0)
    opt = Adam(model.store, 1e-3)
    ckpt = Checkpoint(
        config=cfg, params={n: t.data for n, t in model.store.items()},
        adam_m=opt.m, adam_v=opt.v,
        rng_state=np.random.default_rng(0).bit_generator.state)
    save_checkpoint(ckpt, tmp_path / "base.ckpt")
    write_wav(tmp_path / "base.wav", synth.synth_dataset(9, 1, 2, 700)[0][0],
              8000)
    return tmp_path / "base.ckpt", tmp_path / "base.wav"


def test_mutated_files_end_in_a_package_error(tmp_path, base_files,
                                               capped_cli):
    ckpt, wav = base_files
    rng = np.random.default_rng(_SEED)
    out = ["--out-dir", str(tmp_path / "out")]
    cases = []  # (argv, the exit codes it may end with)

    def write(kind, i, blob):
        path = tmp_path / f"{kind}{i}"
        path.write_bytes(blob)
        return str(path)

    for i, (blob, codes) in enumerate(checkpoint_blobs(ckpt.read_bytes(),
                                                       rng)):
        cases.append((["separate", str(wav), "--ckpt",
                       write("ckpt", i, blob), *out], codes))
    for i, blob in enumerate(wav_blobs(wav.read_bytes(), rng)):
        cases.append((["separate", write("wav", i, blob), "--ckpt",
                       str(ckpt), *out], (0, 2)))
    for i, blob in enumerate(config_blobs(rng)):
        cases.append((["train", "--config", write("config", i, blob),
                       "--set", "max_epochs=1", "--set", "data_count=2",
                       "--set", "data_samples=400",
                       "--out", str(tmp_path / "trained.ckpt")], (0, 2)))

    for argv in _OVERSIZED:
        cases.append((argv + ["--out", str(tmp_path / "big.ckpt")]
                      if argv[0] == "train" else argv, (2,)))

    results = capped_cli([argv for argv, _ in cases])
    for (argv, codes), (code, err, _) in zip(cases, results):
        assert code in codes, (argv, err)
        if code == 2:
            assert err.startswith("error: "), (argv, err)
