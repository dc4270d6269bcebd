"""Single-file binary checkpoints.

Layout (all integers little-endian):

    bytes 0..3   magic "MSEP"
    bytes 4..7   format version, uint32 (currently 1)
    bytes 8..15  header length in bytes, uint64
    header       UTF-8 JSON: model config, epoch, best validation loss,
                 optimizer step count, RNG state, and the parameter table
                 (name, shape, dtype string like "<f8") in storage order
    data         raw array bytes in table order: parameters, then first and
                 second Adam moments in the same order when present

Saving validates the model config, refuses non-finite arrays, and is atomic
(write to a temp file, then rename). Loading verifies the magic, version,
payload length, model config and that every array is finite, raises
CheckpointError for any malformed file, and reproduces arrays bit-exactly.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .config import ModelConfig
from .errors import CheckpointError, ConfigError, DimensionError
from .model import SeparationModel, build_model

_MAGIC = b"MSEP"
_VERSION = 1


@dataclass
class Checkpoint:
    config: ModelConfig
    params: dict[str, np.ndarray]
    adam_m: dict[str, np.ndarray] | None = None
    adam_v: dict[str, np.ndarray] | None = None
    adam_step: int = 0
    rng_state: dict | None = None
    epoch: int = 0
    best_val: float = float("inf")


def _le_dtype(arr: np.ndarray) -> np.dtype:
    dt = arr.dtype.newbyteorder("<")
    if dt.kind != "f":
        raise CheckpointError(f"only float arrays are stored, got {arr.dtype}")
    return dt


def _check_finite(arr: np.ndarray, label: str) -> None:
    if not np.isfinite(arr).all():
        raise CheckpointError(f"{label} has non-finite values")


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Write ``ckpt`` atomically; an invalid config raises ConfigError and a
    non-finite array raises CheckpointError before any file is created."""
    ckpt.config.validate()
    names = list(ckpt.params)
    table = []
    blobs = []

    def push(arrays, kind, name):
        arr = np.asarray(arrays[name])
        arr = np.ascontiguousarray(arr, dtype=_le_dtype(arr))
        _check_finite(arr, f"{kind} {name!r}")
        blobs.append(arr.tobytes())
        return arr

    for name in names:
        arr = push(ckpt.params, "parameter", name)
        table.append(
            {"name": name, "shape": list(arr.shape), "dtype": arr.dtype.str}
        )
    has_moments = ckpt.adam_m is not None and ckpt.adam_v is not None
    if has_moments:
        if set(ckpt.adam_m) != set(names) or set(ckpt.adam_v) != set(names):
            raise CheckpointError("optimizer moments do not match parameters")
        for name in names:
            push(ckpt.adam_m, "adam_m", name)
        for name in names:
            push(ckpt.adam_v, "adam_v", name)

    header = json.dumps({
        "config": dataclasses.asdict(ckpt.config),
        "epoch": ckpt.epoch,
        "best_val": ckpt.best_val,
        "adam_step": ckpt.adam_step,
        "rng_state": ckpt.rng_state,
        "has_moments": has_moments,
        "params": table,
    }).encode("utf-8")

    payload = b"".join(blobs)
    path = str(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=".ckpt-")
    try:
        with os.fdopen(fd, "wb") as out:
            out.write(_MAGIC)
            out.write(struct.pack("<IQ", _VERSION, len(header)))
            out.write(header)
            out.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint file; any malformed content raises CheckpointError."""
    with open(str(path), "rb") as f:
        raw = f.read()
    try:
        return _decode(raw, path)
    except CheckpointError:
        raise
    except (ValueError, KeyError, TypeError, AttributeError,
            OverflowError) as exc:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise CheckpointError(f"{path}: malformed checkpoint: {exc}") from exc


def _decode(raw: bytes, path) -> Checkpoint:
    if raw[:4] != _MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    if len(raw) < 16:
        raise CheckpointError(f"{path}: truncated checkpoint preamble")
    version, header_len = struct.unpack("<IQ", raw[4:16])
    if version != _VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version}"
        )
    header = json.loads(raw[16:16 + header_len].decode("utf-8"))
    offset = 16 + header_len

    def take(meta, kind):
        nonlocal offset
        dt = np.dtype(meta["dtype"])
        n = int(np.prod(meta["shape"])) if meta["shape"] else 1
        end = offset + n * dt.itemsize
        if end > len(raw):
            raise CheckpointError(f"{path}: truncated checkpoint payload")
        arr = np.frombuffer(raw[offset:end], dtype=dt).reshape(meta["shape"])
        offset = end
        _check_finite(arr, f"{path}: {kind} {meta['name']!r}")
        return arr.copy()

    params = {m["name"]: take(m, "parameter") for m in header["params"]}
    adam_m = adam_v = None
    if header["has_moments"]:
        adam_m = {m["name"]: take(m, "adam_m") for m in header["params"]}
        adam_v = {m["name"]: take(m, "adam_v") for m in header["params"]}
    if offset != len(raw):
        raise CheckpointError(f"{path}: trailing bytes after payload")
    return Checkpoint(
        config=ModelConfig(**header["config"]).validate(),
        params=params,
        adam_m=adam_m,
        adam_v=adam_v,
        adam_step=header["adam_step"],
        rng_state=header["rng_state"],
        epoch=header["epoch"],
        best_val=header["best_val"],
    )


def restore_model(ckpt: Checkpoint) -> SeparationModel:
    """Build the model ``ckpt.config`` describes and load its parameters; a
    parameter table that disagrees with the config raises CheckpointError
    naming the parameter."""
    dtypes = {arr.dtype.base for arr in ckpt.params.values()}
    if len(dtypes) > 1:
        raise CheckpointError(f"mixed parameter dtypes in checkpoint: {dtypes}")
    # an empty table builds at float32 and fails the table check below,
    # which names every missing parameter
    model = build_model(ckpt.config,
                        dtype=dtypes.pop() if dtypes else np.float32)
    try:
        model.store.load_state_arrays(ckpt.params)
    except (ConfigError, DimensionError) as exc:
        raise CheckpointError(
            f"parameter table disagrees with the checkpoint's config: {exc}"
        ) from exc
    return model
