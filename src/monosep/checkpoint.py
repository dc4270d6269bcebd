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
(write to a temp file, then rename); every array is checked before the temp
file exists, then each one's bytes are written straight from the array.
Loading verifies the magic, version, payload length (against the file size,
before any array is allocated), model config and that every array is
finite, raises CheckpointError for any malformed file, and reproduces
arrays bit-exactly. Each data section (parameters, first moments, second
moments) is read into its own buffer and its arrays are aligned, writeable
views of that buffer, so the file is never held in memory as a whole and a
model restored from the parameters does not keep the moments alive.
``restore_model`` adopts the parameter arrays as they are, without a copy
and without drawing: the config's init code declares each parameter, and
the first one the table lacks or holds at another shape, or any table
entry left over, raises CheckpointError. Nothing is allocated at the
config's size, so a hostile header costs no more than its table.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .config import ModelConfig
from .errors import CheckpointError
from .model import SeparationModel, init_model

_MAGIC = b"MSEP"
_VERSION = 1
_PREAMBLE = 16  # magic, version, header length


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
    stored = []

    def push(arrays, kind, name):
        arr = np.asarray(arrays[name])
        arr = np.ascontiguousarray(arr, dtype=_le_dtype(arr))
        _check_finite(arr, f"{kind} {name!r}")
        stored.append(arr)
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

    path = str(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                               prefix=".ckpt-")
    try:
        with os.fdopen(fd, "wb") as out:
            out.write(_MAGIC)
            out.write(struct.pack("<IQ", _VERSION, len(header)))
            out.write(header)
            for arr in stored:
                out.write(arr)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint file; any malformed content raises CheckpointError."""
    with open(str(path), "rb") as f:
        try:
            return _read(f, path)
        except CheckpointError:
            raise
        except (ValueError, KeyError, TypeError, AttributeError,
                OverflowError, RecursionError) as exc:
            # JSONDecodeError and UnicodeDecodeError are ValueErrors
            raise CheckpointError(
                f"{path}: malformed checkpoint: {exc}") from exc


def _read(f, path) -> Checkpoint:
    preamble = f.read(_PREAMBLE)
    if preamble[:4] != _MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    if len(preamble) < _PREAMBLE:
        raise CheckpointError(f"{path}: truncated checkpoint preamble")
    version, header_len = struct.unpack("<IQ", preamble[4:])
    if version != _VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version}"
        )
    file_size = os.fstat(f.fileno()).st_size
    if _PREAMBLE + header_len > file_size:
        raise CheckpointError(f"{path}: truncated checkpoint header")
    header = json.loads(f.read(header_len).decode("utf-8"))
    config = ModelConfig(**header["config"]).validate()

    # (name, dtype, shape, byte offset in its section) of every array
    layout = []
    section_len = 0
    for meta in header["params"]:
        dt, shape = np.dtype(meta["dtype"]), tuple(meta["shape"])
        if dt.kind != "f" or not all(
                type(d) is int and d >= 0 for d in shape):
            raise CheckpointError(
                f"{path}: bad table entry for {meta['name']!r}: "
                f"dtype {meta['dtype']!r}, shape {meta['shape']!r}")
        layout.append((meta["name"], dt, shape, section_len))
        section_len += math.prod(shape) * dt.itemsize
    has_moments = bool(header["has_moments"])
    payload_len = file_size - _PREAMBLE - header_len
    expected = (3 if has_moments else 1) * section_len
    if payload_len < expected:
        raise CheckpointError(f"{path}: truncated checkpoint payload")
    if payload_len > expected:
        raise CheckpointError(f"{path}: trailing bytes after payload")

    params = _read_section(f, path, "parameter", layout, section_len)
    adam_m = adam_v = None
    if has_moments:
        adam_m = _read_section(f, path, "adam_m", layout, section_len)
        adam_v = _read_section(f, path, "adam_v", layout, section_len)
    return Checkpoint(
        config=config,
        params=params,
        adam_m=adam_m,
        adam_v=adam_v,
        adam_step=header["adam_step"],
        rng_state=header["rng_state"],
        epoch=header["epoch"],
        best_val=header["best_val"],
    )


def _read_section(f, path, kind: str, layout, section_len: int) -> dict:
    """One section's arrays as views of a buffer of its own; an array whose
    offset is not a multiple of its itemsize (a mixed f4/f8 table) is
    copied out so every returned array is aligned."""
    buf = np.empty(section_len, dtype=np.uint8)
    if f.readinto(buf) != section_len:
        raise CheckpointError(f"{path}: truncated checkpoint payload")
    arrays = {}
    for name, dt, shape, offset in layout:
        end = offset + math.prod(shape) * dt.itemsize
        arr = buf[offset:end].view(dt).reshape(shape)
        if offset % dt.itemsize:
            arr = arr.copy()
        _check_finite(arr, f"{path}: {kind} {name!r}")
        arrays[name] = arr
    return arrays


def _disagreement(problem: str) -> CheckpointError:
    return CheckpointError(
        f"parameter table disagrees with the checkpoint's config: {problem}")


class _AdoptingStore(ad.ParamStore):
    """The store ``restore_model`` builds into: ``param`` registers the
    table's array under each name, without a copy and without calling the
    initializer, and raises at the first name the table lacks or holds at
    another shape, so a config that disagrees with the table allocates
    nothing."""

    def __init__(self, dtype, table: dict[str, np.ndarray]):
        super().__init__(dtype)
        self.table = table

    def param(self, name: str, shape: tuple, init) -> ad.Tensor:
        if name not in self.table:
            raise _disagreement(f"missing={[name]}")
        arr = np.asarray(self.table[name], dtype=self.dtype, order="C")
        if arr.shape != shape:
            raise _disagreement(
                f"parameter {name!r} shape mismatch: {arr.shape} vs {shape}")
        return self._register(name, arr)


def restore_model(ckpt: Checkpoint) -> SeparationModel:
    """Build the model ``ckpt.config`` describes on ``ckpt.params`` (the
    arrays themselves, not copies); a parameter table that disagrees with
    the config raises CheckpointError naming the parameter."""
    dtypes = {arr.dtype.base for arr in ckpt.params.values()}
    if len(dtypes) > 1:
        raise CheckpointError(f"mixed parameter dtypes in checkpoint: {dtypes}")
    # an empty table builds at float32 and fails at the first parameter
    store = _AdoptingStore(dtypes.pop() if dtypes else np.float32,
                           ckpt.params)
    model = init_model(store, ckpt.config)
    extra = set(ckpt.params) - {name for name, _ in store.items()}
    if extra:
        raise _disagreement(f"extra={sorted(extra)}")
    return model
