"""The three monosep benchmark workloads.

Each workload is a closed loop with one caller: the next operation starts
when the previous one has returned. An operation is one ``separate``
request (separate_S) or one optimizer step (train_tiny, train_wide).

A workload object offers ``setup()`` (build everything the timed phase
needs and run one warm-up op), ``run_phase(seconds, tracer)`` (the timed
closed loop) and ``check()`` (output checks that need more work than the
per-op ones, done after timing). Every input is generated from the seed.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import statistics
import sys
import time
import traceback
import wave
from dataclasses import dataclass, field

import numpy as np

from monosep.checkpoint import (Checkpoint, load_checkpoint, restore_model,
                                save_checkpoint)
from monosep.cli import main as cli_main
from monosep.config import TrainConfig, preset
from monosep.model import build_model, separate
from monosep.synth import synth_dataset
from monosep.train import dataset_si_sdri, split_dataset, train

RATE = 8000
N_SPEAKERS = 2

# separate_S: 2 s mixtures, one per request; clip 0 is the warm-up request
SEPARATE_SAMPLES = 16000
SEPARATE_POOL = 32
# floor on the SI-SDR of each written 16-bit track against float64
# separation with the same weights (about 70 dB is typical)
SEPARATE_QUALITY_FLOOR_DB = 40.0
# the float64 reference costs about two requests, so only the first
# completed request of a run is scored against it
SCORED_REQUESTS = 1

# training: 8 mixtures of 0.5 s (7 train, 1 validation), batch 1
TRAIN_ITEMS = 8
TRAIN_SAMPLES = 4000
TRAIN_LR = 2e-3
TRAIN_HOLD_EPOCHS = 120
# train_tiny: SI-SDRi on the training items after each 280-step round
# (8 to 13 dB is typical)
TINY_QUALITY_FLOOR_DB = 4.0


@dataclass
class Phase:
    """One timed closed loop: per-op latency samples and counters."""
    op_ms: list = field(default_factory=list)
    ops: int = 0
    failed: int = 0
    busy_s: float = 0.0


def report_failure(what: str) -> None:
    print(f"op failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def read_pcm(path) -> tuple[np.ndarray, int]:
    """Mono 16-bit WAV -> float64 samples in [-1, 1) and the sample rate."""
    with wave.open(str(path), "rb") as reader:
        if reader.getnchannels() != 1 or reader.getsampwidth() != 2:
            raise ValueError(f"{path}: not mono 16-bit PCM")
        rate = reader.getframerate()
        raw = reader.readframes(reader.getnframes())
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0, rate


def si_sdr_db(est: np.ndarray, ref: np.ndarray) -> float:
    est = est - est.mean()
    ref = ref - ref.mean()
    target = (est @ ref) / (ref @ ref) * ref
    noise = est - target
    return 10.0 * math.log10((target @ target) / (noise @ noise))


def write_wav16(path, samples: np.ndarray) -> None:
    pcm = np.round(np.clip(samples, -1.0, 32767 / 32768) * 32768).astype("<i2")
    with wave.open(str(path), "wb") as writer:
        writer.setnchannels(1)
        writer.setsampwidth(2)
        writer.setframerate(RATE)
        writer.writeframes(pcm.tobytes())


class SeparateS:
    """``monosep separate`` on distinct 2 s mixtures with an S-preset
    float32 checkpoint, called in process through ``monosep.cli.main``."""

    step_ops = False
    audio_s_per_op = SEPARATE_SAMPLES / RATE

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.ckpt_path = os.path.join(workdir, "S.ckpt")
        self.clips: list[str] = []
        self.params: dict = {}
        self.requests = 0
        self.done: list[tuple[str, list[str]]] = []  # (clip, written tracks)
        self.quality_db: list[float] = []

    def setup(self) -> None:
        cfg = preset("S")
        model = build_model(cfg, seed=self.seed, dtype=np.float32)
        self.params = {n: t.data for n, t in model.store.items()}
        save_checkpoint(Checkpoint(config=cfg, params=self.params),
                        self.ckpt_path)
        items = synth_dataset(self.seed, SEPARATE_POOL, N_SPEAKERS,
                              SEPARATE_SAMPLES, RATE)
        self.clips = []
        for index, (mixture, _) in enumerate(items):
            path = os.path.join(self.workdir, f"clip{index:02d}.wav")
            write_wav16(path, mixture)
            self.clips.append(path)
        self._request(self.clips[0], os.path.join(self.workdir, "warmup"))

    def _request(self, wav: str, out_dir: str, tracer=None) -> int:
        argv = ["separate", wav, "--ckpt", self.ckpt_path, "--out-dir", out_dir]
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                return cli_main(argv)
            return tracer.span("cli.separate", cli_main, argv)

    def run_phase(self, seconds: float, tracer=None) -> Phase:
        phase = Phase()
        while phase.busy_s < seconds:
            self.requests += 1
            wav = self.clips[1 + (self.requests - 1) % (len(self.clips) - 1)]
            out_dir = os.path.join(self.workdir, f"out{self.requests:03d}")
            phase.ops += 1
            if tracer is not None:
                tracer.begin_op(self.requests)
            start = time.perf_counter()
            try:
                code = self._request(wav, out_dir, tracer)
            except Exception:
                report_failure(f"separate {wav}")
                code = None
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.end_op()
            phase.busy_s += elapsed
            tracks = self._tracks(wav, out_dir)
            if code == 0 and self._tracks_ok(tracks):
                phase.op_ms.append(elapsed * 1e3)
                self.done.append((wav, tracks))
            else:
                phase.failed += 1
        return phase

    @staticmethod
    def _tracks(wav: str, out_dir: str) -> list[str]:
        stem = os.path.splitext(os.path.basename(wav))[0]
        return [os.path.join(out_dir, f"{stem}_spk{i}.wav")
                for i in range(1, N_SPEAKERS + 1)]

    @staticmethod
    def _tracks_ok(tracks: list[str]) -> bool:
        for path in tracks:
            if not os.path.exists(path):
                print(f"missing output {path}", file=sys.stderr)
                return False
            samples, rate = read_pcm(path)
            if (rate != RATE or samples.shape != (SEPARATE_SAMPLES,)
                    or not np.isfinite(samples).all()):
                print(f"bad output {path}: {samples.shape} at {rate} Hz",
                      file=sys.stderr)
                return False
        return True

    def check(self) -> int:
        """Score the written tracks of the first requests against float64
        separation of the same clip with the same weights; returns the
        requests under the floor."""
        failed = 0
        ref_model = restore_model(Checkpoint(
            config=preset("S"),
            params={n: a.astype(np.float64) for n, a in self.params.items()}))
        for wav, tracks in self.done[:SCORED_REQUESTS]:
            mixture, _ = read_pcm(wav)
            refs = separate(ref_model, mixture)
            scores = [si_sdr_db(read_pcm(path)[0], ref.data)
                      for path, ref in zip(tracks, refs)]
            self.quality_db.extend(scores)
            if not min(scores) > SEPARATE_QUALITY_FLOOR_DB:
                print(f"{wav}: SI-SDR {scores} under the "
                      f"{SEPARATE_QUALITY_FLOOR_DB} dB floor", file=sys.stderr)
                failed += 1
        return failed


_EPOCH_LINE = re.compile(r"train_loss=(\S+) val_loss=(\S+)")


class TrainWorkload:
    """``train()`` in rounds of a fixed step count: each round trains a
    fresh model on fresh data drawn from the seed and the round index."""

    step_ops = True
    audio_s_per_op = TRAIN_SAMPLES / RATE  # batch 1

    def __init__(self, name: str, seed: int, workdir: str, build,
                 steps_per_round: int, quality_floor_db: float | None):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.build = build
        self.steps_per_round = steps_per_round
        self.quality_floor_db = quality_floor_db
        self.rounds = 0
        self.trained: list[tuple] = []  # (model, train items) to score
        self.last_ckpt: Checkpoint | None = None
        self.quality_db: list[float] = []

    def _data(self, seed: int):
        return synth_dataset(seed, TRAIN_ITEMS, N_SPEAKERS, TRAIN_SAMPLES,
                             RATE)

    def _config(self, seed: int, steps: int) -> TrainConfig:
        return TrainConfig(lr=TRAIN_LR, max_epochs=steps, max_steps=steps,
                           hold_epochs=TRAIN_HOLD_EPOCHS, seed=seed)

    def setup(self) -> None:
        data = self._data(self.seed)
        train(self.build(self.seed), self._config(self.seed, 1), data)

    def run_phase(self, seconds: float, tracer=None) -> Phase:
        phase = Phase()
        while phase.busy_s < seconds:
            self.rounds += 1
            round_seed = self.seed * 1000 + self.rounds
            data = self._data(round_seed)
            model = self.build(round_seed)
            per_epoch = len(split_dataset(data)[0])
            marks = []
            steps = self.steps_per_round
            phase.ops += steps
            start = time.perf_counter()
            try:
                ckpt = train(model, self._config(round_seed, steps), data,
                             log=lambda line: marks.append(
                                 (time.perf_counter(), line)))
            except Exception:
                report_failure(f"{self.name} round {self.rounds}")
                ckpt = None
            end = time.perf_counter()
            if tracer is not None:
                tracer.end_op()
            phase.busy_s += end - start
            losses = [float(v) for _, line in marks
                      for v in _EPOCH_LINE.search(line).groups()]
            if ckpt is None or not all(map(math.isfinite, losses)):
                phase.failed += steps
                continue
            previous, done = start, 0
            for stamp, _ in marks:
                in_epoch = min(per_epoch, steps - done)
                phase.op_ms.append((stamp - previous) * 1e3 / in_epoch)
                previous, done = stamp, done + in_epoch
            self.last_ckpt = ckpt
            if self.quality_floor_db is not None:
                self.trained.append((model, split_dataset(data)[0]))
            del model, data  # before the next round builds its own
        return phase

    def check(self) -> int:
        """Score each round against the quality floor, and check that the
        last round's checkpoint reloads bit-exactly; returns failed steps."""
        failed = 0
        for model, items in self.trained:
            gain = dataset_si_sdri(model, items)
            self.quality_db.append(gain)
            if not gain > self.quality_floor_db:
                print(f"{self.name}: SI-SDRi {gain:.2f} dB under the "
                      f"{self.quality_floor_db} dB floor", file=sys.stderr)
                failed += self.steps_per_round
        if self.last_ckpt is None:
            return failed
        path = os.path.join(self.workdir, "final.ckpt")
        save_checkpoint(self.last_ckpt, path)
        if not checkpoints_equal(self.last_ckpt, load_checkpoint(path)):
            print(f"{self.name}: checkpoint did not reload bit-exactly",
                  file=sys.stderr)
            failed += self.steps_per_round
        return failed


def _arrays_equal(a: dict | None, b: dict | None) -> bool:
    if a is None or b is None:
        return a is b
    return list(a) == list(b) and all(
        a[k].dtype == b[k].dtype and a[k].shape == b[k].shape
        and a[k].tobytes() == b[k].tobytes() for k in a)


def checkpoints_equal(a: Checkpoint, b: Checkpoint) -> bool:
    return (a.config == b.config and a.epoch == b.epoch
            and a.adam_step == b.adam_step and a.rng_state == b.rng_state
            and (a.best_val == b.best_val
                 or (math.isnan(a.best_val) and math.isnan(b.best_val)))
            and _arrays_equal(a.params, b.params)
            and _arrays_equal(a.adam_m, b.adam_m)
            and _arrays_equal(a.adam_v, b.adam_v))


def _tiny(seed: int):
    # the program's default dtype
    return build_model(preset("tiny", dropout_p=0.0), seed=seed)


def _wide(seed: int):
    return build_model(preset("S", n_blocks=2), seed=seed, dtype=np.float32)


WORKLOADS = {
    "separate_S": lambda seed, workdir: SeparateS(seed, workdir),
    "train_tiny": lambda seed, workdir: TrainWorkload(
        "train_tiny", seed, workdir, _tiny, 280, TINY_QUALITY_FLOOR_DB),
    "train_wide": lambda seed, workdir: TrainWorkload(
        "train_wide", seed, workdir, _wide, 7, None),
}


def median(values) -> float:
    return statistics.median(values) if values else float("nan")
