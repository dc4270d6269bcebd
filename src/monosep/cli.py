"""Command line interface.

Configuration comes from an optional flat ``key = value`` text file
(``--config``) plus any number of ``--set key=value`` overrides. Keys are
drawn from ModelConfig (preset, n_feat, ...), TrainConfig (lr, max_epochs,
...), and the synthetic-data knobs data_seed / data_count / data_samples.
"""

from __future__ import annotations

import argparse
import math
import resource
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .ablation import SUITES, run_ablation
from .audio import read_wav, write_wav
from .checkpoint import load_checkpoint, restore_model, save_checkpoint
from .config import (ModelConfig, TrainConfig, PRESET_PARAM_TARGETS,
                     coerce_value, config_fields, preset, preset_names)
from .errors import ConfigError, MonosepError, WavFormatError
from .losses import pit_loss
from .model import build_model, count_parameters, separate
from .synth import synth_dataset
from .train import dataset_scores, train

_DATA_DEFAULTS = {"data_seed": 0, "data_count": 8, "data_samples": 4000}

_HANDLED_ERRORS = (MonosepError, OSError)


def parse_config_file(path) -> dict[str, str]:
    """Flat key=value lines; '#' starts a comment, blank lines are skipped."""
    try:
        content = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config file is not UTF-8: {exc}") from None
    pairs = {}
    for lineno, line in enumerate(content.splitlines(), 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key=value, "
                              f"got {text!r}")
        key, value = text.split("=", 1)
        pairs[key.strip()] = value.strip()
    return pairs


def collect_pairs(args) -> dict[str, str]:
    pairs = parse_config_file(args.config) if args.config else {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        pairs[key.strip()] = value.strip()
    return pairs


def build_configs(pairs) -> tuple[ModelConfig, TrainConfig, dict[str, int]]:
    model_keys = config_fields(ModelConfig)
    train_keys = config_fields(TrainConfig)
    preset_name = pairs.get("preset", "tiny")
    overrides = {}
    tcfg = TrainConfig()
    data = dict(_DATA_DEFAULTS)
    for key, raw in pairs.items():
        if key == "preset":
            continue
        if key in model_keys:
            overrides[key] = coerce_value(ModelConfig, key, raw)
        elif key in train_keys:
            tcfg = replace(tcfg, **{key: coerce_value(TrainConfig, key, raw)})
        elif key in _DATA_DEFAULTS:
            try:
                data[key] = int(raw)
            except ValueError:
                raise ConfigError(f"{key} expects int, got {raw!r}") from None
        else:
            raise ConfigError(f"unknown config key {key!r}")
    for key in ("data_count", "data_samples"):
        if data[key] < 1:
            raise ConfigError(f"{key} must be >= 1, got {data[key]}")
    if data["data_seed"] < 0:
        raise ConfigError(f"data_seed must be >= 0, got {data['data_seed']}")
    return preset(preset_name, **overrides), tcfg.validate(), data


def _memory_limits() -> list[tuple[str, int]]:
    """(name, bytes) of this process's address-space soft limit, when one
    is set, and of the host's available memory, when the kernel reports
    it."""
    limits = []
    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    if soft != resource.RLIM_INFINITY:
        limits.append(("the address-space limit", soft))
    try:
        with open("/proc/meminfo", encoding="ascii") as meminfo:
            for line in meminfo:
                if line.startswith("MemAvailable:"):
                    limits.append(("available memory",
                                   int(line.split()[1]) * 1024))
    except OSError:
        pass
    return limits


def check_fits(mcfg: ModelConfig, dtype, data_key: str, n_items: int,
               n_samples: int) -> None:
    """Refuse a run, before anything is built, whose parameters and
    synthetic data cannot fit in memory: four ``dtype`` arrays per
    parameter (weights, gradients and Adam's two moments), and
    ``n_items`` float64 mixtures with their sources, ``n_samples`` each.
    Activations are left out, so only what cannot fit is refused. Over the
    address-space limit or the available memory, ``ConfigError`` names the
    larger share, the model's or ``data_key``'s."""
    n_params = count_parameters(mcfg)
    need = {
        f"the model ({n_params:,} parameters at n_feat={mcfg.n_feat}, "
        f"n_blocks={mcfg.n_blocks})": n_params * 4 * np.dtype(dtype).itemsize,
        data_key: n_items * (mcfg.n_speakers + 1) * n_samples * 8,
    }
    total = sum(need.values())
    for name, limit in _memory_limits():
        if total > limit:
            key = max(need, key=need.get)
            raise ConfigError(
                f"{key} needs about {need[key] / 2**30:.1f} GiB; the run "
                f"needs at least {total / 2**30:.1f} GiB, more than {name} "
                f"({limit / 2**30:.1f} GiB)")


def synth_data(mcfg: ModelConfig, data: dict[str, int]):
    return synth_dataset(data["data_seed"], data["data_count"],
                         mcfg.n_speakers, data["data_samples"],
                         mcfg.sample_rate)


def cmd_train(args) -> int:
    mcfg, tcfg, data_opts = build_configs(collect_pairs(args))
    check_fits(mcfg, np.float32, "data_count x data_samples",
               data_opts["data_count"], data_opts["data_samples"])
    data = synth_data(mcfg, data_opts)
    model = build_model(mcfg, seed=tcfg.seed)
    ckpt = train(model, tcfg, data, log=print)
    save_checkpoint(ckpt, args.out)
    print(f"saved {args.out} epoch={ckpt.epoch} best_val={ckpt.best_val:.4f}")
    return 0


def cmd_separate(args) -> int:
    model = restore_model(load_checkpoint(args.ckpt))
    samples, rate = read_wav(args.wav)
    if rate != model.config.sample_rate:
        raise WavFormatError(
            f"{args.wav}: sample rate {rate} does not match the model's "
            f"{model.config.sample_rate}"
        )
    out_dir = Path(args.out_dir) if args.out_dir else Path(args.wav).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.wav).stem
    for i, est in enumerate(separate(model, samples), start=1):
        out_path = out_dir / f"{stem}_spk{i}.wav"
        write_wav(out_path, est.data, rate)
        print(f"wrote {out_path}")
    return 0


def cmd_eval(args) -> int:
    _, _, data_opts = build_configs(collect_pairs(args))
    model = restore_model(load_checkpoint(args.ckpt))
    data = synth_data(model.config, data_opts)
    loss, gain = dataset_scores(model, data)
    print(f"items={len(data)} loss={loss:.4f} si_sdri={gain:.4f}")
    return 0


def cmd_ablate(args) -> int:
    mcfg, tcfg, data_opts = build_configs(collect_pairs(args))
    check_fits(mcfg, np.float32, "data_count x data_samples",
               data_opts["data_count"], data_opts["data_samples"])
    data = synth_data(mcfg, data_opts)
    report = run_ablation(args.suite, mcfg, tcfg, budget=args.steps,
                          data=data, log=print)
    print(report.to_text())
    if args.csv:
        Path(args.csv).write_text(report.to_csv())
        print(f"wrote {args.csv}")
    return 0


def cmd_gradcheck(args) -> int:
    # nan and a negative value would always FAIL, and inf always PASS
    if not (math.isfinite(args.tolerance) and args.tolerance > 0):
        raise ConfigError(
            f"tolerance must be positive and finite, got {args.tolerance}")
    mcfg, tcfg, _ = build_configs(collect_pairs(args))
    check_fits(mcfg, np.float64, "--samples", 1, args.samples)
    model = build_model(mcfg, seed=tcfg.seed, dtype=np.float64)
    mixture, sources = synth_dataset(tcfg.seed, 1, mcfg.n_speakers,
                                     args.samples, mcfg.sample_rate)[0]

    def loss_of(store):
        loss, _ = pit_loss(separate(model, mixture), sources)
        return loss

    worst = ad.gradient_check(loss_of, model.store, verbose=args.verbose)
    ok = worst < args.tolerance
    print(f"max_rel_err={worst:.3e} tolerance={args.tolerance:.0e} "
          f"{'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_paramcount(args) -> int:
    names = preset_names() if args.preset == "all" else [args.preset]
    for name in names:
        total = count_parameters(preset(name))
        line = f"preset={name} params={total}"
        target = PRESET_PARAM_TARGETS.get(name)
        if target:
            line += f" published={target:.3g} diff={total / target - 1:+.1%}"
        print(line)
    return 0


def _add_config_flags(sub):
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override a single config key (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monosep",
        description="Monaural speech separation on synthetic mixtures.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("train", help="train on synthetic mixtures")
    _add_config_flags(p)
    p.add_argument("--out", default="model.ckpt", help="checkpoint path")
    p.set_defaults(run=cmd_train)

    p = subs.add_parser("separate", help="split a WAV into speaker tracks")
    p.add_argument("wav", help="input mono WAV")
    p.add_argument("--ckpt", required=True, help="trained checkpoint")
    p.add_argument("--out-dir", help="output directory (default: input's)")
    p.set_defaults(run=cmd_separate)

    p = subs.add_parser("eval", help="score a checkpoint on synthetic data")
    _add_config_flags(p)
    p.add_argument("--ckpt", required=True, help="trained checkpoint")
    p.set_defaults(run=cmd_eval)

    p = subs.add_parser("ablate", help="run an ablation suite")
    _add_config_flags(p)
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--steps", type=int, default=50,
                   help="optimizer steps per variant")
    p.add_argument("--csv", help="also write the table as CSV")
    p.set_defaults(run=cmd_ablate)

    p = subs.add_parser("gradcheck",
                        help="finite-difference gradient verification")
    _add_config_flags(p)
    p.add_argument("--samples", type=int, default=96,
                   help="waveform length for the probe mixture")
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(run=cmd_gradcheck)

    p = subs.add_parser("paramcount", help="report trainable parameter counts")
    p.add_argument("--preset", default="all",
                   choices=[*preset_names(), "all"])
    p.set_defaults(run=cmd_paramcount)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except _HANDLED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
