"""CLI: config parsing, subcommands, error reporting."""

import re
from pathlib import Path

import numpy as np
import pytest

from monosep import cli
from monosep.audio import read_wav, write_wav
from monosep.checkpoint import load_checkpoint
from monosep.config import ModelConfig, TrainConfig, config_fields
from monosep.errors import ConfigError
from monosep.synth import synth_dataset


class TestConfigParsing:
    def test_file_with_comments(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "# a comment\n"
            "preset = tiny\n"
            "\n"
            "lr = 2e-3  # inline comment\n"
            "data_count = 4\n"
        )
        pairs = cli.parse_config_file(cfg)
        assert pairs == {"preset": "tiny", "lr": "2e-3", "data_count": "4"}

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("just words\n")
        with pytest.raises(ConfigError, match="key=value"):
            cli.parse_config_file(cfg)

    def test_non_utf8_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_bytes(b"lr = 1e-3 # caf\xe9\n")
        with pytest.raises(ConfigError, match=f"{cfg}: .*not UTF-8"):
            cli.parse_config_file(cfg)
        assert cli.main(["train", "--config", str(cfg),
                         "--out", str(tmp_path / "m.ckpt")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}: ")
        assert not (tmp_path / "m.ckpt").exists()

    def test_build_configs_routes_keys(self):
        mcfg, tcfg, data = cli.build_configs({
            "preset": "tiny",
            "n_speakers": "3",
            "dense_uv": "true",
            "lr": "1e-3",
            "max_epochs": "7",
            "data_samples": "1234",
        })
        assert mcfg.n_speakers == 3 and mcfg.dense_uv is True
        assert tcfg.lr == 1e-3 and tcfg.max_epochs == 7
        assert data["data_samples"] == 1234

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            cli.build_configs({"bogus": "1"})

    @pytest.mark.parametrize("key,value", [
        ("data_count", "0"), ("data_count", "-2"), ("data_samples", "0"),
    ])
    def test_empty_synthetic_data_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            cli.build_configs({key: value})

    def test_negative_data_seed_rejected(self):
        with pytest.raises(ConfigError, match="data_seed"):
            cli.build_configs({"data_seed": "-1"})

    def test_defaults_without_file(self):
        mcfg, tcfg, data = cli.build_configs({})
        assert mcfg == ModelConfig(preset="tiny")
        assert data == cli._DATA_DEFAULTS


def train_args(tmp_path, out_name="m.ckpt"):
    return [
        "train",
        "--set", "max_epochs=2", "--set", "lr=1e-3",
        "--set", "data_count=3", "--set", "data_samples=500",
        "--out", str(tmp_path / out_name),
    ]


def test_readme_lists_every_config_key():
    # the sentence "Keys are the fields of `ModelConfig` (...), the fields
    # of `TrainConfig` (...), and the data knobs (...)."
    text = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    sentence = " ".join(re.search(r"Keys are the fields of .*?\)\.",
                                  text, re.S).group(0).split())
    lists = [[key.strip() for key in group.split(",")]
             for group in re.findall(r"\(([^()]*)\)", sentence)]
    assert lists == [list(config_fields(ModelConfig)),
                     list(config_fields(TrainConfig)),
                     list(cli._DATA_DEFAULTS)]


class TestCommands:
    def test_train_writes_checkpoint(self, tmp_path, capsys):
        code = cli.main(train_args(tmp_path))
        assert code == 0
        out = capsys.readouterr().out
        assert (tmp_path / "m.ckpt").exists()
        assert "epoch=0 lr=" in out and "saved" in out

    def test_separate_writes_speaker_files(self, tmp_path, capsys):
        cli.main(train_args(tmp_path))
        mixture = synth_dataset(9, 1, 2, 700)[0][0]
        wav = tmp_path / "mix.wav"
        write_wav(wav, mixture, 8000)
        code = cli.main([
            "separate", str(wav),
            "--ckpt", str(tmp_path / "m.ckpt"),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 0
        for i in (1, 2):
            samples, rate = read_wav(tmp_path / "out" / f"mix_spk{i}.wav")
            assert rate == 8000
            assert samples.shape == mixture.shape

    def test_separate_rejects_wrong_rate(self, tmp_path, capsys):
        cli.main(train_args(tmp_path))
        wav = tmp_path / "bad.wav"
        write_wav(wav, np.zeros(600), 16000)
        code = cli.main([
            "separate", str(wav), "--ckpt", str(tmp_path / "m.ckpt"),
        ])
        assert code == 2
        assert "sample rate" in capsys.readouterr().err

    def test_eval_reports_scores(self, tmp_path, capsys):
        cli.main(train_args(tmp_path))
        code = cli.main([
            "eval", "--ckpt", str(tmp_path / "m.ckpt"),
            "--set", "data_count=2", "--set", "data_samples=500",
        ])
        assert code == 0
        out = capsys.readouterr().out.splitlines()[-1]
        assert out.startswith("items=2 loss=") and "si_sdri=" in out

    def test_ablate_writes_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "report.csv"
        code = cli.main([
            "ablate", "--suite", "gating", "--steps", "2",
            "--set", "data_count=2", "--set", "data_samples=400",
            "--csv", str(csv_path),
        ])
        assert code == 0
        assert "suite=gating" in capsys.readouterr().out
        assert csv_path.read_text().startswith("variant,params,steps")

    def test_gradcheck_passes_on_tiny(self, capsys):
        code = cli.main(["gradcheck", "--samples", "48"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_gradcheck_passes_with_unreached_parameters(self, capsys):
        # local_only never reaches the global-attention parameters, whose
        # slots backward leaves empty
        code = cli.main(["gradcheck", "--samples", "48",
                         "--set", "attention_mode=local_only"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "0", "inf"])
    def test_gradcheck_rejects_unusable_tolerance(self, capsys, tolerance):
        # nan and -1 would always FAIL, and inf always PASS
        assert cli.main(["gradcheck", "--tolerance", tolerance]) == 2
        assert capsys.readouterr().err.startswith(
            "error: tolerance must be positive and finite")

    def test_paramcount_lists_presets(self, capsys):
        code = cli.main(["paramcount"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("preset=S params=")

    def test_config_error_exits_2(self, capsys):
        code = cli.main(["train", "--set", "nope=1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_train_checkpoint_is_single_precision(self, tmp_path, capsys):
        cli.main(train_args(tmp_path))
        ckpt = load_checkpoint(tmp_path / "m.ckpt")
        assert {a.dtype.str for a in ckpt.params.values()} == {"<f4"}
        wav = tmp_path / "mix.wav"
        write_wav(wav, synth_dataset(9, 1, 2, 700)[0][0], 8000)
        assert cli.main(["separate", str(wav), "--ckpt", str(tmp_path / "m.ckpt"),
                         "--out-dir", str(tmp_path / "out")]) == 0
        assert cli.main(["eval", "--ckpt", str(tmp_path / "m.ckpt"),
                         "--set", "data_count=2", "--set", "data_samples=500"]) == 0
        assert "si_sdri=" in capsys.readouterr().out

    def test_negative_lr_decay_exits_2(self, tmp_path, capsys):
        code = cli.main(["train", "--set", "lr_decay=-1",
                         "--out", str(tmp_path / "m.ckpt")])
        assert code == 2
        assert "lr_decay" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("key", ["lr", "clip_norm"])
    def test_nan_step_setting_exits_2(self, tmp_path, capsys, key):
        code = cli.main(["train", "--set", f"{key}=nan",
                         "--out", str(tmp_path / "m.ckpt")])
        assert code == 2
        assert f"error: {key} must be" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    def test_zero_batch_size_exits_2(self, tmp_path, capsys):
        code = cli.main(["train", "--set", "batch_size=0",
                         "--out", str(tmp_path / "m.ckpt")])
        assert code == 2
        assert "batch_size" in capsys.readouterr().err
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "gradcheck"])
    @pytest.mark.parametrize("key", ["seed", "data_seed"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command, key):
        args = [command, "--set", f"{key}=-1"]
        if command == "eval":
            args += ["--ckpt", str(tmp_path / "missing.ckpt")]
        assert cli.main(args) == 2
        assert f"error: {key} must be >= 0" in capsys.readouterr().err

    def test_separate_rejects_malformed_wavs(self, tmp_path, capsys):
        cli.main(train_args(tmp_path))
        good = tmp_path / "good.wav"
        write_wav(good, np.zeros(600), 8000)
        raw = good.read_bytes()
        # empty, cut inside the header, data cut to an odd byte count
        for name, data in [("empty", b""), ("header", raw[:24]),
                           ("odd", raw[:45])]:
            wav = tmp_path / f"{name}.wav"
            wav.write_bytes(data)
            code = cli.main(["separate", str(wav),
                             "--ckpt", str(tmp_path / "m.ckpt")])
            assert code == 2
            assert capsys.readouterr().err.startswith(f"error: {wav}: ")
