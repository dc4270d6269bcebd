"""Tests for WAV reading and writing."""

import wave

import numpy as np
import pytest

from monosep import audio
from monosep.errors import NumericalError, WavFormatError


class TestRoundTrip:
    def test_within_quantization(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.uniform(-0.9, 0.9, size=800)
        path = tmp_path / "a.wav"
        audio.write_wav(path, samples, 8000)
        back, rate = audio.read_wav(path)
        assert rate == 8000
        assert back.shape == samples.shape
        np.testing.assert_allclose(back, samples, atol=1.0 / 32768)

    def test_grid_values_exact(self, tmp_path):
        samples = np.array([-1.0, -0.5, 0.0, 0.25, 32767 / 32768])
        path = tmp_path / "g.wav"
        audio.write_wav(path, samples, 8000)
        back, _ = audio.read_wav(path)
        np.testing.assert_array_equal(back, samples)

    def test_clipping(self, tmp_path):
        path = tmp_path / "c.wav"
        audio.write_wav(path, np.array([2.0, -3.0]), 8000)
        back, _ = audio.read_wav(path)
        np.testing.assert_array_equal(back, [32767 / 32768, -1.0])


class TestFormatErrors:
    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "s.wav"
        with wave.open(str(path), "wb") as w:
            w.setnchannels(2)
            w.setsampwidth(2)
            w.setframerate(8000)
            w.writeframes(b"\x00" * 32)
        with pytest.raises(WavFormatError, match="mono"):
            audio.read_wav(path)

    def test_8bit_rejected(self, tmp_path):
        path = tmp_path / "b.wav"
        with wave.open(str(path), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(1)
            w.setframerate(8000)
            w.writeframes(b"\x00" * 32)
        with pytest.raises(WavFormatError, match="16-bit"):
            audio.read_wav(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"not audio at all")
        with pytest.raises(WavFormatError, match="not a readable WAV"):
            audio.read_wav(path)

    @pytest.mark.parametrize("keep,match", [
        (0, "cut short"),              # an empty file
        (24, "cut short"),             # the file ends inside the fmt chunk
        (44, "holds 0 bytes.*declares 20"),   # the header alone
        (45, "holds 1 bytes.*declares 20"),   # data cut to an odd count
        (50, "holds 6 bytes.*declares 20"),   # data cut to an even count
    ])
    def test_truncated_file_rejected(self, tmp_path, keep, match):
        path = tmp_path / "t.wav"
        audio.write_wav(path, np.zeros(10), 8000)  # 44-byte header
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(WavFormatError, match=match):
            audio.read_wav(path)

    def test_chunk_overrunning_the_file_rejected(self, tmp_path):
        path = tmp_path / "o.wav"
        audio.write_wav(path, np.zeros(10), 8000)
        raw = bytearray(path.read_bytes())
        raw[16] = 0xFB  # fmt chunk size 251, past the RIFF chunk's end
        path.write_bytes(bytes(raw))
        with pytest.raises(WavFormatError, match="cut short"):
            audio.read_wav(path)

    def test_2d_write_rejected(self, tmp_path):
        with pytest.raises(WavFormatError, match="1-D"):
            audio.write_wav(tmp_path / "x.wav", np.zeros((2, 4)), 8000)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_write_rejected(self, tmp_path, bad):
        # a cast would turn nan into 0 and +-inf into full scale
        with pytest.raises(NumericalError, match="non-finite"):
            audio.write_wav(tmp_path / "x.wav", [0.1, bad, 0.2], 8000)
        assert list(tmp_path.iterdir()) == []
