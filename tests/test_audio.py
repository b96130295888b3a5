"""Loudness metrics and WAV round trips."""

import math
import wave

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from uapaudio import (
    AudioSample,
    FormatError,
    InvalidInputError,
    UndefinedMetricError,
    load_wav,
    rel_loudness,
    rms_power,
    save_wav,
    snr,
    spl,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
signals = st.lists(finite_floats, min_size=1, max_size=64).map(np.asarray)


class TestRmsPower:
    @pytest.mark.parametrize("n", [1, 7, 160])
    def test_constant(self, n):
        assert rms_power(np.full(n, 0.1)) == pytest.approx(0.1)

    def test_zeros(self):
        assert rms_power(np.zeros(10)) == 0.0

    def test_three_four(self):
        # mean square (9 + 16) / 2 = 12.5
        assert rms_power(np.array([3.0, 4.0])) == pytest.approx(3.5355339059327378, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            rms_power(np.array([]))


class TestSpl:
    def test_constant_tenth(self):
        assert spl(np.full(5, 0.1)) == pytest.approx(-20.0)

    def test_constant_one(self):
        assert spl(np.ones(5)) == pytest.approx(0.0)

    def test_zeros_floored(self):
        assert spl(np.zeros(5)) == pytest.approx(-240.0)

    @given(signals, signals)
    def test_monotone_in_rms(self, a, b):
        ra, rb = rms_power(a), rms_power(b)
        if ra > rb > 1e-12:
            assert spl(a) > spl(b)


class TestSnr:
    def test_constants(self):
        assert snr(np.full(4, 1.0), np.full(4, 0.1)) == pytest.approx(20.0)

    def test_equal_signals(self, rng):
        x = rng.uniform(0.1, 1.0, 32)
        assert snr(x, x) == pytest.approx(0.0)

    def test_half_over_twentieth(self):
        assert snr(np.full(8, 0.5), np.full(8, 0.05)) == pytest.approx(20.0)

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            snr(np.ones(3), np.ones(4))

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_scaling_perturbation(self, alpha):
        x = np.linspace(0.2, 0.9, 16)
        v = np.linspace(-0.05, 0.08, 16)
        assert snr(x, alpha * v) == pytest.approx(snr(x, v) - 20.0 * math.log10(alpha), abs=1e-9)


class TestRelLoudness:
    def test_low_peak(self):
        x = np.array([0.3, 1.0, 0.2])
        v = np.array([0.12, -0.4, 0.05])
        assert rel_loudness(x, v) == pytest.approx(-18.416375079047505, abs=1e-9)

    def test_equal(self):
        x = np.array([0.1, 0.7])
        assert rel_loudness(x, x) == pytest.approx(0.0)

    def test_fifth_peak(self):
        assert rel_loudness(np.array([1.0, 0.5]), np.array([0.2, 0.1])) == pytest.approx(
            -13.979400086720375, abs=1e-9)

    def test_no_positive_entries(self):
        with pytest.raises(UndefinedMetricError):
            rel_loudness(np.ones(4), np.array([-0.2, 0.0, -0.1, 0.0]))
        with pytest.raises(UndefinedMetricError):
            rel_loudness(np.zeros(4), np.ones(4))

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_scaling_perturbation(self, alpha):
        x = np.array([0.2, 0.8, 0.5])
        v = np.array([0.04, -0.2, 0.11])
        expected = rel_loudness(x, v) + 20.0 * math.log10(alpha)
        assert rel_loudness(x, alpha * v) == pytest.approx(expected, abs=1e-9)


class TestAudioSample:
    def test_range_enforced(self):
        with pytest.raises(InvalidInputError):
            AudioSample(np.array([0.0, 1.2]))
        with pytest.raises(InvalidInputError):
            AudioSample(np.array([-0.1, 0.5]))

    def test_rejects_nan_and_empty(self):
        with pytest.raises(InvalidInputError):
            AudioSample(np.array([0.5, np.nan]))
        with pytest.raises(InvalidInputError):
            AudioSample(np.array([]))

    def test_len_and_label(self):
        s = AudioSample(np.full(12, 0.5), sample_rate=8000)
        assert len(s) == 12 and s.sample_rate == 8000

    @pytest.mark.parametrize("rate", [0, -16000, np.nan, np.inf, 2**31, 16000.5])
    def test_rejects_a_rate_no_wav_header_holds(self, rate):
        # a WAV header stores a whole rate, and rate * 2 bytes as uint32
        with pytest.raises(InvalidInputError, match="sample rate"):
            AudioSample(np.full(4, 0.5), sample_rate=rate)

    def test_whole_float_rate_is_kept_as_an_int(self, tmp_path):
        s = AudioSample(np.full(4, 0.5), sample_rate=np.float64(2**31 - 1))
        assert s.sample_rate == 2**31 - 1 and type(s.sample_rate) is int
        save_wav(s, tmp_path / "a.wav")
        assert load_wav(tmp_path / "a.wav").sample_rate == 2**31 - 1


def _write_pcm(path, pcm, rate=16000, channels=1, width=2):
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(channels)
        fh.setsampwidth(width)
        fh.setframerate(rate)
        fh.writeframes(np.asarray(pcm, dtype="<i2").tobytes())


class TestWavIO:
    def test_pcm_mapping(self, tmp_path):
        f = tmp_path / "a.wav"
        _write_pcm(f, [0, 32767, -32768])
        loaded = load_wav(f)
        assert loaded.samples[0] == pytest.approx(0.5)
        assert loaded.samples[1] == pytest.approx((32767 / 32768 + 1) / 2)
        assert loaded.samples[2] == pytest.approx(0.0)

    @given(pcm=st.lists(st.integers(min_value=-32768, max_value=32767), min_size=1, max_size=200))
    def test_round_trip_bytes(self, tmp_path_factory, pcm):
        d = tmp_path_factory.mktemp("wav")
        first, second = d / "a.wav", d / "b.wav"
        _write_pcm(first, pcm)
        save_wav(load_wav(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_sample_rate_honored(self, tmp_path):
        f = tmp_path / "sr.wav"
        _write_pcm(f, [0, 100], rate=8000)
        assert load_wav(f).sample_rate == 8000

    def test_rejects_stereo(self, tmp_path):
        f = tmp_path / "st.wav"
        _write_pcm(f, [0, 0, 0, 0], channels=2)
        with pytest.raises(FormatError):
            load_wav(f)

    def test_rejects_8bit(self, tmp_path):
        f = tmp_path / "w8.wav"
        with wave.open(str(f), "wb") as fh:
            fh.setnchannels(1)
            fh.setsampwidth(1)
            fh.setframerate(16000)
            fh.writeframes(b"\x80\x80")
        with pytest.raises(FormatError):
            load_wav(f)

    @pytest.mark.parametrize("rate", [0, 2**31, 2**32 - 1])
    def test_rejects_a_header_rate_out_of_range(self, tmp_path, rate):
        f = tmp_path / "rate.wav"
        _write_pcm(f, [0, 100])
        raw = bytearray(f.read_bytes())
        raw[24:28] = rate.to_bytes(4, "little")  # the fmt chunk's sample rate field
        f.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="sample rate"):
            load_wav(f)

    def test_rejects_garbage(self, tmp_path):
        f = tmp_path / "junk.wav"
        f.write_bytes(b"not a wav at all")
        with pytest.raises(FormatError):
            load_wav(f)

    def test_rejects_truncated_payload(self, tmp_path):
        f = tmp_path / "cut.wav"
        _write_pcm(f, [0, 100, -100, 7])
        f.write_bytes(f.read_bytes()[:-1])
        with pytest.raises(FormatError, match="truncated WAV payload"):
            load_wav(f)

    def test_rejects_empty_payload(self, tmp_path):
        f = tmp_path / "none.wav"
        _write_pcm(f, [])
        with pytest.raises(FormatError):
            load_wav(f)
