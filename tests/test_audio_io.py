import numpy as np
import pytest
from scipy.io import wavfile

import specconsist as sc
from specconsist.audio_io import WavMeta, read_wav, synth, write_wav


class TestReadWav:
    def test_pcm16_scaling(self, tmp_path):
        path = tmp_path / "a.wav"
        wavfile.write(path, 8000, np.array([0, 16384, -32768], dtype=np.int16))
        signal, meta = read_wav(path)
        np.testing.assert_allclose(signal.samples, [0.0, 0.5, -1.0])
        assert meta.encoding == "pcm16"
        assert meta.sample_rate == 8000
        assert meta.channels == 1

    def test_empty_data_chunk_rejected(self, tmp_path):
        path = tmp_path / "empty.wav"
        wavfile.write(path, 8000, np.zeros(0, dtype=np.int16))
        with pytest.raises(sc.InputError):
            read_wav(path)

    def test_float32_round_trip_bit_identical(self, tmp_path, rng):
        path = tmp_path / "f.wav"
        x = rng.standard_normal(257).astype(np.float32)
        write_wav(sc.Signal(x.astype(np.float64), 16000),
                  WavMeta(16000, 1, "float32", x.size), path)
        signal, meta = read_wav(path)
        assert meta.encoding == "float32"
        np.testing.assert_array_equal(signal.samples.astype(np.float32), x)

    def test_unsupported_encoding_rejected(self, tmp_path):
        path = tmp_path / "i32.wav"
        wavfile.write(path, 8000, np.zeros(16, dtype=np.int32))
        with pytest.raises(sc.AudioFormatError):
            read_wav(path)

    def test_stereo_needs_downmix(self, tmp_path, rng):
        path = tmp_path / "st.wav"
        data = rng.standard_normal((64, 2)).astype(np.float32)
        wavfile.write(path, 8000, data)
        with pytest.raises(sc.AudioFormatError):
            read_wav(path)
        signal, meta = read_wav(path, downmix=True)
        np.testing.assert_allclose(signal.samples,
                                   data.astype(np.float64).mean(axis=1))
        assert meta.channels == 1

    def test_malformed_container_rejected(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"this is not a RIFF container at all")
        with pytest.raises(sc.AudioFormatError):
            read_wav(path)


class TestWriteWav:
    def test_pcm16_round_trip_quantization_error(self, tmp_path, rng):
        path = tmp_path / "q.wav"
        x = rng.uniform(-1, 1, 500)
        clipped = write_wav(sc.Signal(x, 8000), WavMeta(8000, 1, "pcm16", 500), path)
        assert clipped == 0
        signal, _ = read_wav(path)
        assert np.abs(signal.samples - x).max() <= 1.0 / 32768.0

    def test_clip_count_reported(self, tmp_path):
        path = tmp_path / "c.wav"
        x = np.array([0.0, 1.5, -2.0, 0.25, 1.0])
        clipped = write_wav(sc.Signal(x, 8000), WavMeta(8000, 1, "pcm16", 5), path)
        assert clipped == 2
        signal, _ = read_wav(path)
        assert np.abs(signal.samples).max() <= 1.0

    def test_zero_length_rejected(self, tmp_path):
        with pytest.raises(sc.InputError):
            write_wav(np.zeros(0), WavMeta(8000, 1, "pcm16", 0), tmp_path / "z.wav")

    def test_bare_array_needs_meta(self, tmp_path):
        with pytest.raises(sc.InputError):
            write_wav(np.zeros(8), None, tmp_path / "a.wav")
        assert not (tmp_path / "a.wav").exists()
        write_wav(sc.Signal(np.zeros(8), 8000), None, tmp_path / "s.wav")
        assert read_wav(tmp_path / "s.wav")[1] == WavMeta(8000, 1, "float32", 8)

    @pytest.mark.parametrize("rate", [0, -8000, 2**30, 2**31, 2**32])
    @pytest.mark.parametrize("encoding", ["pcm16", "float32"])
    def test_rate_outside_the_header_rejected(self, tmp_path, rate, encoding):
        path = tmp_path / "new" / "r.wav"
        with pytest.raises(sc.InputError):
            write_wav(sc.Signal(np.zeros(8)), WavMeta(rate, 1, encoding, 8), path)
        assert not path.parent.exists()

    def test_unknown_encoding_creates_nothing(self, tmp_path):
        path = tmp_path / "new" / "r.wav"
        with pytest.raises(sc.AudioFormatError):
            write_wav(sc.Signal(np.zeros(8)), WavMeta(8000, 1, "mp3", 8), path)
        assert not path.parent.exists()

    @pytest.mark.parametrize("bad", [1e39, -1e39, 3.5e38])
    def test_float32_beyond_its_range_creates_nothing(self, tmp_path, bad):
        # Casting would overflow to inf, which read_wav refuses; the suite's
        # warning filter turns the cast's RuntimeWarning into an error, so the
        # check must come first.
        path = tmp_path / "new" / "f.wav"
        with pytest.raises(sc.InputError, match="float32"):
            write_wav(sc.Signal([0.5, bad]), WavMeta(8000, 1, "float32", 2), path)
        assert not path.parent.exists()
        assert write_wav(sc.Signal([0.5, bad]), WavMeta(8000, 1, "pcm16", 2), path) == 1

    def test_float32_range_edge_round_trips(self, tmp_path):
        edge = float(np.finfo(np.float32).max)
        path = tmp_path / "e.wav"
        write_wav(sc.Signal([edge, -edge, 0.0]), WavMeta(8000, 1, "float32", 3), path)
        np.testing.assert_array_equal(read_wav(path)[0].samples, [edge, -edge, 0.0])

    def test_creates_missing_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "s.wav"
        write_wav(sc.Signal(np.zeros(8), 8000), None, path)
        assert read_wav(path)[1] == WavMeta(8000, 1, "float32", 8)


class TestSynth:
    def test_sine_quarter_rate_cycle(self):
        signal = synth("sine", {"freq": 2000.0}, 8000, 0.01)
        np.testing.assert_allclose(signal.samples[:4], [0.0, 1.0, 0.0, -1.0],
                                   atol=1e-12)

    def test_impulse(self):
        signal = synth("impulse", {"position": 7}, 8000, 0.01)
        assert signal.samples[7] == 1.0
        assert np.count_nonzero(signal.samples) == 1

    def test_noise_deterministic(self):
        a = synth("noise", {"amp": 0.3, "seed": 4}, 8000, 0.1)
        b = synth("noise", {"amp": 0.3, "seed": 4}, 8000, 0.1)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert np.abs(a.samples).max() <= 0.3

    def test_multisine_superposition(self):
        one = synth("sine", {"freq": 500.0, "amp": 0.5}, 8000, 0.05)
        two = synth("sine", {"freq": 900.0, "amp": 0.25}, 8000, 0.05)
        both = synth("multisine", {"freqs": [500.0, 900.0],
                                   "amps": [0.5, 0.25]}, 8000, 0.05)
        np.testing.assert_allclose(both.samples, one.samples + two.samples,
                                   atol=1e-12)

    def test_chirp_starts_at_zero_phase(self):
        signal = synth("chirp", {"f0": 100.0, "f1": 1000.0}, 8000, 0.1)
        assert signal.samples[0] == 0.0
        assert len(signal) == 800

    def test_nyquist_guard(self):
        with pytest.raises(sc.InputError):
            synth("sine", {"freq": 5000.0}, 8000, 0.1)

    def test_unknown_kind(self):
        with pytest.raises(sc.InputError):
            synth("square", {}, 8000, 0.1)

    @pytest.mark.parametrize("kind,params,duration", [
        ("sine", {}, 0.1), ("multisine", {"amps": [1.0]}, 0.1),
        ("chirp", {"f0": 100.0}, 0.1), ("noise", {}, float("nan")),
        ("noise", {}, float("inf")), ("noise", {}, float("-inf")),
    ])
    def test_missing_parameter_or_non_finite_duration(self, kind, params, duration):
        with pytest.raises(sc.InputError):
            synth(kind, params, 8000, duration)

    @pytest.mark.parametrize("kind, params, extra", [
        ("sine", {"freq": 440.0, "phases": [1.0]}, "phases"),
        ("noise", {"amp": 0.5, "freq": 440.0}, "freq"),
        ("impulse", {"seed": 3, "freqs": [100.0]}, "freqs, seed"),
    ])
    def test_parameter_the_kind_does_not_take(self, kind, params, extra):
        with pytest.raises(sc.InputError, match=f"synth {kind} takes no {extra}$"):
            synth(kind, params, 8000, 0.1)

    # Each count is past the limit, so it fails before anything is allocated.
    @pytest.mark.parametrize("sr, duration", [(16000, 1e12), (16000, 1e308),
                                              (1, 2.0**31), (2, 2.0**30)])
    def test_more_samples_than_a_wav_file_holds(self, sr, duration):
        with pytest.raises(sc.InputError, match="2147483647 samples"):
            synth("impulse", {}, sr, duration)

    @pytest.mark.parametrize("sr", [0, -8000, 2**30, 10**400])
    def test_rate_outside_the_header_rejected(self, sr):
        with pytest.raises(sc.InputError, match="does not fit a WAV header"):
            synth("impulse", {}, sr, 1e-6)
