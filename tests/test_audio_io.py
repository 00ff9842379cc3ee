import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

import specconsist as sc
from specconsist import audio_io
from specconsist.audio_io import WavMeta, read_wav, synth, write_wav

GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def riff(chunks, form=b"RIFF", order="<") -> bytes:
    """A RIFF (or, with ``form`` and ``order``, RIFX) WAVE file of ``(chunk id,
    body)`` pairs, each odd-sized body followed by its pad byte."""
    body = b"WAVE" + b"".join(struct.pack(order + "4sI", cid, len(data)) + data
                              + b"\x00" * (len(data) % 2) for cid, data in chunks)
    return form + struct.pack(order + "I", len(body)) + body


def fmt_chunk(tag=1, channels=1, rate=8000, bits=16, order="<", block_align=None,
              byte_rate=None) -> bytes:
    """A fmt chunk body, its block align and byte rate derived unless given."""
    block_align = channels * bits // 8 if block_align is None else block_align
    byte_rate = rate * block_align if byte_rate is None else byte_rate
    return struct.pack(order + "HHIIHH", tag, channels, rate, byte_rate, block_align,
                       bits)


def extensible_fmt(subformat, channels, bits, cb_size=22) -> bytes:
    """WAVE_FORMAT_EXTENSIBLE: cbSize, valid bits, channel mask, subformat GUID."""
    return (fmt_chunk(0xFFFE, channels, 8000, bits)
            + struct.pack("<HHII", cb_size, bits, 0, subformat) + GUID_TAIL)


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


def scipy_read(path):
    """``wavfile.read`` as (rate, frames x channels samples)."""
    rate, data = wavfile.read(path)
    return rate, data.reshape(len(data), -1)


def as_signal(data, encoding):
    """What read_wav must return for ``data`` (frames x channels), downmixed."""
    x = data.astype(np.float64)
    if encoding == "pcm16":
        x = x / 32768.0
    return x.mean(axis=1) if x.shape[1] > 1 else x.ravel()


class TestScipyOracle:
    """The codec against scipy.io.wavfile, which it replaced: the same bytes
    written, the same samples read."""

    @pytest.mark.parametrize("n", [1, 7, 8, 1001])
    @pytest.mark.parametrize("encoding", ["pcm16", "float32"])
    def test_write_wav_writes_scipys_bytes(self, tmp_path, rng, encoding, n):
        if encoding == "pcm16":  # samples k/32768 quantize to exactly k
            data = rng.integers(-32768, 32768, n).astype(np.int16)
            x = data / 32768.0
        else:
            data = rng.standard_normal(n).astype(np.float32)
            x = data.astype(np.float64)
        write_wav(sc.Signal(x, 16000), WavMeta(16000, 1, encoding, n), tmp_path / "a.wav")
        wavfile.write(tmp_path / "b.wav", 16000, data)
        assert (tmp_path / "a.wav").read_bytes() == (tmp_path / "b.wav").read_bytes()

    @pytest.mark.parametrize("n", [1, 7, 8, 1001])
    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("encoding", ["pcm16", "float32"])
    def test_reads_and_lays_out_what_scipy_does(self, tmp_path, rng, encoding,
                                                channels, n):
        dtype = np.int16 if encoding == "pcm16" else np.float32
        data = (rng.standard_normal((n, channels)) * 3000).astype(dtype)
        path = tmp_path / "s.wav"
        wavfile.write(path, 8000, data if channels > 1 else data.ravel())
        assert path.read_bytes() == (audio_io._header(8000, channels, n, encoding)
                                     + data.tobytes())
        rate, expected = scipy_read(path)
        got_rate, got_encoding, got = audio_io._decode(path.read_bytes(), path)
        assert (got_rate, got_encoding, got.dtype) == (rate, encoding, expected.dtype)
        np.testing.assert_array_equal(got, expected)
        signal, meta = read_wav(path, downmix=True)
        np.testing.assert_array_equal(signal.samples, as_signal(expected, encoding))
        assert meta == WavMeta(8000, 1, encoding, n)

    @pytest.mark.parametrize("where", [0, 1])
    def test_an_unknown_odd_sized_chunk_and_its_pad_byte_are_skipped(self, tmp_path,
                                                                     where):
        data = np.arange(-5, 6, dtype=np.int16)
        chunks = [(b"fmt ", fmt_chunk()), (b"data", data.tobytes())]
        chunks.insert(where, (b"abcd", b"\x01\x02\x03"))
        path = tmp_path / "odd.wav"
        path.write_bytes(riff(chunks))
        with pytest.warns(wavfile.WavFileWarning, match="not understood"):
            _, expected = scipy_read(path)
        np.testing.assert_array_equal(expected.ravel(), data)
        np.testing.assert_array_equal(read_wav(path)[0].samples, data / 32768.0)

    @pytest.mark.parametrize("encoding, tag", [("pcm16", 1), ("float32", 3)])
    @pytest.mark.parametrize("channels", [1, 2])
    def test_wave_format_extensible(self, tmp_path, rng, encoding, tag, channels):
        dtype = np.dtype("<i2" if encoding == "pcm16" else "<f4")
        data = (rng.standard_normal((9, channels)) * 100).astype(dtype)
        path = tmp_path / "ext.wav"
        path.write_bytes(riff([(b"fmt ", extensible_fmt(tag, channels, 8 * dtype.itemsize)),
                               (b"data", data.tobytes())]))
        _, expected = scipy_read(path)
        np.testing.assert_array_equal(expected, data)
        signal, meta = read_wav(path, downmix=True)
        np.testing.assert_array_equal(signal.samples, as_signal(data, encoding))
        assert meta.encoding == encoding


def test_importing_the_package_loads_no_scipy():
    code = ("import sys, specconsist; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(sc.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.strip() == "[]"


# name -> the bytes of a file read_wav must reject as an AudioFormatError
_PCM = np.arange(8, dtype=np.int16).tobytes()
MALFORMED_WAVS = {
    "cut inside fmt": riff([(b"fmt ", fmt_chunk()), (b"data", _PCM)])[:20],
    "zero channels": riff([(b"fmt ", fmt_chunk(channels=0, block_align=2)),
                           (b"data", _PCM)]),
    "data past the end": riff([(b"fmt ", fmt_chunk()), (b"data", _PCM)])[:-2],
    "no data chunk": riff([(b"fmt ", fmt_chunk())]),
    "data before fmt": riff([(b"data", _PCM), (b"fmt ", fmt_chunk())]),
    "short fmt": riff([(b"fmt ", fmt_chunk()[:14]), (b"data", _PCM)]),
    "block align": riff([(b"fmt ", fmt_chunk(block_align=4)), (b"data", _PCM)]),
    "byte rate": riff([(b"fmt ", fmt_chunk(byte_rate=1)), (b"data", _PCM)]),
    "partial frame": riff([(b"fmt ", fmt_chunk(channels=2)), (b"data", _PCM[:6])]),
    "8-bit": riff([(b"fmt ", fmt_chunk(bits=8)), (b"data", _PCM)]),
    "float64": riff([(b"fmt ", fmt_chunk(3, bits=64)), (b"data", _PCM)]),
    "unknown subformat": riff([(b"fmt ", extensible_fmt(2, 1, 16)), (b"data", _PCM)]),
    "no extension": riff([(b"fmt ", extensible_fmt(1, 1, 16, cb_size=0)),
                          (b"data", _PCM)]),
    "rf64": b"RF64" + riff([(b"fmt ", fmt_chunk()), (b"data", _PCM)])[4:],
    "rifx": riff([(b"fmt ", fmt_chunk(order=">")), (b"data", _PCM)], b"RIFX", ">"),
    "chunk past the end": riff([(b"fmt ", fmt_chunk())])
    + struct.pack("<4sI", b"LIST", 99) + _PCM,
}


class TestMalformedWav:
    @pytest.mark.parametrize("name", MALFORMED_WAVS)
    def test_rejected_at_the_boundary(self, tmp_path, name):
        path = tmp_path / "bad.wav"
        path.write_bytes(MALFORMED_WAVS[name])
        with pytest.raises(sc.AudioFormatError):
            read_wav(path, downmix=True)

    def test_the_file_after_the_data_chunk_is_not_read(self, tmp_path):
        path = tmp_path / "tail.wav"
        path.write_bytes(riff([(b"fmt ", fmt_chunk()), (b"data", _PCM)])
                         + b"LIST\xff\xff")
        np.testing.assert_array_equal(read_wav(path)[0].samples,
                                      np.arange(8) / 32768.0)


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

    # A zero-stride view stands for the samples, so nothing large is allocated.
    @pytest.mark.parametrize("encoding, n", [("float32", 2**30), ("pcm16", 2**31 - 18)])
    def test_beyond_a_riff_files_4_gib_creates_nothing(self, tmp_path, encoding, n):
        path = tmp_path / "new" / "big.wav"
        with pytest.raises(sc.InputError, match="4 GiB"):
            write_wav(np.broadcast_to(0.0, (n,)), WavMeta(8000, 1, encoding, n), path)
        assert not path.parent.exists()

    @pytest.mark.parametrize("channels, length", [(2, 10), (1, 3), (2, 3), (0, 10)])
    def test_a_meta_that_does_not_describe_the_signal_creates_nothing(self, tmp_path,
                                                                      channels, length):
        path = tmp_path / "new" / "m.wav"
        with pytest.raises(sc.InputError, match="does not describe a mono signal of 10"):
            write_wav(sc.Signal(np.zeros(10)), WavMeta(8000, channels, "pcm16", length),
                      path)
        assert not path.parent.exists()

    def test_creates_missing_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "s.wav"
        write_wav(sc.Signal(np.zeros(8), 8000), None, path)
        assert read_wav(path)[1] == WavMeta(8000, 1, "float32", 8)

    @pytest.mark.parametrize("encoding", ["float32", "pcm16"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_are_input_errors_and_write_nothing(self, tmp_path,
                                                                   encoding, bad):
        path = tmp_path / "out" / "s.wav"
        with pytest.raises(sc.InputError, match="samples must be finite"):
            write_wav(np.array([0.0, bad]), WavMeta(8000, 1, encoding, 2), path)
        assert not path.parent.exists()


# Any parameter value: a scalar of any type, a list of them or a nested list.
_SYNTH_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 100), st.just(10**400),
    st.sampled_from([0.0, -0.0, 0.5, 7.0, 440.0, 2.7, 3999.9, 4000.0, 1e307, 1e308,
                     -1.0, np.nan, np.inf, -np.inf, np.float32(300.0), np.int64(2)]),
    st.floats(), st.text(max_size=3))
_SYNTH_VALUES = st.one_of(_SYNTH_SCALARS, st.lists(
    st.one_of(_SYNTH_SCALARS, st.lists(_SYNTH_SCALARS, max_size=2)), max_size=3))
# Values each parameter's rule accepts at 8000 Hz and 80 samples or fewer.
_FREQ, _AMP = st.floats(0.0, 3999.0), st.floats(0.0, 1e307)
_GOOD_SYNTH_VALUES = {
    "freq": _FREQ, "f0": _FREQ, "f1": _FREQ, "amp": _AMP,
    "freqs": st.lists(_FREQ, max_size=3), "amps": st.lists(_AMP, max_size=3),
    "phases": st.lists(st.floats(-1e300, 1e300), max_size=3),
    "position": st.integers(0, 79), "seed": st.integers(0, 2**70)}


def _mostly(valid, invalid):
    """Draws from ``valid`` three times in four, else from ``invalid``."""
    return st.sampled_from([True, True, True, False]).flatmap(
        lambda ok: valid if ok else invalid)


@st.composite
def _synth_params(draw, kind):
    """Most of the kind's own parameters, mostly with good values; now and then a
    stray parameter, or params that are not a dict."""
    names = list(audio_io.SYNTH_KINDS.get(kind, (None, {}))[1])
    if draw(st.integers(0, 4)) == 0:
        names.append(draw(st.sampled_from([*audio_io.SYNTH_PARAMS, "phase", 3])))
    params = {name: draw(_mostly(_GOOD_SYNTH_VALUES.get(name, _SYNTH_VALUES),
                                 _SYNTH_VALUES))
              for name in names if draw(st.integers(0, 3))}
    return draw(_mostly(st.just(params), st.one_of(st.none(), _SYNTH_VALUES)))


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

    @pytest.mark.parametrize("amp", [0.0, -0.0])
    def test_noise_of_zero_amplitude_is_silence(self, amp):
        # numpy's uniform rejects the interval [0.0, -0.0)
        signal = synth("noise", {"amp": amp}, 8000, 0.01)
        assert np.all(signal.samples == 0.0)

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

    @pytest.mark.parametrize("kind, params, duration, message", [
        ("noise", {"seed": "abc"}, 0.1, "seed must be an integer >= 0, got 'abc'"),
        ("noise", {"seed": 1.5}, 0.1, "seed must be an integer"),
        ("noise", {"seed": True}, 0.1, "seed must be an integer"),
        ("noise", {"amp": -1.0}, 0.1, "amp must be a finite number >= 0"),
        ("noise", {"amp": 1e308}, 0.1, "synth noise's samples overflow"),
        ("impulse", {"position": 2.7}, 0.1, "position must be an integer"),
        ("impulse", {"position": 800}, 0.1, r"position must be an integer in \[0, 799\]"),
        ("sine", {"freq": "x"}, 0.1, "freq must be a finite number >= 0, got 'x'"),
        ("sine", {"freq": 440.0, "amp": np.inf}, 0.1, "amp must be a finite number"),
        ("sine", {"freq": 440.0, "phase": 1.0}, 0.1, "synth sine takes no phase$"),
        ("sine", {"freq": 440.0}, "1", "duration must be a finite number > 0"),
        ("sine", {"freq": -1.0}, 0.1, "freq must be a finite number >= 0"),
        ("chirp", {"f0": 100.0, "f1": 4000.0}, 0.1, "f1 4000.0 is not below the Nyquist rate 4000.0"),
        ("chirp", {"f0": 100.0, "f1": 200.0, "amp": -0.5}, 0.1, "amp must be"),
        ("multisine", {"freqs": 5}, 0.1, "freqs must be a list, got 5"),
        ("multisine", {"freqs": [[440.0]]}, 0.1, r"freqs\[0\] must be a finite number"),
        ("multisine", {"freqs": [440.0], "phases": [np.nan]}, 0.1,
         r"phases\[0\] must be a finite number, got nan"),
        ("multisine", {"freqs": [440.0, 500.0], "amps": [1.0]}, 0.1, "equal lengths"),
        ("multisine", {"freqs": [440.0, 440.0], "amps": [1e308, 1e308]}, 0.1,
         "non-finite samples"),
        ("noise", [1], 0.1, "synth params must be a dict or None, got \\[1\\]"),
        (["sine"], {}, 0.1, "unknown synth kind"),
    ])
    def test_each_parameter_has_one_rule(self, kind, params, duration, message):
        with pytest.raises(sc.InputError, match=message):
            synth(kind, params, 8000, duration)

    def test_none_is_the_default(self):
        required = {"sine": {"freq": 100.0}, "multisine": {"freqs": [100.0]},
                    "chirp": {"f0": 100.0, "f1": 200.0}, "noise": {}, "impulse": {}}
        for kind, (_, defaults) in audio_io.SYNTH_KINDS.items():
            want = synth(kind, required[kind], 8000, 0.01).samples
            spelled = {**dict.fromkeys(defaults), **required[kind]}
            np.testing.assert_array_equal(synth(kind, spelled, 8000, 0.01).samples, want)

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from([*audio_io.SYNTH_KINDS, "square"]), data=st.data(),
           duration=st.sampled_from([0.01, 0.001, 1e-5]))
    def test_any_parameters_give_a_finite_signal_or_an_input_error(self, kind, data,
                                                                   duration):
        params = data.draw(_synth_params(kind))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                signal = synth(kind, params, 8000, duration)
            except sc.InputError:
                return
        assert len(signal) == round(8000 * duration)
        assert np.all(np.isfinite(signal.samples))

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
