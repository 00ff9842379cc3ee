"""Mono WAV input/output and deterministic test-signal synthesis."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from .errors import AudioFormatError, InputError
from .stft import Signal, _integer, _samples

ENCODINGS = ("pcm16", "float32")
# synth kind -> (the parameters it requires, the ones it may take)
SYNTH_KINDS = {"sine": (("freq",), ("amp", "phase")),
               "multisine": (("freqs",), ("amps", "phases")),
               "chirp": (("f0", "f1"), ("amp",)),
               "noise": ((), ("amp", "seed")),
               "impulse": ((), ("position", "amp"))}

_PCM16_SCALE = 32768.0
_FLOAT32_MAX = float(np.finfo(np.float32).max)
# A WAV data chunk stores its size in bytes in 32 bits, and pcm16, the smaller
# encoding, takes 2 bytes a sample: no supported file holds more samples.
_MAX_SAMPLES = (2**32 - 1) // 2


@dataclass
class WavMeta:
    sample_rate: int
    channels: int
    encoding: str
    length: int


def read_wav(path, downmix: bool = False) -> tuple[Signal, WavMeta]:
    """Read a pcm16 or float32 RIFF/WAVE file as a mono signal in [-1, 1].

    pcm16 samples are scaled by 1/32768; float32 passes through. Multi-channel
    input is rejected unless ``downmix`` averages the channels.
    """
    try:
        rate, data = wavfile.read(path)
    except ValueError as exc:
        raise AudioFormatError(f"cannot parse {path}: {exc}") from exc
    if data.dtype == np.int16:
        encoding = "pcm16"
        samples = data.astype(np.float64) / _PCM16_SCALE
    elif data.dtype == np.float32:
        encoding = "float32"
        samples = data.astype(np.float64)
    else:
        raise AudioFormatError(
            f"unsupported encoding {data.dtype} in {path}; expected pcm16 or float32")
    channels = 1 if samples.ndim == 1 else samples.shape[1]
    if channels > 1:
        if not downmix:
            raise AudioFormatError(
                f"{path} has {channels} channels; pass downmix to average them")
        samples = samples.mean(axis=1)
    samples = samples.ravel()
    if samples.size == 0:
        raise InputError(f"{path} has an empty data chunk")
    meta = WavMeta(sample_rate=int(rate), channels=1, encoding=encoding,
                   length=samples.size)
    return Signal(samples, sample_rate=int(rate)), meta


def write_wav(signal: Signal, meta: WavMeta | None, path) -> int:
    """Write a mono signal; returns the number of samples clipped (pcm16 only).

    pcm16 clips to [-1, 1] before quantizing by 32768; float32 is written
    verbatim and rejects samples beyond the float32 range. A zero-length signal
    is rejected. The parent directory is created once every check has passed.
    """
    if meta is None and not isinstance(signal, Signal):
        raise InputError("a bare sample array needs a WavMeta for its sample rate")
    x = np.asarray(_samples(signal), dtype=np.float64)
    if x.size == 0:
        raise InputError("refusing to write a zero-length WAV file")
    if not np.all(np.isfinite(x)):
        raise InputError("samples must be finite")
    rate = _check_sample_rate(meta.sample_rate if meta is not None
                              else signal.sample_rate)
    encoding = meta.encoding if meta is not None else "float32"
    if encoding not in ENCODINGS:
        raise AudioFormatError(f"unsupported encoding {encoding!r}")
    if encoding == "float32" and np.max(np.abs(x)) > _FLOAT32_MAX:
        raise InputError(f"float32 samples must lie within +-{_FLOAT32_MAX:.7g}")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    if encoding == "pcm16":
        clipped = np.clip(x, -1.0, 1.0)
        n_clipped = int(np.count_nonzero((x < -1.0) | (x > 1.0)))
        ints = np.clip(np.round(clipped * _PCM16_SCALE), -32768, 32767)
        wavfile.write(path, rate, ints.astype(np.int16))
        return n_clipped
    wavfile.write(path, rate, x.astype(np.float32))
    return 0


def _check_sample_rate(rate) -> int:
    """``rate`` as an int if a WAV header (rate * bytes per frame in 32 bits) holds it."""
    try:
        return _integer(rate, "sample rate", 1, 2**30 - 1)
    except InputError as exc:
        raise InputError(f"{exc}, which does not fit a WAV header") from None


def synth(kind: str, params: dict | None, sr: int, duration: float) -> Signal:
    """Synthesize a deterministic test signal.

    A kind takes only its own params (``SYNTH_KINDS``); any other is an
    InputError. kinds and their params:
      sine      freq, amp=1, phase=0
      multisine freqs, amps=None (1 each), phases=None (0 each)
      chirp     f0, f1, amp=1 (linear sweep)
      noise     amp=1, seed=0 (uniform in [-amp, amp))
      impulse   position=0, amp=1
    """
    params = dict(params or {})
    if kind not in SYNTH_KINDS:
        raise InputError(
            f"unknown synth kind {kind!r}; expected one of {tuple(SYNTH_KINDS)}")
    required, optional = SYNTH_KINDS[kind]
    missing = [name for name in required if params.get(name) is None]
    if missing:
        raise InputError(f"synth {kind} requires {', '.join(missing)}")
    if extra := sorted(set(params) - {*required, *optional}):
        raise InputError(f"synth {kind} takes no {', '.join(extra)}")
    _check_sample_rate(sr)  # its bound keeps sr * duration a float
    if not np.isfinite(duration):
        raise InputError("duration must be finite")
    if sr * duration >= _MAX_SAMPLES + 0.5:  # before anything is allocated
        raise InputError(f"{duration} s at {sr} Hz exceeds the {_MAX_SAMPLES} "
                         "samples a WAV data chunk can hold")
    n = int(round(sr * duration))
    if n <= 0:
        raise InputError("duration too short for the sample rate")
    t = np.arange(n) / sr

    if kind == "sine":
        freq = float(params["freq"])
        _check_freq(freq, sr)
        amp = float(params.get("amp", 1.0))
        phase = float(params.get("phase", 0.0))
        x = amp * np.sin(2.0 * np.pi * freq * t + phase)
    elif kind == "multisine":
        freqs = [float(f) for f in params["freqs"]]
        for f in freqs:
            _check_freq(f, sr)
        amps = params.get("amps") or [1.0] * len(freqs)
        phases = params.get("phases") or [0.0] * len(freqs)
        if not (len(freqs) == len(amps) == len(phases)):
            raise InputError("freqs, amps and phases must have equal lengths")
        x = np.zeros(n)
        for f, a, ph in zip(freqs, amps, phases):
            x += float(a) * np.sin(2.0 * np.pi * f * t + float(ph))
    elif kind == "chirp":
        f0, f1 = float(params["f0"]), float(params["f1"])
        _check_freq(f0, sr)
        _check_freq(f1, sr)
        amp = float(params.get("amp", 1.0))
        sweep = (f1 - f0) / (2.0 * duration)
        x = amp * np.sin(2.0 * np.pi * (f0 * t + sweep * t * t))
    elif kind == "noise":
        amp, seed = float(params.get("amp", 1.0)), int(params.get("seed", 0))
        if not np.isfinite(amp) or seed < 0:
            raise InputError("noise needs a finite amp and a nonnegative seed")
        x = np.random.default_rng(seed).uniform(-amp, amp, size=n)
    else:
        position = int(params.get("position", 0))
        if not 0 <= position < n:
            raise InputError(f"impulse position {position} outside [0, {n})")
        x = np.zeros(n)
        x[position] = float(params.get("amp", 1.0))
    return Signal(x, sample_rate=sr)


def _check_freq(freq: float, sr: int):
    if not 0 <= freq < sr / 2:
        raise InputError(f"frequency {freq} not below the Nyquist rate {sr / 2}")
