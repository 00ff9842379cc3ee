"""Mono WAV input/output and deterministic test-signal synthesis."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile

from .errors import AudioFormatError, InputError
from .stft import Signal

ENCODINGS = ("pcm16", "float32")
# synth kind -> the parameters it requires
SYNTH_KINDS = {"sine": ("freq",), "multisine": ("freqs",), "chirp": ("f0", "f1"),
               "noise": (), "impulse": ()}

_PCM16_SCALE = 32768.0


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
    verbatim. A zero-length signal is rejected.
    """
    if meta is None and not isinstance(signal, Signal):
        raise InputError("a bare sample array needs a WavMeta for its sample rate")
    x = signal.samples if isinstance(signal, Signal) else np.asarray(signal, float)
    if x.size == 0:
        raise InputError("refusing to write a zero-length WAV file")
    if not np.all(np.isfinite(x)):
        raise InputError("samples must be finite")
    rate = meta.sample_rate if meta is not None else signal.sample_rate
    encoding = meta.encoding if meta is not None else "float32"
    if encoding == "pcm16":
        clipped = np.clip(x, -1.0, 1.0)
        n_clipped = int(np.count_nonzero((x < -1.0) | (x > 1.0)))
        ints = np.clip(np.round(clipped * _PCM16_SCALE), -32768, 32767)
        wavfile.write(path, rate, ints.astype(np.int16))
        return n_clipped
    if encoding == "float32":
        wavfile.write(path, rate, x.astype(np.float32))
        return 0
    raise AudioFormatError(f"unsupported encoding {encoding!r}")


def synth(kind: str, params: dict | None, sr: int, duration: float) -> Signal:
    """Synthesize a deterministic test signal.

    kinds and their params:
      sine      freq, amp=1, phase=0
      multisine freqs, amps=None (1 each), phases=None (0 each)
      chirp     f0, f1, amp=1 (linear sweep)
      noise     amp=1, seed=0 (uniform in [-amp, amp))
      impulse   position=0, amp=1
    """
    params = dict(params or {})
    missing = [name for name in SYNTH_KINDS.get(kind, ()) if params.get(name) is None]
    if missing:
        raise InputError(f"synth {kind} requires {', '.join(missing)}")
    if sr <= 0 or not np.isfinite(duration):
        raise InputError("sample rate must be positive and duration finite")
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
    elif kind == "impulse":
        position = int(params.get("position", 0))
        if not 0 <= position < n:
            raise InputError(f"impulse position {position} outside [0, {n})")
        x = np.zeros(n)
        x[position] = float(params.get("amp", 1.0))
    else:
        raise InputError(
            f"unknown synth kind {kind!r}; expected one of {tuple(SYNTH_KINDS)}")
    return Signal(x, sample_rate=sr)


def _check_freq(freq: float, sr: int):
    if not 0 <= freq < sr / 2:
        raise InputError(f"frequency {freq} not below the Nyquist rate {sr / 2}")
