"""Mono WAV input/output and deterministic test-signal synthesis.

The RIFF/WAVE codec is this module's own, built on ``struct`` and numpy. It
reads pcm16 and float32 samples, plain or as the subformat of
WAVE_FORMAT_EXTENSIBLE, and skips every chunk but fmt and data, with the pad
byte after an odd size. A header or data chunk that disagrees with the file is
an AudioFormatError, and so are big-endian RIFX and 64-bit RF64 files. It
writes the canonical layout: RIFF, fmt and data, with cbSize and a fact chunk
for float32 (the tests hold it byte for byte to the writer it replaced).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AudioFormatError, InputError
from .stft import Signal, _integer, _real, _samples

# encoding -> (WAVE format tag, sample dtype)
_CODECS = {"pcm16": (1, np.dtype("<i2")), "float32": (3, np.dtype("<f4"))}
_ENCODING_OF = {(tag, 8 * dtype.itemsize): name for name, (tag, dtype) in _CODECS.items()}
ENCODINGS = tuple(_CODECS)
# WAVE_FORMAT_EXTENSIBLE's subformat GUID {XXXXXXXX-0000-0010-8000-00AA00389B71}
# after its first 4 bytes, which hold the format tag
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
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
    rate, encoding, data = _decode(Path(path).read_bytes(), path)
    samples = data.astype(np.float64)
    if encoding == "pcm16":
        samples /= _PCM16_SCALE
    channels = samples.shape[1]
    if channels > 1:
        if not downmix:
            raise AudioFormatError(
                f"{path} has {channels} channels; pass downmix to average them")
        samples = samples.mean(axis=1)
    samples = samples.ravel()
    if samples.size == 0:
        raise InputError(f"{path} has an empty data chunk")
    meta = WavMeta(sample_rate=rate, channels=1, encoding=encoding,
                   length=samples.size)
    return Signal(samples, sample_rate=rate), meta


def _decode(buf: bytes, path) -> tuple[int, str, np.ndarray]:
    """(rate, encoding, frames x channels samples) of a RIFF/WAVE file's bytes.

    The RIFF size field is not read: streaming writers leave it 0 or 2**32 - 1.
    Every chunk up to the data chunk must fit the file, and so must the data.
    """
    if buf[:4] != b"RIFF" or buf[8:12] != b"WAVE":
        raise AudioFormatError(f"{path} is not a RIFF/WAVE file "
                               "(RIFX and RF64 files are not read)")
    fmt, pos = None, 12
    while True:
        if pos + 8 > len(buf):
            raise AudioFormatError(f"{path} ends before its data chunk")
        chunk_id, size = struct.unpack_from("<4sI", buf, pos)
        pos += 8
        if size > len(buf) - pos:
            raise AudioFormatError(f"{path}: chunk {chunk_id!r} claims {size} bytes, "
                                   f"but the file holds {len(buf) - pos} after its header")
        if chunk_id == b"data":
            break
        if chunk_id == b"fmt ":
            fmt = _format(buf[pos:pos + size], path)
        pos += size + size % 2
    if fmt is None:
        raise AudioFormatError(f"{path} has no fmt chunk before its data chunk")
    rate, channels, encoding = fmt
    dtype = _CODECS[encoding][1]
    if size % (channels * dtype.itemsize):
        raise AudioFormatError(f"{path}: a data chunk of {size} bytes is not a whole "
                               f"number of {channels}-channel {encoding} frames")
    data = np.frombuffer(buf, dtype, size // dtype.itemsize, pos)
    return rate, encoding, data.reshape(-1, channels)


def _format(body: bytes, path) -> tuple[int, int, str]:
    """(rate, channels, encoding) of a fmt chunk; every field must agree."""
    if len(body) < 16:
        raise AudioFormatError(f"{path}: a fmt chunk of {len(body)} bytes; "
                               "expected at least 16")
    tag, channels, rate, byte_rate, block_align, bits = struct.unpack_from("<HHIIHH", body)
    if tag == 0xFFFE and len(body) >= 40:  # EXTENSIBLE: cbSize, 6 bytes, the GUID
        extension, subformat = struct.unpack_from("<H6xI", body, 16)
        if extension >= 22 and body[28:40] == _GUID_TAIL:
            tag = subformat
    encoding = _ENCODING_OF.get((tag, bits))
    if encoding is None:
        raise AudioFormatError(f"unsupported encoding (format tag {tag:#06x}, {bits} "
                               f"bits) in {path}; expected pcm16 or float32")
    if channels == 0 or block_align != channels * bits // 8 \
            or byte_rate != rate * block_align:
        raise AudioFormatError(
            f"{path}: inconsistent fmt chunk ({channels} channels, block align "
            f"{block_align}, {rate} Hz, {byte_rate} bytes/s) for {encoding}")
    return rate, channels, encoding


def write_wav(signal: Signal, meta: WavMeta | None, path) -> int:
    """Write a mono signal; returns the number of samples clipped (pcm16 only).

    pcm16 clips to [-1, 1] before quantizing by 32768; float32 is written
    verbatim and rejects samples beyond the float32 range. A zero-length signal,
    one too long for a RIFF file (4 GiB), or a ``meta`` other than 1 channel of
    the signal's length is rejected. The parent directory is created once every
    check has passed.
    """
    if meta is None and not isinstance(signal, Signal):
        raise InputError("a bare sample array needs a WavMeta for its sample rate")
    x = np.asarray(_samples(signal), dtype=np.float64)
    if x.size == 0:
        raise InputError("refusing to write a zero-length WAV file")
    if meta is not None and (meta.channels, meta.length) != (1, x.size):
        raise InputError(f"a WavMeta of {meta.channels} channels and {meta.length} "
                         f"samples does not describe a mono signal of {x.size}")
    rate = _check_sample_rate(meta.sample_rate if meta is not None
                              else signal.sample_rate)
    encoding = meta.encoding if meta is not None else "float32"
    if encoding not in ENCODINGS:
        raise AudioFormatError(f"unsupported encoding {encoding!r}")
    header = _header(rate, 1, x.size, encoding)  # before any sample is touched
    if not np.all(np.isfinite(x)):
        raise InputError("samples must be finite")
    if encoding == "float32" and np.max(np.abs(x)) > _FLOAT32_MAX:
        raise InputError(f"float32 samples must lie within +-{_FLOAT32_MAX:.7g}")
    n_clipped = 0
    if encoding == "pcm16":
        n_clipped = int(np.count_nonzero((x < -1.0) | (x > 1.0)))
        x = np.clip(np.round(np.clip(x, -1.0, 1.0) * _PCM16_SCALE), -32768, 32767)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(x.astype(_CODECS[encoding][1]))
    return n_clipped


def _header(rate: int, channels: int, frames: int, encoding: str) -> bytes:
    """The bytes before the samples: RIFF, fmt and data, with cbSize and a fact
    chunk for float32."""
    tag, dtype = _CODECS[encoding]
    block_align = channels * dtype.itemsize
    fmt = struct.pack("<HHIIHH", tag, channels, rate, rate * block_align, block_align,
                      8 * dtype.itemsize)
    fact = b""
    if encoding == "float32":
        fmt += b"\x00\x00"
        fact = struct.pack("<4sII", b"fact", 4, frames)
    size = frames * block_align
    chunks = struct.pack("<4sI", b"fmt ", len(fmt)) + fmt + fact
    riff_size = 4 + len(chunks) + 8 + size  # WAVE, the chunks, then data
    if riff_size > 0xFFFFFFFF:
        raise InputError(f"{frames} {encoding} frames exceed the 4 GiB a RIFF file "
                         "holds; RF64 is not written")
    return (struct.pack("<4sI4s", b"RIFF", riff_size, b"WAVE") + chunks
            + struct.pack("<4sI", b"data", size))


def _check_sample_rate(rate) -> int:
    """``rate`` as an int if a WAV header (rate * bytes per frame in 32 bits) holds it."""
    try:
        return _integer(rate, "sample rate", 1, 2**30 - 1)
    except InputError as exc:
        raise InputError(f"{exc}, which does not fit a WAV header") from None


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _frequency(value, name: str, sr: int, n: int) -> float:
    freq = _real(value, name, 0.0, inclusive=True)
    if freq >= sr / 2:
        raise InputError(f"{name} {freq} is not below the Nyquist rate {sr / 2}")
    return freq


def _each(rule):
    def each(value, name: str, sr: int, n: int) -> list:
        if not isinstance(value, (list, tuple)):
            raise InputError(f"{name} must be a list, got {value!r}")
        return [rule(v, f"{name}[{i}]", sr, n) for i, v in enumerate(value)]
    return each


# + 0.0 makes -0.0 a 0.0, for which numpy's uniform(-amp, amp) raises no error
_amplitude = lambda value, name, sr, n: _real(value, name, 0.0, inclusive=True) + 0.0
_phase = lambda value, name, sr, n: _real(value, name, -np.inf, inclusive=False)
# synth parameter -> (the CLI's text parser, its rule). A rule takes the value, its
# name, the sample rate and the sample count, and returns the value to use.
SYNTH_PARAMS = {
    "freq": (float, _frequency), "freqs": (_floats, _each(_frequency)),
    "amps": (_floats, _each(_amplitude)), "phases": (_floats, _each(_phase)),
    "f0": (float, _frequency), "f1": (float, _frequency), "amp": (float, _amplitude),
    "position": (int, lambda value, name, sr, n: _integer(value, name, 0, n - 1)),
    "seed": (int, lambda value, name, sr, n: _integer(value, name, 0)),
}


def _multisine(t, duration, freqs, amps, phases):
    amps, phases = amps or [1.0] * len(freqs), phases or [0.0] * len(freqs)
    if not len(freqs) == len(amps) == len(phases):
        raise InputError("freqs, amps and phases must have equal lengths")
    x = np.zeros(t.size)
    for f, a, ph in zip(freqs, amps, phases):
        x += a * np.sin(2.0 * np.pi * f * t + ph)
    return x


# synth kind -> (generator, {parameter: default, None if required}). A generator
# takes the sample times, the duration and the kind's parameters as keywords.
SYNTH_KINDS = {
    "sine": (lambda t, duration, freq, amp: amp * np.sin(2.0 * np.pi * freq * t),
             {"freq": None, "amp": 1.0}),
    "multisine": (_multisine, {"freqs": None, "amps": (), "phases": ()}),
    "chirp": (lambda t, duration, f0, f1, amp: amp * np.sin(  # a linear sweep
        2.0 * np.pi * (f0 * t + (f1 - f0) / (2.0 * duration) * t * t)),
        {"f0": None, "f1": None, "amp": 1.0}),
    "noise": (lambda t, duration, amp, seed:  # uniform in [-amp, amp)
              np.random.default_rng(seed).uniform(-amp, amp, size=t.size),
              {"amp": 1.0, "seed": 0}),
    "impulse": (lambda t, duration, position, amp:
                np.where(np.arange(t.size) == position, amp, 0.0),
                {"position": 0, "amp": 1.0}),
}


def synth(kind: str, params: dict | None, sr: int, duration: float) -> Signal:
    """A deterministic test signal of a ``SYNTH_KINDS`` kind, which takes only its
    own params (None for a default), each checked by its ``SYNTH_PARAMS`` rule.
    Empty ``amps`` or ``phases`` are 1 or 0 per frequency."""
    if not isinstance(kind, str) or kind not in SYNTH_KINDS:
        raise InputError(
            f"unknown synth kind {kind!r}; expected one of {tuple(SYNTH_KINDS)}")
    if not isinstance(params, (dict, type(None))):
        raise InputError(f"synth params must be a dict or None, got {params!r}")
    generate, defaults = SYNTH_KINDS[kind]
    given = {name: value for name, value in (params or {}).items() if value is not None}
    if missing := [name for name in defaults if defaults[name] is None and name not in given]:
        raise InputError(f"synth {kind} requires {', '.join(missing)}")
    if extra := sorted(map(str, set(given) - set(defaults))):
        raise InputError(f"synth {kind} takes no {', '.join(extra)}")
    sr = _check_sample_rate(sr)  # its bound keeps sr * duration a float
    duration = _real(duration, "duration", 0.0, inclusive=False)
    if not 0.5 < sr * duration < _MAX_SAMPLES + 0.5:  # before anything is allocated
        raise InputError(f"{duration} s at {sr} Hz must give 1 to the {_MAX_SAMPLES} "
                         "samples a WAV data chunk can hold")
    n = int(round(sr * duration))
    values = {name: SYNTH_PARAMS[name][1](value, name, sr, n)
              for name, value in {**defaults, **given}.items()}
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # Signal rejects inf and NaN
            x = generate(np.arange(n) / sr, duration, **values)
    except OverflowError:  # numpy's check of a noise range beyond the float64 limit
        raise InputError(f"synth {kind}'s samples overflow") from None
    return Signal(x, sample_rate=sr)
