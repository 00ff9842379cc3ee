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
from .stft import Signal, _integer, _samples

# encoding -> (WAVE format tag, sample dtype)
_CODECS = {"pcm16": (1, np.dtype("<i2")), "float32": (3, np.dtype("<f4"))}
_ENCODING_OF = {(tag, 8 * dtype.itemsize): name for name, (tag, dtype) in _CODECS.items()}
ENCODINGS = tuple(_CODECS)
# WAVE_FORMAT_EXTENSIBLE's subformat GUID {XXXXXXXX-0000-0010-8000-00AA00389B71}
# after its first 4 bytes, which hold the format tag
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
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
    or one too long for a RIFF file (4 GiB), is rejected. The parent directory
    is created once every check has passed.
    """
    if meta is None and not isinstance(signal, Signal):
        raise InputError("a bare sample array needs a WavMeta for its sample rate")
    x = np.asarray(_samples(signal), dtype=np.float64)
    if x.size == 0:
        raise InputError("refusing to write a zero-length WAV file")
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
