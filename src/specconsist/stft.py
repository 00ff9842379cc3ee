"""Forward/inverse STFT with perfect-reconstruction window pairs.

Conventions used throughout the toolkit:

* The forward transform of frame ``m`` is the plain (unnormalized) DFT of the
  windowed samples: ``H[m, n] = sum_k W[k] x[m*R + k] exp(-2j*pi*n*k/N)``,
  with all ``N`` frequency bins kept.
* The synthesis window carries the entire normalization: ``S = W / (N * D)``
  where ``D[n] = sum_q W[n + q*R]**2`` is the (R-periodic) shifted-square sum.
  Overlap-adding ``S`` times the unnormalized inverse DFT of each frame then
  reconstructs the input exactly; neither transform applies a global scale.
  Equivalently ``sum_q W[n+q*R] * S[n+q*R] == 1/N`` for every offset ``n``.
* Signals are zero-padded by ``N - R`` samples at the start and up to frame
  alignment at the end, so every input sample is covered by exactly
  ``Q = N/R`` frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateWindowError, InputError

WINDOW_KINDS = ("hann", "rectangular")


@dataclass(frozen=True)
class StftConfig:
    """Window length, hop, and the window pair they determine (not compared)."""

    window_len: int
    hop: int
    window_kind: str
    analysis_window: np.ndarray = field(repr=False, compare=False)
    synthesis_window: np.ndarray = field(repr=False, compare=False)

    @property
    def overlap_factor(self) -> int:
        return self.window_len // self.hop


@dataclass
class Signal:
    """Real time-domain samples plus sample-rate metadata."""

    samples: np.ndarray
    sample_rate: int = 1

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64).ravel()
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise InputError("signal contains non-finite samples")
        if self.sample_rate <= 0:
            raise InputError("sample_rate must be positive")

    def __len__(self):
        return self.samples.size


@dataclass
class Spectrogram:
    """Complex M x N time-frequency array tied to the config that made it."""

    data: np.ndarray
    config: StftConfig

    def __post_init__(self):
        self.data = _check_frames(np.asarray(self.data, dtype=np.complex128),
                                  self.config, "spectrogram")
        if not np.all(np.isfinite(self.data)):
            raise InputError("spectrogram contains non-finite entries")

    @property
    def num_frames(self) -> int:
        return self.data.shape[0]

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.data)

    @property
    def phase(self) -> np.ndarray:
        return np.angle(self.data)


def _window(kind: str, window_len: int) -> np.ndarray:
    if kind == "hann":
        # Periodic form; the dual window exists whenever window_len >= 2*hop.
        n = np.arange(window_len)
        return 0.5 * (1.0 - np.cos(2.0 * np.pi * n / window_len))
    if kind == "rectangular":
        return np.ones(window_len)
    raise ConfigError(f"unknown window kind {kind!r}; expected one of {WINDOW_KINDS}")


def shifted_square_sum(window: np.ndarray, hop: int) -> np.ndarray:
    """R-periodic sum of squared window shifts, tiled back to window length."""
    q = window.size // hop
    per_offset = (window ** 2).reshape(q, hop).sum(axis=0)
    return np.tile(per_offset, q)


def make_config(window_len: int, hop: int, window_kind: str = "hann") -> StftConfig:
    """Build a config with the dual synthesis window for exact reconstruction.

    Raises ConfigError when ``window_len`` is not a positive multiple of
    ``hop`` and DegenerateWindowError when the shifted-square sum of the
    requested window has zeros (no dual window exists, e.g. hann with
    ``window_len < 2 * hop``).
    """
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
               for v in (window_len, hop)):
        raise ConfigError("window_len and hop must be integers")
    if window_len <= 0 or hop <= 0:
        raise ConfigError("window_len and hop must be positive")
    if window_len % hop != 0:
        raise ConfigError(
            f"window_len {window_len} is not an integer multiple of hop {hop}"
        )
    analysis = _window(window_kind, window_len)
    denom = shifted_square_sum(analysis, hop)
    if np.any(denom <= 0.0):
        raise DegenerateWindowError(
            f"{window_kind} window of length {window_len} with hop {hop} has a "
            "vanishing shifted-square sum; no synthesis window exists"
        )
    synthesis = analysis / (window_len * denom)
    return StftConfig(
        window_len=window_len,
        hop=hop,
        window_kind=window_kind,
        analysis_window=analysis,
        synthesis_window=synthesis,
    )


def num_frames(num_samples: int, config: StftConfig) -> int:
    """Frame count covering every sample of a signal with Q overlapping frames."""
    n, r = config.window_len, config.hop
    return (num_samples + n - r - 1) // r + 1


def _pad_signal(x: np.ndarray, config: StftConfig) -> tuple[np.ndarray, int]:
    n, r = config.window_len, config.hop
    m = num_frames(x.size, config)
    padded_len = (m - 1) * r + n
    pad_front = n - r
    out = np.zeros(padded_len, dtype=x.dtype)
    out[pad_front : pad_front + x.size] = x
    return out, m


def _analyze_frames(x_padded: np.ndarray, config: StftConfig, m: int,
                    window: np.ndarray | None = None) -> np.ndarray:
    n, r = config.window_len, config.hop
    if window is None:
        window = config.analysis_window
    frames = np.lib.stride_tricks.sliding_window_view(x_padded, n)[::r][:m]
    return np.fft.fft(frames * window, axis=1)


def stft(signal, config: StftConfig) -> Spectrogram:
    """Short-time Fourier transform, all N bins retained.

    Accepts a Signal or a bare 1-D array (real or complex; complex input is
    needed when re-analyzing an exact inverse).
    """
    x = signal.samples if isinstance(signal, Signal) else np.asarray(signal)
    x = x.ravel()
    if x.size == 0:
        raise InputError("cannot compute the STFT of an empty signal")
    if not np.iscomplexobj(x):
        x = x.astype(np.float64)
    x_padded, m = _pad_signal(x, config)
    return Spectrogram(_analyze_frames(x_padded, config, m), config)


def _coerce_spec(spec, config: StftConfig | None) -> tuple[np.ndarray, StftConfig]:
    if isinstance(spec, Spectrogram):
        if config is not None and config != spec.config:
            raise InputError("spectrogram was produced under a different config")
        return spec.data, spec.config
    if config is None:
        raise InputError("a config is required for bare spectrogram arrays")
    return _check_frames(np.asarray(spec, dtype=np.complex128), config,
                         "spectrogram"), config


def _check_frames(data: np.ndarray, config: StftConfig, what: str) -> np.ndarray:
    """``data`` itself if it is M x N with M >= 1 and N = ``window_len``."""
    if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] != config.window_len:
        raise InputError(f"{what} must be 2-D with at least one frame of "
                         f"{config.window_len} bins, got shape {data.shape}")
    return data


def overlap_add(spec, config: StftConfig | None = None) -> np.ndarray:
    """Exact linear inverse: synthesis-windowed overlap-add on the padded axis.

    Returns the complex padded-domain signal of length ``(M-1)*R + N``,
    including the ``N - R`` start-padding region. This is the inverse used in
    consistency analysis; ``istft`` wraps it for audio use.
    """
    data, config = _coerce_spec(spec, config)
    return _overlap_add(data, config, config.synthesis_window)


def _overlap_add(data: np.ndarray, config: StftConfig,
                 window: np.ndarray) -> np.ndarray:
    n, r, q = config.window_len, config.hop, config.overlap_factor
    m = data.shape[0]
    frames = (np.fft.ifft(data, axis=1) * n * window).reshape(m, q, r)
    y = np.zeros((m + q - 1, r), dtype=np.complex128)
    # Block j of frame i lands on output block i + j. Descending j adds the
    # frames covering each output block in ascending frame order.
    for j in reversed(range(q)):
        y[j : j + m] += frames[:, j]
    return y.ravel()


def istft(spec, config: StftConfig | None = None, length: int | None = None,
          sample_rate: int = 1) -> Signal:
    """Inverse STFT to a real signal.

    The start padding is dropped; ``length`` selects how many samples to keep
    (default ``M * R``, the longest span the frame count can represent). The
    imaginary part of the overlap-add is discarded; it is zero to rounding for
    any spectrogram of a real signal.
    """
    data, config = _coerce_spec(spec, config)
    m = data.shape[0]
    full = m * config.hop
    if length is None:
        length = full
    if length < 0 or length > full:
        raise InputError(f"length must be in [0, {full}] for {m} frames")
    return Signal(_synthesize(data, config, length), sample_rate=sample_rate)


def _synthesize(data: np.ndarray, config: StftConfig, length: int) -> np.ndarray:
    """``istft`` samples without its checks, so non-finite values pass through."""
    start = config.window_len - config.hop
    return overlap_add(data, config).real[start : start + length]


def project(spec, config: StftConfig | None = None) -> Spectrogram:
    """One STFT -> inverse STFT round trip at fixed frame positions.

    This is the (complex, linear) projection onto spectrograms of time-domain
    signals; its fixed points are exactly the consistent spectrograms.
    """
    data, config = _coerce_spec(spec, config)
    y = overlap_add(data, config)
    return Spectrogram(_analyze_frames(y, config, data.shape[0]), config)


def compress_magnitude(spec, a: float, b: float,
                       config: StftConfig | None = None) -> Spectrogram:
    """Power-law magnitude compression ``b * |H|**a * exp(j*angle(H))``.

    A preprocessing utility only: compression destroys consistency, so it is
    never applied before residual or consistency-loss computations.
    """
    if not (0.0 < a <= 1.0):
        raise InputError("compression exponent a must lie in (0, 1]")
    if b <= 0.0:
        raise InputError("compression scale b must be positive")
    data, config = _coerce_spec(spec, config)
    mag = np.abs(data)
    out = b * mag ** a * np.exp(1j * np.angle(data))
    return Spectrogram(out, config)


def expand_half_spectrum(half: np.ndarray) -> np.ndarray:
    """Expand an M x (N/2 + 1) half-band array to all N bins.

    Complex input is mirrored with conjugation (Hermitian symmetry of real
    signals); real input (e.g. magnitudes) is mirrored directly.
    """
    half = np.atleast_2d(np.asarray(half))
    n_half = half.shape[1]
    n = 2 * (n_half - 1)
    if n < 2:
        raise InputError("half spectrum needs at least 2 bins")
    tail = half[:, -2:0:-1]
    if np.iscomplexobj(half):
        tail = np.conj(tail)
    return np.concatenate([half, tail], axis=1)
