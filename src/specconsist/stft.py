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

# Floats per row of `_sum_squares`. A global phase shift moves `loss_ec` by up
# to 2 ulps even when summed exactly. Over 80,000 random residuals up to 512
# bins wide, rows of 32 kept it within 4 ulps; rows of 64 let 2 cases reach 5,
# and one row per frame let about 1 case in 200 pass 4.
_SUM_ROW = 32

# Longest window `make_config` accepts: 2**20 samples (21.8 s at 48 kHz) is far
# beyond any analysis window, and a config allocates window-length arrays at once.
_MAX_WINDOW_LEN = 2**20


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
    """Real time-domain samples (complex ones are an InputError) and a sample rate."""

    samples: np.ndarray
    sample_rate: int = 1

    def __post_init__(self):
        self.samples = np.ascontiguousarray(_samples(self.samples, real=True), dtype=float)
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise InputError("signal contains non-finite samples")
        self.sample_rate = _integer(self.sample_rate, "sample_rate", 1)

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


def _periodic_sum(w: np.ndarray, hop: int) -> np.ndarray:
    """The R-periodic sum of ``w``'s shifts by multiples of R, over one period."""
    return w.reshape(-1, hop).sum(axis=0)


def _shifted_square_sum(window: np.ndarray, hop: int) -> np.ndarray:
    """R-periodic sum of squared window shifts, tiled back to window length."""
    return np.tile(_periodic_sum(window ** 2, hop), window.size // hop)


def make_config(window_len: int, hop: int, window_kind: str = "hann") -> StftConfig:
    """Build a config with the dual synthesis window for exact reconstruction.

    Raises InputError unless ``window_len`` (at most ``_MAX_WINDOW_LEN``) and
    ``hop`` are integers >= 1, ConfigError when ``window_len`` is not a multiple of
    ``hop`` and DegenerateWindowError when the shifted-square sum of the
    requested window has zeros (no dual window exists, e.g. hann with
    ``window_len < 2 * hop``).
    """
    window_len = _integer(window_len, "window_len", 1, _MAX_WINDOW_LEN)
    hop = _integer(hop, "hop", 1)
    if window_len % hop != 0:
        raise ConfigError(
            f"window_len {window_len} is not an integer multiple of hop {hop}"
        )
    analysis = _window(window_kind, window_len)
    denom = _shifted_square_sum(analysis, hop)
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
    return (_integer(num_samples, "num_samples", 0) + n - r - 1) // r + 1


def signal_length(frames: int, config: StftConfig) -> int:
    """Longest signal with ``frames`` STFT frames; the inverse of ``num_frames``."""
    q = config.overlap_factor
    if frames < q:
        raise InputError(f"need at least Q={q} frames, got {frames}")
    return (frames - q + 1) * config.hop


def _analyze_frames(x_padded: np.ndarray, config: StftConfig, m: int,
                    window: np.ndarray | None = None) -> np.ndarray:
    if window is None:
        window = config.analysis_window
    return np.fft.fft(_frames(x_padded, config, m) * window, axis=1)


def _frames(x_padded: np.ndarray, config: StftConfig, m: int) -> np.ndarray:
    """The first ``m`` frames of ``x_padded`` (N samples, R apart) as a view."""
    frames = np.lib.stride_tricks.sliding_window_view(x_padded, config.window_len)
    return frames[:: config.hop][:m]


def stft(signal, config: StftConfig) -> Spectrogram:
    """Short-time Fourier transform, all N bins retained.

    Accepts a Signal or a bare 1-D array (real or complex; complex input is
    needed when re-analyzing an exact inverse).
    """
    x_padded, m = _padded(signal, config)
    return Spectrogram(_analyze_frames(x_padded, config, m), config)


def _padded(signal, config: StftConfig) -> tuple[np.ndarray, int]:
    """``stft``'s input and frame count, ``signal`` as ``stft`` takes it: N - R
    zeros first, so that Q frames cover every sample, and zeros to the last frame's end."""
    x = _samples(signal)
    if x.size == 0:
        raise InputError("cannot compute the STFT of an empty signal")
    n, r = config.window_len, config.hop
    m = num_frames(x.size, config)
    out = np.zeros((m - 1) * r + n, dtype=x.dtype if np.iscomplexobj(x) else np.float64)
    out[n - r : n - r + x.size] = x
    return out, m


def _samples(signal, real: bool = False) -> np.ndarray:
    """The samples of a Signal, or ``signal`` as an array: 1-D, and real under ``real``."""
    x = signal.samples if isinstance(signal, Signal) else np.asarray(signal)
    if x.ndim != 1:
        raise InputError(f"a signal must be 1-D, got shape {x.shape}")
    if real and np.iscomplexobj(x):
        raise InputError("signal samples must be real, got a complex array")
    return x


def _coerce_spec(spec, config: StftConfig | None,
                 finite: bool = False) -> tuple[np.ndarray, StftConfig]:
    """A spectrogram's data and config; a bare array must be finite under ``finite``."""
    if isinstance(spec, Spectrogram):
        if config is not None and config != spec.config:
            raise InputError("spectrogram was produced under a different config")
        return spec.data, spec.config
    if config is None:
        raise InputError("a config is required for bare spectrogram arrays")
    data = _check_frames(np.asarray(spec, dtype=np.complex128), config, "spectrogram")
    if finite and not np.all(np.isfinite(data)):
        raise InputError("spectrogram contains non-finite entries")
    return data, config


def _check_frames(data: np.ndarray, config: StftConfig | None, what: str) -> np.ndarray:
    """``data`` itself if it is M x N with M >= 1, and N = ``window_len`` under a config."""
    if (data.ndim != 2 or data.shape[0] < 1
            or config is not None and data.shape[1] != config.window_len):
        bins = "" if config is None else f" of {config.window_len} bins"
        raise InputError(f"{what} must be 2-D with at least one frame{bins}, "
                         f"got shape {data.shape}")
    return data


def _magnitude(mag, config: StftConfig | None = None) -> np.ndarray:
    """``mag`` as float64 if it is a magnitude: frames as ``_check_frames`` takes
    them, every entry finite and >= 0."""
    mag = _check_frames(np.asarray(mag, dtype=np.float64), config, "magnitude")
    if not np.all(np.isfinite(mag) & (mag >= 0)):
        raise InputError("magnitude entries must be finite and nonnegative")
    return mag


def _phase(phase, shape: tuple | None, what: str, finite: bool = True) -> np.ndarray:
    """``phase`` as float64 if it has ``shape``, its partner's (with None, frames as
    ``_check_frames`` takes them), and is finite. An iterate is checked with ``finite``
    off: its non-finite loss is how the solvers detect divergence."""
    phase = np.asarray(phase, dtype=np.float64)
    if shape is None:
        _check_frames(phase, None, what)
    elif phase.shape != shape:
        raise InputError(f"{what} must have shape {shape}, got {phase.shape}")
    if finite and not np.all(np.isfinite(phase)):
        raise InputError(f"{what} contains non-finite entries")
    return phase


def _integer(value, name: str, floor: int, ceiling: int | None = None) -> int:
    """``value`` as an int: an integral int or float, never a bool or a string."""
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        value = int(value)
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and floor <= value and (ceiling is None or value <= ceiling)):
        return int(value)
    bound = f">= {floor}" if ceiling is None else f"in [{floor}, {ceiling}]"
    raise InputError(f"{name} must be an integer {bound}, got {value!r}")


def _real(value, name: str, floor: float, *, inclusive: bool) -> float:
    """``value`` as a finite float >= ``floor`` (> unless ``inclusive``), never a bool."""
    if (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool)):
        try:
            number = float(value)
        except OverflowError:
            number = np.inf
        if (floor <= number if inclusive else floor < number) and number < np.inf:
            return number
    bound = "" if floor == -np.inf else f" {'>=' if inclusive else '>'} {floor:g}"
    raise InputError(f"{name} must be a finite number{bound}, got {value!r}")


def _sum_squares(x: np.ndarray) -> float:
    """Sum of ``|x|**2`` over every element, the same bits at any thread count.

    BLAS dots and norms split long sums across the BLAS library's threads, so
    their rounding follows its thread count. Here the flat float values (real
    and imaginary parts, for complex input) are cut into rows of ``_SUM_ROW``;
    ``einsum``, which never calls BLAS, sums the squares of each row and
    numpy's pairwise ``add.reduce`` adds the row sums. Short rows keep the
    relative error below ``2 * _SUM_ROW * eps`` at any size, and no temporary
    is larger than ``x.size / _SUM_ROW`` unless ``x`` is not contiguous.
    """
    flat = np.ravel(x)
    if np.iscomplexobj(flat):
        flat = flat.view(flat.real.dtype)
    bulk = flat.size - flat.size % _SUM_ROW
    rows, tail = flat[:bulk].reshape(-1, _SUM_ROW), flat[bulk:]
    total = np.add.reduce(np.einsum("ij,ij->i", rows, rows))
    if tail.size:
        total += np.einsum("i,i->", tail, tail)
    return float(total)


def _polar(phase: np.ndarray, mag: np.ndarray | None = None, out: np.ndarray | None = None,
           parts: tuple | None = None, unit: np.ndarray | None = None) -> np.ndarray:
    """``mag * exp(1j * phase)`` into ``out``; the unit phasor when ``mag`` is None.

    The solvers, the losses and ``reconstruct_signal`` build every such array
    here, from one tangent: with t = tan(phase / 2), cos = (1+t)(1-t) / (1+t^2)
    and sin = 2t / (1+t^2), each times ``mag`` (numpy's float64 cos and sin run
    scalar code, its tan SIMD code). Each step runs on contiguous float arrays,
    ``parts`` = (t, cos, sin) if given, which end as ``out``'s real and imaginary
    parts, written once each; ``unit``, if given, gets the unit phasor. Every
    entry is within 4 ulp(1) * mag of ``mag * np.exp(1j * phase)`` with or
    without AVX-512 (a test checks both); numpy picks its tan kernel by CPU, so
    the bits are the same on one host and numpy build. A phase of -0.0 keeps its
    sign in the imaginary part; a non-finite one gives NaN without a warning.
    Against the complex product of the unit phasor and ``mag``, only the sign of
    a zero can differ (``mag`` 0 or the phase -0.0).
    """
    t, cos, sin = np.empty((3,) + np.shape(phase)) if parts is None else parts
    with np.errstate(invalid="ignore"):  # tan of inf is NaN
        np.multiply(phase, 0.5, out=t)
        np.tan(t, out=t)
    np.add(t, 1.0, out=cos)
    np.subtract(1.0, t, out=sin)
    cos *= sin
    np.multiply(t, t, out=sin)
    sin += 1.0
    cos /= sin
    t += t
    np.divide(t, sin, out=sin)
    if unit is not None:
        unit.real, unit.imag = cos, sin
    if mag is not None:
        cos *= mag
        sin *= mag
    out = np.empty(np.shape(phase), complex) if out is None else out
    out.real, out.imag = cos, sin
    return out


def _unit_phasor(z: np.ndarray, r: np.ndarray, out: np.ndarray) -> None:
    """``z / r`` into ``out`` where ``r > 0``, ``out`` unchanged elsewhere. With
    ``r = |z|`` this is z's unit phasor, from real divisions."""
    nonzero = r > 0.0
    np.divide(z.real, r, out=out.real, where=nonzero)
    np.divide(z.imag, r, out=out.imag, where=nonzero)


def overlap_add(spec, config: StftConfig | None = None) -> np.ndarray:
    """Exact linear inverse: synthesis-windowed overlap-add on the padded axis.

    Returns the complex padded-domain signal of length ``(M-1)*R + N``,
    including the ``N - R`` start-padding region. This is the inverse used in
    consistency analysis; ``istft`` wraps it for audio use. Each inverse DFT is
    scaled by N*S in one pass, as in ``_Workspace.loss``, so both agree bitwise.
    """
    data, config = _coerce_spec(spec, config)
    frames = np.fft.ifft(data, axis=1)
    frames *= config.window_len * config.synthesis_window
    m, q = data.shape[0], config.overlap_factor
    return _add_blocks(frames, config, np.empty((m + q - 1, config.hop), complex))


def _add_blocks(frames: np.ndarray, config: StftConfig, out: np.ndarray) -> np.ndarray:
    """Overlap-add M x N time-domain ``frames`` into ``out`` ((M+Q-1) x R), flat."""
    (m, _), q = frames.shape, config.overlap_factor
    blocks = frames.reshape(m, q, config.hop)
    # Block j of frame i lands on output block i + j. Descending j adds the
    # frames covering each output block in ascending frame order; the first,
    # block Q-1, as x + 0.0 (0.0 + x to the bit), on all but the zeroed Q-1 rows.
    out[: q - 1].fill(0)
    np.add(blocks[:, q - 1], 0.0, out=out[q - 1 :])
    for j in reversed(range(q - 1)):
        out[j : j + m] += blocks[:, j]
    return out.ravel()


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
    length = m * config.hop if length is None else _check_length(length, m, config)
    start = config.window_len - config.hop
    return Signal(overlap_add(data, config).real[start : start + length],
                  sample_rate=sample_rate)


def _check_length(length: int, frames: int, config: StftConfig) -> int:
    """``length`` if ``istft`` can return that many samples from ``frames`` frames."""
    length = _integer(length, "length", 0)
    full = frames * config.hop
    if length > full:
        raise InputError(f"length must be in [0, {full}] for {frames} frames")
    return length


def project(spec, config: StftConfig | None = None) -> Spectrogram:
    """One STFT -> inverse STFT round trip at fixed frame positions.

    This is the (complex, linear) projection onto spectrograms of time-domain
    signals; its fixed points are exactly the consistent spectrograms.
    """
    data, config = _coerce_spec(spec, config)
    y = overlap_add(data, config)
    return Spectrogram(_analyze_frames(y, config, data.shape[0]), config)


def expand_half_spectrum(half: np.ndarray, n: int | None = None) -> np.ndarray:
    """Expand an M x (N//2 + 1) half-band array to all N bins.

    N is ``n``, by default the even ``2 * (bins - 1)``: an M x 32 array is 62
    bins wide at N = 62 and 63 at N = 63. Bin k > N//2 is the mirror of bin N-k,
    so the tail has N - (N//2 + 1) columns. Complex input is mirrored with
    conjugation (Hermitian symmetry of real signals); real input (e.g.
    magnitudes) is mirrored directly.
    """
    half = np.atleast_2d(np.asarray(half))
    if half.ndim != 2:
        raise InputError(f"a half spectrum must be 2-D, got shape {half.shape}")
    bins = half.shape[1]
    n = _integer(2 * (bins - 1) if n is None else n, "n", 2)
    if bins != n // 2 + 1:
        raise InputError(f"a half spectrum of {n} bins has {n // 2 + 1} columns, "
                         f"got {bins}")
    return _expand_half(half, n)


def _expand_half(half: np.ndarray, n: int) -> np.ndarray:
    """``expand_half_spectrum`` unchecked; Griffin-Lim runs it at N = ``n`` = 1 too."""
    tail = half[:, n - half.shape[1]:0:-1]
    if np.iscomplexobj(half):
        tail = np.conj(tail)
    return np.concatenate([half, tail], axis=1)
