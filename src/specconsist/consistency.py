"""Magnitude-phase consistency: residual operator, loss, and its gradient.

A complex M x N array is the STFT of some time-domain signal exactly when the
residual computed here vanishes everywhere. The residual of ``H`` is

    r[m, n] = sum_q exp(2j*pi*q*R*n/N) * (alpha_q (*) H)[m - q, n]

where ``(*)`` is circular convolution along the frequency axis, ``q`` runs
over ``-(Q-1) .. Q-1``, frames outside ``[0, M-1]`` contribute zero, and the
coefficient table is

    alpha[q, p] = sum_k W[k] * S[k + q*R] * exp(-2j*pi*p*(k + q*R)/N) - delta_p*delta_q

with the stored synthesis window ``S`` (which carries the 1/N normalization,
see ``stft``). The exponential is N-periodic in ``p``, so the table is folded
onto one period and the delta is applied at the folded (q=0, p=0) entry only.

The residual equals ``project(H) - H`` elementwise; both paths are kept and
cross-checked in the tests.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .errors import InputError
from .stft import StftConfig, _coerce_spec

_KERNEL_CACHE: dict[tuple, "ConsistencyKernel"] = {}

# Row-parallel FFTs are bitwise independent of the worker count.
_FFT_WORKERS = max(1, os.cpu_count() or 1)


@dataclass
class ConsistencyKernel:
    """Precomputed coefficient table alpha[q, p] for one STFT config.

    Rows index ``q = -(Q-1) .. Q-1`` (row ``q + Q - 1``); columns index the
    folded frequency lag ``p = 0 .. N-1``. Rows for ``|q| >= Q`` would be
    identically zero (the synthesis window vanishes off its support) and are
    not stored.
    """

    alpha: np.ndarray
    config: StftConfig
    alpha_fft: np.ndarray = field(init=False, repr=False)
    phases: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, r = self.config.window_len, self.config.hop
        q_max = self.config.overlap_factor - 1
        self.alpha_fft = np.fft.fft(self.alpha, axis=1)
        qs = np.arange(-q_max, q_max + 1)
        bins = np.arange(n)
        self.phases = np.exp(2j * np.pi * r * qs[:, None] * bins[None, :] / n)

    @property
    def q_range(self) -> range:
        q_max = self.config.overlap_factor - 1
        return range(-q_max, q_max + 1)


def compute_kernel(config: StftConfig) -> ConsistencyKernel:
    """Build the coefficient table for a config."""
    n, r, q = config.window_len, config.hop, config.overlap_factor
    w = config.analysis_window
    s = config.synthesis_window
    alpha = np.zeros((2 * q - 1, n), dtype=np.complex128)
    for iq, qq in enumerate(range(-(q - 1), q)):
        # taps[l] = W[l - q*R] * S[l] on the overlap of both supports
        taps = np.zeros(n)
        lo, hi = max(0, qq * r), min(n, n + qq * r)
        taps[lo:hi] = w[lo - qq * r : hi - qq * r] * s[lo:hi]
        alpha[iq] = np.fft.fft(taps)
    alpha[q - 1, 0] -= 1.0
    return ConsistencyKernel(alpha=alpha, config=config)


def get_kernel(config: StftConfig) -> ConsistencyKernel:
    """Cached kernel lookup; kernels are immutable and shareable."""
    kernel = _KERNEL_CACHE.get(config.key)
    if kernel is None:
        kernel = compute_kernel(config)
        _KERNEL_CACHE[config.key] = kernel
    return kernel


def _apply(h: np.ndarray, kernel: ConsistencyKernel) -> np.ndarray:
    """Residual operator via length-N fast transforms."""
    m = h.shape[0]
    f = scipy.fft.fft(h, axis=1, workers=_FFT_WORKERS)
    conv = scipy.fft.ifft(kernel.alpha_fft[:, None, :] * f[None, :, :], axis=2,
                          workers=_FFT_WORKERS, overwrite_x=True)
    out = np.zeros_like(h)
    for iq, q in enumerate(kernel.q_range):
        if abs(q) >= m:
            continue
        if q >= 0:
            out[q:] += kernel.phases[iq] * conv[iq, : m - q]
        else:
            out[: m + q] += kernel.phases[iq] * conv[iq, -q:]
    return out


def _apply_adjoint(y: np.ndarray, kernel: ConsistencyKernel) -> np.ndarray:
    """Adjoint of the residual operator: conjugated taps, reversed shifts."""
    m = y.shape[0]
    demod = np.conj(kernel.phases)[:, None, :] * y[None, :, :]
    f = scipy.fft.fft(demod, axis=2, workers=_FFT_WORKERS, overwrite_x=True)
    f *= np.conj(kernel.alpha_fft)[:, None, :]
    w = scipy.fft.ifft(f, axis=2, workers=_FFT_WORKERS, overwrite_x=True)
    out = np.zeros_like(y)
    for iq, q in enumerate(kernel.q_range):
        if abs(q) >= m:
            continue
        if q >= 0:
            out[: m - q] += w[iq, q:]
        else:
            out[-q:] += w[iq, : m + q]
    return out


def residual(spec, kernel: ConsistencyKernel) -> np.ndarray:
    """Per-bin consistency residual; zero everywhere iff ``spec`` is a true STFT."""
    return _apply(_coerce_spec(spec, kernel.config)[0], kernel)


def loss_ec(spec, kernel: ConsistencyKernel) -> float:
    """Sum of squared residual magnitudes (unnormalized)."""
    r = residual(spec, kernel)
    return float(np.vdot(r, r).real)


def loss_ec_phase(mag: np.ndarray, phase: np.ndarray,
                  kernel: ConsistencyKernel) -> float:
    """Consistency loss of ``mag * exp(1j * phase)``.

    Depends on the phase only through the resulting complex array, so it is
    invariant under any global phase shift, in particular under ``phase + pi``
    (the sign ambiguity of magnitude-only reconstruction).
    """
    h = _combine(mag, phase)
    return loss_ec(h, kernel)


def grad_loss_ec_phase(mag: np.ndarray, phase: np.ndarray,
                       kernel: ConsistencyKernel) -> np.ndarray:
    """Analytic gradient of ``loss_ec_phase`` with respect to the phase."""
    _, grad = ec_loss_and_grad(mag, phase, kernel)
    return grad


def ec_loss_and_grad(mag: np.ndarray, phase: np.ndarray,
                     kernel: ConsistencyKernel) -> tuple[float, np.ndarray]:
    """Loss and phase gradient in one residual evaluation.

    With C the residual operator and H = mag * exp(1j*phase), the gradient is
    Im(conj(H) * g) for g = 2 * adjoint(C)(C H); a first-order step along the
    negative gradient matches central finite differences.
    """
    h = _combine(mag, phase)
    r = _apply(h, kernel)
    loss = float(np.vdot(r, r).real)
    g = 2.0 * _apply_adjoint(r, kernel)
    return loss, np.imag(np.conj(h) * g)


def _combine(mag: np.ndarray, phase: np.ndarray) -> np.ndarray:
    mag = np.asarray(mag, dtype=np.float64)
    phase = np.asarray(phase, dtype=np.float64)
    if mag.shape != phase.shape:
        raise InputError("magnitude and phase shapes differ")
    return mag * np.exp(1j * phase)
