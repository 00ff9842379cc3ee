"""Magnitude-phase consistency: residual operator, loss, and its gradient.

A complex M x N array is the STFT of some time-domain signal exactly when the
residual computed here vanishes everywhere. In the paper's explicit per-bin
form, the residual of ``H`` is

    r[m, n] = sum_q exp(2j*pi*q*R*n/N) * (alpha_q (*) H)[m - q, n]

where ``(*)`` is circular convolution along the frequency axis, ``q`` runs
over ``-(Q-1) .. Q-1``, frames outside ``[0, M-1]`` contribute zero, and the
coefficient table is

    alpha[q, p] = sum_k W[k] * S[k + q*R] * exp(-2j*pi*p*(k + q*R)/N) - delta_p*delta_q

with the stored synthesis window ``S`` (which carries the 1/N normalization,
see ``stft``).

That sum is the STFT round trip minus the identity, so the code evaluates it
as ``project(H) - H``: overlap-add with ``S``, then analysis with ``W``. The
adjoint is the same operator with the two windows swapped. The coefficient
table is kept in the tests as the oracle that checks this equality.

The loss and gradient take two transforms per frame. With ``u = ifft(H)``,
the residual is ``fft(e)`` for ``e = W * frame(OLA(N*S*u)) - u``, so by
Parseval the loss is ``N * ||e||^2``; the adjoint's overlap-add input is
``OLA(N*W*e)``, so ``adjoint(C)(C H) = fft(S * frame(OLA(N*W*e)) - e)``.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .stft import (StftConfig, _add_blocks, _analyze_frames, _check_frames,
                   _coerce_spec, _frames, _overlap_add, _sum_squares)


def get_kernel(config: StftConfig) -> StftConfig:
    """Returns ``config``; kept because the benchmark harness calls it by name."""
    return config


def _apply(h: np.ndarray, config: StftConfig, analysis: np.ndarray,
           synthesis: np.ndarray) -> np.ndarray:
    """Overlap-add with ``synthesis``, re-analyze with ``analysis``, subtract.

    With (W, S) this is the residual operator C; with (S, W) it is its adjoint.
    """
    y = _overlap_add(h, config, synthesis)
    return _analyze_frames(y, config, h.shape[0], analysis) - h


def residual(spec, config: StftConfig) -> np.ndarray:
    """Per-bin consistency residual; zero everywhere iff ``spec`` is a true STFT."""
    return _apply(_coerce_spec(spec, config)[0], config,
                  config.analysis_window, config.synthesis_window)


def loss_ec(spec, config: StftConfig) -> float:
    """Sum of squared residual magnitudes (unnormalized)."""
    return _sum_squares(residual(spec, config))


def loss_ec_phase(mag: np.ndarray, phase: np.ndarray,
                  config: StftConfig) -> float:
    """Consistency loss of ``mag * exp(1j * phase)``.

    Depends on the phase only through the resulting complex array, so it is
    invariant under any global phase shift, in particular under ``phase + pi``
    (the sign ambiguity of magnitude-only reconstruction).
    """
    mag, phase = _check_pair(mag, phase, config)
    return loss_ec(mag * np.exp(1j * phase), config)


def grad_loss_ec_phase(mag: np.ndarray, phase: np.ndarray,
                       config: StftConfig) -> np.ndarray:
    """Analytic gradient of ``loss_ec_phase`` with respect to the phase."""
    return ec_loss_and_grad(mag, phase, config)[1]


def ec_loss_and_grad(mag: np.ndarray, phase: np.ndarray, config: StftConfig,
                     workspace: _Workspace | None = None) -> tuple[float, np.ndarray]:
    """Loss and phase gradient from one inverse and one forward FFT per frame.

    With C the residual operator and H = mag * exp(1j*phase), the gradient is
    Im(conj(H) * g) for g = 2 * adjoint(C)(C H); a first-order step along the
    negative gradient matches central finite differences. The round trip is
    idempotent only away from the first and last Q-1 frames, so g differs from
    -2 * C H there and the adjoint is applied in full. A ``workspace`` lends its
    buffers, the returned gradient included; without one the arrays are fresh.
    """
    mag, phase = _check_pair(mag, phase, config)
    ws = workspace or _Workspace(mag.shape, config)
    h = ws.h  # mag * exp(1j * phase) from one cos and one sin (bitwise on numpy 2.4)
    np.cos(phase, out=h.real)
    np.sin(phase, out=h.imag)
    h *= mag
    u = np.fft.ifft(h, axis=1)
    e = ws.error(u, ws.synthesis_n, config.analysis_window, ws.e)
    loss = config.window_len * _sum_squares(e)
    g = np.fft.fft(ws.error(e, ws.analysis_n, config.synthesis_window, u), axis=1)
    g.imag *= h.real  # 2 * Im(conj(h) * g) = 2 * (h.real * g.imag - h.imag * g.real)
    g.real *= h.imag
    np.subtract(g.imag, g.real, out=ws.grad)
    ws.grad *= 2.0
    return loss, ws.grad


class _Workspace:
    """``ec_loss_and_grad``'s buffers for one shape, reused across a solver run."""

    def __init__(self, shape: tuple[int, int], config: StftConfig):
        m, n = shape
        self.config = config
        self.h, self.e = np.empty(shape, complex), np.empty(shape, complex)
        self.grad = np.empty(shape)
        self.y = np.empty((m + config.overlap_factor - 1, config.hop), complex)
        # the M frames of the overlap-add output, as a view that follows self.y
        self.framed = _frames(self.y.ravel(), config, m)
        self.synthesis_n = n * config.synthesis_window
        self.analysis_n = n * config.analysis_window

    def error(self, x: np.ndarray, scaled: np.ndarray, window: np.ndarray,
              out: np.ndarray) -> np.ndarray:
        """``window * frame(OLA(scaled * x)) - x`` into ``out``, which is not ``x``."""
        _add_blocks(np.multiply(x, scaled, out=out), self.config, self.y)
        return np.subtract(np.multiply(self.framed, window, out=out), x, out=out)


def _check_pair(mag, phase, config: StftConfig) -> tuple[np.ndarray, np.ndarray]:
    mag = np.asarray(mag, dtype=np.float64)
    phase = np.asarray(phase, dtype=np.float64)
    if mag.shape != phase.shape:
        raise InputError("magnitude and phase shapes differ")
    return _check_frames(mag, config, "magnitude"), phase
