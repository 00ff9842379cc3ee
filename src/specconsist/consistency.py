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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .stft import StftConfig, _analyze_frames, _coerce_spec, _overlap_add


@dataclass(frozen=True)
class ConsistencyKernel:
    """Handle on the consistency operator of one STFT config."""

    config: StftConfig


def get_kernel(config: StftConfig) -> ConsistencyKernel:
    """The consistency operator for a config."""
    return ConsistencyKernel(config)


def _apply(h: np.ndarray, config: StftConfig, analysis: np.ndarray,
           synthesis: np.ndarray) -> np.ndarray:
    """Overlap-add with ``synthesis``, re-analyze with ``analysis``, subtract.

    With (W, S) this is the residual operator C; with (S, W) it is its adjoint.
    """
    y = _overlap_add(h, config, synthesis)
    return _analyze_frames(y, config, h.shape[0], analysis) - h


def residual(spec, kernel: ConsistencyKernel) -> np.ndarray:
    """Per-bin consistency residual; zero everywhere iff ``spec`` is a true STFT."""
    config = kernel.config
    return _apply(_coerce_spec(spec, config)[0], config,
                  config.analysis_window, config.synthesis_window)


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
    negative gradient matches central finite differences. The round trip is
    idempotent only away from the first and last Q-1 frames, so g differs from
    -2 * C H there and the adjoint is applied in full.
    """
    config = kernel.config
    w, s = config.analysis_window, config.synthesis_window
    h = _combine(mag, phase)
    r = _apply(h, config, w, s)
    loss = float(np.vdot(r, r).real)
    g = 2.0 * _apply(r, config, s, w)
    return loss, np.imag(np.conj(h) * g)


def _combine(mag: np.ndarray, phase: np.ndarray) -> np.ndarray:
    mag = np.asarray(mag, dtype=np.float64)
    phase = np.asarray(phase, dtype=np.float64)
    if mag.shape != phase.shape:
        raise InputError("magnitude and phase shapes differ")
    return mag * np.exp(1j * phase)
