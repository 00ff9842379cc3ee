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
A gradient-descent run keeps one ``_Workspace``: u (H, ifft(H), then g), e, y
and the polar builder's float parts (t, Re H, Im H), t taking the gradient; the
transforms write into u with ``out=``, so no iteration allocates M x N.

``loss_ec`` and a spectrogram's ``metrics.consistency_measure`` take the loss
alone in the same form, summed over blocks of ``_BLOCK`` output frames: no
temporary is larger than a block, and each block is summed while it is still
in cache.
Frame ``m`` of ``OLA(N*S*u)`` spans R-sample blocks ``m .. m+Q-1`` of the
output, and output block ``j`` sums input frames ``j-Q+1 .. j``, so row ``m``
of ``e`` depends only on input rows within ``Q-1`` frames of it. A block of
rows ``[a, b)`` therefore reads input rows ``[a-Q+1, b+Q-1)``, clipped to the
array: its own rows plus a halo of ``Q-1`` frames on each side. Its own rows of
``e`` come out bit for bit as in the full evaluation (each output block adds
the same frames in the same order); the halo rows, which lack their outer
neighbours, are dropped. So the blocked loss is the full ``N * ||e||^2`` with
only the float additions regrouped. ``residual`` stays the definition of C
that the tests check it against; the tests keep its window-swapped adjoint.

The measure of a real signal's STFT needs no transform. For ``H = stft(x)``,
``u = ifft(H)`` is ``W * frame(x)``, so ``OLA(N*S*u)`` is ``c * x`` with ``c =
OLA(N*S*W)`` and ``e = W * frame(x * (c - 1))``. Summed over the M frames, with
``d = OLA(W**2)``, the loss is ``N * sum_t x[t]**2 * (c[t] - 1)**2 * d[t]`` and
``||H||^2`` is ``N * sum_t x[t]**2 * d[t]``. Cut the padded samples into rows
of R: the signal fills rows ``Q-1 .. M-1`` (the padding leaves the rest zero),
each under all Q window shifts, so c and d there are the R-periodic sums of
``N*S*W`` and ``W**2`` and those rows enter through their summed energy per
offset. By the dual-window identity c is 1, so the loss is the rounding of c
weighted by the signal's energy; it says nothing else about the signal.
"""

from __future__ import annotations

import numpy as np

from .stft import (StftConfig, _add_blocks, _analyze_frames, _coerce_spec, _frames,
                   _magnitude, _padded, _periodic_sum, _phase, _polar, _sum_squares,
                   overlap_add)

# Output frames per block of the blocked loss. At 512 bins a block of 64
# frames and its halo fill 0.57 MB per complex array, so one block's few arrays
# stay in a 2 MiB L2. At 3753x512 (Hann 512/128, 2-CPU AVX-512 host, medians of
# 15, two runs), `loss_ec` took 30-32 ms with blocks of 64 to 256 frames and
# 32-36 ms at 32. Its workspace grows with the block, so 64 is the smallest of
# the fast ones. `analyze` has a closed form; `loss_ec` and the spectrogram
# measure of `compare` and `reconstruct` still run blocks, which beat one
# whole-array evaluation (medians of 30, 4 runs): 1.0-2.5 against 2.0-3.2 ms at
# 129x512, 10-15 against 19-24 ms and a 1.6 against 23.4 MB peak at 1253x512.
_BLOCK = 64


def get_kernel(config: StftConfig) -> StftConfig:
    """Returns ``config``; kept because the benchmark harness calls it by name."""
    return config


def residual(spec, config: StftConfig) -> np.ndarray:
    """Per-bin consistency residual ``project(H) - H``; zero everywhere iff
    ``spec`` is a true STFT."""
    data = _coerce_spec(spec, config)[0]
    return _analyze_frames(overlap_add(data, config), config, data.shape[0]) - data


def loss_ec(spec, config: StftConfig) -> float:
    """Sum of squared residual magnitudes (unnormalized)."""
    data = _coerce_spec(spec, config)[0]
    return _blocked_loss(data, config)[0]


def _blocked_loss(data: np.ndarray, config: StftConfig,
                  norm: bool = False) -> tuple[float, float]:
    """``(loss_ec, ||H||^2)`` of an M x N complex array H, one block at a time;
    ``||H||^2`` is 0.0 unless ``norm``.

    The sums run over blocks of ``_BLOCK`` frames, each read with its halo
    (see the module docstring).
    """
    m, halo = data.shape[0], config.overlap_factor - 1
    ws = _ErrorBuffers((min(m, _BLOCK + 2 * halo), config.window_len), config)
    loss = norm_sq = 0.0
    for a in range(0, m, _BLOCK):
        b = min(a + _BLOCK, m)
        lo, hi = max(0, a - halo), min(m, b + halo)
        e = ws.error(np.fft.ifft(data[lo:hi], axis=1), ws.synthesis_n,
                     config.analysis_window, ws.e[: hi - lo])
        loss += _sum_squares(e[a - lo : b - lo])
        if norm:
            norm_sq += _sum_squares(data[a:b])
    return config.window_len * loss, norm_sq


def _signal_loss(signal, config: StftConfig) -> tuple[float, float]:
    """``(loss_ec, ||H||^2)`` of ``H = stft(signal)`` in closed form, in one pass
    over the padded samples (see the module docstring)."""
    x_padded, m = _padded(signal, config)
    n, hop, q = config.window_len, config.hop, config.overlap_factor
    rows = x_padded.reshape(-1, hop)[q - 1 : m]
    energy = np.einsum("jr,jr->r", rows, rows)
    c, d = (_periodic_sum(w, hop) for w in (
        n * config.synthesis_window * config.analysis_window, config.analysis_window ** 2))
    loss = np.einsum("i,i,i->", energy, (c - 1.0) ** 2, d)
    return n * float(loss), n * float(np.einsum("i,i->", energy, d))


def loss_ec_phase(mag: np.ndarray, phase: np.ndarray,
                  config: StftConfig) -> float:
    """Consistency loss of ``mag * exp(1j * phase)``.

    Depends on the phase only through the resulting complex array, so it is
    invariant under any global phase shift, in particular under ``phase + pi``
    (the sign ambiguity of magnitude-only reconstruction).
    """
    mag = _magnitude(mag, config)
    return loss_ec(_polar(_phase(phase, mag.shape, "phase", finite=False), mag), config)


def grad_loss_ec_phase(mag: np.ndarray, phase: np.ndarray,
                       config: StftConfig) -> np.ndarray:
    """Analytic gradient of ``loss_ec_phase`` with respect to the phase."""
    return ec_loss_and_grad(mag, phase, config)[1]


def ec_loss_and_grad(mag: np.ndarray, phase: np.ndarray,
                     config: StftConfig) -> tuple[float, np.ndarray]:
    """Loss and phase gradient from one inverse and one forward FFT per frame.

    With C the residual operator and H = mag * exp(1j*phase), the gradient is
    Im(conj(H) * g) for g = 2 * adjoint(C)(C H); a first-order step along the
    negative gradient matches central finite differences. The round trip is
    idempotent only away from the first and last Q-1 frames, so g differs from
    -2 * C H there and the adjoint is applied in full.
    """
    mag = _magnitude(mag, config)
    ws = _Workspace(mag.shape, config)
    ws.loss(_phase(phase, mag.shape, "phase", finite=False), mag)
    return ws.gradient()


class _ErrorBuffers:
    """Buffers of ``error`` for one shape: a Griffin-Lim run's, or one block's in
    ``_blocked_loss``."""

    def __init__(self, shape: tuple[int, int], config: StftConfig, dtype=complex):
        m, n = shape
        self.config = config
        self.e = np.empty(shape, dtype)
        self.y = np.empty((m + config.overlap_factor - 1, config.hop), dtype)
        # the M frames of the overlap-add output, as a view that follows self.y
        self.framed = _frames(self.y.ravel(), config, m)
        self.synthesis_n = n * config.synthesis_window

    def error(self, x: np.ndarray, scaled: np.ndarray, window: np.ndarray,
              out: np.ndarray) -> np.ndarray:
        """``window * frame(OLA(scaled * x)) - x`` into ``out``, which is not ``x``.

        ``x`` and ``out`` may have fewer rows than the workspace, whose leading
        rows then serve.
        """
        k = x.shape[0]
        _add_blocks(np.multiply(x, scaled, out=out), self.config,
                    self.y[: k + self.config.overlap_factor - 1])
        return np.subtract(np.multiply(self.framed[:k], window, out=out), x, out=out)


class _Workspace(_ErrorBuffers):
    """A gradient-descent run's buffers (see the module docstring), with ``loss_ec``
    and its gradient: 3.5 complex M x N arrays' worth, at most 4 with y if Q >= 2."""

    def __init__(self, shape: tuple[int, int], config: StftConfig):
        super().__init__(shape, config)
        self.u = np.empty(shape, complex)
        self.parts = tuple(np.empty(shape) for _ in range(3))
        self.analysis_n = shape[1] * config.analysis_window

    def loss(self, phase: np.ndarray, mag: np.ndarray, unit=None) -> float:
        """``loss_ec(H)``, H = mag * exp(1j * phase) (parts in ``parts``, the unit
        phasor in ``unit`` if given), by Parseval: N * ||e||^2 for u = ifft(H), e =
        W * frame(y) - u in ``e`` and y = OLA(N*S*u) in ``y``; u is for ``gradient``."""
        np.fft.ifft(_polar(phase, mag, self.u, self.parts, unit), axis=1, out=self.u)
        e = self.error(self.u, self.synthesis_n, self.config.analysis_window, self.e)
        self.value = self.config.window_len * _sum_squares(e)
        return self.value

    def gradient(self) -> tuple[float, np.ndarray]:
        """``(value, grad)`` of the last ``loss`` call, whose u it overwrites with g:
        ``ec_loss_and_grad`` at its H, with the gradient in ``parts[0]``."""
        grad, h_re, h_im = self.parts
        g = np.fft.fft(self.error(self.e, self.analysis_n, self.config.synthesis_window,
                                  self.u), axis=1, out=self.u)
        # 2 * Im(conj(h) * g) = 2 * (h.real * g.imag - h.imag * g.real)
        np.multiply(g.imag, h_re, out=grad)
        g.real *= h_im
        grad -= g.real
        grad *= 2.0
        return self.value, grad
