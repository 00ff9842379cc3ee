"""Exactly computable evaluation metrics for reconstruction experiments.

Perceptual scores are out of scope; the CLI writes reconstructed WAV files so
external scoring tools can be applied downstream.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .consistency import _blocked_loss, _signal_loss
from .errors import InputError, MetricError
from .stft import (Signal, StftConfig, _coerce_spec, _integer, _magnitude, _samples,
                   _sum_squares, stft)

DB_CLAMP = 300.0


@dataclass
class Alignment:
    """Sign flip and integer shift that maximize the SNR.

    Convention: a positive shift means the estimate was advanced (moved
    earlier) relative to the reference, i.e. est[t + shift] is compared
    against ref[t]. Samples shifted in from outside the estimate are zero.
    """

    sign: int
    shift: int


@dataclass
class EvalReport:
    consistency_measure: float
    spectral_convergence_db: float
    aligned_snr_db: float
    alignment: Alignment

    def to_dict(self) -> dict:
        return asdict(self)


def consistency_measure(spec, config: StftConfig) -> float:
    """Normalized residual norm sqrt(loss / ||H||^2); 0 iff consistent.

    ``spec`` is a spectrogram, or a ``Signal`` whose STFT is measured. A
    signal's measure is computed in closed form from its samples and two
    overlap-added window sums, with no transform and no M x N array; a
    spectrogram's is summed one block of frames at a time. Any power-of-two gain
    of ``spec`` keeps the measure's bits (see ``_gain_free``).
    """
    if isinstance(spec, Signal):
        loss, norm_sq = _gain_free(lambda x: _signal_loss(x, config), spec.samples)
    else:
        data, config = _coerce_spec(spec, config, finite=True)
        loss, norm_sq = _gain_free(lambda h: _blocked_loss(h, config, norm=True), data)
    if norm_sq == 0.0:
        raise MetricError("consistency measure undefined for a zero spectrogram")
    return float(np.sqrt(loss / norm_sq))


def spectral_convergence(ref_mag: np.ndarray, est_mag: np.ndarray) -> float:
    """20*log10 of the relative Frobenius magnitude error, clamped to -300 dB. Any
    power-of-two gain of both magnitudes keeps its bits (see ``_gain_free``)."""
    ref_mag, est_mag = _magnitude(ref_mag), _magnitude(est_mag)
    if ref_mag.shape != est_mag.shape:
        raise InputError("magnitude shapes differ")
    err_sq, ref_sq = _gain_free(lambda a, b: (_sum_squares(a - b), _sum_squares(a)),
                                ref_mag, est_mag)
    if ref_sq == 0.0:
        raise MetricError("spectral convergence undefined for a zero reference")
    if err_sq == 0.0:
        return -DB_CLAMP
    ratio = np.sqrt(err_sq) / np.sqrt(ref_sq)
    return float(np.clip(20.0 * np.log10(ratio), -DB_CLAMP, DB_CLAMP))


# Squares summed to a total in this range are far from overflow and, unless far
# smaller than the total, from the subnormals, whose rounding depends on the scale.
_SAFE_ENERGY = (2.0**-600, 2.0**600)


def _gain_free(sums, *arrays) -> tuple[float, float]:
    """``sums(*arrays)``: sums of squares ``(num, den)``, ``den`` over ``arrays[0]``.

    If ``den`` is outside ``_SAFE_ENERGY`` or ``num`` is not finite, they are summed
    again over the arrays times 2**-k, k the exponent (``frexp``) of the largest
    real or imaginary part in ``arrays[0]``. That rescale is exact, so num / den
    has the bits it has at any gain inside the range.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        num, den = sums(*arrays)
        if _SAFE_ENERGY[0] <= den <= _SAFE_ENERGY[1] and np.isfinite(num):
            return num, den
        peak = max(np.max(np.abs(x)) for x in (arrays[0].real, arrays[0].imag))
        k = int(np.frexp(peak)[1])
        # two exact power-of-two factors: 2**-k alone overflows for k < -1023
        scale = np.ldexp(1.0, -(k // 2)), np.ldexp(1.0, k // 2 - k)
        return sums(*(a * scale[0] * scale[1] for a in arrays))


# Screening tolerance per sample, relative to ||ref||^2 + 2|c_s| + ||est||^2.
# The energies and the directly summed error (`_sum_squares`), the correlation
# (one einsum row of n products per shift) and the cumsum prefix each carry at
# most about n*eps of those energies; 16 leaves a margin of 3x. None of them
# calls BLAS, whose thread count would otherwise change the bits.
_SCREEN_EPS = 16 * np.finfo(np.float64).eps


def aligned_snr(ref, est, search_radius: int = 128) -> tuple[float, Alignment]:
    """Best SNR over sign flips and integer shifts within the search radius.

    Covers the sign ambiguity of magnitude-only reconstruction and small time
    offsets; always at least the unaligned SNR because the identity alignment
    is in the search set. Ties go to the earliest candidate, shifts ascending
    with sign +1 before -1.

    Every candidate's squared error ||ref||^2 -+ 2<ref, est_s> + ||est_s||^2
    is screened at once, from one correlation and a prefix sum of est^2, in
    O(n * min(R, n)). That expansion cancels at high SNR, so only candidates
    within its rounding bound of the best are scored by summing the error
    directly, in search order. Shifts of n or more compare against an
    all-zero estimate and score exactly 0 dB, so only the first of them,
    (-R, +1), can win.
    """
    radius = _integer(search_radius, "search_radius", 0)
    ref, est = (np.asarray(_samples(x), dtype=np.float64) for x in (ref, est))
    if ref.size != est.size:
        raise InputError("reference and estimate lengths differ")
    n = ref.size
    if n == 0:
        raise InputError("signals must be nonempty")
    with np.errstate(over="ignore", invalid="ignore"):
        ref_energy, est_energy = _sum_squares(ref), _sum_squares(est)
    # Every error below is at most 2 * (ref_energy + est_energy).
    if not np.isfinite(4.0 * (ref_energy + est_energy)):
        raise InputError("signals must be finite, with energies far below the float64 limit")
    if ref_energy == 0.0:
        raise MetricError("SNR undefined for a zero reference")

    inner = min(radius, n - 1)
    shifts = np.arange(-inner, inner + 1)
    windows = np.lib.stride_tricks.sliding_window_view(np.pad(est, inner), n)
    cross = np.einsum("ij,j->i", windows, ref)
    prefix = np.concatenate(([0.0], np.cumsum(est * est)))
    shifted_energy = prefix[np.minimum(n, n + shifts)] - prefix[np.maximum(0, shifts)]
    screened = (ref_energy + shifted_energy)[:, None] + np.outer(cross, [-2.0, 2.0])
    tol = (_SCREEN_EPS * max(n, 64)
           * (ref_energy + 2.0 * np.abs(cross) + est_energy))[:, None]
    near = np.flatnonzero(screened - tol <= np.min(screened + tol))

    candidates = [(1, -radius)] if radius >= n else []
    candidates += [((1, -1)[i % 2], i // 2 - inner) for i in near.tolist()]
    best = (-np.inf, Alignment(1, 0))
    with np.errstate(divide="ignore"):  # ref_energy / err may underflow to 0
        for sign, shift in candidates:
            # est advanced by shift: row shift + inner, or all zeros beyond the rows
            diff = ref - sign * (windows[shift + inner] if abs(shift) <= inner else 0.0)
            err = _sum_squares(diff)
            snr = DB_CLAMP if err == 0.0 else float(
                np.clip(10.0 * np.log10(ref_energy / err), -DB_CLAMP, DB_CLAMP))
            if snr > best[0]:
                best = (snr, Alignment(sign, shift))
    if best[0] == -DB_CLAMP:  # every candidate is clamped; the first one wins
        return best[0], Alignment(1, -radius)
    return best


def evaluate(reference, recon, mag, spec, config: StftConfig,
             search_radius: int) -> EvalReport:
    """Scores of ``recon``, resynthesized from ``spec``, which has magnitude ``mag``."""
    snr, alignment = aligned_snr(reference, recon, search_radius)
    sc_db = spectral_convergence(mag, stft(recon, config).magnitude)
    measure = consistency_measure(spec, config)
    return EvalReport(measure, sc_db, snr, alignment)


def plain_snr(ref, est) -> float:
    """SNR with no alignment (sign +1, shift 0)."""
    snr, _ = aligned_snr(ref, est, search_radius=0)
    return snr
