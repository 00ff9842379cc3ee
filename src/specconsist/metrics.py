"""Exactly computable evaluation metrics for reconstruction experiments.

Perceptual scores are out of scope; the CLI writes reconstructed WAV files so
external scoring tools can be applied downstream.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .consistency import loss_ec
from .errors import InputError, MetricError
from .stft import Signal, StftConfig, _coerce_spec, stft

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
    """Normalized residual norm sqrt(loss / ||H||^2); 0 iff consistent."""
    data, _ = _coerce_spec(spec, config)
    norm_sq = float(np.vdot(data, data).real)
    if norm_sq == 0.0:
        raise MetricError("consistency measure undefined for a zero spectrogram")
    return float(np.sqrt(loss_ec(data, config) / norm_sq))


def spectral_convergence(ref_mag: np.ndarray, est_mag: np.ndarray) -> float:
    """20*log10 of the relative Frobenius magnitude error, clamped to -300 dB."""
    ref_mag = np.asarray(ref_mag, dtype=np.float64)
    est_mag = np.asarray(est_mag, dtype=np.float64)
    if ref_mag.shape != est_mag.shape:
        raise InputError("magnitude shapes differ")
    ref_norm = np.linalg.norm(ref_mag)
    if ref_norm == 0.0:
        raise MetricError("spectral convergence undefined for a zero reference")
    err = np.linalg.norm(ref_mag - est_mag)
    if err == 0.0:
        return -DB_CLAMP
    return float(np.clip(20.0 * np.log10(err / ref_norm), -DB_CLAMP, DB_CLAMP))


def _shifted(est: np.ndarray, shift: int) -> np.ndarray:
    """est advanced by `shift` samples (positive pulls later samples earlier)."""
    out = np.zeros_like(est)
    if 0 <= shift < est.size:
        out[: est.size - shift] = est[shift:]
    elif -est.size < shift < 0:
        out[-shift:] = est[: est.size + shift]
    return out


def _check_search_radius(radius) -> int:
    """The alignment search radius as an int; the one check of it."""
    if isinstance(radius, bool) or not isinstance(radius, (int, np.integer)) or radius < 0:
        raise InputError("search radius must be a nonnegative integer")
    return int(radius)


def _samples(signal) -> np.ndarray:
    """The float64 samples of a Signal or of a 1-D array."""
    x = signal.samples if isinstance(signal, Signal) else np.asarray(signal, dtype=np.float64)
    if x.ndim != 1:
        raise InputError("signals must be 1-D")
    return x


# Screening tolerance per sample, relative to ||ref||^2 + 2|c_s| + ||est||^2.
# The energies, the correlation, the prefix sum and the directly summed error
# each carry at most about n*eps of those energies; 16 leaves a margin of 3x.
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
    radius = _check_search_radius(search_radius)
    ref, est = _samples(ref), _samples(est)
    if ref.size != est.size:
        raise InputError("reference and estimate lengths differ")
    n = ref.size
    if n == 0:
        raise InputError("signals must be nonempty")
    with np.errstate(over="ignore", invalid="ignore"):
        ref_energy, est_energy = float(np.dot(ref, ref)), float(np.dot(est, est))
    # Every error below is at most 2 * (ref_energy + est_energy).
    if not np.isfinite(4.0 * (ref_energy + est_energy)):
        raise InputError("signals must be finite, with energies far below the float64 limit")
    if ref_energy == 0.0:
        raise MetricError("SNR undefined for a zero reference")

    inner = min(radius, n - 1)
    shifts = np.arange(-inner, inner + 1)
    cross = np.correlate(np.pad(est, inner), ref, "valid")
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
            diff = ref - sign * _shifted(est, shift)
            err = float(np.dot(diff, diff))
            snr = DB_CLAMP if err == 0.0 else float(
                np.clip(10.0 * np.log10(ref_energy / err), -DB_CLAMP, DB_CLAMP))
            if snr > best[0]:
                best = (snr, Alignment(sign, shift))
    if best[0] == -DB_CLAMP:  # every candidate is clamped; the first one wins
        return best[0], Alignment(1, -radius)
    return best


def evaluate(reference, recon, mag, phase, config: StftConfig,
             search_radius: int) -> EvalReport:
    """Scores of ``recon``, resynthesized from ``mag * exp(1j * phase)``."""
    snr, alignment = aligned_snr(reference, recon, search_radius)
    sc_db = spectral_convergence(mag, stft(recon, config).magnitude)
    measure = consistency_measure(mag * np.exp(1j * phase), config)
    return EvalReport(measure, sc_db, snr, alignment)


def plain_snr(ref, est) -> float:
    """SNR with no alignment (sign +1, shift 0)."""
    snr, _ = aligned_snr(ref, est, search_radius=0)
    return snr
