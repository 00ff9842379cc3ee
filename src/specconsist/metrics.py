"""Exactly computable evaluation metrics for reconstruction experiments.

Perceptual scores are out of scope; the CLI writes reconstructed WAV files so
external scoring tools can be applied downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .consistency import ConsistencyKernel, loss_ec
from .errors import InputError, MetricError
from .stft import Signal, _coerce_spec

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
        return {
            "consistency_measure": self.consistency_measure,
            "spectral_convergence_db": self.spectral_convergence_db,
            "aligned_snr_db": self.aligned_snr_db,
            "alignment": {"sign": self.alignment.sign, "shift": self.alignment.shift},
        }


def consistency_measure(spec, kernel: ConsistencyKernel) -> float:
    """Normalized residual norm sqrt(loss / ||H||^2); 0 iff consistent."""
    data, _ = _coerce_spec(spec, kernel.config)
    norm_sq = float(np.vdot(data, data).real)
    if norm_sq == 0.0:
        raise MetricError("consistency measure undefined for a zero spectrogram")
    return float(np.sqrt(loss_ec(data, kernel) / norm_sq))


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


def aligned_snr(ref, est, search_radius: int = 128) -> tuple[float, Alignment]:
    """Best SNR over sign flips and integer shifts within the search radius.

    Covers the sign ambiguity of magnitude-only reconstruction and small time
    offsets; always at least the unaligned SNR because the identity alignment
    is in the search set.
    """
    ref = ref.samples if isinstance(ref, Signal) else np.asarray(ref, dtype=np.float64)
    est = est.samples if isinstance(est, Signal) else np.asarray(est, dtype=np.float64)
    if ref.size != est.size:
        raise InputError("reference and estimate lengths differ")
    if ref.size == 0:
        raise InputError("signals must be nonempty")
    ref_energy = float(np.dot(ref, ref))
    if ref_energy == 0.0:
        raise MetricError("SNR undefined for a zero reference")
    if search_radius < 0:
        raise InputError("search radius must be nonnegative")

    best = (-np.inf, Alignment(1, 0))
    for shift in range(-search_radius, search_radius + 1):
        cand = _shifted(est, shift)
        for sign in (1, -1):
            err = float(np.dot(ref - sign * cand, ref - sign * cand))
            snr = DB_CLAMP if err == 0.0 else float(
                np.clip(10.0 * np.log10(ref_energy / err), -DB_CLAMP, DB_CLAMP))
            if snr > best[0]:
                best = (snr, Alignment(sign, shift))
    return best


def plain_snr(ref, est) -> float:
    """SNR with no alignment (sign +1, shift 0)."""
    snr, _ = aligned_snr(ref, est, search_radius=0)
    return snr
