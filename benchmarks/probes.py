"""Isolated per-layer timings and counts at one workload's shape.

Every ``*_ms`` figure is the median of repeated calls of one public function
on inputs of the workload's own shape. The counts are exact: FFT points are
counted by wrapping the numpy and scipy transform functions for one call,
and the allocation peak is tracemalloc's peak for one ``residual`` (bytes
numpy allocates, not cache traffic).
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
import tracemalloc

import numpy as np
import scipy.fft

import specconsist as sc
from specconsist.consistency import ec_loss_and_grad
from specconsist.phase_losses import (aw_value_and_grad, complex_value_and_grad,
                                      cos_value_and_grad, time_value_and_grad)

MIN_REPS = 3
MAX_REPS = 50
BUDGET_S = 0.3


def median_ms(fn) -> float:
    """Median wall time of ``fn()`` over at least MIN_REPS calls and BUDGET_S."""
    times = []
    start = time.perf_counter()
    while len(times) < MAX_REPS and (len(times) < MIN_REPS
                                     or time.perf_counter() - start < BUDGET_S):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


@contextlib.contextmanager
def count_fft_points():
    """Counts transform points (rows x length) of numpy/scipy FFT calls."""
    counter = [0]
    patched = []

    def wrap(module, name):
        original = getattr(module, name)

        @functools.wraps(original)
        def wrapper(x, n=None, axis=-1, *args, **kwargs):
            out = original(x, n, axis, *args, **kwargs)
            length = out.shape[axis] if name != "rfft" else (
                n if n is not None else np.shape(x)[axis])
            counter[0] += out.size // out.shape[axis] * length
            return out

        setattr(module, name, wrapper)
        patched.append((module, name, original))

    try:
        for module in (np.fft, scipy.fft):
            for name in ("fft", "ifft", "rfft", "irfft"):
                wrap(module, name)
        yield counter
    finally:
        for module, name, original in reversed(patched):
            setattr(module, name, original)


def peak_alloc_mb(fn) -> float:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / 1e6


def layer_probes(probe, seed: int, scratch) -> dict:
    """Isolated figures for every layer at ``probe``'s shape."""
    cfg = probe.config
    kernel = sc.get_kernel(cfg)
    x = probe.signal.samples
    spec = sc.stft(x, cfg)
    mag, target = spec.magnitude, spec.phase
    rng = np.random.default_rng(seed)
    phase = rng.uniform(-np.pi, np.pi, mag.shape)
    h = mag * np.exp(1j * phase)
    recon = sc.reconstruct_signal(mag, phase, cfg, length=len(x))

    out = {
        "consistency.loss_and_grad_ms": median_ms(
            lambda: ec_loss_and_grad(mag, phase, kernel)),
        "consistency.residual_ms": median_ms(lambda: sc.residual(h, kernel)),
        "stft.stft_ms": median_ms(lambda: sc.stft(x, cfg)),
        "stft.overlap_add_ms": median_ms(lambda: sc.overlap_add(h, cfg)),
        "stft.project_ms": median_ms(lambda: sc.project(h, cfg)),
        "phase_losses.cos_ms": median_ms(lambda: cos_value_and_grad(target, phase)),
        "phase_losses.aw_ms": median_ms(lambda: aw_value_and_grad(target, phase)),
        "phase_losses.comp_l2_ms": median_ms(
            lambda: complex_value_and_grad(target, phase, mag, "L2")),
        "phase_losses.time_l2_ms": median_ms(
            lambda: time_value_and_grad(target, phase, mag, cfg, "L2")),
        "metrics.aligned_snr_ms": median_ms(
            lambda: sc.aligned_snr(x, recon, probe.radius)),
    }
    read_ms = median_ms(lambda: sc.read_wav(probe.wav))
    signal, meta = sc.read_wav(probe.wav)
    out["audio_io.read_ms"] = read_ms
    out["audio_io.write_ms"] = median_ms(
        lambda: sc.write_wav(signal, meta, scratch / "probe_write.wav"))
    out["audio_io.read_mb_per_s"] = probe.wav.stat().st_size / 1e6 / (read_ms / 1e3)
    with count_fft_points() as points:
        ec_loss_and_grad(mag, phase, kernel)
    out["consistency.fft_points_per_eval"] = points[0]
    out["consistency.peak_alloc_mb"] = peak_alloc_mb(lambda: sc.residual(h, kernel))
    return out
