"""Phase reconstruction from a known magnitude.

Two solvers: the classic alternating-projection iteration, and plain
first-order gradient descent on any of the phase losses (including the
consistency loss, which never sees a target phase). Runs are deterministic
given options and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import phase_losses
from .consistency import ec_loss_and_grad, loss_ec
from .errors import DivergenceError, InputError
from .stft import Signal, Spectrogram, StftConfig, _check_frames, istft, stft

LOSSES = ("ec", *phase_losses.LOSSES)
INITS = ("zeros", "random_uniform", "noisy_phase", "provided")
STEP_RULES = ("fixed", "cosine_anneal")
PARAMETERIZATIONS = ("direct_phase", "c1_c2")


@dataclass
class SolverOptions:
    max_iters: int = 100
    step_rule: str = "cosine_anneal"
    initial_step: float = 1e-3
    final_step: float = 1e-5
    init: str = "random_uniform"
    seed: int = 0
    parameterization: str = "direct_phase"
    tolerance: float = 0.0
    init_phase: np.ndarray | None = None

    def validate(self):
        if self.max_iters < 1:
            raise InputError("max_iters must be at least 1")
        if not (self.initial_step > 0 and self.final_step > 0):
            raise InputError("step sizes must be positive")
        if not self.tolerance >= 0:
            raise InputError("tolerance must be nonnegative")
        if self.seed < 0:
            raise InputError("seed must be nonnegative")
        if self.step_rule not in STEP_RULES:
            raise InputError(f"unknown step rule {self.step_rule!r}")
        if self.init not in INITS:
            raise InputError(f"unknown init {self.init!r}")
        if self.parameterization not in PARAMETERIZATIONS:
            raise InputError(f"unknown parameterization {self.parameterization!r}")


@dataclass
class TraceRecord:
    iteration: int
    loss: float
    consistency_measure: float
    step_size: float


@dataclass
class SolveTrace:
    """Per-iteration records (the actual path, transient increases included).

    ``final_loss`` is the loss of the returned phase: record ``best_iteration``
    for gradient descent, which returns its lowest-loss iterate; for
    Griffin-Lim, the phase after the last projection, which no record scores.
    """

    records: list[TraceRecord] = field(default_factory=list)
    final_loss: float | None = None
    best_iteration: int = 0

    @property
    def losses(self) -> np.ndarray:
        return np.array([rec.loss for rec in self.records])

    @property
    def consistency_measures(self) -> np.ndarray:
        return np.array([rec.consistency_measure for rec in self.records])


def _initial_phase(shape, opts: SolverOptions) -> np.ndarray:
    if opts.init == "zeros":
        return np.zeros(shape)
    if opts.init == "random_uniform":
        rng = np.random.default_rng(opts.seed)
        # pi - U[0, 2*pi) lands in the principal interval (-pi, pi].
        return np.pi - rng.uniform(0.0, 2.0 * np.pi, size=shape)
    if opts.init_phase is None:
        raise InputError(f"init {opts.init!r} requires init_phase")
    return _check_phase(opts.init_phase, shape, "init_phase").copy()


def _check_phase(phase, shape, name: str) -> np.ndarray:
    phase = np.asarray(phase, dtype=np.float64)
    if phase.shape != shape:
        raise InputError(f"{name} shape does not match the magnitude")
    if not np.all(np.isfinite(phase)):
        raise InputError(f"{name} contains non-finite entries")
    return phase


def _step_size(k: int, opts: SolverOptions) -> float:
    if opts.step_rule == "fixed":
        return opts.initial_step
    span = max(opts.max_iters - 1, 1)
    frac = 0.5 * (1.0 + np.cos(np.pi * k / span))
    return opts.final_step + (opts.initial_step - opts.final_step) * frac


def _check_magnitude(mag, config: StftConfig) -> np.ndarray:
    mag = _check_frames(np.asarray(mag, dtype=np.float64), config, "magnitude")
    if not np.all(np.isfinite(mag) & (mag >= 0)):
        raise InputError("magnitude entries must be finite and nonnegative")
    return mag


def _normalized(loss: float, norm_sq: float) -> float:
    """sqrt(loss / ||mag||^2), the consistency measure; 0.0 for a zero magnitude."""
    if norm_sq == 0.0:
        return 0.0
    return float(np.sqrt(loss / norm_sq))


def griffin_lim(mag, opts: SolverOptions, config: StftConfig
                ) -> tuple[np.ndarray, SolveTrace]:
    """Alternating projection between the magnitude set and true STFTs.

    Each iteration resynthesizes a time signal, re-analyzes it, and keeps only
    its phase. The signal length is chosen so that every sample is covered by
    the full window overlap, which makes the signal update an exact
    least-squares step; the inconsistency ``||A e^{jP} - STFT(iSTFT(A e^{jP}))||^2``
    is then non-increasing at every iteration.
    """
    opts.validate()
    mag = _check_magnitude(mag, config)
    m = mag.shape[0]
    n, r = config.window_len, config.hop
    if m < config.overlap_factor:
        raise InputError(
            f"need at least Q={config.overlap_factor} frames, got {m}")
    sig_len = m * r - n + r
    norm_sq = float(np.sum(mag ** 2))
    phase = _initial_phase(mag.shape, opts)

    trace = SolveTrace()
    prev = None
    for k in range(opts.max_iters):
        h, z, inconsistency = _round_trip(mag, phase, config, sig_len)
        trace.records.append(TraceRecord(
            k, inconsistency, _normalized(loss_ec(h, config), norm_sq), 0.0))
        # Keep the previous phase wherever the projection is exactly zero.
        nz = np.abs(z) > 0.0
        phase = np.where(nz, np.angle(z), phase)
        if prev is not None and opts.tolerance > 0 and (prev - inconsistency) < opts.tolerance:
            break
        prev = inconsistency

    trace.best_iteration = len(trace.records) - 1
    trace.final_loss = _round_trip(mag, phase, config, sig_len)[2]
    return phase, trace


def _round_trip(mag, phase, config: StftConfig, sig_len: int):
    """H = mag e^{jP}, its projection Z = STFT(iSTFT(H)), and ||H - Z||^2."""
    h = mag * np.exp(1j * phase)
    z = stft(istft(Spectrogram(h, config), length=sig_len), config).data
    return h, z, float(np.vdot(h - z, h - z).real)


def gd_reconstruct(mag, loss: str, target_phase, opts: SolverOptions,
                   config: StftConfig) -> tuple[np.ndarray, SolveTrace]:
    """Gradient descent on the chosen loss over the selected parameterization.

    The consistency loss ``ec`` forbids a target phase (it measures only
    magnitude-phase consistency); every other loss requires one. Returns the
    lowest-loss iterate. A non-finite loss raises DivergenceError carrying the
    partial trace.
    """
    opts.validate()
    if loss not in LOSSES:
        raise InputError(f"unknown loss {loss!r}; expected one of {LOSSES}")
    mag = _check_magnitude(mag, config)
    if loss == "ec":
        if target_phase is not None:
            raise InputError("the consistency loss never consumes a target phase")
    else:
        if target_phase is None:
            raise InputError(f"loss {loss!r} requires a target phase")
        target_phase = _check_phase(target_phase, mag.shape, "target phase")

    norm_sq = float(np.sum(mag ** 2))
    phase = _initial_phase(mag.shape, opts)
    use_c1c2 = opts.parameterization == "c1_c2"
    if use_c1c2:
        c1, c2 = np.sin(phase), np.cos(phase)

    trace = SolveTrace()
    best_loss = np.inf
    best_phase = phase.copy()
    prev = None
    for k in range(opts.max_iters):
        if use_c1c2:
            phase = np.arctan2(c1, c2)
        value, grad = _loss_and_grad(loss, mag, phase, target_phase, config)
        ec = value if loss == "ec" else loss_ec(mag * np.exp(1j * phase), config)
        measure = _normalized(ec, norm_sq)
        step = _step_size(k, opts)
        trace.records.append(TraceRecord(k, value, measure, step))
        if not np.isfinite(value):
            raise DivergenceError(
                f"loss {loss!r} became non-finite at iteration {k}", trace=trace)
        if value < best_loss:
            best_loss = value
            best_phase = phase.copy()
            trace.best_iteration = k
        if use_c1c2:
            r_sq = np.maximum(c1 ** 2 + c2 ** 2, 1e-300)
            g1 = grad * c2 / r_sq
            g2 = -grad * c1 / r_sq
            c1 = c1 - step * g1
            c2 = c2 - step * g2
        else:
            phase = phase - step * grad
        if prev is not None and opts.tolerance > 0 and (prev - value) < opts.tolerance:
            break
        prev = value

    trace.final_loss = best_loss
    return best_phase, trace


def _loss_and_grad(name, mag, phase, target, config):
    if name == "ec":
        return ec_loss_and_grad(mag, phase, config)
    return phase_losses.LOSSES[name][0](target, phase, mag, config)


def reconstruct_signal(mag, phase, config: StftConfig, length: int | None = None,
                       sample_rate: int = 1) -> Signal:
    """Inverse STFT of ``mag * exp(1j * phase)``."""
    mag = _check_magnitude(mag, config)
    phase = _check_phase(phase, mag.shape, "phase")
    h = Spectrogram(mag * np.exp(1j * phase), config)
    return istft(h, length=length, sample_rate=sample_rate)
