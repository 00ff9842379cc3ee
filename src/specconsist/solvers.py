"""Phase reconstruction from a known magnitude.

Two solvers: the classic alternating-projection iteration, and plain
first-order gradient descent on any of the phase losses (including the
consistency loss, which never sees a target phase). Runs are deterministic
given options and seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

import numpy as np

from . import phase_losses
from .consistency import _ErrorBuffers, _Workspace
from .errors import DivergenceError, InputError
from .stft import (Signal, Spectrogram, StftConfig, _expand_half, _integer, _magnitude,
                   _phase, _polar, _real, _sum_squares, _unit_phasor, istft,
                   signal_length)

# name -> (bind(target, mag, config) -> step(phase, unit, ws), takes_target). A
# step returns (value, grad) at the phase whose unit phasor is ``unit``, reading
# the ``_Workspace`` ``ws`` whose ``loss`` the loop has just run at that phase;
# the update then spends grad. ``ec`` alone takes no target: its step is that
# call's value and gradient, and its ``unit`` is None.
LOSSES = {"ec": (lambda target, mag, config: lambda phase, unit, ws: ws.gradient(), False),
          **{name: (bind, True) for name, bind in phase_losses.LOSSES.items()}}
INITS = ("zeros", "random_uniform", "provided")
STEP_RULES = ("fixed", "cosine_anneal", "relative")
PARAMETERIZATIONS = ("direct_phase", "c1_c2")


@dataclass
class SolverOptions:
    """Options of either solver; ``validate`` applies one rule per kind of value.

    ``max_iters`` >= 1 and ``seed`` >= 0 are integral numbers (``stft._integer``);
    ``initial_step`` and ``final_step`` > 0 and ``tolerance`` >= 0 are finite
    numbers (``stft._real``). A bool or a string is never a number.
    """

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
        self.max_iters = _integer(self.max_iters, "max_iters", 1)
        self.seed = _integer(self.seed, "seed", 0)
        self.initial_step = _real(self.initial_step, "initial_step", 0.0, inclusive=False)
        self.final_step = _real(self.final_step, "final_step", 0.0, inclusive=False)
        self.tolerance = _real(self.tolerance, "tolerance", 0.0, inclusive=True)
        for name, choices in (("step_rule", STEP_RULES), ("init", INITS),
                              ("parameterization", PARAMETERIZATIONS)):
            if (value := getattr(self, name)) not in choices:
                raise InputError(f"unknown {name} {value!r}; expected one of {choices}")


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
    return _phase(opts.init_phase, shape, "init_phase").copy()


def _step_size(k: int, opts: SolverOptions, peak_sq: float) -> float:
    """Step of iteration ``k``; ``peak_sq`` is max(mag)**2 (see ``_peak_square``)."""
    if opts.step_rule == "relative":
        return opts.initial_step / peak_sq
    if opts.step_rule == "fixed":
        return opts.initial_step
    span = max(opts.max_iters - 1, 1)
    frac = 0.5 * (1.0 + np.cos(np.pi * k / span))
    return opts.final_step + (opts.initial_step - opts.final_step) * frac


def _peak_square(mag: np.ndarray, opts: SolverOptions) -> float:
    """max(mag)**2, which the ``relative`` step ``initial_step / max(mag)**2`` divides by.

    A phase step d moves H = mag e^{jP} by mag * j d e^{jP} to first order, so
    the loss's curvature along d is at most 2 ||C||^2 max(mag)**2 ||d||^2 plus a
    term that vanishes with the residual C H. ||C|| = 1 (C = P - I, P an
    orthogonal projection), so ``initial_step = 0.5`` is the 1/L step at any
    input gain. A zero or infinite step, as from an all-zero magnitude, is an
    InputError under this rule.
    """
    peak_sq = mag.max() ** 2
    if opts.step_rule == "relative" and not (
            peak_sq > 0 and 0 < opts.initial_step / float(peak_sq) < np.inf):
        raise InputError("the relative step initial_step / max(mag)**2 is not "
                         "positive and finite for this magnitude")
    return peak_sq


def _normalized(loss: float, norm_sq: float) -> float:
    """sqrt(loss / ||mag||^2), the consistency measure; 0.0 for a zero magnitude."""
    if norm_sq == 0.0:
        return 0.0
    return float(np.sqrt(loss / norm_sq))


def _solve(mag, opts: SolverOptions, what: str, steps, finish):
    """The loop of both solvers: ``(phase, trace)`` for the records of ``steps(trace)``.

    ``steps`` yields each iterate's (loss, ``loss_ec`` or None, step size); record
    k holds the loss, ``_normalized(loss_ec)`` (NaN for None) and the step. A run
    stops after ``max_iters`` records, or after the first iteration whose loss fell
    by less than ``tolerance`` (0 disables the rule). A non-finite loss raises
    DivergenceError carrying the records so far. Then ``finish(trace)`` gives the
    phase and ``final_loss``. numpy's overflow and invalid-value warnings are off
    throughout, so none pre-empts the divergence.
    """
    trace, prev = SolveTrace(), None
    with np.errstate(invalid="ignore", over="ignore"):
        norm_sq = float(np.sum(mag ** 2))
        for k, (loss, ec, step) in zip(range(opts.max_iters), steps(trace)):
            measure = np.nan if ec is None else _normalized(ec, norm_sq)
            trace.records.append(TraceRecord(k, loss, measure, step))
            if not np.isfinite(loss):
                raise DivergenceError(f"{what} became non-finite at iteration {k}", trace)
            if prev is not None and opts.tolerance > 0 and (prev - loss) < opts.tolerance:
                break
            prev = loss
        phase, trace.final_loss = finish(trace)
    return phase, trace


def griffin_lim(mag, opts: SolverOptions, config: StftConfig
                ) -> tuple[np.ndarray, SolveTrace]:
    """Alternating projection between the magnitude set and true STFTs.

    Each iteration resynthesizes a time signal, re-analyzes it, and keeps only
    its phase. The signal length is chosen so that every sample is covered by
    the full window overlap, which makes the signal update an exact
    least-squares step; the inconsistency ``||A e^{jP} - STFT(iSTFT(A e^{jP}))||^2``
    is then non-increasing at every iteration. It is the loss that ``_solve`` runs on.

    The iterate is the STFT of a real signal from the start: with c the unit
    phasor of the initial phase, it starts from the unit phasor of
    c[k] + conj(c[N-k]) on N/2+1 bins (1 where that sum is 0), the nearest one
    whose H is Hermitian, and H = c * mag carries the mirror-symmetric
    magnitude ``(mag[k] + mag[N-k]) / 2``, all of ``mag`` that reaches the
    projection. With u = irfft(c * mag), the overlap-add y gives the trace's
    measure ``loss_ec`` = N * ||W*frame(y) - u||^2 (see ``consistency``) and,
    masked to the samples ``istft`` keeps, the projection Z = rfft(W*frame(y))
    and the inconsistency, the same sum by Parseval. c becomes Z/|Z| where Z
    is nonzero, so no angle, cos or sin is taken in the loop. The returned
    phase is the odd extension of angle(c) on every bin; ``final_loss``
    projects it once more.
    """
    opts.validate()
    mag = _magnitude(mag, config)
    n, window = config.window_len, config.analysis_window
    bins = n // 2 + 1
    with np.errstate(over="ignore"):  # a sum past the float range diverges in _solve
        mag = (mag + mag[:, -np.arange(n)]) / 2
    half = np.ascontiguousarray(mag[:, :bins])
    c = _polar(_initial_phase(mag.shape, opts))
    hermitian = c[:, :bins] + np.conj(c[:, -np.arange(bins)])
    unit, h_half = np.ones_like(hermitian), np.empty_like(hermitian)
    _unit_phasor(hermitian, np.abs(hermitian), unit)
    ws = _ErrorBuffers(mag.shape, config, float)
    start, y = n - config.hop, ws.y.ravel()
    dropped = (y[:start], y[start + signal_length(mag.shape[0], config):])  # by istft

    def project(h):
        """``(loss_ec(H), Z, ||H - Z||^2)`` for the Hermitian H whose N/2+1 bins
        are ``h``; ``ws.error`` leaves OLA(N*S*u) in ``y``."""
        u = np.fft.irfft(h, n, axis=1)
        measure = n * _sum_squares(ws.error(u, ws.synthesis_n, window, ws.e))
        for samples in dropped:
            samples.fill(0.0)
        f = np.multiply(ws.framed, window, out=ws.e)
        z = np.fft.rfft(f, axis=1)
        return measure, z, n * _sum_squares(np.subtract(f, u, out=f))

    def steps(trace):
        while True:
            measure, z, inconsistency = project(np.multiply(unit, half, out=h_half))
            _unit_phasor(z, np.abs(z), unit)
            yield inconsistency, measure, 0.0

    def finish(trace):
        trace.best_iteration = len(trace.records) - 1
        out = np.angle(_expand_half(unit, n))
        return out, project(_polar(out[:, :bins], half))[2]

    return _solve(mag, opts, "inconsistency", steps, finish)


def gd_reconstruct(mag, loss: str, target_phase, opts: SolverOptions,
                   config: StftConfig, *, measure: bool = True
                   ) -> tuple[np.ndarray, SolveTrace]:
    """Gradient descent on the chosen loss over the selected parameterization.

    A target phase goes with exactly the losses that take one (``LOSSES``).
    ``_solve`` runs the loop; this returns the lowest-loss iterate. Each iteration
    builds H = mag e^{jP} (and e^{jP} for a target loss) and the measure
    ``loss_ec(H)`` in place in the workspace; the loss's step reads them (``ec``'s
    is the measure and its gradient). With
    ``measure`` False a target loss's step is called as ``step(phase, None,
    None)`` and builds what it needs, no measure is taken and every record's
    ``consistency_measure`` is NaN; the phases, losses and steps are the same.
    ``ec`` always takes the measure, which is its loss.
    """
    opts.validate()
    if loss not in tuple(LOSSES):  # an unhashable loss is unknown too
        raise InputError(f"unknown loss {loss!r}; expected one of {tuple(LOSSES)}")
    bind, takes_target = LOSSES[loss]
    mag = _magnitude(mag, config)
    if takes_target:
        if target_phase is None:
            raise InputError(f"loss {loss!r} requires a target phase")
        target_phase = _phase(target_phase, mag.shape, "target phase")
    elif target_phase is not None:
        raise InputError(f"loss {loss!r} never consumes a target phase")

    phase = _initial_phase(mag.shape, opts)
    loss_step = bind(target_phase, mag, config)  # before the workspace: peaks never add
    measure = measure or not takes_target  # ec's loss is the measure
    if measure:
        unit = np.empty(mag.shape, complex) if takes_target else None
        workspace = _Workspace(mag.shape, config)
    best_loss, best_phase = np.inf, phase.copy()

    def steps(trace):
        nonlocal best_loss
        peak_sq = _peak_square(mag, opts)
        use_c1c2 = opts.parameterization == "c1_c2"
        if use_c1c2:
            c1, c2 = np.sin(phase), np.cos(phase)
        for k in count():
            if use_c1c2:
                np.arctan2(c1, c2, out=phase)
            if measure:
                ec = workspace.loss(phase, mag, unit)
                value, grad = loss_step(phase, unit, workspace)
            else:
                ec, (value, grad) = None, loss_step(phase, None, None)
            step = _step_size(k, opts, peak_sq)
            if value < best_loss:  # false for NaN and +inf; no loss is -inf
                best_loss, trace.best_iteration, best_phase[:] = value, k, phase
            yield value, ec, step
            if use_c1c2:
                r_sq = np.maximum(c1 ** 2 + c2 ** 2, 1e-300)
                c1, c2 = c1 - step * (grad * c2 / r_sq), c2 - step * (-grad * c1 / r_sq)
            else:  # phase - step * grad, in place; the step's grad is spent
                np.subtract(phase, np.multiply(grad, step, out=grad), out=phase)

    return _solve(mag, opts, f"loss {loss!r}", steps, lambda trace: (best_phase, best_loss))


def reconstruct_signal(mag, phase, config: StftConfig, length: int | None = None,
                       sample_rate: int = 1) -> Signal:
    """Inverse STFT of ``mag * exp(1j * phase)``."""
    return istft(_spectrogram(mag, phase, config), length=length,
                 sample_rate=sample_rate)


def _spectrogram(mag, phase, config: StftConfig) -> Spectrogram:
    """``mag * exp(1j * phase)``, both checked: what ``reconstruct_signal`` inverts."""
    mag = _magnitude(mag, config)
    return Spectrogram(_polar(_phase(phase, mag.shape, "phase"), mag), config)
