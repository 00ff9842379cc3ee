"""Baseline phase losses and the phase-derivative operators.

All losses are sums over bins (not means). Each loss ships with its analytic
gradient with respect to the predicted phase; finite differences are used only
as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .stft import (StftConfig, _analyze_frames, _magnitude, _pad_signal, _phase, _polar,
                   overlap_add)

TWO_PI = 2.0 * np.pi


@dataclass
class LossReport:
    """A named loss value with optional per-frame breakdown and diagnostics."""

    loss_name: str
    value: float
    per_frame: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)


def wrap_principal(x: np.ndarray) -> np.ndarray:
    """Map angles into the principal interval (-pi, pi]."""
    return x - TWO_PI * np.ceil((x - np.pi) / TWO_PI)


def _round_half_away(x: np.ndarray) -> np.ndarray:
    # Deterministic tie-break; the wrapped residual magnitude is the same
    # under either half-rounding direction.
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


def wrap_residual(delta: np.ndarray) -> np.ndarray:
    """delta minus the nearest multiple of 2*pi (ties rounded away from zero)."""
    return delta - TWO_PI * _round_half_away(delta / TWO_PI)


# ---------------------------------------------------------------------------
# direct phase losses
#
# Each loss is bound to its target once (see ``LOSSES``). The cos and complex
# losses take cos(t - p) and sin(t - p) from the unit phasors e^{jt}, made at
# binding, and e^{jp}, which a solver has already built for its iterate.


def loss_cos(p: np.ndarray, p_est: np.ndarray) -> float:
    """Negative summed cosine of the phase error; 2*pi-periodic by construction."""
    return cos_value_and_grad(p, p_est)[0]


def cos_value_and_grad(p, p_est):
    return _evaluate("cos", p, p_est)


def _phase_error(target: np.ndarray, unit: np.ndarray):
    """cos(t - p) and sin(t - p) from the unit phasors e^{jt} and e^{jp}."""
    tc, ts, pc, ps = target.real, target.imag, unit.real, unit.imag
    return tc * pc + ts * ps, ts * pc - tc * ps


def _cos_loss(t):
    target = _polar(t)

    def step(p, unit=None, ws=None):
        cos_err, sin_err = _phase_error(target, _polar(p) if unit is None else unit)
        return float(-np.sum(cos_err)), np.negative(sin_err, out=sin_err)

    return step


def loss_aw(p: np.ndarray, p_est: np.ndarray) -> float:
    """Squared phase error after removing whole 2*pi wraps."""
    return aw_value_and_grad(p, p_est)[0]


def aw_value_and_grad(p, p_est):
    return _evaluate("aw", p, p_est)


def _aw_loss(t):
    def step(p, unit=None, ws=None):
        w = wrap_residual(t - p)
        return float(np.sum(w ** 2)), -2.0 * w

    return step


def loss_complex(p: np.ndarray, p_est: np.ndarray, mag: np.ndarray,
                 norm: str = "L2") -> float:
    """Magnitude-weighted distance between unit phasors.

    L2 is the squared distance, identically ``sum 2*A*(1 - cos(P - P'))``;
    L1 sums the weighted phasor distances ``|A e^{jP} - A e^{jP'}|``.
    """
    return complex_value_and_grad(p, p_est, mag, norm)[0]


def complex_value_and_grad(p, p_est, mag, norm="L2"):
    return _evaluate(_norm_name("comp", norm), p, p_est, mag)


def _complex_loss(t, mag, norm):
    target = _polar(t)
    two_mag = 2.0 * mag

    def step(p, unit=None, ws=None):
        unit = _polar(p) if unit is None else unit
        cos_err, sin_err = _phase_error(target, unit)
        if norm == "L2":  # 2A(1 - cos) and -2A sin, in place
            np.subtract(1.0, cos_err, out=cos_err)
            cos_err *= two_mag
            sin_err *= two_mag
            return float(np.sum(cos_err)), np.negative(sin_err, out=sin_err)
        # |e^{jt} - e^{jp}| from the phasors: exactly 0 where they are equal
        dr, di = target.real - unit.real, target.imag - unit.imag
        dist = np.sqrt(dr * dr + di * di)
        return float(np.sum(mag * dist)), -mag * sin_err / np.maximum(dist, 1e-300)

    return step


def loss_time(p: np.ndarray, p_est: np.ndarray, mag: np.ndarray,
              config: StftConfig, norm: str = "L2") -> float:
    """Distance between the reconstructions of (mag, p) and (mag, p_est)."""
    return time_value_and_grad(p, p_est, mag, config, norm)[0]


def time_value_and_grad(p, p_est, mag, config, norm="L2"):
    return _evaluate(_norm_name("time", norm), p, p_est, mag, config)


def _time_loss(t, mag, config, norm):
    """``step(p_est, unit, ws)``: the time loss against the signal of ``(mag, t)``.

    Signals are ``overlap_add`` of mag e^{jP}, bitwise what ``_Workspace.loss``
    leaves in ``ws.y``: in a solver the estimate's is the one its measure has
    just made from ``ws.h`` = mag e^{j p_est}. The target's is made here once;
    with ``ws`` None the step makes the estimate's.
    """
    start = config.window_len - config.hop  # the padding ``stft`` puts first
    y_ref = overlap_add(_polar(t, mag), config).real[start:].copy()

    def step(p_est, unit=None, ws=None):
        h = _polar(p_est, mag) if ws is None else ws.h
        y = overlap_add(h, config) if ws is None else ws.y.ravel()
        diff = y_ref - y.real[start:]
        if norm == "L2":
            value, rho = float(np.sum(diff ** 2)), -2.0 * diff
        else:
            value, rho = float(np.sum(np.abs(diff))), -np.sign(diff)
        # Pull rho back through the synthesis: pad it as ``stft`` pads a signal
        # and analyze with the synthesis window at the same m frame positions.
        u = _analyze_frames(_pad_signal(rho, config)[0], config, mag.shape[0],
                            window=config.synthesis_window)
        return value, u.imag * h.real - u.real * h.imag  # -Im(conj(u) * h)

    return step


def _norm_name(kind: str, norm: str) -> str:
    if norm not in ("L1", "L2"):
        raise InputError(f"unknown norm {norm!r}; expected 'L1' or 'L2'")
    return f"{kind}_{norm.lower()}"


# ---------------------------------------------------------------------------
# phase derivatives


def group_delay(p: np.ndarray) -> np.ndarray:
    """Wrapped backward difference along the frequency axis.

    Column 0 has no left neighbour and holds wrap(P[:, 0]) itself.
    """
    return _wrapped_diff(_phase(p, None, "phase", finite=False), axis=1)


def inst_freq(p: np.ndarray) -> np.ndarray:
    """Wrapped backward difference along the time axis (row 0 as in group_delay)."""
    return _wrapped_diff(_phase(p, None, "phase", finite=False), axis=0)


def _wrapped_diff(p: np.ndarray, axis: int) -> np.ndarray:
    return wrap_principal(np.diff(p, axis=axis, prepend=0.0))


def loss_with_derivatives(p: np.ndarray, p_est: np.ndarray, base: str) -> float:
    """base(P, P') + base(GD(P), GD(P')) + base(IF(P), IF(P'))."""
    return derivative_value_and_grad(p, p_est, base)[0]


def derivative_value_and_grad(p, p_est, base):
    if base not in _BASES:
        raise InputError(f"unknown base loss {base!r}; expected one of {_BASES}")
    return _evaluate(f"{base}_derv", p, p_est)


def _derivative_loss(t, base: str):
    """The base loss bound to the target, its group delay and its instantaneous
    frequency once; a step reads the iterate's phasor for the first term only."""
    bind = LOSSES[base][0]
    s0, s1, s2 = (bind(x, None, None) for x in (t, _wrapped_diff(t, 1), _wrapped_diff(t, 0)))

    def step(p, unit=None, ws=None):
        v0, g0 = s0(p, unit)
        v1, g1 = s1(_wrapped_diff(p, 1))
        v2, g2 = s2(_wrapped_diff(p, 0))
        return v0 + v1 + v2, g0 + _diff_adjoint(g1, axis=1) + _diff_adjoint(g2, axis=0)

    return step


def _diff_adjoint(g: np.ndarray, axis: int) -> np.ndarray:
    """Adjoint of the backward-difference stencil (wrap has unit slope a.e.)."""
    out = g.copy()
    if axis == 1:
        out[:, :-1] -= g[:, 1:]
    else:
        out[:-1, :] -= g[1:, :]
    return out


# ---------------------------------------------------------------------------
# loss table and reporting

# name -> (bind(target, mag, config), whether the loss is a plain sum over bins);
# bind prepares what needs only the target and returns step(phase, unit, ws) ->
# (value, grad) as ``solvers.LOSSES`` describes; a step given None builds what it
# needs. A bind trusts its caller to have checked every array (see ``_checked``).
LOSSES = {
    "cos": (lambda t, mag, cfg: _cos_loss(t), True),
    "aw": (lambda t, mag, cfg: _aw_loss(t), True),
    "comp_l1": (lambda t, mag, cfg: _complex_loss(t, mag, "L1"), True),
    "comp_l2": (lambda t, mag, cfg: _complex_loss(t, mag, "L2"), True),
    "time_l1": (lambda t, mag, cfg: _time_loss(t, mag, cfg, "L1"), False),
    "time_l2": (lambda t, mag, cfg: _time_loss(t, mag, cfg, "L2"), False),
    "cos_derv": (lambda t, mag, cfg: _derivative_loss(t, "cos"), False),
    "aw_derv": (lambda t, mag, cfg: _derivative_loss(t, "aw"), False),
}
_BASES = tuple(name.removesuffix("_derv") for name in LOSSES if name.endswith("_derv"))


def loss_report(name: str, p, p_est, mag=None, config=None) -> LossReport:
    """Evaluate a loss by name with per-frame breakdown where it exists.

    The per-frame breakdown exists for the losses that are plain sums over
    bins: entry m is the loss of frame m alone. For the derivative-augmented
    losses the diagnostics carry the boundary contribution (column 0 of the
    frequency differences, row 0 of the time differences), which has no left
    neighbour and is reported separately.
    """
    if name not in tuple(LOSSES):  # an unhashable name is unknown too
        raise InputError(f"unknown loss {name!r}")
    p, p_est, mag = _checked(name, p, p_est, mag, config)
    bind, plain_sum = LOSSES[name]
    report = LossReport(name, bind(p, mag, config)(p_est)[0])
    if plain_sum:
        rows = [(p[i:i + 1], p_est[i:i + 1], None if mag is None else mag[i:i + 1])
                for i in range(p.shape[0])]
        report.per_frame = np.array([bind(t, a, config)(e)[0] for t, e, a in rows])
    if name.endswith("_derv"):
        base = LOSSES[name.removesuffix("_derv")][0]
        freq = [_wrapped_diff(x, 1)[:, :1] for x in (p, p_est)]
        time = [_wrapped_diff(x, 0)[:1] for x in (p, p_est)]
        report.diagnostics["boundary_contribution"] = (
            base(freq[0], None, None)(freq[1])[0] + base(time[0], None, None)(time[1])[0])
    return report


def _evaluate(name, p, p_est, mag=None, config=None):
    """``name``'s (value, grad) at the one phase ``p_est``, through the table."""
    p, p_est, mag = _checked(name, p, p_est, mag, config)
    return LOSSES[name][0](p, mag, config)(p_est)


def _checked(name, p, p_est, mag, config):
    """``(p, p_est, mag)`` of a one-shot call, each checked once: the target as a
    phase from outside, ``p_est`` as an iterate, ``mag`` where given or read."""
    kind = name.split("_")[0]
    if kind == "time" and not isinstance(config, StftConfig):
        raise InputError("the time losses need the StftConfig of the phases")
    if mag is not None or kind in ("comp", "time"):
        mag = _magnitude(mag, config if kind == "time" else None)
    p = _phase(p, None if mag is None else mag.shape, "target phase")
    return p, _phase(p_est, p.shape, "phase estimate", finite=False), mag
