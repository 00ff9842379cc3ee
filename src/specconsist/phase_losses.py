"""Baseline phase losses and the phase-derivative operators.

All losses are sums over bins (not means). Each loss ships with its analytic
gradient with respect to the predicted phase; finite differences are used only
as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .stft import StftConfig, _analyze_frames, overlap_add

TWO_PI = 2.0 * np.pi


@dataclass
class LossReport:
    """A named loss value with optional per-frame breakdown and diagnostics."""

    loss_name: str
    value: float
    per_frame: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)


def _check_shapes(*arrays):
    shapes = {np.asarray(a).shape for a in arrays}
    if len(shapes) != 1:
        raise InputError(f"phase-loss inputs must share one shape, got {shapes}")


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


def loss_cos(p: np.ndarray, p_est: np.ndarray) -> float:
    """Negative summed cosine of the phase error; 2*pi-periodic by construction."""
    return cos_value_and_grad(p, p_est)[0]


def cos_value_and_grad(p, p_est):
    _check_shapes(p, p_est)
    delta = p - p_est
    return float(-np.sum(np.cos(delta))), -np.sin(delta)


def loss_aw(p: np.ndarray, p_est: np.ndarray) -> float:
    """Squared phase error after removing whole 2*pi wraps."""
    return aw_value_and_grad(p, p_est)[0]


def aw_value_and_grad(p, p_est):
    _check_shapes(p, p_est)
    w = wrap_residual(p - p_est)
    return float(np.sum(w ** 2)), -2.0 * w


def loss_complex(p: np.ndarray, p_est: np.ndarray, mag: np.ndarray,
                 norm: str = "L2") -> float:
    """Magnitude-weighted distance between unit phasors.

    L2 is the squared distance, identically ``sum 2*A*(1 - cos(P - P'))``;
    L1 sums the weighted phasor distances ``|A e^{jP} - A e^{jP'}|``.
    """
    return complex_value_and_grad(p, p_est, mag, norm)[0]


def complex_value_and_grad(p, p_est, mag, norm="L2"):
    _check_shapes(p, p_est, mag)
    mag = np.asarray(mag, dtype=np.float64)
    if np.any(mag < 0):
        raise InputError("magnitude weights must be nonnegative")
    delta = p - p_est
    if norm == "L2":
        value = float(np.sum(2.0 * mag * (1.0 - np.cos(delta))))
        return value, -2.0 * mag * np.sin(delta)
    if norm == "L1":
        dist = np.sqrt(np.maximum(2.0 - 2.0 * np.cos(delta), 0.0))
        value = float(np.sum(mag * dist))
        grad = -mag * np.sin(delta) / np.maximum(dist, 1e-300)
        return value, grad
    raise InputError(f"unknown norm {norm!r}; expected 'L1' or 'L2'")


def loss_time(p: np.ndarray, p_est: np.ndarray, mag: np.ndarray,
              config: StftConfig, norm: str = "L2") -> float:
    """Distance between the reconstructions of (mag, p) and (mag, p_est)."""
    return time_value_and_grad(p, p_est, mag, config, norm)[0]


def time_value_and_grad(p, p_est, mag, config, norm="L2"):
    _check_shapes(p, p_est, mag)
    mag = np.asarray(mag, dtype=np.float64)
    n, r = config.window_len, config.hop
    if np.asarray(p).shape[1] != n:
        raise InputError("phase field width inconsistent with config")
    m = np.asarray(p).shape[0]
    length = m * r
    h_est = mag * np.exp(1j * np.asarray(p_est, dtype=np.float64))
    y_ref = overlap_add(mag * np.exp(1j * np.asarray(p, dtype=np.float64)),
                        config).real[n - r : n - r + length]
    y_est = overlap_add(h_est, config).real[n - r : n - r + length]
    diff = y_ref - y_est
    if norm == "L2":
        value = float(np.sum(diff ** 2))
        rho = -2.0 * diff
    elif norm == "L1":
        value = float(np.sum(np.abs(diff)))
        rho = -np.sign(diff)
    else:
        raise InputError(f"unknown norm {norm!r}; expected 'L1' or 'L2'")
    # Pull rho back through the synthesis: embed at the padded offset and
    # analyze with the synthesis window at the same m frame positions.
    padded = np.zeros((m - 1) * r + n)
    padded[n - r : n - r + length] = rho
    u = _analyze_frames(padded, config, m, window=config.synthesis_window)
    grad = -np.imag(np.conj(u) * h_est)
    return value, grad


# ---------------------------------------------------------------------------
# phase derivatives


def group_delay(p: np.ndarray) -> np.ndarray:
    """Wrapped backward difference along the frequency axis.

    Column 0 has no left neighbour and holds wrap(P[:, 0]) itself.
    """
    p = np.asarray(p, dtype=np.float64)
    out = np.empty_like(p)
    out[:, 0] = wrap_principal(p[:, 0])
    out[:, 1:] = wrap_principal(p[:, 1:] - p[:, :-1])
    return out


def inst_freq(p: np.ndarray) -> np.ndarray:
    """Wrapped backward difference along the time axis (row 0 as in group_delay)."""
    p = np.asarray(p, dtype=np.float64)
    out = np.empty_like(p)
    out[0, :] = wrap_principal(p[0, :])
    out[1:, :] = wrap_principal(p[1:, :] - p[:-1, :])
    return out


def loss_with_derivatives(p: np.ndarray, p_est: np.ndarray, base: str) -> float:
    """base(P, P') + base(GD(P), GD(P')) + base(IF(P), IF(P'))."""
    return derivative_value_and_grad(p, p_est, base)[0]


def derivative_value_and_grad(p, p_est, base):
    if base not in _BASES:
        raise InputError(f"unknown base loss {base!r}; expected one of {_BASES}")
    _check_shapes(p, p_est)
    fn = LOSSES[base][0]
    v0, g0 = fn(p, p_est, None, None)
    v1, g1 = fn(group_delay(p), group_delay(p_est), None, None)
    v2, g2 = fn(inst_freq(p), inst_freq(p_est), None, None)
    grad = g0 + _diff_adjoint(g1, axis=1) + _diff_adjoint(g2, axis=0)
    return v0 + v1 + v2, grad


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

# name -> (value_and_grad(target, phase, mag, config), whether the loss is a
# plain sum over bins). The entries look the functions up at call time, so a
# wrapper installed on this module sees every call made through the table.
LOSSES = {
    "cos": (lambda t, p, mag, cfg: cos_value_and_grad(t, p), True),
    "aw": (lambda t, p, mag, cfg: aw_value_and_grad(t, p), True),
    "comp_l1": (lambda t, p, mag, cfg: complex_value_and_grad(t, p, mag, "L1"), True),
    "comp_l2": (lambda t, p, mag, cfg: complex_value_and_grad(t, p, mag, "L2"), True),
    "time_l1": (lambda t, p, mag, cfg: time_value_and_grad(t, p, mag, cfg, "L1"), False),
    "time_l2": (lambda t, p, mag, cfg: time_value_and_grad(t, p, mag, cfg, "L2"), False),
    "cos_derv": (lambda t, p, mag, cfg: derivative_value_and_grad(t, p, "cos"), False),
    "aw_derv": (lambda t, p, mag, cfg: derivative_value_and_grad(t, p, "aw"), False),
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
    if name not in LOSSES:
        raise InputError(f"unknown loss {name!r}")
    value_and_grad, per_bin = LOSSES[name]
    p = np.asarray(p, dtype=np.float64)
    p_est = np.asarray(p_est, dtype=np.float64)
    report = LossReport(name, value_and_grad(p, p_est, mag, config)[0])
    if per_bin:
        rows = [value_and_grad(p[i:i + 1], p_est[i:i + 1],
                               None if mag is None else np.asarray(mag)[i:i + 1],
                               config)[0] for i in range(p.shape[0])]
        report.per_frame = np.array(rows)
    if name.endswith("_derv"):
        fn = LOSSES[name.removesuffix("_derv")][0]
        freq_edge = fn(group_delay(p)[:, :1], group_delay(p_est)[:, :1], None, None)
        time_edge = fn(inst_freq(p)[:1], inst_freq(p_est)[:1], None, None)
        report.diagnostics["boundary_contribution"] = freq_edge[0] + time_edge[0]
    return report
