"""One rule per kind of array, applied by every public function that takes one.

A magnitude is 2-D with at least one frame (of ``window_len`` bins under a
config), and every entry is finite and >= 0. A phase from outside (a target,
an initial phase, ``reconstruct_signal``'s phase) has its partner's shape and
is finite. A phase iterate is checked for its shape only: a non-finite one
gives a non-finite loss, which is how the solvers detect divergence.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specconsist as sc
from specconsist import consistency, metrics, phase_losses as pl, solvers

CFG = sc.make_config(64, 16)
FRAMES = st.integers(4, 8)  # at least Q = 4, so a solver runs on a good magnitude


def _opts(**fields):
    return sc.SolverOptions(max_iters=1, **fields)


# name -> f(mag, phase), with a good phase of the shape the magnitude should have
MAGNITUDE_TAKERS = {
    "griffin_lim": lambda a, p: solvers.griffin_lim(a, _opts(), CFG),
    "gd_reconstruct_ec": lambda a, p: solvers.gd_reconstruct(a, "ec", None, _opts(), CFG),
    "gd_reconstruct_cos": lambda a, p: solvers.gd_reconstruct(a, "cos", p, _opts(), CFG),
    "reconstruct_signal": lambda a, p: sc.reconstruct_signal(a, p, CFG),
    "loss_ec_phase": lambda a, p: sc.loss_ec_phase(a, p, CFG),
    "grad_loss_ec_phase": lambda a, p: sc.grad_loss_ec_phase(a, p, CFG),
    "ec_loss_and_grad": lambda a, p: consistency.ec_loss_and_grad(a, p, CFG),
    "loss_complex": lambda a, p: pl.loss_complex(p, p, a, "L1"),
    "complex_value_and_grad": lambda a, p: pl.complex_value_and_grad(p, p, a),
    "loss_time": lambda a, p: pl.loss_time(p, p, a, CFG, "L1"),
    "time_value_and_grad": lambda a, p: pl.time_value_and_grad(p, p, a, CFG),
    "loss_report_cos": lambda a, p: pl.loss_report("cos", p, p, a),
    "loss_report_comp_l2": lambda a, p: pl.loss_report("comp_l2", p, p, a),
    "loss_report_time_l2": lambda a, p: pl.loss_report("time_l2", p, p, a, CFG),
    "spectral_convergence_ref": lambda a, p: metrics.spectral_convergence(a, np.ones(p.shape)),
    "spectral_convergence_est": lambda a, p: metrics.spectral_convergence(np.ones(p.shape), a),
}


def _loss_reports():
    return {f"loss_report_{name}": (lambda name: lambda a, t, p: pl.loss_report(
        name, t, p, a, CFG).value)(name) for name in pl.LOSSES}


# name -> f(mag, target, p_est) for the functions that take a target phase
TARGET_LOSSES = {
    "loss_cos": lambda a, t, p: pl.loss_cos(t, p),
    "loss_aw": lambda a, t, p: pl.loss_aw(t, p),
    "cos_value_and_grad": lambda a, t, p: pl.cos_value_and_grad(t, p)[1],
    "aw_value_and_grad": lambda a, t, p: pl.aw_value_and_grad(t, p)[1],
    "loss_complex": lambda a, t, p: pl.loss_complex(t, p, a, "L1"),
    "loss_time": lambda a, t, p: pl.loss_time(t, p, a, CFG, "L1"),
    "loss_with_derivatives_cos": lambda a, t, p: pl.loss_with_derivatives(t, p, "cos"),
    "loss_with_derivatives_aw": lambda a, t, p: pl.loss_with_derivatives(t, p, "aw"),
    **_loss_reports(),
}

# name -> f(mag, phase) for the functions that take a phase from outside
OUTSIDE_PHASE_TAKERS = {
    "gd_reconstruct_target": lambda a, t: solvers.gd_reconstruct(a, "cos", t, _opts(), CFG),
    "gd_reconstruct_init": lambda a, t: solvers.gd_reconstruct(
        a, "ec", None, _opts(init="provided", init_phase=t), CFG),
    "griffin_lim_init": lambda a, t: solvers.griffin_lim(
        a, _opts(init="provided", init_phase=t), CFG),
    "reconstruct_signal": lambda a, t: sc.reconstruct_signal(a, t, CFG),
    **{name: (lambda f: lambda a, t: f(a, t, np.zeros(a.shape)))(f)
       for name, f in TARGET_LOSSES.items()},
}

# name -> f(mag, target, p_est) for the functions that take a phase iterate
ITERATE_TAKERS = {
    "loss_ec_phase": lambda a, t, p: sc.loss_ec_phase(a, p, CFG),
    "grad_loss_ec_phase": lambda a, t, p: sc.grad_loss_ec_phase(a, p, CFG),
    "ec_loss_and_grad": lambda a, t, p: consistency.ec_loss_and_grad(a, p, CFG)[0],
    **TARGET_LOSSES,
}

NON_FINITE = (np.nan, np.inf, -np.inf)


@st.composite
def _magnitude_with(draw, defect):
    """A magnitude with ``defect`` and the frame count a good one would have."""
    m = draw(FRAMES)
    if defect == "1-D":
        return np.ones(draw(st.integers(1, 64))), m
    if defect == "no frames":
        return np.ones((0, 64)), m
    mag = np.random.default_rng(draw(st.integers(0, 99))).uniform(0.0, 1.0, (m, 64))
    i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, 63))
    bad = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}
    mag[i, j] = bad[defect] if defect in bad else draw(
        st.floats(max_value=0.0, exclude_max=True, allow_infinity=False))
    return mag, m


@pytest.mark.parametrize("defect", ["nan", "inf", "-inf", "negative", "1-D", "no frames"])
@pytest.mark.parametrize("name", MAGNITUDE_TAKERS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_bad_magnitude_is_an_input_error(name, defect, data):
    mag, m = data.draw(_magnitude_with(defect))
    with pytest.raises(sc.InputError, match="magnitude"):
        MAGNITUDE_TAKERS[name](mag, np.zeros((m, 64)))


@pytest.mark.parametrize("defect", ["non-finite", "frame count", "1-D"])
@pytest.mark.parametrize("name", OUTSIDE_PHASE_TAKERS)
@settings(max_examples=8, deadline=None)
@given(m=FRAMES, data=st.data())
def test_bad_outside_phase_is_an_input_error(name, defect, m, data):
    phase = np.zeros((m, 64))
    if defect == "non-finite":
        phase[data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, 63))] = (
            data.draw(st.sampled_from(NON_FINITE)))
    elif defect == "frame count":
        phase = np.zeros((data.draw(st.sampled_from([m - 1, m + 1])), 64))
    else:
        phase = np.zeros(64)
    with pytest.raises(sc.InputError, match="phase"):
        OUTSIDE_PHASE_TAKERS[name](np.ones((m, 64)), phase)


@pytest.mark.parametrize("name", ITERATE_TAKERS)
@settings(max_examples=8, deadline=None)
@given(m=FRAMES, data=st.data())
def test_non_finite_iterate_gives_a_non_finite_value(name, m, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 99)))
    mag = rng.uniform(0.5, 1.0, (m, 64))
    target, iterate = rng.uniform(-np.pi, np.pi, (2, m, 64))
    iterate[data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, 63))] = (
        data.draw(st.sampled_from(NON_FINITE)))
    with np.errstate(all="ignore"):  # as in the solvers, which raise DivergenceError
        out = ITERATE_TAKERS[name](mag, target, iterate)
    assert not np.all(np.isfinite(out))


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("call", [
    lambda h: metrics.consistency_measure(h, CFG),
], ids=["consistency_measure"])
def test_a_non_finite_bare_spectrogram_is_an_input_error(call, bad):
    # loss_ec, residual and overlap_add stay permissive: a diverged iterate must
    # give a non-finite loss
    h = np.ones((5, 64), complex)
    h[2, 7] = bad
    with pytest.raises(sc.InputError, match="spectrogram contains non-finite entries"):
        call(h)


@pytest.mark.parametrize("call", [
    lambda x: pl.loss_cos(x, x), lambda x: pl.loss_aw(x, x),
    lambda x: pl.loss_with_derivatives(x, x, "cos"),
    lambda x: metrics.spectral_convergence(x + 1.0, x + 1.0),
], ids=["loss_cos", "loss_aw", "loss_with_derivatives", "spectral_convergence"])
def test_a_one_d_array_is_an_input_error(call):
    with pytest.raises(sc.InputError, match="2-D"):
        call(np.zeros(5))


@pytest.mark.parametrize("call", [
    lambda x, path: sc.Signal(x),
    lambda x, path: sc.stft(x, CFG),
    lambda x, path: sc.write_wav(x, sc.WavMeta(8000, 1, "float32", 10), path),
], ids=["Signal", "stft", "write_wav"])
def test_a_signal_is_one_d(tmp_path, call):
    path = tmp_path / "x.wav"
    with pytest.raises(sc.InputError, match="1-D"):
        call(np.ones((2, 5)) * 0.1, path)
    assert not path.exists()


# name -> f(mag, target, p_est) -> the array arguments it passed, for every
# public one-shot form of a phase loss
ONE_SHOT_LOSSES = {
    "loss_cos": lambda a, t, p: (pl.loss_cos(t, p), (t, p)),
    "cos_value_and_grad": lambda a, t, p: (pl.cos_value_and_grad(t, p), (t, p)),
    "loss_aw": lambda a, t, p: (pl.loss_aw(t, p), (t, p)),
    "aw_value_and_grad": lambda a, t, p: (pl.aw_value_and_grad(t, p), (t, p)),
    "loss_complex": lambda a, t, p: (pl.loss_complex(t, p, a, "L1"), (t, p, a)),
    "complex_value_and_grad": lambda a, t, p: (pl.complex_value_and_grad(t, p, a),
                                               (t, p, a)),
    "loss_time": lambda a, t, p: (pl.loss_time(t, p, a, CFG, "L1"), (t, p, a)),
    "time_value_and_grad": lambda a, t, p: (pl.time_value_and_grad(t, p, a, CFG),
                                            (t, p, a)),
    "loss_with_derivatives": lambda a, t, p: (pl.loss_with_derivatives(t, p, "aw"),
                                              (t, p)),
    "derivative_value_and_grad": lambda a, t, p: (
        pl.derivative_value_and_grad(t, p, "cos"), (t, p)),
    "loss_report_no_mag": lambda a, t, p: (pl.loss_report("cos_derv", t, p), (t, p)),
    **{f"loss_report_{name}": (lambda name: lambda a, t, p: (
        pl.loss_report(name, t, p, a, CFG), (t, p, a)))(name) for name in pl.LOSSES},
}


@pytest.mark.parametrize("name", ONE_SHOT_LOSSES)
def test_a_one_shot_loss_checks_each_array_once(monkeypatch, name):
    checked = []  # no stft function that a loss calls applies a rule itself
    for rule in ("_magnitude", "_phase"):
        original = getattr(pl, rule)
        monkeypatch.setattr(pl, rule, lambda x, *args, _rule=original, **kwargs: (
            checked.append(id(x)), _rule(x, *args, **kwargs))[1])
    rng = np.random.default_rng(3)
    mag = rng.uniform(0.0, 1.0, (6, 64))
    target, iterate = rng.uniform(-np.pi, np.pi, (2, 6, 64))
    _, arrays = ONE_SHOT_LOSSES[name](mag, target, iterate)
    assert sorted(checked) == sorted(map(id, arrays))


@pytest.mark.parametrize("loss", solvers.LOSSES)
def test_no_check_runs_inside_a_solver_iteration(monkeypatch, loss):
    calls = []
    for module in (consistency, pl, solvers):
        for rule in ("_magnitude", "_phase"):
            original = getattr(module, rule)
            monkeypatch.setattr(module, rule, lambda *args, _rule=original, **kwargs: (
                calls.append(1), _rule(*args, **kwargs))[1])
    rng = np.random.default_rng(5)
    mag, target = rng.uniform(0.0, 1.0, (6, 64)), rng.uniform(-np.pi, np.pi, (6, 64))

    def checks(iters):
        calls.clear()
        opts = sc.SolverOptions(max_iters=iters)
        if loss == "ec":
            solvers.griffin_lim(mag, opts, CFG)
        solvers.gd_reconstruct(mag, loss, None if loss == "ec" else target, opts, CFG)
        return len(calls)

    assert checks(1) == checks(6) > 0
