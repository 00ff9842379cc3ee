import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specconsist as sc
from specconsist import phase_losses as pl
from specconsist import consistency, solvers
from specconsist.consistency import get_kernel, loss_ec
from specconsist.solvers import SolverOptions, gd_reconstruct, griffin_lim
from specconsist.stft import _polar, _sum_squares, istft, signal_length, stft

# Frozen once from this implementation (two-sinusoid magnitude, defaults,
# seed 7); guards the descent path against regressions.
PINNED_TWO_SINE_FINAL_MEASURE = 0.8306742551958363


def two_sine_magnitude(cfg):
    # amplitudes keep |H| of order one so the default 1e-3 step is stable
    sig = sc.synth("multisine",
                   {"freqs": [300.0, 700.0], "amps": [0.05, 0.04]},
                   8000, 0.25)
    return stft(sig, cfg).magnitude, sig


def reference_gla_projection(mag, phase, config):
    """H = mag e^{jP} and its projection STFT(iSTFT(H)), from the public transforms.

    H comes from the library's polar builder, as in ``griffin_lim``, so that
    ``final_loss`` can be compared bitwise.
    """
    m = mag.shape[0]
    sig_len = m * config.hop - config.window_len + config.hop
    h = _polar(phase, mag)
    x = istft(sc.Spectrogram(h, config), length=sig_len)
    return h, stft(x, config).data


def reference_gla_inconsistency(mag, phase, config):
    """Independent recomputation of the inconsistency measure.

    Sums with the library's own reduction, so equal results are bitwise equal.
    """
    h, z = reference_gla_projection(mag, phase, config)
    return _sum_squares(h - z)


def reference_griffin_lim(mag, opts, config):
    """The three-transform Griffin-Lim iteration, as the oracle of ``griffin_lim``.

    Each iteration projects H = mag * c with ``istft`` and ``stft``, scores the
    trace's measure with a separate ``loss_ec``, and carries the unit phasor
    c = Z/|Z|, the previous c where Z = 0. The phase is the angle of c where Z
    was ever nonzero, the initial phase elsewhere. A non-finite inconsistency
    raises DivergenceError with the records so far.
    """
    phase = solvers._initial_phase(mag.shape, opts)
    unit, moved = _polar(phase), np.zeros(mag.shape, bool)
    sig_len = signal_length(mag.shape[0], config)
    trace = solvers.SolveTrace()
    prev = None
    with np.errstate(invalid="ignore", over="ignore"):
        norm_sq = float(np.sum(mag ** 2))
        for k in range(opts.max_iters):
            h = mag * unit
            z = stft(istft(sc.Spectrogram(h, config), length=sig_len), config).data
            inconsistency = _sum_squares(h - z)
            measure = solvers._normalized(loss_ec(h, config), norm_sq)
            trace.records.append(solvers.TraceRecord(k, inconsistency, measure, 0.0))
            if not np.isfinite(inconsistency):
                raise sc.DivergenceError(
                    f"inconsistency became non-finite at iteration {k}", trace=trace)
            r = np.abs(z)
            nz = r > 0.0
            with np.errstate(divide="ignore"):
                normalized = np.empty_like(z)
                normalized.real, normalized.imag = z.real / r, z.imag / r
            unit, moved = np.where(nz, normalized, unit), moved | nz
            if prev is not None and opts.tolerance > 0 and (prev - inconsistency) < opts.tolerance:
                break
            prev = inconsistency
    phase = np.where(moved, np.angle(unit), phase)
    trace.best_iteration = len(trace.records) - 1
    trace.final_loss = reference_gla_inconsistency(mag, phase, config)
    return phase, trace


def reference_griffin_lim_by_angle(mag, opts, config):
    """Griffin-Lim that takes each iterate's angle, then its cos and sin.

    The loop ``griffin_lim`` ran before it carried the unit phasor; the two
    differ at rounding level (see ``test_stays_near_the_angle_loop``).
    """
    phase = solvers._initial_phase(mag.shape, opts)
    losses = []
    for _ in range(opts.max_iters):
        h, z = reference_gla_projection(mag, phase, config)
        losses.append(_sum_squares(h - z))
        phase = np.where(np.abs(z) > 0.0, np.angle(z), phase)
    return phase, np.array(losses), reference_gla_inconsistency(mag, phase, config)


def half_projection(h, config, sig_len):
    """``(measure, Z, inconsistency)`` of the Hermitian H whose N/2+1 bins are ``h``.

    Three transforms: u = irfft(h), a written-out overlap-add of N*S*u, and
    Z = rfft of the analysis-windowed frames of its ``sig_len`` kept samples.
    The measure is N * ||W * frame(y) - u||^2 before the padding is zeroed, and
    the inconsistency ||H - Z||^2 is N * ||W * frame(y) - u||^2 after (Parseval).
    """
    n, r = config.window_len, config.hop
    u = np.fft.irfft(h, n, axis=1)
    y = np.zeros((len(h) - 1) * r + n)
    for m, frame in enumerate(u * (n * config.synthesis_window)):
        y[m * r : m * r + n] += frame
    frames = np.lib.stride_tricks.sliding_window_view(y, n)[::r]
    measure = n * _sum_squares(frames * config.analysis_window - u)
    y[: n - r] = 0.0
    y[n - r + sig_len :] = 0.0
    f = frames * config.analysis_window
    return measure, np.fft.rfft(f, axis=1), n * _sum_squares(f - u)


def half_split(full, config, sig_len):
    """``half_projection``'s triple for any M x N array: its Hermitian part is
    projected, and its anti-Hermitian part A adds ||A||^2 and ||C A||^2."""
    n = config.window_len
    k = n // 2 + 1
    mirror = np.conj(full[:, [-j for j in range(k)]])
    hermitian, anti = (full[:, :k] + mirror) / 2, (full[:, :k] - mirror) / 2
    measure, z, inconsistency = half_projection(hermitian, config, sig_len)
    b = anti * -1j  # A = jB with B Hermitian, so ||C A|| = ||C B||
    return (measure + half_projection(b, config, sig_len)[0], z,
            inconsistency + n * _sum_squares(np.fft.irfft(b, n, axis=1)))


def reference_half_griffin_lim(mag, opts, config):
    """Griffin-Lim on N/2+1 bins, as the bitwise oracle of ``griffin_lim``.

    The magnitude is its mirror-symmetric part. Record 0 and ``final_loss``
    score the full array with ``half_split``; every other record projects
    mag * c on N/2+1 bins with ``half_projection``, and c becomes Z/|Z| where Z
    is nonzero. The phase is the odd extension of the angle of c on bins that
    moved, the initial phase elsewhere.
    """
    n = config.window_len
    k = n // 2 + 1
    phase = solvers._initial_phase(mag.shape, opts)
    sig_len = signal_length(mag.shape[0], config)
    trace = solvers.SolveTrace()
    prev = None
    with np.errstate(invalid="ignore", over="ignore"):
        mag = (mag + mag[:, [-j for j in range(n)]]) / 2
        norm_sq = float(np.sum(mag ** 2))
        unit, moved = _polar(phase[:, :k]), np.zeros((mag.shape[0], k), bool)
        for it in range(opts.max_iters):
            measure, z, inconsistency = (
                half_split(_polar(phase, mag), config, sig_len) if it == 0
                else half_projection(mag[:, :k] * unit, config, sig_len))
            trace.records.append(solvers.TraceRecord(
                it, inconsistency, solvers._normalized(measure, norm_sq), 0.0))
            if not np.isfinite(inconsistency):
                raise sc.DivergenceError(
                    f"inconsistency became non-finite at iteration {it}", trace=trace)
            r = np.abs(z)
            nz = r > 0.0
            with np.errstate(divide="ignore"):
                normalized = np.empty_like(z)
                normalized.real, normalized.imag = z.real / r, z.imag / r
            unit, moved = np.where(nz, normalized, unit), moved | nz
            if prev is not None and opts.tolerance > 0 and (prev - inconsistency) < opts.tolerance:
                break
            prev = inconsistency
        angle, out = np.angle(unit), phase.copy()
        for j in range(n):
            partner = min(j, n - j)
            sign = 1.0 if j == partner else -1.0
            out[:, j] = np.where(moved[:, partner], sign * angle[:, partner], phase[:, j])
        trace.best_iteration = len(trace.records) - 1
        trace.final_loss = half_split(_polar(out, mag), config, sig_len)[2]
    return out, trace


# Every loss through its public value-and-gradient function; ``ec`` takes no
# target and builds a fresh workspace per call.
PUBLIC_LOSSES = {
    "ec": lambda t, p, mag, cfg: consistency.ec_loss_and_grad(mag, p, cfg),
    "cos": lambda t, p, mag, cfg: pl.cos_value_and_grad(t, p),
    "aw": lambda t, p, mag, cfg: pl.aw_value_and_grad(t, p),
    "comp_l1": lambda t, p, mag, cfg: pl.complex_value_and_grad(t, p, mag, "L1"),
    "comp_l2": lambda t, p, mag, cfg: pl.complex_value_and_grad(t, p, mag, "L2"),
    "time_l1": lambda t, p, mag, cfg: pl.time_value_and_grad(t, p, mag, cfg, "L1"),
    "time_l2": lambda t, p, mag, cfg: pl.time_value_and_grad(t, p, mag, cfg, "L2"),
    "cos_derv": lambda t, p, mag, cfg: pl.derivative_value_and_grad(t, p, "cos"),
    "aw_derv": lambda t, p, mag, cfg: pl.derivative_value_and_grad(t, p, "aw"),
}


def reference_gd_reconstruct(mag, loss, target, opts, config):
    """Gradient descent on any loss, as the oracle of ``gd_reconstruct``.

    Each iteration calls the loss's public function, which builds its own
    ``mag * exp(1j * phase)`` (a time loss also resynthesizes its target). The
    trace's measure is the normalized ``ec`` value itself for ``ec``, and
    ``loss_ec`` of another such array for every other loss. A non-finite loss
    raises DivergenceError with the records so far.
    """
    phase = solvers._initial_phase(mag.shape, opts)
    use_c1c2 = opts.parameterization == "c1_c2"
    if use_c1c2:
        c1, c2 = np.sin(phase), np.cos(phase)
    trace = solvers.SolveTrace()
    best_loss, best_phase, prev = np.inf, phase.copy(), None
    with np.errstate(invalid="ignore", over="ignore"):
        norm_sq = float(np.sum(mag ** 2))
        for k in range(opts.max_iters):
            if use_c1c2:
                phase = np.arctan2(c1, c2)
            value, grad = PUBLIC_LOSSES[loss](target, phase, mag, config)
            ec = value if loss == "ec" else loss_ec(mag * np.exp(1j * phase), config)
            measure = solvers._normalized(ec, norm_sq)
            step = solvers._step_size(k, opts, mag.max() ** 2)
            trace.records.append(solvers.TraceRecord(k, value, measure, step))
            if not np.isfinite(value):
                raise sc.DivergenceError(
                    f"loss {loss!r} became non-finite at iteration {k}", trace=trace)
            if value < best_loss:
                best_loss, best_phase, trace.best_iteration = value, phase.copy(), k
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


def run_both(solve, oracle):
    """Both runs' ``(phase, trace, message)``; a divergence gives ``(None, trace, message)``."""
    runs = []
    for run in (solve, oracle):
        try:
            runs.append((*run(), None))
        except sc.DivergenceError as exc:
            runs.append((None, exc.trace, str(exc)))
    return runs


def assert_same_run(got, want):
    """Equal phases, losses, steps, best iterations, final losses and messages.

    The measures agree to 1e-15 relative; a diverging run's are NaN at the last
    record in both.
    """
    (phase, trace, message), (want_phase, want, want_message) = got, want
    assert message == want_message
    if message is None:
        np.testing.assert_array_equal(phase, want_phase)
    else:
        assert phase is None and want_phase is None
    np.testing.assert_array_equal(trace.losses, want.losses)
    np.testing.assert_array_equal([r.step_size for r in trace.records],
                                  [r.step_size for r in want.records])
    assert trace.best_iteration == want.best_iteration
    assert trace.final_loss == want.final_loss
    np.testing.assert_allclose(trace.consistency_measures, want.consistency_measures,
                               rtol=1e-15, atol=0)


def draw_gla_case(draw, symmetric):
    """``(mag, opts, config)``: an STFT magnitude with drawn zeros and scale, and
    drawn options. With ``symmetric`` the zero mask is mirror-symmetric."""
    n, r, kind = draw(st.sampled_from([(16, 4, "rectangular"), (64, 16, "hann"),
                                       (48, 12, "hann"), (512, 128, "hann"),
                                       (63, 21, "hann")]))
    config = sc.make_config(n, r, kind)
    m = draw(st.integers(n // r, 140))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    mag = stft(rng.standard_normal(signal_length(m, config)), config).magnitude
    zero = rng.random(mag.shape) < draw(st.sampled_from([0.0, 0.1, 1.0]))
    mag[zero | zero[:, -np.arange(n)] if symmetric else zero] = 0.0
    mag *= draw(st.sampled_from([1.0, 1.0, 1e154]))  # 1e154: ||H||^2 overflows
    init = draw(st.sampled_from(["zeros", "random_uniform", "provided"]))
    opts = SolverOptions(
        max_iters=draw(st.integers(1, 6)), init=init, seed=draw(st.integers(0, 9)),
        tolerance=draw(st.sampled_from([0.0, 1e-3, 1.0])),
        init_phase=rng.uniform(-np.pi, np.pi, mag.shape) if init == "provided" else None)
    return mag, opts, config


class TestGriffinLim:
    def test_consistent_input_is_fixed_point(self, cfg_256_64, rng):
        x = rng.standard_normal(1200)
        spec = stft(x, cfg_256_64)
        mag, phase = spec.magnitude, spec.phase
        opts = SolverOptions(max_iters=5, init="provided", init_phase=phase)
        out_phase, trace = griffin_lim(mag, opts, cfg_256_64)
        norm_sq = float(np.sum(mag ** 2))
        assert all(rec.loss < 1e-20 * norm_sq for rec in trace.records)
        assert np.abs(out_phase - phase).max() < 1e-10

    def test_monotone_and_matches_independent_recomputation(self, cfg_256_64, rng):
        x = rng.standard_normal(1500)
        mag = stft(x, cfg_256_64).magnitude
        opts = SolverOptions(max_iters=40, init="random_uniform", seed=11)
        phase, trace = griffin_lim(mag, opts, cfg_256_64)
        losses = trace.losses
        assert np.all(np.diff(losses) <= 0)
        # oracle: replay the iteration with public ops and compare the trace
        p = np.pi - np.random.default_rng(11).uniform(0, 2 * np.pi, mag.shape)
        for k in range(10):
            expected = reference_gla_inconsistency(mag, p, cfg_256_64)
            assert abs(trace.records[k].loss - expected) <= 1e-9 * max(expected, 1.0)
            z = reference_gla_projection(mag, p, cfg_256_64)[1]
            p = np.where(np.abs(z) > 0, np.angle(z), p)

    def test_zero_magnitude_returns_phase_unchanged(self, cfg_64_16, rng):
        mag = np.zeros((8, 64))
        init = rng.uniform(-np.pi, np.pi, (8, 64))
        opts = SolverOptions(max_iters=3, init="provided", init_phase=init)
        phase, trace = griffin_lim(mag, opts, cfg_64_16)
        np.testing.assert_array_equal(phase, init)
        assert all(rec.loss == 0.0 for rec in trace.records)

    def test_negative_magnitude_rejected(self, cfg_64_16):
        opts = SolverOptions(max_iters=1)
        with pytest.raises(sc.InputError):
            griffin_lim(-np.ones((8, 64)), opts, cfg_64_16)

    def test_tolerance_stops_early(self, cfg_256_64, rng):
        x = rng.standard_normal(1200)
        spec = stft(x, cfg_256_64)
        opts = SolverOptions(max_iters=50, init="provided",
                             init_phase=spec.phase, tolerance=1e-12)
        _, trace = griffin_lim(spec.magnitude, opts, cfg_256_64)
        assert len(trace.records) < 50

    @pytest.mark.parametrize("tolerance", [0.0, 1e-3])
    def test_final_loss_scores_returned_phase(self, cfg_256_64, rng, tolerance):
        # Scored on N/2+1 bins, as the solver scores it: the full-band sum of
        # ``reference_gla_inconsistency`` agrees only to rounding.
        mag = stft(rng.standard_normal(1500), cfg_256_64).magnitude
        opts = SolverOptions(max_iters=20, seed=4, tolerance=tolerance)
        phase, trace = griffin_lim(mag, opts, cfg_256_64)
        sym = (mag + mag[:, -np.arange(256)]) / 2
        assert trace.final_loss == half_split(
            _polar(phase, sym), cfg_256_64, signal_length(len(mag), cfg_256_64))[2]
        assert trace.final_loss <= trace.records[-1].loss

    def test_takes_only_real_transforms(self, cfg_256_64, rng, monkeypatch):
        # One irfft and one rfft per iteration on N/2+1 bins; record 0 and
        # final_loss take one more irfft each, for the anti-Hermitian part of
        # a phase that need not be odd. No complex fft or ifft.
        mag = stft(rng.standard_normal(1500), cfg_256_64).magnitude
        calls = []
        for name in ("fft", "ifft", "rfft", "irfft"):
            spied = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name, lambda *args, _f=spied, _name=name, **kw:
                                calls.append(_name) or _f(*args, **kw))
        griffin_lim(mag, SolverOptions(max_iters=7), cfg_256_64)
        assert sorted(calls) == ["irfft"] * 10 + ["rfft"] * 8

    @pytest.mark.parametrize("n, r", [(64, 16), (63, 21)])
    def test_a_magnitude_and_its_symmetric_part_give_the_same_run(self, rng, n, r):
        config = sc.make_config(n, r)
        mag = rng.random((12, n))  # far from mirror-symmetric
        sym = (mag + mag[:, -np.arange(n)]) / 2
        for init in ("zeros", "random_uniform"):
            opts = SolverOptions(max_iters=8, init=init, seed=2)
            got, want = run_both(lambda: griffin_lim(mag, opts, config),
                                 lambda: griffin_lim(sym, opts, config))
            assert_same_run(got, want)
            np.testing.assert_array_equal(got[1].consistency_measures,
                                          want[1].consistency_measures)

    @pytest.mark.parametrize("n, r, kind", [(64, 16, "hann"), (63, 21, "hann"),
                                            (16, 16, "rectangular")])
    def test_returned_phase_is_odd_on_moved_bins(self, rng, n, r, kind):
        config = sc.make_config(n, r, kind)
        mag = stft(rng.standard_normal(signal_length(20, config)), config).magnitude
        # Q = 1 keeps frames apart: frame 2's projection is zero, so it never moves
        mag[2] = 0.0 if r == n else mag[2]
        init = rng.uniform(-np.pi, np.pi, mag.shape)
        opts = SolverOptions(max_iters=5, init="provided", init_phase=init)
        phase, _ = griffin_lim(mag, opts, config)
        moved = np.ones(len(mag), bool)
        moved[2] = r != n
        np.testing.assert_array_equal(phase[~moved], init[~moved])
        own = [0, n // 2] if n % 2 == 0 else [0]  # bins that are their own mirror
        pairs = np.setdiff1d(np.arange(n), own)
        np.testing.assert_array_equal(phase[moved][:, pairs],
                                      -phase[moved][:, -pairs])
        assert set(np.abs(phase[moved][:, own]).ravel()) <= {0.0, np.pi}

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_matches_the_three_transform_oracle(self, data):
        # At N = 48 the scaling by N*S rounds; the oracle and the solver scale
        # in one pass, in the same order, so the projection stays bitwise. At
        # N = 63 there is no Nyquist bin. Zero masks need not be symmetric.
        mag, opts, config = draw_gla_case(data.draw, symmetric=False)
        assert_same_run(*run_both(lambda: griffin_lim(mag, opts, config),
                                  lambda: reference_half_griffin_lim(mag, opts, config)))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_stays_near_the_full_band_oracle(self, data):
        # The half-spectrum iteration is the full-band algorithm to rounding.
        # Over 6400 draws of this strategy, records, messages and best iterations
        # agreed. Over 3200 of them the losses and final_loss moved at most
        # 6.3e-16 of sum(mag^2), the squared measure 5.6e-16 and the
        # magnitude-weighted phase 7.4e-15 of sum(mag). Relative to the loss
        # itself a near-consistent iterate moved up to 1.2e-13 (16/4
        # rectangular, loss 1e-6 of sum(mag^2)), so the bounds are at the scale
        # of the magnitude, with about 10x of margin. Zero masks are
        # mirror-symmetric, so the magnitude is symmetric to rounding.
        mag, opts, config = draw_gla_case(data.draw, symmetric=True)
        (phase, trace, message), (want_phase, want, want_message) = run_both(
            lambda: griffin_lim(mag, opts, config),
            lambda: reference_griffin_lim(mag, opts, config))
        assert message == want_message
        assert len(trace.records) == len(want.records)
        if message is not None:
            return
        assert trace.best_iteration == want.best_iteration
        scale = np.sum(mag ** 2)
        np.testing.assert_allclose(trace.losses, want.losses, rtol=0, atol=6e-15 * scale)
        np.testing.assert_allclose(trace.consistency_measures ** 2,
                                   want.consistency_measures ** 2, rtol=0, atol=6e-15)
        assert abs(trace.final_loss - want.final_loss) <= 6e-15 * scale
        moved = np.abs(np.angle(np.exp(1j * (phase - want_phase))))
        assert np.sum(mag * moved) <= 7e-14 * np.sum(mag)

    @pytest.mark.parametrize("kind, params", [
        ("sine", {"freq": 440.0, "amp": 0.6}),
        ("multisine", {"freqs": [300.0, 700.0, 1500.0], "amps": [0.4, 0.3, 0.2]}),
        ("chirp", {"f0": 100.0, "f1": 2000.0, "amp": 0.7}),
        ("noise", {"amp": 0.4, "seed": 5}),
        ("impulse", {"position": 600}),
    ])
    def test_stays_near_the_angle_loop(self, cfg_256_64, kind, params):
        # Carrying Z/|Z| on N/2+1 bins in place of cos and sin of angle(Z) on all
        # N moves each iterate at rounding level. Over seeds 0-39 of these
        # magnitudes at 100 iterations the loss moved at most 8.1e-14 relative in
        # 199 runs and 3.7e-13 in one (noise, seed 5), final_loss 3.5e-14, and
        # the magnitude-weighted phase 1.0e-12 of sum(mag). The bounds below,
        # set when the loop was full-band (7.7e-14, 2.4e-14 and 4.5e-13 then),
        # keep at least 2.7x of margin.
        mag = stft(sc.synth(kind, params, 8000, 0.16), cfg_256_64).magnitude
        for seed in (0, 1):
            opts = SolverOptions(max_iters=100, seed=seed)
            phase, trace = griffin_lim(mag, opts, cfg_256_64)
            want_phase, want_losses, want_final = reference_griffin_lim_by_angle(
                mag, opts, cfg_256_64)
            np.testing.assert_allclose(trace.losses, want_losses, rtol=1e-12, atol=0)
            assert abs(trace.final_loss - want_final) <= 1e-12 * want_final
            moved = np.abs(np.angle(np.exp(1j * (phase - want_phase))))
            assert np.sum(mag * moved) <= 1e-11 * np.sum(mag)

    @pytest.mark.parametrize("scale", [1e154, 1e300, 1e307])
    def test_overflow_raises_divergence_with_trace(self, cfg_64_16, scale):
        with pytest.raises(sc.DivergenceError) as excinfo:
            griffin_lim(np.full((6, 64), scale), SolverOptions(max_iters=3), cfg_64_16)
        records = excinfo.value.trace.records
        assert len(records) == 1 and not np.isfinite(records[0].loss)


class TestGdReconstruct:
    def test_pinned_two_sine_regression(self, cfg_256_64):
        mag, _ = two_sine_magnitude(cfg_256_64)
        opts = SolverOptions(seed=7)  # library defaults otherwise
        phase, trace = gd_reconstruct(mag, "ec", None, opts, cfg_256_64)
        first = trace.records[0].consistency_measure
        final = trace.records[trace.best_iteration].consistency_measure
        assert final < first
        assert abs(final - PINNED_TWO_SINE_FINAL_MEASURE) \
            < 1e-9 * PINNED_TWO_SINE_FINAL_MEASURE

    def test_aw_at_global_minimum_keeps_phase(self, cfg_256_64, rng):
        x = rng.standard_normal(900)
        spec = stft(x, cfg_256_64)
        opts = SolverOptions(max_iters=5, init="provided", init_phase=spec.phase)
        phase, trace = gd_reconstruct(spec.magnitude, "aw", spec.phase,
                                      opts, cfg_256_64)
        np.testing.assert_array_equal(phase, spec.phase)
        assert trace.records[0].loss == 0.0

    def test_ec_ignores_global_shift_of_clean_phase(self, cfg_256_64, rng):
        x = 0.01 * rng.standard_normal(900)
        spec = stft(x, cfg_256_64)
        norm_sq = float(np.sum(spec.magnitude ** 2))
        opts = SolverOptions(max_iters=10, init="provided",
                             init_phase=spec.phase + np.pi / 3)
        _, trace = gd_reconstruct(spec.magnitude, "ec", None, opts, cfg_256_64)
        assert all(rec.loss < 1e-16 * norm_sq for rec in trace.records)

    def test_ec_forbids_target_phase(self, cfg_64_16):
        opts = SolverOptions(max_iters=1)
        with pytest.raises(sc.InputError):
            gd_reconstruct(np.ones((8, 64)), "ec", np.zeros((8, 64)),
                           opts, cfg_64_16)

    def test_target_losses_require_target(self, cfg_64_16):
        opts = SolverOptions(max_iters=1)
        with pytest.raises(sc.InputError):
            gd_reconstruct(np.ones((8, 64)), "cos", None, opts, cfg_64_16)

    def test_phase_shift_neutral_trace(self, cfg_64_16, rng):
        mag = rng.uniform(0, 1, (10, 64))
        init = rng.uniform(-np.pi, np.pi, (10, 64))
        step = 0.05
        base_opts = dict(max_iters=50, step_rule="fixed", initial_step=step,
                         final_step=step)
        _, t1 = gd_reconstruct(mag, "ec", None,
                               SolverOptions(init="provided", init_phase=init,
                                             **base_opts), cfg_64_16)
        _, t2 = gd_reconstruct(mag, "ec", None,
                               SolverOptions(init="provided",
                                             init_phase=init + 1.234,
                                             **base_opts), cfg_64_16)
        l1, l2 = t1.losses, t2.losses
        assert np.abs(l1 - l2).max() <= 1e-9 * np.abs(l1).max()

    @pytest.mark.parametrize("loss", ["ec", "cos", "aw", "comp_l2", "time_l2"])
    def test_final_loss_at_most_initial(self, cfg_64_16, rng, loss):
        mag = rng.uniform(0, 1, (8, 64))
        target = None if loss == "ec" else rng.uniform(-np.pi, np.pi, (8, 64))
        opts = SolverOptions(max_iters=30, step_rule="fixed", initial_step=0.05,
                             final_step=0.05, seed=3)
        phase, trace = gd_reconstruct(mag, loss, target, opts, cfg_64_16)
        kernel = get_kernel(cfg_64_16)
        if loss == "ec":
            final = sc.loss_ec_phase(mag, phase, kernel)
        else:
            final, _ = PUBLIC_LOSSES[loss](target, phase, mag, cfg_64_16)
        assert final <= trace.records[0].loss * (1 + 1e-12)

    @pytest.mark.parametrize("loss", ["ec", "cos", "time_l2"])
    def test_final_loss_is_best_record(self, cfg_64_16, rng, loss):
        mag = rng.uniform(0, 1, (8, 64))
        target = None if loss == "ec" else rng.uniform(-np.pi, np.pi, (8, 64))
        opts = SolverOptions(max_iters=30, step_rule="fixed", initial_step=0.5,
                             final_step=0.5, seed=3)
        _, trace = gd_reconstruct(mag, loss, target, opts, cfg_64_16)
        assert trace.final_loss == trace.records[trace.best_iteration].loss

    def test_deterministic_traces(self, cfg_64_16, rng):
        mag = rng.uniform(0, 1, (8, 64))
        opts = dict(max_iters=20, seed=5, init="random_uniform")
        _, t1 = gd_reconstruct(mag, "ec", None, SolverOptions(**opts), cfg_64_16)
        _, t2 = gd_reconstruct(mag, "ec", None, SolverOptions(**opts), cfg_64_16)
        np.testing.assert_array_equal(t1.losses, t2.losses)

    def test_divergence_raises_with_trace(self, cfg_64_16, rng):
        target = rng.uniform(-np.pi, np.pi, (6, 64))
        # a finite step of 1e308 carries the phase past the float range
        opts = SolverOptions(max_iters=5, step_rule="fixed",
                             initial_step=1e308, final_step=1e308,
                             init="provided", init_phase=target + 0.1)
        with pytest.raises(sc.DivergenceError) as excinfo:
            gd_reconstruct(np.ones((6, 64)), "cos", target, opts, cfg_64_16)
        assert excinfo.value.trace is not None
        assert len(excinfo.value.trace.records) >= 2

    @pytest.mark.parametrize("loss", ["time_l1", "time_l2"])
    def test_time_loss_divergence_raises_with_trace(self, cfg_64_16, rng, loss):
        # The time loss resynthesizes a signal; a non-finite phase must come
        # back as a non-finite loss, not as an input error on that signal.
        # At a magnitude of 100 a step of 1e308 overflows the phase at iteration 1.
        target = rng.uniform(-np.pi, np.pi, (6, 64))
        opts = SolverOptions(max_iters=5, step_rule="fixed",
                             initial_step=1e308, final_step=1e308,
                             init="provided", init_phase=target + 0.1)
        with pytest.raises(sc.DivergenceError) as excinfo:
            gd_reconstruct(np.full((6, 64), 100.0), loss, target, opts, cfg_64_16)
        assert len(excinfo.value.trace.records) >= 2

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_the_public_loss_oracle(self, data):
        draw = data.draw
        n, r, kind = draw(st.sampled_from([(16, 4, "rectangular"), (64, 16, "hann"),
                                           (512, 128, "hann")]))
        config = sc.make_config(n, r, kind)
        m = draw(st.integers(n // r, 140 if n < 512 else 70))
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        mag = stft(rng.standard_normal(signal_length(m, config)), config).magnitude
        mag[rng.random(mag.shape) < draw(st.sampled_from([0.0, 0.1, 1.0]))] = 0.0
        target = rng.uniform(-np.pi, np.pi, mag.shape)
        loss = draw(st.sampled_from(sorted(PUBLIC_LOSSES)))
        if loss == "ec":
            target = None
        step = draw(st.sampled_from([1e-3, 0.05, 1e308]))  # 1e308: the iterate diverges
        opts = SolverOptions(
            max_iters=draw(st.integers(1, 6)), seed=draw(st.integers(0, 9)),
            step_rule=draw(st.sampled_from(solvers.STEP_RULES)), initial_step=step,
            init=draw(st.sampled_from(["zeros", "random_uniform"])),
            parameterization=draw(st.sampled_from(solvers.PARAMETERIZATIONS)),
            tolerance=draw(st.sampled_from([0.0, 1e-3, 1.0])))
        peak_sq = float(mag.max()) ** 2
        if opts.step_rule == "relative" and not (peak_sq > 0 and step / peak_sq < np.inf):
            with pytest.raises(sc.InputError):
                gd_reconstruct(mag, loss, target, opts, config)
            return
        assert_same_run(*run_both(
            lambda: gd_reconstruct(mag, loss, target, opts, config),
            lambda: reference_gd_reconstruct(mag, loss, target, opts, config)))

    @pytest.mark.parametrize("step", [0.05, 1e308])  # 1e308: the iterate diverges
    @pytest.mark.parametrize("parameterization", solvers.PARAMETERIZATIONS)
    @pytest.mark.parametrize("loss", list(solvers.LOSSES))
    def test_skipping_the_measure_changes_only_the_measure(self, cfg_64_16, loss,
                                                            parameterization, step):
        rng = np.random.default_rng(11)
        mag = rng.uniform(0, 100, (8, 64))
        mag[:, 5] = 0.0
        target = rng.uniform(-np.pi, np.pi, mag.shape) if solvers.LOSSES[loss][1] else None
        opts = dict(max_iters=6, step_rule="fixed", initial_step=step, final_step=step,
                    seed=3, parameterization=parameterization)
        got, want = run_both(
            lambda: gd_reconstruct(mag, loss, target, SolverOptions(**opts), cfg_64_16,
                                   measure=False),
            lambda: gd_reconstruct(mag, loss, target, SolverOptions(**opts), cfg_64_16))
        if target is None:  # ec's loss is its measure
            np.testing.assert_array_equal(got[1].consistency_measures,
                                          want[1].consistency_measures)
        else:
            assert np.isnan(got[1].consistency_measures).all()
            assert np.isfinite(want[1].consistency_measures[:-1]).all()
            for record in want[1].records:
                record.consistency_measure = np.nan
        assert_same_run(got, want)

    @pytest.mark.parametrize("loss", ["time_l1", "time_l2"])
    def test_time_loss_synthesizes_its_target_once(self, cfg_64_16, rng, monkeypatch,
                                                   loss):
        calls = []
        add_blocks = consistency._add_blocks
        # every overlap-add, by either module's name for it
        for module in (consistency, importlib.import_module("specconsist.stft")):
            monkeypatch.setattr(module, "_add_blocks",
                                lambda *args: calls.append(1) or add_blocks(*args))
        mag = rng.uniform(0, 1, (8, 64))
        target = rng.uniform(-np.pi, np.pi, (8, 64))
        _, trace = gd_reconstruct(mag, loss, target, SolverOptions(max_iters=7),
                                  cfg_64_16)
        assert len(trace.records) == 7
        # the target once; each iteration's estimate is the measure's overlap-add
        assert len(calls) == 1 + 7

    def test_c1_c2_parameterization_descends(self, cfg_64_16, rng):
        mag = rng.uniform(0, 1, (8, 64))
        opts = SolverOptions(max_iters=40, step_rule="fixed", initial_step=0.05,
                             final_step=0.05, seed=2,
                             parameterization="c1_c2")
        phase, trace = gd_reconstruct(mag, "ec", None, opts, cfg_64_16)
        assert np.all(np.isfinite(phase))
        best = trace.records[trace.best_iteration].loss
        assert best < trace.records[0].loss

    def test_cosine_anneal_schedule_endpoints(self, cfg_64_16, rng):
        mag = rng.uniform(0, 1, (6, 64))
        opts = SolverOptions(max_iters=11, step_rule="cosine_anneal",
                             initial_step=1e-3, final_step=1e-5, seed=0)
        _, trace = gd_reconstruct(mag, "ec", None, opts, cfg_64_16)
        steps = [rec.step_size for rec in trace.records]
        assert steps[0] == pytest.approx(1e-3)
        assert steps[-1] == pytest.approx(1e-5)

    def test_relative_step_is_the_hand_scaled_fixed_step(self, cfg_64_16, rng):
        mag = 3.0 * rng.uniform(0, 1, (8, 64))
        opts = SolverOptions(max_iters=12, step_rule="relative", initial_step=0.5, seed=4)
        step = 0.5 / mag.max() ** 2
        by_hand = SolverOptions(max_iters=12, step_rule="fixed", initial_step=step,
                                final_step=step, seed=4)
        phase, trace = gd_reconstruct(mag, "ec", None, opts, cfg_64_16)
        want_phase, want = gd_reconstruct(mag, "ec", None, by_hand, cfg_64_16)
        assert phase.tobytes() == want_phase.tobytes()
        assert [r.step_size for r in trace.records] == [step] * 12
        np.testing.assert_array_equal(trace.losses, want.losses)

    @pytest.mark.parametrize("peak", [0.0, 1e-160])
    def test_relative_step_rejects_a_vanishing_magnitude(self, cfg_64_16, peak):
        mag = np.zeros((8, 64))
        mag[3, 5] = peak
        opts = SolverOptions(max_iters=2, step_rule="relative", initial_step=0.5)
        with pytest.raises(sc.InputError, match="relative step"):
            gd_reconstruct(mag, "ec", None, opts, cfg_64_16)

    @settings(max_examples=30, deadline=None)
    @given(k=st.integers(-30, 30), seed=st.integers(0, 2**16),
           iters=st.integers(1, 8), zeros=st.sampled_from([0.0, 0.3]),
           parameterization=st.sampled_from(solvers.PARAMETERIZATIONS))
    def test_relative_step_trajectory_ignores_the_input_gain(self, k, seed, iters,
                                                             zeros, parameterization):
        config = sc.make_config(64, 16, "hann")
        rng = np.random.default_rng(seed)
        mag = rng.uniform(0.1, 2.0, (10, 64))
        mag[rng.random(mag.shape) < zeros] = 0.0
        opts = dict(max_iters=iters, step_rule="relative", initial_step=0.5,
                    seed=seed % 7, parameterization=parameterization)
        gain = 2.0 ** k
        phase, trace = gd_reconstruct(mag, "ec", None, SolverOptions(**opts), config)
        scaled, scaled_trace = gd_reconstruct(gain * mag, "ec", None,
                                              SolverOptions(**opts), config)
        # power-of-two scaling is exact: every iterate's H, loss and gradient
        # scale by 2**k, 4**k and 4**k, and the step by 4**-k
        assert scaled.tobytes() == phase.tobytes()
        np.testing.assert_array_equal(scaled_trace.losses, gain ** 2 * trace.losses)
        np.testing.assert_array_equal(scaled_trace.consistency_measures,
                                      trace.consistency_measures)
        assert [r.step_size * gain ** 2 for r in scaled_trace.records] == \
            [r.step_size for r in trace.records]

    def test_zeros_init(self, cfg_64_16, rng):
        mag = rng.uniform(0, 1, (8, 64))
        opts = SolverOptions(max_iters=10, step_rule="fixed", initial_step=0.05,
                             final_step=0.05, init="zeros")
        phase, trace = gd_reconstruct(mag, "ec", None, opts, cfg_64_16)
        assert np.all(np.isfinite(phase))
        assert len(trace.records) == 10

    def test_option_validation(self):
        with pytest.raises(sc.InputError):
            SolverOptions(max_iters=0).validate()
        with pytest.raises(sc.InputError):
            SolverOptions(initial_step=-1.0).validate()
        with pytest.raises(sc.InputError):
            SolverOptions(tolerance=-1e-3).validate()
        with pytest.raises(sc.InputError):
            SolverOptions(init="bogus").validate()

    def test_inits_are_zeros_random_and_provided(self):
        assert solvers.INITS == ("zeros", "random_uniform", "provided")
        with pytest.raises(sc.InputError, match="unknown init 'noisy_phase'"):
            SolverOptions(init="noisy_phase", init_phase=np.zeros((4, 64))).validate()

    @pytest.mark.parametrize("field", ["initial_step", "final_step", "tolerance"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, "0.01", True, 10**400])
    def test_non_finite_or_non_numeric_floats_are_input_errors(self, field, value):
        with pytest.raises(sc.InputError, match=f"{field} must be a finite number"):
            SolverOptions(**{field: value}).validate()

    def test_floats_of_any_number_type_become_floats(self):
        opts = SolverOptions(initial_step=1, final_step=np.float32(0.5), tolerance=0)
        opts.validate()
        assert (opts.initial_step, opts.final_step, opts.tolerance) == (1.0, 0.5, 0.0)
        assert all(type(v) is float
                   for v in (opts.initial_step, opts.final_step, opts.tolerance))

    @pytest.mark.parametrize("field, value", [
        ("max_iters", 2.5), ("max_iters", True), ("max_iters", np.float64(1.5)),
        ("seed", 1.5), ("seed", True), ("seed", np.bool_(False)),
    ])
    def test_non_integer_counts_are_input_errors(self, cfg_64_16, field, value):
        with pytest.raises(sc.InputError, match=f"{field} must be an integer"):
            SolverOptions(**{"max_iters": 2, field: value}).validate()
        mag, fields = np.ones((8, 64)), {"max_iters": 2, field: value}
        with pytest.raises(sc.InputError, match="must be an integer"):
            griffin_lim(mag, SolverOptions(**fields), cfg_64_16)
        with pytest.raises(sc.InputError, match="must be an integer"):
            gd_reconstruct(mag, "ec", None, SolverOptions(**fields), cfg_64_16)

    def test_integral_counts_of_any_number_type_run(self, cfg_64_16):
        opts = SolverOptions(max_iters=3.0, seed=np.int64(2))
        _, trace = griffin_lim(np.ones((8, 64)), opts, cfg_64_16)
        assert len(trace.records) == 3
        assert (opts.max_iters, opts.seed) == (3, 2)


class TestReconstructSignal:
    def test_clean_pair_recovers_signal(self, cfg_256_64, rng):
        x = rng.standard_normal(2000)
        spec = stft(x, cfg_256_64)
        y = sc.reconstruct_signal(spec.magnitude, spec.phase, cfg_256_64,
                                  length=2000)
        assert np.abs(y.samples - x).max() < 1e-10

    def test_pi_shift_negates_signal(self, cfg_256_64, rng):
        x = rng.standard_normal(2000)
        spec = stft(x, cfg_256_64)
        y = sc.reconstruct_signal(spec.magnitude, spec.phase + np.pi,
                                  cfg_256_64, length=2000)
        assert np.abs(y.samples + x).max() < 1e-10

    def test_zero_magnitude_zero_signal(self, cfg_64_16):
        y = sc.reconstruct_signal(np.zeros((8, 64)), np.ones((8, 64)), cfg_64_16)
        assert np.all(y.samples == 0)
