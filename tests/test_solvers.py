import numpy as np
import pytest

import specconsist as sc
from specconsist.consistency import get_kernel
from specconsist.solvers import SolverOptions, gd_reconstruct, griffin_lim
from specconsist.stft import istft, stft

# Frozen once from this implementation (two-sinusoid magnitude, defaults,
# seed 7); guards the descent path against regressions.
PINNED_TWO_SINE_FINAL_MEASURE = 0.8306742551958363


def two_sine_magnitude(cfg):
    # amplitudes keep |H| of order one so the default 1e-3 step is stable
    sig = sc.synth("multisine",
                   {"freqs": [300.0, 700.0], "amps": [0.05, 0.04]},
                   8000, 0.25)
    return stft(sig, cfg).magnitude, sig


def reference_gla_inconsistency(mag, phase, config):
    """Independent recomputation of the inconsistency measure."""
    m = mag.shape[0]
    sig_len = m * config.hop - config.window_len + config.hop
    h = mag * np.exp(1j * phase)
    x = istft(sc.Spectrogram(h, config), length=sig_len)
    z = stft(x, config).data
    return float(np.vdot(h - z, h - z).real)


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
            m = mag.shape[0]
            sig_len = m * cfg_256_64.hop - cfg_256_64.window_len + cfg_256_64.hop
            h = mag * np.exp(1j * p)
            z = stft(istft(sc.Spectrogram(h, cfg_256_64), length=sig_len),
                     cfg_256_64).data
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
        mag = stft(rng.standard_normal(1500), cfg_256_64).magnitude
        opts = SolverOptions(max_iters=20, seed=4, tolerance=tolerance)
        phase, trace = griffin_lim(mag, opts, cfg_256_64)
        assert trace.final_loss == reference_gla_inconsistency(mag, phase, cfg_256_64)
        assert trace.final_loss <= trace.records[-1].loss


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
            from specconsist.solvers import _loss_and_grad
            final, _ = _loss_and_grad(loss, mag, phase, target, cfg_64_16)
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
        # zero gradient at the optimum times an infinite step produces NaN
        opts = SolverOptions(max_iters=5, step_rule="fixed",
                             initial_step=np.inf, final_step=np.inf,
                             init="provided", init_phase=target.copy())
        with pytest.raises(sc.DivergenceError) as excinfo, \
                np.errstate(invalid="ignore"):
            gd_reconstruct(np.ones((6, 64)), "cos", target, opts, cfg_64_16)
        assert excinfo.value.trace is not None
        assert len(excinfo.value.trace.records) >= 2

    @pytest.mark.parametrize("loss", ["time_l1", "time_l2"])
    def test_time_loss_divergence_raises_with_trace(self, cfg_64_16, rng, loss):
        # The time loss resynthesizes a signal; a non-finite phase must come
        # back as a non-finite loss, not as an input error on that signal.
        target = rng.uniform(-np.pi, np.pi, (6, 64))
        opts = SolverOptions(max_iters=5, step_rule="fixed",
                             initial_step=np.inf, final_step=np.inf,
                             init="provided", init_phase=target + 0.1)
        with pytest.raises(sc.DivergenceError) as excinfo, \
                np.errstate(invalid="ignore", over="ignore"):
            gd_reconstruct(np.ones((6, 64)), loss, target, opts, cfg_64_16)
        assert len(excinfo.value.trace.records) >= 2

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
