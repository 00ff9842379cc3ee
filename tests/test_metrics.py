import numpy as np
import pytest

import specconsist as sc
from specconsist.consistency import get_kernel
from specconsist.stft import stft

from conftest import random_spectrogram


class TestConsistencyMeasure:
    def test_clean_stft_below_threshold(self, cfg_512_128, rng):
        k = get_kernel(cfg_512_128)
        spec = stft(rng.standard_normal(4000), cfg_512_128)
        assert sc.consistency_measure(spec, k) < 1e-7

    def test_invariant_under_global_phase(self, cfg_64_16, rng):
        k = get_kernel(cfg_64_16)
        h = random_spectrogram(rng, 9, 64)
        base = sc.consistency_measure(h, k)
        shifted = sc.consistency_measure(h * np.exp(1j * 0.77), k)
        assert abs(base - shifted) < 1e-12 * base

    def test_invariant_under_complex_scaling(self, cfg_64_16, rng):
        k = get_kernel(cfg_64_16)
        h = random_spectrogram(rng, 9, 64)
        base = sc.consistency_measure(h, k)
        scaled = sc.consistency_measure((3.5 - 1.2j) * h, k)
        assert abs(base - scaled) < 1e-12 * base

    def test_matches_projection_oracle(self, cfg_256_64, rng):
        k = get_kernel(cfg_256_64)
        h = random_spectrogram(rng, 10, 256)
        proj = sc.project(h, cfg_256_64).data
        oracle = np.sqrt(np.vdot(proj - h, proj - h).real
                         / np.vdot(h, h).real)
        got = sc.consistency_measure(h, k)
        assert abs(got - oracle) < 1e-9 * oracle

    def test_zero_spectrogram_rejected(self, cfg_64_16):
        k = get_kernel(cfg_64_16)
        with pytest.raises(sc.MetricError):
            sc.consistency_measure(np.zeros((4, 64), dtype=complex), k)


class TestSpectralConvergence:
    def test_exact_match_clamps(self, rng):
        a = rng.uniform(0, 1, (5, 8))
        assert sc.spectral_convergence(a, a) == -300.0

    def test_zero_estimate_is_zero_db(self, rng):
        a = rng.uniform(0.1, 1, (5, 8))
        assert sc.spectral_convergence(a, np.zeros_like(a)) == pytest.approx(0.0, abs=1e-12)

    def test_scaled_estimate(self, rng):
        a = rng.uniform(0.1, 1, (5, 8))
        assert sc.spectral_convergence(a, 0.9 * a) == pytest.approx(-20.0, rel=1e-10)

    def test_phase_free(self, cfg_64_16, rng):
        # magnitudes only: any phase information has already been dropped
        h = random_spectrogram(rng, 5, 64)
        a = np.abs(h)
        b = np.abs(h * np.exp(1j * rng.uniform(-np.pi, np.pi, h.shape)))
        assert sc.spectral_convergence(a, b) == -300.0

    def test_zero_reference_rejected(self):
        with pytest.raises(sc.MetricError):
            sc.spectral_convergence(np.zeros((2, 2)), np.ones((2, 2)))


class TestAlignedSnr:
    def test_identical_signals(self, rng):
        x = rng.standard_normal(500)
        snr, alignment = sc.aligned_snr(x, x, 16)
        assert snr == 300.0
        assert alignment.sign == 1 and alignment.shift == 0

    def test_negated_signal(self, rng):
        x = rng.standard_normal(500)
        snr, alignment = sc.aligned_snr(x, -x, 16)
        assert snr == 300.0
        assert alignment.sign == -1 and alignment.shift == 0

    def test_delayed_signal_realigned(self):
        # reference with silent tails so integer realignment is exact
        x = np.zeros(400)
        x[100:300] = np.sin(0.3 * np.arange(200))
        delayed = np.zeros(400)
        delayed[3:] = x[:-3]
        snr, alignment = sc.aligned_snr(x, delayed, 8)
        assert snr == 300.0
        assert alignment.sign == 1 and alignment.shift == 3

    def test_at_least_plain_snr(self, rng):
        for _ in range(20):
            x = rng.standard_normal(300)
            y = rng.standard_normal(300)
            aligned, _ = sc.aligned_snr(x, y, 10)
            assert aligned >= sc.plain_snr(x, y)

    def test_radius_beyond_signal_length(self, rng):
        # shifts of 400 or more samples compare against an all-zero estimate
        ref = rng.standard_normal(400)
        est = np.roll(ref, 3) + 0.1 * rng.standard_normal(400)
        assert sc.aligned_snr(ref, est, 1000) == sc.aligned_snr(ref, est, 399)

    def test_errors(self, rng):
        with pytest.raises(sc.InputError):
            sc.aligned_snr(np.zeros(3), np.zeros(4), 1)
        with pytest.raises(sc.MetricError):
            sc.aligned_snr(np.zeros(8), rng.standard_normal(8), 1)

    def test_accepts_signal_objects(self, rng):
        x = rng.standard_normal(200)
        snr, _ = sc.aligned_snr(sc.Signal(x), sc.Signal(x), 4)
        assert snr == 300.0


class TestEvalReport:
    def test_round_trips_to_dict(self):
        rep = sc.EvalReport(0.1, -20.0, 12.5, sc.Alignment(-1, 3))
        d = rep.to_dict()
        assert d["alignment"] == {"sign": -1, "shift": 3}
        assert d["aligned_snr_db"] == 12.5
