import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def loop_aligned_snr(ref, est, search_radius):
    """The exhaustive search: every sign and shift scored in order, first best kept."""
    ref_energy = float(np.dot(ref, ref))
    best = (-np.inf, sc.Alignment(1, 0))
    for shift in range(-search_radius, search_radius + 1):
        cand = np.zeros_like(est)
        if 0 <= shift < est.size:
            cand[: est.size - shift] = est[shift:]
        elif -est.size < shift < 0:
            cand[-shift:] = est[: est.size + shift]
        for sign in (1, -1):
            err = float(np.dot(ref - sign * cand, ref - sign * cand))
            snr = 300.0 if err == 0.0 else float(
                np.clip(10.0 * np.log10(ref_energy / err), -300.0, 300.0))
            if snr > best[0]:
                best = (snr, sc.Alignment(sign, shift))
    return best


ESTIMATE_KINDS = ("noisy_shift", "copy", "negation", "zeros", "tile", "level", "scaled")


@st.composite
def signal_pairs(draw):
    """(ref, est, radius): lengths 1-300, radii 0 to 2n+2, seven kinds of estimate."""
    n = draw(st.integers(1, 300))
    radius = draw(st.integers(0, 2 * n + 2))
    kind = draw(st.sampled_from(ESTIMATE_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ref = rng.standard_normal(n)
    if kind == "noisy_shift":
        noise = draw(st.sampled_from([0.0, 1e-12, 1e-6, 0.1, 1.0, 10.0]))
        est = (draw(st.sampled_from([1, -1])) * np.roll(ref, draw(st.integers(-n, n)))
               + noise * rng.standard_normal(n))
    elif kind == "copy":
        est = ref.copy()
    elif kind == "negation":
        est = -ref
    elif kind == "zeros":
        est = np.zeros(n)
    elif kind == "tile":
        # periodic, so shifts by whole periods score (near-)exact ties
        ref = np.resize(rng.standard_normal(draw(st.integers(1, 8))), n)
        est = np.roll(ref, draw(st.integers(-n, n)))
    elif kind == "level":
        # constant signals: shifts -s and +s tie in exact arithmetic, and the
        # best is often the outermost pair, whose expanded errors round apart
        ref = np.full(n, rng.uniform(0.1, 3.0))
        est = np.full(n, rng.uniform(-3.0, 3.0))
    else:
        # 2**66 pushes every candidate to the -300 dB clamp, 1 + 2**-52 to +300 dB
        k = draw(st.integers(-20, 66))
        est = ref * draw(st.sampled_from([2.0 ** k, 1.0 + 2.0 ** -min(abs(k), 52)]))
    return ref, est, radius


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

    @settings(max_examples=200, deadline=None)
    @given(signal_pairs())
    def test_matches_the_loop_oracle(self, case):
        ref, est, radius = case
        assert sc.aligned_snr(ref, est, radius) == loop_aligned_snr(ref, est, radius)

    @pytest.mark.parametrize("level", [2.0, -1.5])
    def test_mirrored_ties_match_the_loop_oracle(self, level):
        # Against a constant reference, shifts -10 and +10 tie in exact
        # arithmetic; the expanded errors of the pair round apart, so the
        # screen alone would pick the wrong one.
        ref, est = np.full(20, 0.7), np.full(20, level)
        assert sc.aligned_snr(ref, est, 10) == loop_aligned_snr(ref, est, 10)

    def test_all_candidates_clamped_picks_the_first(self, rng):
        ref = rng.standard_normal(100)
        expected = (-300.0, sc.Alignment(1, -50))
        assert loop_aligned_snr(ref, 1e20 * ref, 50) == expected
        assert sc.aligned_snr(ref, 1e20 * ref, 50) == expected

    def test_huge_radius_costs_no_more_than_the_signal_length(self, rng):
        ref = rng.standard_normal(100)
        for est in (np.roll(ref, 7) + 0.5 * rng.standard_normal(100),
                    rng.standard_normal(100)):
            start = time.perf_counter()
            snr, _ = sc.aligned_snr(ref, est, 10**9)
            assert time.perf_counter() - start < 5.0
            assert snr == loop_aligned_snr(ref, est, 101)[0]

    def test_ratio_underflow_clamps_without_a_warning(self):
        # ref_energy / err underflows to 0 before the logarithm
        snr, alignment = sc.aligned_snr(np.full(4, 1e-160), np.full(4, 1e20), 1)
        assert (snr, alignment) == (-300.0, sc.Alignment(1, -1))

    @pytest.mark.parametrize("radius", [-1, 2.5, True, "3", None])
    def test_bad_radius_rejected(self, rng, radius):
        x = rng.standard_normal(16)
        with pytest.raises(sc.InputError, match="nonnegative integer"):
            sc.aligned_snr(x, x, radius)

    def test_numpy_integer_radius_accepted(self, rng):
        x = rng.standard_normal(16)
        assert sc.aligned_snr(x, x, np.int64(3)) == sc.aligned_snr(x, x, 3)

    @pytest.mark.parametrize("where", ["ref", "est"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    def test_non_finite_or_overflowing_samples_rejected(self, rng, where, bad):
        # a NaN shifted out of the compared span must not be dropped silently
        x, y = rng.standard_normal(16), rng.standard_normal(16)
        (x if where == "ref" else y)[3] = bad
        with pytest.raises(sc.InputError):
            sc.aligned_snr(x, y, 4)

    def test_errors(self, rng):
        with pytest.raises(sc.InputError):
            sc.aligned_snr(np.zeros(3), np.zeros(4), 1)
        with pytest.raises(sc.InputError):
            sc.aligned_snr(np.zeros((2, 4)), np.ones((2, 4)), 1)
        with pytest.raises(sc.InputError):
            sc.aligned_snr(np.zeros(0), np.zeros(0), 1)
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
