import dataclasses

import numpy as np
import pytest

from specconsist import (ConfigError, DegenerateWindowError, InputError,
                         Signal, Spectrogram, compress_magnitude,
                         expand_half_spectrum, grad_loss_ec_phase, istft,
                         loss_ec, loss_ec_phase, loss_time, make_config,
                         num_frames, overlap_add, project, residual, stft)
from specconsist.stft import shifted_square_sum


def naive_stft(x, config):
    """Independent direct-summation oracle (explicit padding, explicit DFT)."""
    n, r = config.window_len, config.hop
    w = config.analysis_window
    m = num_frames(len(x), config)
    padded = np.zeros((m - 1) * r + n, dtype=complex)
    padded[n - r : n - r + len(x)] = x
    out = np.zeros((m, n), dtype=complex)
    for i in range(m):
        frame = padded[i * r : i * r + n] * w
        for nn in range(n):
            out[i, nn] = np.sum(frame * np.exp(-2j * np.pi * nn * np.arange(n) / n))
    return out


def overlap_add_loop(data, config):
    """Per-frame overlap-add, each frame added in order (reference path)."""
    n, r = config.window_len, config.hop
    frames = np.fft.ifft(data, axis=1) * n * config.synthesis_window
    y = np.zeros((data.shape[0] - 1) * r + n, dtype=np.complex128)
    for i, frame in enumerate(frames):
        y[i * r : i * r + n] += frame
    return y


class TestMakeConfig:
    def test_paper_default_shape(self):
        cfg = make_config(512, 128, "hann")
        assert cfg.overlap_factor == 4
        assert cfg.analysis_window.shape == (512,)
        assert cfg.synthesis_window.shape == (512,)

    def test_rectangular_identity_case(self):
        cfg = make_config(4, 4, "rectangular")
        assert cfg.overlap_factor == 1
        np.testing.assert_array_equal(cfg.analysis_window, np.ones(4))
        np.testing.assert_allclose(cfg.synthesis_window, np.ones(4) / 4.0)

    def test_cola_sum_constant(self):
        cfg = make_config(512, 128, "hann")
        w, s = cfg.analysis_window, cfg.synthesis_window
        # direct summation over every offset
        sums = np.array(
            [sum(w[n0 + q * 128] * s[n0 + q * 128] for q in range(4))
             for n0 in range(128)])
        assert np.abs(sums - sums[0]).max() < 1e-12
        assert abs(sums[0] - 1.0 / 512.0) < 1e-15

    def test_non_divisible_rejected(self):
        with pytest.raises(ConfigError):
            make_config(512, 100, "hann")

    def test_degenerate_window_rejected(self):
        # hann without overlap has a zero shifted-square sum at offset 0
        with pytest.raises(DegenerateWindowError):
            make_config(128, 128, "hann")

    def test_unknown_window_rejected(self):
        with pytest.raises(ConfigError):
            make_config(64, 16, "blackman")

    def test_shifted_square_sum_is_periodic(self):
        cfg = make_config(256, 64, "hann")
        d = shifted_square_sum(cfg.analysis_window, 64)
        np.testing.assert_allclose(d[:64], d[64:128])


class TestStft:
    def test_zero_signal(self, cfg_512_128):
        spec = stft(np.zeros(1024), cfg_512_128)
        assert np.all(spec.data == 0)

    def test_empty_signal_rejected(self, cfg_512_128):
        with pytest.raises(InputError):
            stft(np.array([]), cfg_512_128)

    def test_matches_direct_dft_oracle(self, cfg_64_16, rng):
        x = rng.standard_normal(200)
        got = stft(x, cfg_64_16).data
        want = naive_stft(x, cfg_64_16)
        assert np.abs(got - want).max() < 1e-9 * np.abs(want).max()

    def test_impulse_frame_values(self, cfg_64_16):
        # impulse at original index t0 sits at offset t0 + N - R - m*R in frame m
        n, r = 64, 16
        t0 = 40
        x = np.zeros(120)
        x[t0] = 1.0
        spec = stft(x, cfg_64_16).data
        w = cfg_64_16.analysis_window
        for m in range(spec.shape[0]):
            k0 = t0 + (n - r) - m * r
            if 0 <= k0 < n:
                expected = w[k0] * np.exp(-2j * np.pi * np.arange(n) * k0 / n)
                np.testing.assert_allclose(spec[m], expected, atol=1e-12)
            else:
                np.testing.assert_allclose(spec[m], 0.0, atol=1e-12)

    def test_hermitian_symmetry_for_real_input(self, cfg_256_64, rng):
        x = rng.standard_normal(1000)
        h = stft(x, cfg_256_64).data
        mirrored = np.conj(h[:, (-np.arange(256)) % 256])
        assert np.abs(h - mirrored).max() < 1e-10 * np.abs(h).max()

    def test_linearity(self, cfg_64_16, rng):
        x = rng.standard_normal(300)
        y = rng.standard_normal(300)
        a, b = 1.7, -0.3
        lhs = stft(a * x + b * y, cfg_64_16).data
        rhs = a * stft(x, cfg_64_16).data + b * stft(y, cfg_64_16).data
        assert np.abs(lhs - rhs).max() < 1e-10 * np.abs(rhs).max()

    def test_accepts_signal_objects(self, cfg_64_16, rng):
        x = rng.standard_normal(128)
        direct = stft(x, cfg_64_16).data
        wrapped = stft(Signal(x, sample_rate=8000), cfg_64_16).data
        np.testing.assert_array_equal(direct, wrapped)


class TestIstft:
    @pytest.mark.parametrize("length", [4096, 777, 512])
    def test_round_trip(self, cfg_512_128, rng, length):
        x = rng.standard_normal(length)
        y = istft(stft(x, cfg_512_128), length=length)
        assert np.abs(y.samples - x).max() < 1e-10

    def test_round_trip_other_configs(self, cfg_256_64, cfg_rect_4, rng):
        x = rng.standard_normal(1000)
        for cfg in (cfg_256_64, cfg_rect_4):
            y = istft(stft(x, cfg), length=1000)
            assert np.abs(y.samples - x).max() < 1e-10

    def test_zero_spectrogram(self, cfg_512_128):
        spec = Spectrogram(np.zeros((8, 512), dtype=complex), cfg_512_128)
        assert np.all(istft(spec).samples == 0)

    def test_negation_linearity(self, cfg_256_64, rng):
        x = rng.standard_normal(2048)
        spec_neg = stft(-x, cfg_256_64)
        y = istft(spec_neg, length=2048)
        assert np.abs(y.samples + x).max() < 1e-10

    def test_shape_mismatch_rejected(self, cfg_512_128, cfg_256_64):
        spec = stft(np.ones(1024), cfg_512_128)
        with pytest.raises(InputError):
            istft(spec, cfg_256_64)

    @pytest.mark.parametrize("m", [1, 3, 4, 9])
    def test_overlap_add_bitwise_equals_frame_loop(self, cfg_64_16, cfg_rect_4,
                                                   rng, m):
        # same additions in the same order, so the result is bit-identical
        for cfg in (cfg_64_16, cfg_rect_4):
            h = (rng.standard_normal((m, cfg.window_len))
                 + 1j * rng.standard_normal((m, cfg.window_len)))
            assert np.array_equal(overlap_add(h, cfg), overlap_add_loop(h, cfg))

    def test_overlap_add_is_exact_linear_inverse(self, cfg_64_16, rng):
        # re-analysis of the complex overlap-add at the same frame positions
        # reproduces consistent input exactly
        x = rng.standard_normal(256)
        spec = stft(x, cfg_64_16)
        y = overlap_add(spec)
        assert y.dtype == np.complex128
        assert np.abs(y.imag).max() < 1e-12


class TestCompressMagnitude:
    def test_identity(self, cfg_rect_4, rng):
        data = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        spec = Spectrogram(data, cfg_rect_4)
        out = compress_magnitude(spec, a=1.0, b=1.0)
        np.testing.assert_allclose(out.data, data, atol=1e-14)

    def test_square_root_positive_bin(self, cfg_rect_4):
        data = np.zeros((1, 4), dtype=complex)
        data[0, 0] = 4.0
        out = compress_magnitude(Spectrogram(data, cfg_rect_4), a=0.5, b=1.0)
        assert abs(out.data[0, 0] - 2.0) < 1e-14

    def test_square_root_negative_bin_keeps_phase(self, cfg_rect_4):
        data = np.zeros((1, 4), dtype=complex)
        data[0, 1] = -9.0
        out = compress_magnitude(Spectrogram(data, cfg_rect_4), a=0.5, b=1.0)
        # magnitude 9 -> 3, phase pi preserved
        expected = 3.0 * np.exp(1j * np.pi)
        assert abs(out.data[0, 1] - expected) < 1e-12

    def test_zero_bins_stay_zero(self, cfg_rect_4):
        spec = Spectrogram(np.zeros((2, 4), dtype=complex), cfg_rect_4)
        out = compress_magnitude(spec, a=0.5, b=2.0)
        assert np.all(out.data == 0)

    def test_invalid_parameters(self, cfg_rect_4):
        spec = Spectrogram(np.ones((1, 4), dtype=complex), cfg_rect_4)
        with pytest.raises(InputError):
            compress_magnitude(spec, a=0.0, b=1.0)
        with pytest.raises(InputError):
            compress_magnitude(spec, a=0.5, b=-1.0)


class TestHalfSpectrum:
    def test_expand_complex_matches_full_stft(self, cfg_64_16, rng):
        x = rng.standard_normal(200)
        full = stft(x, cfg_64_16).data
        half = full[:, : 64 // 2 + 1]
        np.testing.assert_allclose(expand_half_spectrum(half), full, atol=1e-10)

    def test_expand_real_mirrors(self):
        half = np.array([[0.0, 1.0, 2.0]])
        out = expand_half_spectrum(half)
        np.testing.assert_array_equal(out, [[0.0, 1.0, 2.0, 1.0]])


class TestSignal:
    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            Signal(np.array([0.0, np.inf]))

    def test_rejects_bad_rate(self):
        with pytest.raises(InputError):
            Signal(np.zeros(4), sample_rate=0)


class TestSpectrogramInvariants:
    def test_rejects_non_finite_entries(self, cfg_rect_4):
        data = np.ones((2, 4), dtype=complex)
        data[1, 2] = np.nan
        with pytest.raises(InputError):
            Spectrogram(data, cfg_rect_4)

    def test_rejects_empty_frame_axis(self, cfg_rect_4):
        with pytest.raises(InputError):
            Spectrogram(np.zeros((0, 4), dtype=complex), cfg_rect_4)

    @pytest.mark.parametrize("operator", [
        residual, loss_ec, project,
        lambda h, cfg: loss_ec_phase(np.abs(h), np.angle(h), cfg),
        lambda h, cfg: grad_loss_ec_phase(np.abs(h), np.angle(h), cfg),
    ], ids=["residual", "loss_ec", "project", "loss_ec_phase", "grad_loss_ec_phase"])
    @pytest.mark.parametrize("config_args", [(4, 4, "rectangular"), (64, 16, "hann")],
                             ids=["rect4", "hann64"])
    def test_operators_reject_empty_frame_axis(self, operator, config_args):
        config = make_config(*config_args)
        with pytest.raises(InputError):
            operator(np.zeros((0, config.window_len), dtype=complex), config)

    @pytest.mark.parametrize("shape", [(4,), (0, 4)])
    def test_time_loss_rejects_non_frame_phase(self, cfg_rect_4, shape):
        p = np.zeros(shape)
        with pytest.raises(InputError):
            loss_time(p, p, np.ones(shape), cfg_rect_4)


class TestStftConfigIdentity:
    def test_identity_ignores_window_arrays(self):
        a = make_config(64, 16, "hann")
        b = dataclasses.replace(a, analysis_window=np.zeros(64),
                                synthesis_window=np.ones(64))
        assert a == b and hash(a) == hash(b)
        assert {a: "found"}[b] == "found"

    def test_distinct_parameters_and_non_configs_differ(self):
        a = make_config(64, 16, "hann")
        assert a != make_config(64, 32, "hann")
        assert a != make_config(64, 16, "rectangular")
        assert a != (64, 16, "hann")
        assert a != "hann"

    def test_spectrogram_under_another_config_rejected(self, rng):
        a, b = make_config(64, 16, "hann"), make_config(64, 32, "hann")
        spec = stft(rng.standard_normal(200), a)
        np.testing.assert_array_equal(overlap_add(spec, make_config(64, 16, "hann")),
                                      overlap_add(spec))
        with pytest.raises(InputError):
            overlap_add(spec, b)
