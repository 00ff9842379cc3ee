import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import specconsist
from specconsist import (ConfigError, DegenerateWindowError, InputError,
                         Signal, Spectrogram, expand_half_spectrum,
                         grad_loss_ec_phase, istft, loss_ec, loss_ec_phase,
                         loss_time, make_config, num_frames, overlap_add,
                         project, residual, stft)
from specconsist.stft import (_SUM_ROW, _add_blocks, _polar, _shifted_square_sum,
                              _sum_squares, signal_length)

from conftest import strided_polar, zero_filled_add_blocks


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
        d = _shifted_square_sum(cfg.analysis_window, 64)
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


class TestSignalLength:
    @pytest.mark.parametrize("cfg", ["cfg_512_128", "cfg_64_16", "cfg_rect_4"])
    def test_longest_signal_with_m_frames(self, cfg, request):
        config = request.getfixturevalue(cfg)
        q = config.overlap_factor
        for m in range(q, q + 20):
            length = signal_length(m, config)
            assert num_frames(length, config) == m
            assert num_frames(length + 1, config) == m + 1

    @pytest.mark.parametrize("samples", [-5, 1.5, "3", True, None])
    def test_a_sample_count_is_an_integer_of_at_least_zero(self, cfg_512_128, samples):
        with pytest.raises(InputError, match="num_samples must be an integer >= 0"):
            num_frames(samples, cfg_512_128)
        assert num_frames(0, cfg_512_128) == 3 and num_frames(1.0, cfg_512_128) == 4

    @pytest.mark.parametrize("frames", [-1, 0, 1, 3])
    def test_fewer_than_q_frames_rejected(self, cfg_512_128, frames):
        with pytest.raises(InputError, match="need at least Q=4 frames"):
            signal_length(frames, cfg_512_128)


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

    @pytest.mark.parametrize("length", [100.0, np.float64(100.0), np.int64(100), 100])
    def test_integral_lengths_of_any_number_type(self, cfg_64_16, rng, length):
        spec = stft(rng.standard_normal(300), cfg_64_16)
        y = istft(spec, length=length)
        assert len(y) == 100
        np.testing.assert_array_equal(y.samples, istft(spec, length=100).samples)

    @pytest.mark.parametrize("length", [50.5, np.float64(0.5), True, np.bool_(True),
                                        "100", float("nan"), float("inf")])
    def test_non_integer_lengths_are_input_errors(self, cfg_64_16, length):
        spec = stft(np.ones(300), cfg_64_16)
        with pytest.raises(InputError, match="length must be an integer"):
            istft(spec, length=length)
        with pytest.raises(InputError, match="length must be an integer"):
            specconsist.reconstruct_signal(spec.magnitude, spec.phase, cfg_64_16,
                                           length=length)

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


class TestAddBlocks:
    """``_add_blocks`` writes each frame's last block as x + 0.0 and zero-fills only
    the Q-1 rows that block misses; the zero-filled sum is its oracle."""

    @pytest.mark.parametrize("dtype", [complex, float])  # float: Griffin-Lim's frames
    @pytest.mark.parametrize("m", [1, 2, 4, 60])  # 2 < Q - 1, Q, many frames
    @pytest.mark.parametrize("shape", [(16, 4, "hann"), (12, 3, "hann"),
                                       (8, 8, "rectangular"), (63, 21, "hann")])
    def test_bitwise_equal_to_the_zero_filled_sum(self, rng, dtype, m, shape):
        config = make_config(*shape)
        frames = rng.standard_normal((m, config.window_len))
        if dtype is complex:
            frames = frames + 1j * rng.standard_normal(frames.shape)
        frames.flat[::3] = -0.0  # 0.0 + -0.0 is +0.0: a copy would keep the sign
        frames.flat[1::7] = 0.0
        frames.flat[2::11] = [np.nan, np.inf, -np.inf][m % 3]
        rows = (m + config.overlap_factor - 1, config.hop)
        out, want = np.full(rows, np.nan, dtype), np.full(rows, 7.0, dtype)
        with np.errstate(invalid="ignore"):  # inf - inf
            got = _add_blocks(frames, config, out)
            zero_filled_add_blocks(frames, config, want)
        assert np.shares_memory(got, out) and got.size == out.size
        assert out.tobytes() == want.tobytes()


class TestHalfSpectrum:
    def test_expand_complex_matches_full_stft(self, cfg_64_16, rng):
        x = rng.standard_normal(200)
        full = stft(x, cfg_64_16).data
        half = full[:, : 64 // 2 + 1]
        np.testing.assert_allclose(expand_half_spectrum(half), full, atol=1e-10)

    @pytest.mark.parametrize("n, hop", [(63, 21), (64, 16)])
    def test_expand_to_the_given_length(self, rng, n, hop):
        full = stft(rng.standard_normal(300), make_config(n, hop)).data
        np.testing.assert_allclose(expand_half_spectrum(full[:, : n // 2 + 1], n), full,
                                   atol=1e-10)
        with pytest.raises(InputError, match="columns"):
            expand_half_spectrum(full[:, : n // 2], n)

    @pytest.mark.parametrize("n", [64.0, "64", True, 1, 64.5])
    def test_the_length_is_an_integer_of_at_least_two(self, n):
        half = np.ones((3, 33))
        if n == 64.0:
            assert expand_half_spectrum(half, n).shape == (3, 64)
        else:
            with pytest.raises(InputError, match="n must be an integer >= 2"):
                expand_half_spectrum(half, n)

    def test_a_half_spectrum_is_two_d(self):
        assert expand_half_spectrum(np.ones(33)).shape == (1, 64)
        with pytest.raises(InputError, match="must be 2-D"):
            expand_half_spectrum(np.ones((2, 2, 33)))

    def test_expand_real_mirrors(self):
        half = np.array([[0.0, 1.0, 2.0]])
        out = expand_half_spectrum(half)
        np.testing.assert_array_equal(out, [[0.0, 1.0, 2.0, 1.0]])


class TestSignal:
    @settings(max_examples=60, deadline=None)
    @given(re=arrays(np.float64, st.integers(1, 40), elements=st.floats(-1.0, 1.0)),
           imag=st.sampled_from(["zero", "nonzero"]), seed=st.integers(0, 2**16))
    def test_rejects_complex_samples(self, cfg_64_16, re, imag, seed):
        # Signal would keep only Re(x); a bare complex array stays an stft input
        x = re + 1j * (0.0 if imag == "zero"
                       else np.random.default_rng(seed).uniform(0.1, 1.0, re.size))
        for rate in (1, 8000):
            with pytest.raises(InputError, match="must be real"):
                Signal(x, sample_rate=rate)
        np.testing.assert_allclose(stft(x, cfg_64_16).data,
                                   stft(x.real, cfg_64_16).data
                                   + 1j * stft(x.imag, cfg_64_16).data, atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(InputError):
            Signal(np.array([0.0, np.inf]))

    def test_rejects_bad_rate(self, tmp_path):
        # A rate is an integer >= 1: never a string, a fraction or a bool.
        for rate in (0, -8000, "8000", 8000.5, True):
            with pytest.raises(InputError, match="sample_rate must be an integer"):
                Signal(np.zeros(4), sample_rate=rate)
        assert Signal(np.zeros(4), sample_rate=8000.0).sample_rate == 8000
        path = tmp_path / "x.wav"
        for rate in ("8000", 8000.5, True):
            meta = specconsist.WavMeta(rate, 1, "float32", 4)
            with pytest.raises(InputError, match="does not fit a WAV header"):
                specconsist.write_wav(np.full(4, 0.1), meta, path)
        assert not path.exists()


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


# Floats whose squares neither overflow nor underflow, so relative error is defined.
_finite_reals = st.one_of(st.just(0.0), st.floats(1e-100, 1e100), st.floats(-1e100, -1e-100))

_LAYOUTS = {
    "1-D": lambda a: a.ravel(),
    "2-D": lambda a: a,
    "transposed": lambda a: a.T,
    "every other row": lambda a: a[::2],
    "every third column": lambda a: a[:, ::3],
    "strided 1-D": lambda a: a[:, 0],
}


# ``_polar`` builds mag * e^{jP} from tan(P/2); every entry is within this many
# ulp(1), times the magnitude, of ``mag * np.exp(1j * phase)``. The worst seen
# was about 1.4 ulp over 10 million phases in [-pi, pi], [-1e4, 1e4] and up to
# 1e300, with and without AVX-512.
POLAR_ULPS = 4
_POLAR_SPECIAL = [np.pi, -np.pi, np.pi / 2, -np.pi / 2, 0.0, -0.0, 1e-300, -1e-300]


def assert_polar_near_exp(phase, mag):
    """``_polar(phase, mag)`` within the bound of ``mag * exp(1j * phase)``; NaN
    exactly where the phase is not finite."""
    got = _polar(phase, mag)
    with np.errstate(invalid="ignore"):  # only the oracle may warn
        want = mag * np.exp(1j * phase)
    finite = np.isfinite(phase)
    bound = POLAR_ULPS * np.finfo(np.float64).eps * mag
    assert np.all(np.abs(got - want)[finite] <= bound[finite])
    assert np.all(np.isnan(got.real[~finite]) & np.isnan(got.imag[~finite]))


class TestPolar:
    """The solvers and losses build every mag * e^{jP} with ``_polar`` (one tan),
    while some of the tests' oracles build it with ``np.exp``."""

    @pytest.mark.parametrize("shape", [(23, 256), (128, 512), (3, 7)])
    def test_within_the_bound_of_exp(self, rng, shape):
        phase = rng.uniform(-np.pi, np.pi, shape)
        phase.flat[::5] = rng.uniform(-1e4, 1e4, phase.flat[::5].size)
        phase.flat[:5] = [0.0, np.pi, -np.pi, np.pi / 2, 1e-300]
        mag = rng.uniform(0.0, 3.0, shape)
        mag.flat[::7] = 0.0
        assert_polar_near_exp(phase, np.ones(shape))
        assert_polar_near_exp(phase, mag)
        out = np.empty(shape, complex)
        assert _polar(phase, mag, out) is out
        assert out.tobytes() == _polar(phase, mag).tobytes()
        assert np.all(out[mag == 0.0] == 0.0)

    @settings(max_examples=150, deadline=None)
    @given(phase=arrays(np.float64, st.integers(1, 300), elements=st.one_of(
               st.sampled_from(_POLAR_SPECIAL), st.floats(-1e4, 1e4),
               st.floats(-1e300, 1e300), st.sampled_from([np.inf, -np.inf, np.nan]))),
           scale=st.sampled_from([1.0, 1e-200, 1e200]), seed=st.integers(0, 2**16))
    def test_property_within_the_bound_without_warnings(self, phase, scale, seed):
        # the suite turns warnings into errors: tan(inf) must not raise one
        mag = scale * np.random.default_rng(seed).uniform(0.0, 3.0, phase.shape)
        assert_polar_near_exp(phase, mag)

    @pytest.mark.skipif(
        "X86_V4" not in np.show_config(mode="dicts")["SIMD Extensions"].get("found", []),
        reason="numpy does not dispatch AVX-512 (X86_V4) here; its tan is already "
               "the non-AVX-512 one")
    def test_within_the_bound_without_avx512(self, tmp_path):
        rng = np.random.default_rng(5)
        phase = rng.uniform(-np.pi, np.pi, (128, 512))
        phase[::3] = rng.uniform(-1e4, 1e4, phase[::3].shape)
        phase.flat[:len(_POLAR_SPECIAL)] = _POLAR_SPECIAL
        mag = rng.uniform(0.0, 3.0, phase.shape)
        np.save(tmp_path / "phase.npy", phase)
        np.save(tmp_path / "mag.npy", mag)
        script = (
            "import sys, numpy as np\n"
            "from specconsist.stft import _polar\n"
            "simd = np.show_config(mode='dicts')['SIMD Extensions']\n"
            "assert 'X86_V4' not in simd['found'], simd\n"
            "d = sys.argv[1]\n"
            "np.save(d + '/h.npy', _polar(np.load(d + '/phase.npy'), np.load(d + '/mag.npy')))\n")
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR",
                   PYTHONPATH=str(Path(specconsist.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-W", "error", "-c", script, str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        h = np.load(tmp_path / "h.npy")
        want = mag * np.exp(1j * phase)
        assert np.all(np.abs(h - want) <= POLAR_ULPS * np.finfo(np.float64).eps * mag)

    @settings(max_examples=150, deadline=None)
    @given(phase=arrays(np.float64, st.tuples(st.integers(1, 9), st.integers(1, 40)),
                        elements=st.one_of(
               st.sampled_from(_POLAR_SPECIAL), st.floats(-1e4, 1e4),
               st.floats(-1e300, 1e300), st.sampled_from([np.inf, -np.inf, np.nan]))),
           zeros=st.sampled_from([0.0, 0.3, 1.0]), seed=st.integers(0, 2**16))
    def test_matches_the_strided_builder(self, phase, zeros, seed):
        # The unit phasor is bitwise the strided builder's. Scaled by mag, the
        # parts are real products where the oracle takes a complex one: every
        # bit agrees except the sign of a zero.
        rng = np.random.default_rng(seed)
        mag = rng.uniform(0.0, 3.0, phase.shape)
        mag[rng.random(phase.shape) < zeros] = 0.0
        assert _polar(phase).tobytes() == strided_polar(phase).tobytes()
        parts = tuple(np.full(phase.shape, np.nan) for _ in range(3))
        unit, out = np.empty(phase.shape, complex), np.empty(phase.shape, complex)
        assert _polar(phase, mag, out, parts, unit) is out
        assert unit.tobytes() == strided_polar(phase).tobytes()
        assert parts[1].tobytes() == out.real.tobytes()
        assert parts[2].tobytes() == out.imag.tobytes()
        want = strided_polar(phase, mag)
        assert np.array_equal(out, want, equal_nan=True)
        for got_part, want_part in ((out.real, want.real), (out.imag, want.imag)):
            nonzero = want_part != 0.0
            assert got_part[nonzero].tobytes() == want_part[nonzero].tobytes()

    def test_negative_zero_phase_keeps_its_sign(self):
        # sin(-0.0) is -0.0, while 1j * -0.0 has a +0.0 imaginary part before exp
        unit = _polar(np.array([-0.0]))
        assert unit == np.exp(1j * -0.0) and np.signbit(unit.imag[0])


class TestSumSquares:
    @settings(max_examples=150, deadline=None)
    @given(re=arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(1, 70)),
                     elements=_finite_reals),
           complex_=st.booleans(), layout=st.sampled_from(sorted(_LAYOUTS)),
           data=st.data())
    def test_matches_the_fsum_oracle(self, re, complex_, layout, data):
        x = re
        if complex_:
            im = data.draw(arrays(np.float64, re.shape, elements=_finite_reals))
            x = re + 1j * im
        x = _LAYOUTS[layout](x)
        floats = np.concatenate([x.real.ravel(), x.imag.ravel()]) if complex_ else x.ravel()
        exact = math.fsum(v * v for v in floats.tolist())
        got = _sum_squares(x)
        assert abs(got - exact) <= 2 * _SUM_ROW * np.finfo(np.float64).eps * exact

    def test_empty_and_zero_dimensional_inputs(self):
        assert _sum_squares(np.zeros((0, 4))) == 0.0
        assert _sum_squares(np.zeros(0, complex)) == 0.0
        assert _sum_squares(np.array(3.0)) == 9.0
        assert _sum_squares(np.array(3 + 4j)) == 25.0
