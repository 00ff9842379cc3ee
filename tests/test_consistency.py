import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specconsist as sc
from specconsist.consistency import _BLOCK, _Workspace, ec_loss_and_grad, get_kernel
from specconsist.stft import WINDOW_KINDS, _polar, _sum_squares, overlap_add, project, stft

from conftest import random_spectrogram

# Frozen once from this implementation (sine 440 Hz / 0.8 amp at 8 kHz,
# config 256/64 hann, phase seed 12345); guards against regressions.
PINNED_SINE_RANDOM_PHASE_LOSS = 176564.9672678542


def _apply(h, config, analysis, synthesis):
    """Overlap-add with ``synthesis``, re-analyze with ``analysis``, subtract.

    With (W, S) this is the residual operator C; with (S, W) it is its adjoint.
    Frames are added one by one, apart from the library's overlap-add, so this
    is the oracle of ``residual`` and of the Parseval loss and gradient.
    """
    (m, n), r = h.shape, config.hop
    frames = np.fft.ifft(h, axis=1) * n * synthesis
    y = np.zeros((m - 1) * r + n, dtype=np.complex128)
    for i, frame in enumerate(frames):
        y[i * r : i * r + n] += frame
    windowed = np.stack([y[i * r : i * r + n] for i in range(m)]) * analysis
    return np.fft.fft(windowed, axis=1) - h


def alpha_table(config):
    """The paper's coefficient table: row q + Q - 1 holds alpha[q, 0 .. N-1]."""
    n, r, q = config.window_len, config.hop, config.overlap_factor
    w, s = config.analysis_window, config.synthesis_window
    alpha = np.zeros((2 * q - 1, n), dtype=np.complex128)
    for iq, qq in enumerate(range(-(q - 1), q)):
        # taps[l] = W[l - q*R] * S[l] on the overlap of both supports
        taps = np.zeros(n)
        lo, hi = max(0, qq * r), min(n, n + qq * r)
        taps[lo:hi] = w[lo - qq * r : hi - qq * r] * s[lo:hi]
        alpha[iq] = np.fft.fft(taps)
    alpha[q - 1, 0] -= 1.0
    return alpha


def alpha_direct_sum(config, q, p):
    """Independent direct-summation oracle for one coefficient."""
    n, r = config.window_len, config.hop
    w, s = config.analysis_window, config.synthesis_window
    total = 0.0 + 0.0j
    for k in range(n):
        ks = k + q * r
        if 0 <= ks < n:
            total += w[k] * s[ks] * np.exp(-2j * np.pi * p * ks / n)
    if p == 0 and q == 0:
        total -= 1.0
    return total


def residual_direct(h, config):
    """The paper's per-bin residual by explicit circular convolution."""
    m, n = h.shape
    q_max, r = config.overlap_factor - 1, config.hop
    alpha = alpha_table(config)
    out = np.zeros_like(h)
    for iq, q in enumerate(range(-q_max, q_max + 1)):
        if abs(q) >= m:
            continue
        conv = np.zeros_like(h)
        for p in range(n):
            conv += alpha[iq, p] * np.roll(h, p, axis=1)
        conv *= np.exp(2j * np.pi * q * r * np.arange(n) / n)
        if q >= 0:
            out[q:] += conv[: m - q]
        else:
            out[: m + q] += conv[-q:]
    return out


class TestComputeKernel:
    def test_vanishes_off_support(self, cfg_64_16):
        # the defining sum is zero for |q| >= Q: direct oracle
        for q in (4, 5, -4, -6):
            for p in (0, 1, 17, 63):
                assert alpha_direct_sum(cfg_64_16, q, p) == 0.0
        # the table only carries |q| <= Q-1
        assert alpha_table(cfg_64_16).shape == (7, 64)

    def test_alpha_00_direct_summation(self, cfg_512_128):
        alpha = alpha_table(cfg_512_128)
        oracle = alpha_direct_sum(cfg_512_128, 0, 0)
        assert abs(alpha[3, 0] - oracle) < 1e-12
        # closed form: hop/window_len - 1
        assert abs(alpha[3, 0] - (128.0 / 512.0 - 1.0)) < 1e-12

    def test_alpha_matches_direct_sum_at_random_entries(self, cfg_64_16, rng):
        alpha = alpha_table(cfg_64_16)
        for _ in range(20):
            q = int(rng.integers(-3, 4))
            p = int(rng.integers(0, 64))
            got = alpha[q + 3, p]
            assert abs(got - alpha_direct_sum(cfg_64_16, q, p)) < 1e-12

    def test_rectangular_single_frame_blocks(self, cfg_rect_4, rng):
        # Q=1: every spectrogram of independent frames is consistent
        k = get_kernel(cfg_rect_4)
        for _ in range(100):
            h = random_spectrogram(rng, 5, 4)
            r = sc.residual(h, k)
            oracle = project(h, cfg_rect_4).data - h
            assert np.abs(r - oracle).max() <= 1e-12 * max(np.abs(h).max(), 1.0)
            assert np.abs(r).max() < 1e-12 * np.abs(h).max()


class TestOneScaling:
    """Every overlap-add scales the inverse DFT by N*S once, so the forms agree
    bitwise, also where N is not a power of two and N*S rounds."""

    @pytest.mark.parametrize("size", [(48, 12), (64, 16), (512, 128)])
    @pytest.mark.parametrize("m", [1, 4, 9])
    def test_overlap_add_residual_and_workspace_agree(self, rng, size, m):
        cfg = sc.make_config(*size)
        mag = rng.uniform(0.0, 2.0, (m, cfg.window_len))
        phase = rng.uniform(-np.pi, np.pi, mag.shape)
        h = _polar(phase, mag)
        ws = _Workspace(h.shape, cfg)
        ws.loss(phase, mag)
        np.testing.assert_array_equal(overlap_add(h, cfg), ws.y.ravel())
        np.testing.assert_array_equal(sc.residual(h, cfg), project(h, cfg).data - h)


class TestResidual:
    def test_consistent_input_gives_zero(self, cfg_512_128, rng):
        k = get_kernel(cfg_512_128)
        x = rng.standard_normal(3000)
        h = stft(x, cfg_512_128)
        r = sc.residual(h, k)
        assert np.abs(r).max() < 1e-8 * np.abs(h.data).max()

    @pytest.mark.parametrize("shape", [(6, 512), (17, 512)])
    def test_projection_oracle_on_random_input(self, cfg_512_128, rng, shape):
        k = get_kernel(cfg_512_128)
        h = random_spectrogram(rng, *shape)
        r = sc.residual(h, k)
        oracle = project(h, cfg_512_128).data - h
        assert np.abs(r - oracle).max() < 1e-9 * np.abs(oracle).max()

    def test_global_phase_rotation_is_linear(self, cfg_64_16, rng):
        k = get_kernel(cfg_64_16)
        h = random_spectrogram(rng, 9, 64)
        theta = 1.234
        lhs = sc.residual(h * np.exp(1j * theta), k)
        rhs = np.exp(1j * theta) * sc.residual(h, k)
        assert np.abs(lhs - rhs).max() < 1e-12 * np.abs(rhs).max()

    def test_linearity(self, cfg_64_16, rng):
        k = get_kernel(cfg_64_16)
        h1 = random_spectrogram(rng, 8, 64)
        h2 = random_spectrogram(rng, 8, 64)
        a, b = 0.7 - 0.2j, 1.5 + 0.4j
        lhs = sc.residual(a * h1 + b * h2, k)
        rhs = a * sc.residual(h1, k) + b * sc.residual(h2, k)
        assert np.abs(lhs - rhs).max() < 1e-12 * np.abs(rhs).max()

    def test_fft_and_direct_paths_agree(self, cfg_64_16, cfg_rect_4, rng):
        # rectangular Q=1 residual is exactly zero, so scale by the input there
        for cfg in (cfg_64_16, cfg_rect_4):
            k = get_kernel(cfg)
            h = random_spectrogram(rng, 7, cfg.window_len)
            r_fft = sc.residual(h, k)
            r_direct = residual_direct(h, cfg)
            scale = max(np.abs(r_fft).max(), np.abs(h).max())
            assert np.abs(r_fft - r_direct).max() < 1e-12 * scale

    def test_config_mismatch_rejected(self, cfg_512_128, cfg_256_64, rng):
        k = get_kernel(cfg_256_64)
        h = stft(rng.standard_normal(2000), cfg_512_128)
        with pytest.raises(sc.InputError):
            sc.residual(h, k)

    def test_boundary_frames_treated_as_zero(self, cfg_64_16, rng):
        # single-frame spectrogram: all cross-frame terms must vanish cleanly
        k = get_kernel(cfg_64_16)
        h = random_spectrogram(rng, 1, 64)
        r = sc.residual(h, k)
        oracle = project(h, cfg_64_16).data - h
        assert np.abs(r - oracle).max() < 1e-11 * np.abs(oracle).max()


class TestLossEc:
    def test_near_zero_for_true_stfts(self, cfg_512_128, rng):
        k = get_kernel(cfg_512_128)
        for _ in range(5):
            x = rng.standard_normal(2048)
            h = stft(x, cfg_512_128)
            norm_sq = np.vdot(h.data, h.data).real
            assert sc.loss_ec(h, k) < 1e-16 * norm_sq

    def test_positive_for_random_spectrograms(self, cfg_256_64, rng):
        k = get_kernel(cfg_256_64)
        for _ in range(20):
            h = random_spectrogram(rng, 10, 256)
            assert sc.loss_ec(h, k) > 0.0

    def test_matches_projection_norm(self, cfg_256_64, rng):
        k = get_kernel(cfg_256_64)
        h = random_spectrogram(rng, 12, 256)
        diff = project(h, cfg_256_64).data - h
        oracle = np.vdot(diff, diff).real
        assert abs(sc.loss_ec(h, k) - oracle) < 1e-9 * oracle

    @pytest.mark.parametrize("theta", [np.pi / 7, np.pi / 2, np.pi, 1.999 * np.pi])
    def test_global_phase_shift_invariance_ulps(self, cfg_64_16, rng, theta):
        k = get_kernel(cfg_64_16)
        h = random_spectrogram(rng, 9, 64)
        base = sc.loss_ec(h, k)
        shifted = sc.loss_ec(h * np.exp(1j * theta), k)
        assert abs(shifted - base) <= 4.0 * np.spacing(base)

    # Rounding the residual moves the loss by up to 2 ulps even under exact
    # summation, so with any float reduction some rare input passes 4 ulps;
    # the examples are fixed to keep the suite reproducible. A single einsum
    # over all values fails about one example in three, one einsum row per
    # frame about one in 200.
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(size=st.sampled_from([(16, 4), (32, 8), (64, 16), (128, 32), (256, 64), (512, 128)]),
           m=st.integers(1, 24), theta=st.floats(0.0, 2 * np.pi),
           seed=st.integers(0, 2**32 - 1))
    def test_global_phase_shift_invariance_ulps_property(self, size, m, theta, seed):
        cfg = sc.make_config(*size)
        h = random_spectrogram(np.random.default_rng(seed), m, cfg.window_len)
        base = sc.loss_ec(h, cfg)
        assert abs(sc.loss_ec(h * np.exp(1j * theta), cfg) - base) <= 4.0 * np.spacing(base)


# Q = 4 in each; the frame counts cover M < Q, one block, a block and a frame
# on either side of it, and several blocks with a partial last one.
BLOCKED_CONFIGS = [(64, 16, "hann"), (512, 128, "hann"), (16, 4, "rectangular")]
_EDGE_FRAMES = [1, 3, 4, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 3 * _BLOCK + 4]
blocked_frames = st.one_of(st.sampled_from(_EDGE_FRAMES), st.integers(1, 3 * _BLOCK + 4))


def _complex_blocked_loss(h, config):
    """``(loss_ec, ||H||^2)`` by a plain complex blocked loop: the oracle whose
    bits ``loss_ec`` and a spectrogram's ``consistency_measure`` must keep."""
    m, halo = h.shape[0], config.overlap_factor - 1
    ws = _Workspace((min(m, _BLOCK + 2 * halo), config.window_len), config)
    loss = norm_sq = 0.0
    for a in range(0, m, _BLOCK):
        b = min(a + _BLOCK, m)
        lo, hi = max(0, a - halo), min(m, b + halo)
        u = np.fft.ifft(h[lo:hi], axis=1)
        e = ws.error(u, ws.synthesis_n, config.analysis_window, ws.e[: hi - lo])
        loss += _sum_squares(e[a - lo : b - lo])
        norm_sq += _sum_squares(h[a:b])
    return config.window_len * loss, norm_sq


class TestBlockedSums:
    """``loss_ec`` and ``consistency_measure`` sum by blocks; ``_apply`` is the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(size=st.sampled_from(BLOCKED_CONFIGS), m=blocked_frames,
           seed=st.integers(0, 2**32 - 1))
    def test_spectrogram_path_keeps_its_bits(self, size, m, seed):
        cfg = sc.make_config(*size)
        h = random_spectrogram(np.random.default_rng(seed), m, cfg.window_len)
        loss, norm_sq = _complex_blocked_loss(h, cfg)
        assert sc.loss_ec(h, cfg) == loss
        assert sc.consistency_measure(h, cfg) == float(np.sqrt(loss / norm_sq))

    @settings(max_examples=60, deadline=None)
    @given(size=st.sampled_from(BLOCKED_CONFIGS), m=blocked_frames,
           seed=st.integers(0, 2**32 - 1))
    def test_loss_ec_matches_the_full_residual(self, size, m, seed):
        cfg = sc.make_config(*size)
        h = random_spectrogram(np.random.default_rng(seed), m, cfg.window_len)
        oracle = _sum_squares(_apply(h, cfg, cfg.analysis_window, cfg.synthesis_window))
        assert abs(sc.loss_ec(h, cfg) - oracle) <= 1e-12 * oracle

    @settings(max_examples=60, deadline=None)
    @given(size=st.sampled_from(BLOCKED_CONFIGS), m=blocked_frames,
           seed=st.integers(0, 2**32 - 1))
    def test_measure_matches_the_full_residual(self, size, m, seed):
        cfg = sc.make_config(*size)
        h = random_spectrogram(np.random.default_rng(seed), m, cfg.window_len)
        loss = _sum_squares(_apply(h, cfg, cfg.analysis_window, cfg.synthesis_window))
        oracle = np.sqrt(loss / _sum_squares(h))
        assert abs(sc.consistency_measure(h, cfg) - oracle) <= 1e-12 * oracle


class TestLossEcPhase:
    def test_clean_pair_is_consistent(self, cfg_256_64, rng):
        k = get_kernel(cfg_256_64)
        h = stft(rng.standard_normal(1500), cfg_256_64)
        mag, phase = h.magnitude, h.phase
        norm_sq = np.vdot(h.data, h.data).real
        assert sc.loss_ec_phase(mag, phase, k) < 1e-16 * norm_sq

    def test_sign_indeterminacy_ulps(self, cfg_64_16, rng):
        k = get_kernel(cfg_64_16)
        mag = rng.uniform(0, 1, (9, 64))
        phase = rng.uniform(-np.pi, np.pi, (9, 64))
        a = sc.loss_ec_phase(mag, phase, k)
        b = sc.loss_ec_phase(mag, phase + np.pi, k)
        assert abs(a - b) <= 4.0 * np.spacing(a)

    def test_pinned_sine_random_phase_regression(self):
        cfg = sc.make_config(256, 64, "hann")
        sig = sc.synth("sine", {"freq": 440.0, "amp": 0.8}, 8000, 0.25)
        mag = stft(sig, cfg).magnitude
        rng = np.random.default_rng(12345)
        phase = np.pi - rng.uniform(0, 2 * np.pi, mag.shape)
        value = sc.loss_ec_phase(mag, phase, get_kernel(cfg))
        assert value > 0.0
        assert abs(value - PINNED_SINE_RANDOM_PHASE_LOSS) < 1e-9 * PINNED_SINE_RANDOM_PHASE_LOSS

    def test_shape_mismatch_rejected(self, cfg_64_16):
        k = get_kernel(cfg_64_16)
        with pytest.raises(sc.InputError):
            sc.loss_ec_phase(np.ones((3, 64)), np.ones((4, 64)), k)


def operator_and_adjoint(h, g, cfg):
    """<C h, g> and <h, C^H g>, with C^H the window-swapped operator."""
    w, s = cfg.analysis_window, cfg.synthesis_window
    return (np.vdot(_apply(h, cfg, w, s), g), np.vdot(h, _apply(g, cfg, s, w)))


class TestAdjointAndGradient:
    def test_adjoint_identity(self, cfg_64_16, cfg_256_64, rng):
        for cfg, m in ((cfg_64_16, 9), (cfg_256_64, 6)):
            h = random_spectrogram(rng, m, cfg.window_len)
            g = random_spectrogram(rng, m, cfg.window_len)
            lhs, rhs = operator_and_adjoint(h, g, cfg)
            assert abs(lhs - rhs) < 1e-12 * abs(lhs)

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 12), kind=st.sampled_from(WINDOW_KINDS),
           seed=st.integers(0, 2**32 - 1))
    def test_adjoint_identity_property(self, m, kind, seed):
        # m < Q makes every frame an edge frame, where C^H C differs from -C
        cfg = sc.make_config(16, 4, kind)
        rng = np.random.default_rng(seed)
        h = random_spectrogram(rng, m, 16)
        g = random_spectrogram(rng, m, 16)
        lhs, rhs = operator_and_adjoint(h, g, cfg)
        scale = np.linalg.norm(h) * np.linalg.norm(g)
        assert abs(lhs - rhs) < 1e-12 * scale

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(1, 12), kind=st.sampled_from(WINDOW_KINDS),
           theta=st.floats(-np.pi, np.pi), seed=st.integers(0, 2**32 - 1))
    def test_loss_global_phase_and_sign_invariance(self, m, kind, theta, seed):
        k = get_kernel(sc.make_config(16, 4, kind))
        h = random_spectrogram(np.random.default_rng(seed), m, 16)
        base = sc.loss_ec(h, k)
        for other in (h * np.exp(1j * theta), -h):
            assert abs(sc.loss_ec(other, k) - base) <= 1e-12 * np.vdot(h, h).real

    def test_gradient_zero_at_consistent_pair(self, cfg_256_64, rng):
        k = get_kernel(cfg_256_64)
        h = stft(0.5 * rng.standard_normal(1200), cfg_256_64)
        grad = sc.grad_loss_ec_phase(h.magnitude, h.phase, k)
        assert np.abs(grad).max() < 1e-8

    def test_gradient_matches_finite_differences(self, cfg_64_16, rng):
        k = get_kernel(cfg_64_16)
        mag = rng.uniform(0, 1, (12, 64))
        phase = rng.uniform(-np.pi, np.pi, (12, 64))
        _, grad = ec_loss_and_grad(mag, phase, k)
        eps = 1e-6
        worst = 0.0
        for idx in [(0, 0), (5, 17), (11, 63), (3, 32), (8, 1)]:
            plus, minus = phase.copy(), phase.copy()
            plus[idx] += eps
            minus[idx] -= eps
            fd = (sc.loss_ec_phase(mag, plus, k)
                  - sc.loss_ec_phase(mag, minus, k)) / (2 * eps)
            worst = max(worst, abs(grad[idx] - fd) / max(abs(fd), 1e-12))
        assert worst < 1e-5

    def test_gradient_2pi_periodic(self, cfg_64_16, rng):
        k = get_kernel(cfg_64_16)
        mag = rng.uniform(0, 1, (6, 64))
        phase = rng.uniform(-np.pi, np.pi, (6, 64))
        g1 = sc.grad_loss_ec_phase(mag, phase, k)
        g2 = sc.grad_loss_ec_phase(mag, phase + 2 * np.pi, k)
        assert np.abs(g1 - g2).max() < 1e-10 * max(np.abs(g1).max(), 1.0)


def apply_oracle_loss_and_grad(mag, phase, cfg):
    """||C H||^2 and Im(conj(H) * 2 C^H C H), with ``_apply`` in both directions."""
    w, s = cfg.analysis_window, cfg.synthesis_window
    h = mag * np.exp(1j * phase)
    r = _apply(h, cfg, w, s)
    return np.vdot(r, r).real, np.imag(np.conj(h) * 2.0 * _apply(r, cfg, s, w))


class TestTwoTransformLossAndGrad:
    """The Parseval evaluation against the operator it replaces."""

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 12), shape=st.sampled_from([(64, 16, "hann"),
                                                        (16, 4, "rectangular")]),
           zero_rows=st.sets(st.integers(0, 11)), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_apply_oracle(self, m, shape, zero_rows, seed):
        # m < Q makes every frame an edge frame
        cfg = sc.make_config(*shape)
        rng = np.random.default_rng(seed)
        mag = rng.uniform(0.0, 2.0, (m, cfg.window_len))
        mag[[i for i in zero_rows if i < m]] = 0.0
        phase = rng.uniform(-4.0, 4.0, mag.shape)
        loss, grad = ec_loss_and_grad(mag, phase, cfg)
        loss_ref, grad_ref = apply_oracle_loss_and_grad(mag, phase, cfg)
        assert abs(loss - loss_ref) <= 1e-12 * loss_ref
        # The gradient scales as ||H||^2, and vanishes where C only scales each
        # frame (rectangular, m < Q), so it is compared at that scale.
        assert np.linalg.norm(grad - grad_ref) <= 1e-12 * np.sum(mag ** 2)

        # A reused workspace leaves nothing behind for the next phase.
        workspace = _Workspace(mag.shape, cfg)
        workspace.loss(phase, mag)
        workspace.gradient()
        other = rng.uniform(-4.0, 4.0, mag.shape)
        loss_fresh, grad_fresh = ec_loss_and_grad(mag, other, cfg)
        assert workspace.loss(other, mag) == loss_fresh
        loss_reused, grad_reused = workspace.gradient()
        assert loss_reused == loss_fresh
        np.testing.assert_array_equal(grad_reused, grad_fresh)

        # Without a workspace every call returns its own gradient.
        _, again = ec_loss_and_grad(mag, phase, cfg)
        assert not np.shares_memory(grad, again)

    def test_zero_magnitude_gives_zero_loss_and_gradient(self, cfg_64_16, rng):
        loss, grad = ec_loss_and_grad(np.zeros((5, 64)),
                                      rng.uniform(-np.pi, np.pi, (5, 64)), cfg_64_16)
        assert loss == 0.0
        assert not np.any(grad)

    def test_two_transforms_per_frame(self, cfg_512_128, rng, monkeypatch):
        points = [0]

        def counting(transform):
            def wrapper(x, *args, **kwargs):
                out = transform(x, *args, **kwargs)
                points[0] += out.size
                return out
            return wrapper

        monkeypatch.setattr(np.fft, "fft", counting(np.fft.fft))
        monkeypatch.setattr(np.fft, "ifft", counting(np.fft.ifft))
        m, n = 128, cfg_512_128.window_len
        mag = rng.uniform(0, 1, (m, n))
        phase = rng.uniform(-np.pi, np.pi, (m, n))
        ec_loss_and_grad(mag, phase, cfg_512_128)
        assert points[0] == 2 * m * n == 131072
        points[0] = 0
        sc.residual(mag * np.exp(1j * phase), cfg_512_128)
        assert points[0] == 2 * m * n


class TestIffCharacterization:
    def test_real_signals_consistent_random_not(self, cfg_256_64, rng):
        k = get_kernel(cfg_256_64)
        for _ in range(50):
            x = rng.standard_normal(int(rng.integers(300, 3000)))
            h = stft(x, cfg_256_64)
            norm_sq = np.vdot(h.data, h.data).real
            assert sc.loss_ec(h, k) / norm_sq < 1e-14
        for _ in range(50):
            h = random_spectrogram(rng, int(rng.integers(4, 20)), 256)
            assert sc.loss_ec(h, k) > 0.0
