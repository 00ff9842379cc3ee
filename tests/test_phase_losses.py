import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specconsist as sc
from specconsist import phase_losses as pl
from specconsist.stft import _polar, _shifted_square_sum, istft, stft


# The losses' formulas in the phase difference P - P', which they evaluated
# before they read phasors and overlap-adds: the oracle of TestPhasorForms.
def difference_cos(p, q):
    delta = p - q
    return float(-np.sum(np.cos(delta))), -np.sin(delta)


def difference_complex(p, q, a, norm):
    delta = p - q
    if norm == "L2":
        return float(np.sum(2.0 * a * (1.0 - np.cos(delta)))), -2.0 * a * np.sin(delta)
    dist = np.sqrt(np.maximum(2.0 - 2.0 * np.cos(delta), 0.0))
    return float(np.sum(a * dist)), -a * np.sin(delta) / np.maximum(dist, 1e-300)


def resynthesized_time(p, q, a, config, norm):
    """The time loss from ``istft`` of each phase; also returns both signals.

    Each spectrogram comes from the library's polar builder and ``istft`` takes
    the loss's overlap-add, so the value is bitwise the loss's at any N.
    """
    m, n, r = p.shape[0], config.window_len, config.hop
    y_ref, y_est = (istft(sc.Spectrogram(_polar(x, a), config),
                          length=m * r).samples for x in (p, q))
    diff = y_ref - y_est
    if norm == "L2":
        value, rho = float(np.sum(diff ** 2)), -2.0 * diff
    else:
        value, rho = float(np.sum(np.abs(diff))), -np.sign(diff)
    padded = np.concatenate([np.zeros(n - r), rho])
    frames = np.lib.stride_tricks.sliding_window_view(padded, n)[::r][:m]
    u = np.fft.fft(frames * config.synthesis_window, axis=1)
    return value, -np.imag(np.conj(u) * _polar(q, a)), y_ref, y_est


class TestLossCos:
    def test_equal_phases_on_10x8(self):
        p = np.linspace(-3, 3, 80).reshape(10, 8)
        assert pl.loss_cos(p, p) == pytest.approx(-80.0)

    def test_2pi_periodicity(self):
        p = np.linspace(-3, 3, 80).reshape(10, 8)
        assert pl.loss_cos(p, p + 2 * np.pi) == pytest.approx(-80.0)

    def test_quarter_turn_gives_zero(self):
        p = np.zeros((10, 8))
        assert pl.loss_cos(p, p + np.pi / 2) == pytest.approx(0.0, abs=1e-12)

    def test_elementwise_integer_wraps(self, rng):
        p = rng.uniform(-np.pi, np.pi, (6, 9))
        q = rng.uniform(-np.pi, np.pi, (6, 9))
        k = rng.integers(-3, 4, (6, 9))
        assert pl.loss_cos(p, q + 2 * np.pi * k) == pytest.approx(
            pl.loss_cos(p, q), rel=1e-12)

    def test_lower_bound(self, rng):
        p = rng.uniform(-np.pi, np.pi, (7, 5))
        q = rng.uniform(-np.pi, np.pi, (7, 5))
        assert pl.loss_cos(p, q) >= -35.0


class TestLossComplex:
    def test_zero_at_equal_phases(self, rng):
        p = rng.uniform(-np.pi, np.pi, (5, 6))
        a = rng.uniform(0, 2, (5, 6))
        assert pl.loss_complex(p, p, a, "L2") == pytest.approx(0.0, abs=1e-12)
        assert pl.loss_complex(p, p, a, "L1") == pytest.approx(0.0, abs=1e-12)

    def test_l2_equals_magnitude_weighted_cosine_form(self, rng):
        for _ in range(20):
            p = rng.uniform(-np.pi, np.pi, (8, 16))
            q = rng.uniform(-np.pi, np.pi, (8, 16))
            a = rng.uniform(0, 3, (8, 16))
            got = pl.loss_complex(p, q, a, "L2")
            want = float(np.sum(2 * a * (1 - np.cos(p - q))))
            assert abs(got - want) < 1e-12 * max(want, 1.0)

    def test_zero_weight_kills_loss(self, rng):
        p = rng.uniform(-np.pi, np.pi, (4, 4))
        q = rng.uniform(-np.pi, np.pi, (4, 4))
        assert pl.loss_complex(p, q, np.zeros((4, 4)), "L2") == 0.0
        assert pl.loss_complex(p, q, np.zeros((4, 4)), "L1") == 0.0

    def test_negative_weights_rejected(self):
        p = np.zeros((2, 2))
        with pytest.raises(sc.InputError):
            pl.loss_complex(p, p, -np.ones((2, 2)), "L2")

    def test_l1_gradient_near_equal_phases_is_the_weight(self):
        # |A e^{jP} - A e^{jP'}| is A|P - P'| near P' = P, so its slope is -+A;
        # sqrt(2 - 2cos) rounds the distance to 0 below about 1e-8 and divided
        # by 1e-300 instead.
        p = np.array([[0.3, 1.0, -2.0, 2.5]])
        q = p + np.array([[1e-9, -1e-12, 1e-7, -1e-10]])
        a = np.array([[1.0, 2.0, 0.5, 3.0]])
        value, grad = pl.complex_value_and_grad(p, q, a, "L1")
        assert value == pytest.approx(np.sum(a * np.abs(p - q)), rel=1e-3)
        np.testing.assert_allclose(grad, a * np.sign(q - p), rtol=1e-3)

    def test_nonnegative(self, rng):
        p = rng.uniform(-np.pi, np.pi, (6, 6))
        q = rng.uniform(-np.pi, np.pi, (6, 6))
        a = rng.uniform(0, 1, (6, 6))
        assert pl.loss_complex(p, q, a, "L2") >= 0.0
        assert pl.loss_complex(p, q, a, "L1") >= 0.0


class TestLossTime:
    def test_zero_at_equal_phases(self, cfg_64_16, rng):
        p = rng.uniform(-np.pi, np.pi, (8, 64))
        a = rng.uniform(0, 1, (8, 64))
        assert pl.loss_time(p, p, a, cfg_64_16, "L2") == 0.0

    def test_upper_bound_from_synthesis_window_energy(self, cfg_64_16, rng):
        # ||iSTFT(D)||^2 <= N * max_n sum_q S[n+qR]^2 * ||D||_F^2, and for
        # magnitudes in [0, 1) the Frobenius bound is below the weighted loss
        n, r = 64, 16
        s = cfg_64_16.synthesis_window
        c = n * _shifted_square_sum(s, r).max()
        for _ in range(100):
            m = int(rng.integers(4, 10))
            p = rng.uniform(-np.pi, np.pi, (m, n))
            q = rng.uniform(-np.pi, np.pi, (m, n))
            a = rng.uniform(0, 1, (m, n))
            t_l2 = pl.loss_time(p, q, a, cfg_64_16, "L2")
            comp = pl.loss_complex(p, q, a, "L2")
            assert t_l2 <= c * comp + 1e-12

    def test_sign_flip_is_four_times_energy(self, cfg_256_64):
        sig = sc.synth("sine", {"freq": 500.0, "amp": 0.7}, 8000, 0.3)
        spec = stft(sig, cfg_256_64)
        a, p = spec.magnitude, spec.phase
        got = pl.loss_time(p, p + np.pi, a, cfg_256_64, "L2")
        want = 4.0 * float(np.dot(sig.samples, sig.samples))
        assert abs(got - want) < 1e-9 * want

    def test_nonnegative(self, cfg_64_16, rng):
        p = rng.uniform(-np.pi, np.pi, (5, 64))
        q = rng.uniform(-np.pi, np.pi, (5, 64))
        a = rng.uniform(0, 1, (5, 64))
        assert pl.loss_time(p, q, a, cfg_64_16, "L2") >= 0.0
        assert pl.loss_time(p, q, a, cfg_64_16, "L1") >= 0.0

    @pytest.mark.parametrize("norm", ["L1", "L2"])
    def test_negative_weights_rejected(self, cfg_64_16, norm):
        p = np.zeros((4, 64))
        with pytest.raises(sc.InputError, match="nonnegative"):
            pl.loss_time(p, p, -np.ones((4, 64)), cfg_64_16, norm)
        with pytest.raises(sc.InputError, match="nonnegative"):
            pl.loss_report(f"time_{norm.lower()}", p, p, -np.ones((4, 64)), cfg_64_16)

    @pytest.mark.parametrize("config", [None, "hann"])
    def test_missing_config_rejected(self, config):
        p = np.zeros((4, 64))
        with pytest.raises(sc.InputError, match="StftConfig"):
            pl.loss_report("time_l2", p, p, np.ones((4, 64)), config)
        with pytest.raises(sc.InputError, match="StftConfig"):
            pl.loss_time(p, p, np.ones((4, 64)), config)


class TestPhasorForms:
    """The cos and complex losses against ``difference_*``, the time losses against
    ``resynthesized_time``. The bounds are about 10x the worst seen over 300
    random draws like these (2,000 more for L1)."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_match_the_phase_difference_formulas(self, data):
        draw = data.draw
        n, r, kind = draw(st.sampled_from([(16, 4, "rectangular"), (64, 16, "hann"),
                                           (48, 12, "hann"), (512, 128, "hann")]))
        config = sc.make_config(n, r, kind)
        m = draw(st.integers(n // r, 24))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        p = rng.uniform(-np.pi, np.pi, (m, n))
        q = rng.uniform(-np.pi, np.pi, (m, n))
        close = rng.random((m, n)) < draw(st.sampled_from([0.0, 0.2]))
        q[close] = p[close] + rng.uniform(-1e-6, 1e-6, close.sum())
        a = rng.uniform(0, 2, (m, n))
        a[rng.random((m, n)) < 0.1] = 0.0
        dist = np.abs(np.exp(1j * p) - np.exp(1j * q))

        value, grad = pl.cos_value_and_grad(p, q)
        want_value, want_grad = difference_cos(p, q)
        assert abs(value - want_value) <= 1e-15 * p.size
        np.testing.assert_allclose(grad, want_grad, rtol=0, atol=5e-15)

        value, grad = pl.complex_value_and_grad(p, q, a, "L2")
        want_value, want_grad = difference_complex(p, q, a, "L2")
        assert abs(value - want_value) <= 5e-15 * a.sum()
        assert np.all(np.abs(grad - want_grad) <= 1e-14 * a)

        # 2 - 2cos loses digits as the distance d goes to 0: the formula's d is
        # off by about 1e-16/d, and its gradient by 1e-16/d^2 relative. Below
        # d = 1e-6 its gradient is not meaningful, and it is not compared.
        value, grad = pl.complex_value_and_grad(p, q, a, "L1")
        want_value, want_grad = difference_complex(p, q, a, "L1")
        bound = np.sum(a * (1e-15 + 1e-14 / np.maximum(dist, 1e-8)))
        assert abs(value - want_value) <= bound
        far = dist > 1e-6
        assert np.all((np.abs(grad - want_grad) * dist ** 2)[far] <= 1e-14 * a[far])

        # istft and the time losses share one overlap-add, so the value is
        # bitwise at any N. The gradient takes Im(conj(u) * h) from real
        # products, not a complex multiply.
        for norm in ("L1", "L2"):
            value, grad = pl.time_value_and_grad(p, q, a, config, norm)
            want_value, want_grad, y_ref, y_est = resynthesized_time(p, q, a, config,
                                                                     norm)
            assert value == want_value
            power = 2 if norm == "L2" else 1
            scale = np.sum(np.abs(y_ref) ** power) + np.sum(np.abs(y_est) ** power)
            assert abs(value - want_value) <= 5e-15 * scale
            np.testing.assert_allclose(grad, want_grad, rtol=0,
                                       atol=5e-15 * np.abs(want_grad).max())


class TestLossAw:
    def test_whole_wraps_removed(self, rng):
        p = rng.uniform(-np.pi, np.pi, (10, 8))
        k = rng.integers(-5, 6, (10, 8))
        assert pl.loss_aw(p, p + 2 * np.pi * k) == pytest.approx(0.0, abs=1e-22)

    def test_pi_offset_on_10x8(self):
        p = np.zeros((10, 8))
        assert pl.loss_aw(p, p + np.pi) == pytest.approx(80 * np.pi ** 2, rel=1e-12)

    def test_gradient_is_minus_twice_the_principal_wrap(self, rng):
        # aw wraps by the rule of the _derv losses, into (-pi, pi]; rules differ at
        # the ties, so row 0 holds offsets of exactly +-pi and within ulps of +-3*pi
        t = rng.uniform(-1000.0, 1000.0, (4, 64))
        e = rng.uniform(-10.0, 10.0, t.shape)
        near_3pi = 3 * np.pi + np.arange(-4, 5) * np.spacing(3 * np.pi)
        t[0, :20] = np.concatenate(([np.pi, -np.pi], near_3pi, -near_3pi))
        e[0] = 0.0
        _, grad = pl.aw_value_and_grad(t, e)
        assert grad.tobytes() == (-2.0 * pl.wrap_principal(t - e)).tobytes()

    def test_small_offset_no_wrap(self):
        p = np.zeros((10, 8))
        assert pl.loss_aw(p, p + 0.1) == pytest.approx(0.8, rel=1e-12)

    def test_nonnegative_and_zero_iff_wrapped_equal(self, rng):
        p = rng.uniform(-np.pi, np.pi, (6, 6))
        q = rng.uniform(-np.pi, np.pi, (6, 6))
        assert pl.loss_aw(p, q) >= 0.0
        assert pl.loss_aw(p, p) == 0.0


class TestPhaseDerivatives:
    """The group delay (axis 1) and instantaneous frequency (axis 0) that the
    ``_derv`` losses run."""

    def test_constant_phase_zero_off_boundary(self):
        p = np.full((5, 9), 0.7)
        gd = pl._wrapped_diff(p, axis=1)
        np.testing.assert_allclose(gd[:, 1:], 0.0, atol=1e-15)
        np.testing.assert_allclose(gd[:, 0], 0.7)

    def test_linear_phase_constant_slope(self):
        c = 0.45
        p = c * np.arange(12)[None, :] * np.ones((3, 1))
        gd = pl._wrapped_diff(p, axis=1)
        np.testing.assert_allclose(gd[:, 1:], c, atol=1e-12)

    def test_global_shift_invariance_off_boundary(self, rng):
        p = rng.uniform(-np.pi, np.pi, (6, 10))
        gd1 = pl._wrapped_diff(p, axis=1)
        gd2 = pl._wrapped_diff(p + 1.3, axis=1)
        np.testing.assert_allclose(gd1[:, 1:], gd2[:, 1:], atol=1e-12)

    def test_inst_freq_mirrors_group_delay(self, rng):
        p = rng.uniform(-np.pi, np.pi, (7, 5))
        np.testing.assert_allclose(pl._wrapped_diff(p, axis=0),
                                   pl._wrapped_diff(p.T, axis=1).T)

    def test_wrap_lands_in_principal_interval(self, rng):
        p = rng.uniform(-20, 20, (6, 6))
        gd = pl._wrapped_diff(p, axis=1)
        assert np.all(gd > -np.pi) and np.all(gd <= np.pi)


def wrapped_diff(p, axis):
    """Oracle of ``_wrapped_diff``: the backward difference along ``axis`` (the
    first entry kept), wrapped into (-pi, pi] through ``np.mod``. Rounding may
    give -pi for pi; every loss here is 2*pi-periodic."""
    return np.pi - np.mod(np.pi - np.diff(p, axis=axis, prepend=0.0), 2.0 * np.pi)


class TestLossWithDerivatives:
    def test_self_value_is_three_base_values(self):
        p = np.linspace(-2, 2, 60).reshape(6, 10)
        assert pl.loss_with_derivatives(p, p, "cos") == pytest.approx(-3 * 60.0)
        assert pl.loss_with_derivatives(p, p, "aw") == pytest.approx(0.0, abs=1e-20)

    def test_global_shift_kills_interior_derivative_terms(self, rng):
        # exact cancellation up to one rounding of the shifted sums
        p = rng.uniform(-np.pi, np.pi, (6, 10))
        q = p + 0.9
        gd_p, gd_q = wrapped_diff(p, 1), wrapped_diff(q, 1)
        if_p, if_q = wrapped_diff(p, 0), wrapped_diff(q, 0)
        assert pl.loss_aw(gd_p[:, 1:], gd_q[:, 1:]) == pytest.approx(0.0, abs=1e-25)
        assert pl.loss_aw(if_p[1:, :], if_q[1:, :]) == pytest.approx(0.0, abs=1e-25)

    def test_decomposes_into_three_base_losses(self, rng):
        p = rng.uniform(-np.pi, np.pi, (8, 12))
        q = rng.uniform(-np.pi, np.pi, (8, 12))
        for base, fn in (("cos", pl.loss_cos), ("aw", pl.loss_aw)):
            got = pl.loss_with_derivatives(p, q, base)
            want = (fn(p, q)
                    + fn(wrapped_diff(p, 1), wrapped_diff(q, 1))
                    + fn(wrapped_diff(p, 0), wrapped_diff(q, 0)))
            assert abs(got - want) < 1e-12 * max(abs(want), 1.0)


class TestGradients:
    """Central finite differences as the oracle; inputs drawn inside (-1, 1)
    so no wrap kinks are crossed."""

    EPS = 1e-6
    TOL = 1e-5

    def _fd_check(self, value_and_grad, value_fn, p_est, rng, npts=6):
        _, grad = value_and_grad(p_est)
        m, n = p_est.shape
        for _ in range(npts):
            idx = (int(rng.integers(m)), int(rng.integers(n)))
            plus, minus = p_est.copy(), p_est.copy()
            plus[idx] += self.EPS
            minus[idx] -= self.EPS
            fd = (value_fn(plus) - value_fn(minus)) / (2 * self.EPS)
            assert abs(grad[idx] - fd) <= self.TOL * max(abs(fd), 1e-8)

    def test_all_losses(self, cfg_64_16, rng):
        m, n = 10, 64
        p = rng.uniform(-1, 1, (m, n))
        q = rng.uniform(-1, 1, (m, n))
        a = rng.uniform(0.1, 1, (m, n))
        cases = [
            (lambda x: pl.cos_value_and_grad(p, x), lambda x: pl.loss_cos(p, x)),
            (lambda x: pl.aw_value_and_grad(p, x), lambda x: pl.loss_aw(p, x)),
            (lambda x: pl.complex_value_and_grad(p, x, a, "L2"),
             lambda x: pl.loss_complex(p, x, a, "L2")),
            (lambda x: pl.complex_value_and_grad(p, x, a, "L1"),
             lambda x: pl.loss_complex(p, x, a, "L1")),
            (lambda x: pl.time_value_and_grad(p, x, a, cfg_64_16, "L2"),
             lambda x: pl.loss_time(p, x, a, cfg_64_16, "L2")),
            (lambda x: pl.time_value_and_grad(p, x, a, cfg_64_16, "L1"),
             lambda x: pl.loss_time(p, x, a, cfg_64_16, "L1")),
            (lambda x: pl.derivative_value_and_grad(p, x, "cos"),
             lambda x: pl.loss_with_derivatives(p, x, "cos")),
            (lambda x: pl.derivative_value_and_grad(p, x, "aw"),
             lambda x: pl.loss_with_derivatives(p, x, "aw")),
        ]
        for vag, vfn in cases:
            self._fd_check(vag, vfn, q, rng)

    def test_gradient_zero_at_minimum(self, rng):
        p = rng.uniform(-np.pi, np.pi, (5, 7))
        a = rng.uniform(0, 1, (5, 7))
        for _, g in (pl.cos_value_and_grad(p, p),
                     pl.aw_value_and_grad(p, p),
                     pl.complex_value_and_grad(p, p, a, "L2")):
            assert np.abs(g).max() < 1e-14


class TestLossReport:
    @settings(max_examples=50, deadline=None)
    @given(m=st.integers(1, 9), n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_per_frame_sums_to_value(self, m, n, seed):
        # cos, aw and the complex losses are plain sums over bins, so over frames
        rng = np.random.default_rng(seed)
        p = rng.uniform(-np.pi, np.pi, (m, n))
        q = rng.uniform(-np.pi, np.pi, (m, n))
        a = rng.uniform(0, 1, (m, n))
        for name, mag in (("cos", None), ("aw", None), ("comp_l1", a), ("comp_l2", a)):
            rows = sum(pl.loss_report(name, p[i:i + 1], q[i:i + 1],
                                      None if mag is None else mag[i:i + 1]).value
                       for i in range(m))
            assert rows == pytest.approx(pl.loss_report(name, p, q, mag).value, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(sc.InputError):
            pl.loss_cos(np.zeros((2, 3)), np.zeros((3, 2)))

    @pytest.mark.parametrize("name", [[], {}, "ec", "cos-derv", None, 3])
    def test_a_name_outside_the_table_is_input_error(self, name):
        with pytest.raises(sc.InputError, match="unknown loss"):
            pl.loss_report(name, np.zeros((2, 4)), np.zeros((2, 4)))

    @pytest.mark.parametrize("call, message", [
        (lambda p, q, a, cfg: pl.complex_value_and_grad(p, q, a, "L3"),
         "unknown norm 'L3'"),
        (lambda p, q, a, cfg: pl.loss_time(p, q, a, cfg, "l2"), "unknown norm 'l2'"),
        (lambda p, q, a, cfg: pl.derivative_value_and_grad(p, q, "comp_l2"),
         "unknown base loss 'comp_l2'"),
    ])
    def test_an_unknown_norm_or_base_is_input_error(self, cfg_64_16, rng, call, message):
        p, q = rng.uniform(-np.pi, np.pi, (2, 8, 64))
        with pytest.raises(sc.InputError, match=message):
            call(p, q, np.ones((8, 64)), cfg_64_16)
