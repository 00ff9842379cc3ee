"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import time
from pathlib import Path

import numpy as np

import specconsist as sc
from specconsist import cli
from specconsist.consistency import ec_loss_and_grad, get_kernel
from specconsist.phase_losses import (complex_value_and_grad,
                                      cos_value_and_grad, aw_value_and_grad,
                                      time_value_and_grad, loss_complex,
                                      loss_cos, loss_aw, loss_time)
from specconsist.solvers import SolverOptions, gd_reconstruct, griffin_lim
from specconsist.stft import project, stft

FIXTURES = Path(__file__).parent / "fixtures"
DESK_SCALE_PINNED = json.loads((FIXTURES / "desk_scale_pinned.json").read_text())


def _criterion(name, fn):
    try:
        fn()
    except Exception:
        print(f"[ACCEPTANCE] {name}: FAIL")
        raise
    print(f"[ACCEPTANCE] {name}: PASS")


def test_consistency_iff():
    def body():
        t0 = time.perf_counter()
        cfg = sc.make_config(512, 128, "hann")
        kernel = get_kernel(cfg)
        rng = np.random.default_rng(1001)
        for _ in range(1000):
            x = rng.standard_normal(int(rng.integers(512, 8193)))
            measure = sc.consistency_measure(stft(x, cfg), kernel)
            assert measure < 1e-7
        for _ in range(1000):
            m = int(rng.integers(4, 24))
            h = rng.standard_normal((m, 512)) + 1j * rng.standard_normal((m, 512))
            assert sc.consistency_measure(h, kernel) > 1e-3
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s"

    _criterion("consistency iff-test (1000+1000 signals, <30s)", body)


def test_projection_oracle_equivalence():
    def body():
        t0 = time.perf_counter()
        rng = np.random.default_rng(1002)
        configs = [sc.make_config(512, 128, "hann"),
                   sc.make_config(256, 64, "hann"),
                   sc.make_config(4, 4, "rectangular")]
        counts = [34, 33, 33]
        for cfg, count in zip(configs, counts):
            kernel = get_kernel(cfg)
            for _ in range(count):
                m = int(rng.integers(max(2, cfg.overlap_factor), 20))
                n = cfg.window_len
                h = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
                r = sc.residual(h, kernel)
                oracle = project(h, cfg).data - h
                scale = max(np.abs(oracle).max(), np.abs(h).max())
                assert np.abs(r - oracle).max() < 1e-9 * scale
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f}s"

    _criterion("projection-oracle equivalence (100 H, 3 configs, <10s)", body)


def test_phase_shift_invariance():
    def body():
        cfg = sc.make_config(256, 64, "hann")
        kernel = get_kernel(cfg)
        rng = np.random.default_rng(1003)
        thetas = (np.pi / 7, np.pi / 2, np.pi, 1.999 * np.pi)
        for _ in range(100):
            m = int(rng.integers(4, 14))
            h = rng.standard_normal((m, 256)) + 1j * rng.standard_normal((m, 256))
            base = sc.loss_ec(h, kernel)
            for theta in thetas:
                shifted = sc.loss_ec(h * np.exp(1j * theta), kernel)
                assert abs(shifted - base) / base < 1e-12

    _criterion("global phase-shift invariance (<1e-12 rel)", body)


def test_sign_indeterminacy():
    def body():
        cfg = sc.make_config(256, 64, "hann")
        kernel = get_kernel(cfg)
        rng = np.random.default_rng(1004)
        for _ in range(50):
            m = int(rng.integers(4, 12))
            mag = rng.uniform(0, 1, (m, 256))
            phase = rng.uniform(-np.pi, np.pi, (m, 256))
            a = sc.loss_ec_phase(mag, phase, kernel)
            b = sc.loss_ec_phase(mag, phase + np.pi, kernel)
            assert abs(a - b) / a < 1e-12
        x = rng.standard_normal(2000)
        spec = stft(x, cfg)
        plus = sc.reconstruct_signal(spec.magnitude, spec.phase + np.pi, cfg,
                                     length=2000)
        base = sc.reconstruct_signal(spec.magnitude, spec.phase, cfg,
                                     length=2000)
        assert np.abs(plus.samples + base.samples).max() < 1e-10

    _criterion("sign indeterminacy (loss equal, signal negated)", body)


def test_magnitude_weighted_identity():
    def body():
        rng = np.random.default_rng(1005)
        for _ in range(100):
            m, n = int(rng.integers(3, 16)), int(rng.integers(4, 64))
            p = rng.uniform(-np.pi, np.pi, (m, n))
            q = rng.uniform(-np.pi, np.pi, (m, n))
            a = rng.uniform(0, 2, (m, n))
            lhs = loss_complex(p, q, a, "L2")
            rhs = float(np.sum(2 * a * (1 - np.cos(p - q))))
            assert abs(lhs - rhs) < 1e-12 * max(rhs, 1e-30)

    _criterion("complex-L2 equals magnitude-weighted cosine form (1e-12)", body)


def test_gradient_suite():
    def body():
        cfg = sc.make_config(64, 16, "hann")
        kernel = get_kernel(cfg)
        rng = np.random.default_rng(1006)
        eps = 1e-6

        def fd_full(value_fn, phase):
            grad = np.zeros_like(phase)
            for i in range(phase.shape[0]):
                for j in range(phase.shape[1]):
                    plus, minus = phase.copy(), phase.copy()
                    plus[i, j] += eps
                    minus[i, j] -= eps
                    grad[i, j] = (value_fn(plus) - value_fn(minus)) / (2 * eps)
            return grad

        for _ in range(8):
            mag = rng.uniform(0.1, 1, (12, 64))
            target = rng.uniform(-1, 1, (12, 64))
            phase = rng.uniform(-1, 1, (12, 64))
            cases = [
                ("ec", lambda x: ec_loss_and_grad(mag, x, kernel)[1],
                 lambda x: sc.loss_ec_phase(mag, x, kernel)),
                ("cos", lambda x: cos_value_and_grad(target, x)[1],
                 lambda x: loss_cos(target, x)),
                ("aw", lambda x: aw_value_and_grad(target, x)[1],
                 lambda x: loss_aw(target, x)),
                ("comp_l2",
                 lambda x: complex_value_and_grad(target, x, mag, "L2")[1],
                 lambda x: loss_complex(target, x, mag, "L2")),
                ("time_l2",
                 lambda x: time_value_and_grad(target, x, mag, cfg, "L2")[1],
                 lambda x: loss_time(target, x, mag, cfg, "L2")),
            ]
            for name, grad_fn, value_fn in cases:
                analytic = grad_fn(phase)
                numeric = fd_full(value_fn, phase)
                rel = (np.abs(analytic - numeric).max()
                       / max(np.abs(numeric).max(), 1e-12))
                assert rel < 1e-5, f"{name}: rel {rel:.2e}"

    _criterion("gradient suite (5 losses x 8 instances, <1e-5)", body)


def test_griffin_lim_monotonicity():
    def body():
        cfg = sc.make_config(256, 64, "hann")
        sr = 8000
        signals = [
            sc.synth("sine", {"freq": 440.0, "amp": 0.6}, sr, 0.16),
            sc.synth("multisine", {"freqs": [300.0, 700.0, 1500.0],
                                   "amps": [0.4, 0.3, 0.2]}, sr, 0.16),
            sc.synth("chirp", {"f0": 100.0, "f1": 2000.0, "amp": 0.7}, sr, 0.16),
            sc.synth("noise", {"amp": 0.4, "seed": 5}, sr, 0.16),
            sc.synth("impulse", {"position": 600}, sr, 0.16),
        ]
        for signal in signals:
            mag = stft(signal, cfg).magnitude
            for seed in range(20):
                opts = SolverOptions(max_iters=100, init="random_uniform",
                                     seed=seed)
                _, trace = griffin_lim(mag, opts, cfg)
                losses = trace.losses
                assert len(losses) == 100
                assert np.all(np.diff(losses) <= 0.0)

    _criterion("Griffin-Lim monotone (5 magnitudes x 20 inits x 100 iters)",
               body)


def test_desk_scale_pr_experiment():
    def body():
        t0 = time.perf_counter()
        cfg = sc.make_config(512, 128, "hann")
        sr = 16000

        def ec_run(signal, iters, seed):
            mag = stft(signal, cfg).magnitude
            opts = SolverOptions(max_iters=iters, step_rule="relative",
                                 initial_step=0.5, init="random_uniform", seed=seed)
            phase, trace = gd_reconstruct(mag, "ec", None, opts, cfg)
            init_phase = np.pi - np.random.default_rng(seed).uniform(
                0, 2 * np.pi, mag.shape)
            rec0 = sc.reconstruct_signal(mag, init_phase, cfg, length=len(signal))
            rec1 = sc.reconstruct_signal(mag, phase, cfg, length=len(signal))
            snr0, _ = sc.aligned_snr(signal, rec0, 256)
            snr1, _ = sc.aligned_snr(signal, rec1, 256)
            first = trace.records[0].consistency_measure
            best = trace.records[trace.best_iteration].consistency_measure
            return first, best, snr0, snr1

        multi = sc.synth("multisine", {"freqs": [220.0, 495.0, 1210.0, 2750.0],
                                       "amps": [0.4, 0.3, 0.2, 0.1]}, sr, 1.0)
        m0, m1, s0, s1 = ec_run(multi, 2000, 0)
        pinned = DESK_SCALE_PINNED["multisine"]
        factor = m0 / m1
        assert abs(factor - pinned["reduction_factor"]) \
            < 1e-6 * pinned["reduction_factor"]
        assert m1 < m0
        assert s1 > s0, f"multisine SNR {s0:.3f} -> {s1:.3f}"

        chirp = sc.synth("chirp", {"f0": 200.0, "f1": 3000.0, "amp": 0.8},
                         sr, 0.5)
        _, _, cs0, cs1 = ec_run(chirp, 800, 0)
        assert cs1 > cs0, f"chirp SNR {cs0:.3f} -> {cs1:.3f}"

        t = np.arange(sr // 2) / sr
        env = np.sin(np.pi * np.arange(sr // 2) / (sr // 2)) ** 2
        am = sc.Signal(0.8 * env * np.sin(2 * np.pi * 440.0 * t), sr)
        _, _, as0, as1 = ec_run(am, 800, 0)
        assert as1 > as0, f"am tone SNR {as0:.3f} -> {as1:.3f}"

        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0, f"took {elapsed:.1f}s"

    _criterion("desk-scale PR experiment (pinned factor, SNR improves, <2min)",
               body)


def test_compare_determinism(tmp_path):
    def body():
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name, freq in (("a.wav", 440.0), ("b.wav", 650.0)):
            signal = sc.synth("sine", {"freq": freq, "amp": 0.4}, 8000, 0.2)
            sc.write_wav(signal, sc.WavMeta(8000, 1, "float32", len(signal)),
                         corpus / name)
        args = ["compare", str(corpus), "--losses", "ec,cos", "--iters", "5",
                "--seed", "11", "--window-len", "256", "--hop", "64"]
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    _criterion("compare determinism (bit-identical CSV)", body)
