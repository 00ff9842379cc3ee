import csv
import dataclasses
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import specconsist as sc
from specconsist import audio_io, cli, solvers
from specconsist.audio_io import WavMeta, write_wav
from specconsist.stft import WINDOW_KINDS, stft

from test_solvers import reference_gla_inconsistency


def make_wav(path, kind="sine", sr=8000, duration=0.25, **params):
    defaults = {"sine": {"freq": 440.0, "amp": 0.5}}
    signal = sc.synth(kind, params or defaults.get(kind, {}), sr, duration)
    write_wav(signal, WavMeta(sr, 1, "float32", len(signal)), path)
    return signal


STFT_FLAGS = ["--window-len", "256", "--hop", "64"]


class TestResolveConfig:
    def test_defaults_validate(self):
        cfg = cli.resolve_config()
        assert cfg["stft"] == {"window_len": 512, "hop": 128, "window_kind": "hann"}
        assert cfg["loss"] == "ec"

    def test_file_then_flag_precedence(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"stft": {"window_len": 256, "hop": 64},
                                        "seed": 9}))
        resolved = cli.resolve_config(cfg_file, {"seed": 17})
        assert resolved["stft"]["window_len"] == 256
        assert resolved["seed"] == 17

    def test_round_trip_idempotent(self):
        resolved = cli.resolve_config()
        again = cli.resolve_config(None, resolved)
        assert again == resolved

    def test_invalid_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps({"stft": {"window_len": 500, "hop": 64}}))
        with pytest.raises(sc.ConfigError):
            cli.resolve_config(cfg_file)


    @pytest.mark.parametrize("file_cfg", [
        {"stft": {"window_len": "abc"}},
        {"stft": {"hop": True}},
        {"stft": {"window_len": 256, "hop": 64, "bogus": 1}},
        {"stft": 5},
        {"metrics": {"search_radius": "5"}},
        {"metrics": {"search_radius": 2.5}},
        {"metrics": {"search_radius": True}},
        {"solver": {"max_iters": "abc"}},
        {"seed": None},
        {"io": {"output_dir": 3}},
    ])
    def test_malformed_values_are_input_errors(self, tmp_path, file_cfg):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps(file_cfg))
        with pytest.raises(sc.SpecConsistError):
            cli.resolve_config(cfg_file)
        wav = tmp_path / "in.wav"
        make_wav(wav, duration=0.05)
        assert cli.main(["analyze", str(wav), "--config", str(cfg_file),
                         "--out", str(tmp_path / "r.json")]) == cli.EXIT_INPUT


class TestTables:
    def test_solver_defaults_come_from_solver_options(self):
        defaults = sc.SolverOptions()
        section = dict(cli.DEFAULT_CONFIG["solver"])
        assert section.pop("kind") == "gd"
        fields = {f.name for f in dataclasses.fields(sc.SolverOptions)}
        assert set(section) == fields - {"seed", "init_phase"}
        assert section == {name: getattr(defaults, name) for name in section}
        assert cli.DEFAULT_CONFIG["seed"] == defaults.seed

    def test_every_loss_has_a_cli_spelling_and_runs(self, cfg_64_16):
        spellings = {name: flag for flag, name in cli.LOSS_FLAGS.items()}
        assert set(spellings) == set(solvers.LOSSES)
        parser = cli.build_parser()
        rng = np.random.default_rng(0)
        mag = rng.uniform(0, 1, (4, 64))
        target = rng.uniform(-np.pi, np.pi, (4, 64))
        for name in solvers.LOSSES:
            args = parser.parse_args(["reconstruct", "in.wav", "--loss", spellings[name]])
            assert cli._config_overrides(args)["loss"] == name
            _, trace = solvers.gd_reconstruct(
                mag, name, None if name == "ec" else target,
                sc.SolverOptions(max_iters=2), cfg_64_16)
            assert np.all(np.isfinite(trace.losses))

    def test_solver_section_extra_key_and_string_number(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(
            {"solver": {"extra_key": 1, "initial_step": "0.01", "max_iters": "7"}}))
        resolved = cli.resolve_config(cfg_file)
        assert resolved["solver"]["extra_key"] == 1
        assert resolved["solver"]["initial_step"] == "0.01"
        opts = cli._solver_options(resolved)
        assert (opts.initial_step, opts.max_iters) == (0.01, 7)


class TestAnalyze:
    def test_clean_wav_is_consistent(self, tmp_path):
        wav = tmp_path / "in.wav"
        make_wav(wav)
        out = tmp_path / "report.json"
        code = cli.main(["analyze", str(wav), "--out", str(out)] + STFT_FLAGS)
        assert code == 0
        report = json.loads(out.read_text())
        assert report["results"]["consistency_measure"] < 1e-7
        assert report["results"]["bins"] == 256

    def test_report_config_round_trips(self, tmp_path):
        wav = tmp_path / "in.wav"
        make_wav(wav)
        out = tmp_path / "report.json"
        assert cli.main(["analyze", str(wav), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert cli.resolve_config(None, report["config"]) == report["config"]

    def test_missing_file_is_io_error(self, tmp_path):
        code = cli.main(["analyze", str(tmp_path / "nope.wav")])
        assert code == cli.EXIT_IO


class TestReconstruct:
    def test_gla_trace_monotone(self, tmp_path):
        wav = tmp_path / "in.wav"
        make_wav(wav)
        out = tmp_path / "run"
        code = cli.main(["reconstruct", str(wav), "--solver", "gla",
                         "--iters", "30", "--out", str(out)] + STFT_FLAGS)
        assert code == 0
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(cli.TRACE_COLUMNS)
        losses = [float(r[1]) for r in rows[1:]]
        assert len(losses) == 30
        assert all(b <= a for a, b in zip(losses, losses[1:]))
        assert (out / "out.wav").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["eval"]["aligned_snr_db"] > -300

    def test_gla_report_scores_the_returned_phase(self, tmp_path):
        wav = tmp_path / "in.wav"
        make_wav(wav, "chirp", duration=0.5, f0=200.0, f1=1500.0)
        out = tmp_path / "run"
        assert cli.main(["reconstruct", str(wav), "--solver", "gla", "--iters", "30",
                         "--reference", str(wav), "--out", str(out)] + STFT_FLAGS) == 0
        report = json.loads((out / "report.json").read_text())
        cfg = report["config"]
        config = sc.make_config(**cfg["stft"])
        mag = stft(sc.read_wav(wav)[0], config).magnitude
        phase, _ = solvers.griffin_lim(mag, cli._solver_options(cfg), config)
        expected = sc.consistency_measure(mag * np.exp(1j * phase), config)
        assert report["results"]["eval"]["consistency_measure"] == pytest.approx(
            expected, rel=1e-12, abs=0)

    def test_gla_report_final_loss_scores_the_returned_phase(self, tmp_path):
        wav = tmp_path / "in.wav"
        make_wav(wav, "chirp", duration=0.5, f0=200.0, f1=1500.0)
        out = tmp_path / "run"
        assert cli.main(["reconstruct", str(wav), "--solver", "gla", "--iters", "30",
                         "--out", str(out)] + STFT_FLAGS) == 0
        report = json.loads((out / "report.json").read_text())
        cfg = report["config"]
        config = sc.make_config(**cfg["stft"])
        mag = stft(sc.read_wav(wav)[0], config).magnitude
        phase, _ = solvers.griffin_lim(mag, cli._solver_options(cfg), config)
        assert report["results"]["final_loss"] == pytest.approx(
            reference_gla_inconsistency(mag, phase, config), rel=1e-12, abs=0)

    def test_gd_ec_improves_consistency(self, tmp_path):
        wav = tmp_path / "in.wav"
        make_wav(wav)
        out = tmp_path / "run"
        code = cli.main(["reconstruct", str(wav), "--solver", "gd", "--loss", "ec",
                         "--iters", "150", "--step", "0.002", "--step-rule",
                         "fixed", "--seed", "1", "--out", str(out)] + STFT_FLAGS)
        assert code == 0
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        measures = [float(r[2]) for r in rows[1:]]
        assert min(measures) < measures[0]

    def test_ec_with_target_phase_is_input_error(self, tmp_path):
        wav = tmp_path / "in.wav"
        signal = make_wav(wav)
        config = sc.make_config(256, 64, "hann")
        phase_file = tmp_path / "p.npy"
        np.save(phase_file, stft(signal, config).phase)
        code = cli.main(["reconstruct", str(wav), "--loss", "ec",
                         "--target-phase", str(phase_file)] + STFT_FLAGS)
        assert code == cli.EXIT_INPUT

    def test_magnitude_matrix_input(self, tmp_path):
        config = sc.make_config(256, 64, "hann")
        signal = sc.synth("sine", {"freq": 500.0, "amp": 0.4}, 8000, 0.25)
        mag = stft(signal, config).magnitude
        mat = tmp_path / "mag.npy"
        np.save(mat, mag)
        out = tmp_path / "run"
        code = cli.main(["reconstruct", str(mat), "--solver", "gla",
                         "--iters", "10", "--sr", "8000",
                         "--out", str(out)] + STFT_FLAGS)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["eval"] is None  # no reference available

    def test_half_band_matrix_expanded(self, tmp_path):
        config = sc.make_config(256, 64, "hann")
        signal = sc.synth("sine", {"freq": 500.0, "amp": 0.4}, 8000, 0.25)
        mag = stft(signal, config).magnitude[:, :129]
        mat = tmp_path / "mag_half.npy"
        np.save(mat, mag)
        out = tmp_path / "run"
        code = cli.main(["reconstruct", str(mat), "--solver", "gla",
                         "--iters", "5", "--out", str(out)] + STFT_FLAGS)
        assert code == 0

    def test_radius_beyond_signal_length(self, tmp_path):
        wav = tmp_path / "in.wav"
        make_wav(wav, duration=0.05)  # 400 samples
        code = cli.main(["reconstruct", str(wav), "--iters", "3", "--radius", "1000",
                         "--out", str(tmp_path / "run")] + STFT_FLAGS)
        assert code == 0

    @pytest.mark.parametrize("solver", ["gd", "gla"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_magnitude_is_input_error(self, tmp_path, solver, bad):
        mag = np.ones((6, 256))
        mag[2, 3] = bad
        np.save(tmp_path / "mag.npy", mag)
        code = cli.main(["reconstruct", str(tmp_path / "mag.npy"), "--solver", solver,
                         "--iters", "2", "--out", str(tmp_path / "run")] + STFT_FLAGS)
        assert code == cli.EXIT_INPUT

    @pytest.mark.parametrize("flags", [["--init", "provided", "--init-phase"],
                                       ["--loss", "cos", "--target-phase"]])
    @pytest.mark.parametrize("content", ["nan", "garbage", "object", "empty"])
    def test_bad_phase_file_is_input_error(self, tmp_path, flags, content):
        np.save(tmp_path / "mag.npy", np.ones((6, 256)))
        phase_file = tmp_path / "p.npy"
        if content == "nan":
            phase = np.zeros((6, 256))
            phase[0, 0] = np.nan
            np.save(phase_file, phase)
        elif content == "object":
            np.save(phase_file, np.array([{}], dtype=object), allow_pickle=True)
        else:
            phase_file.write_bytes(b"not a numpy file" if content == "garbage" else b"")
        code = cli.main(["reconstruct", str(tmp_path / "mag.npy"), "--iters", "2",
                         *flags, str(phase_file), "--out", str(tmp_path / "run")]
                        + STFT_FLAGS)
        assert code == cli.EXIT_INPUT

    @pytest.mark.parametrize("content", ["garbage", "strings", "no frames", "0-D", "3-D",
                                         "100 bins"])
    def test_bad_magnitude_file_is_input_error(self, tmp_path, capsys, content):
        mat = tmp_path / "mag.npy"
        arrays = {"strings": np.full((6, 256), "a"), "no frames": np.ones((0, 256)),
                  "0-D": np.array(1.0), "3-D": np.ones((2, 6, 256)),
                  "100 bins": np.ones((6, 100))}
        if content == "garbage":
            mat.write_bytes(b"not a numpy file")
        else:
            np.save(mat, arrays[content])
        out = tmp_path / "run"
        code = cli.main(["reconstruct", str(mat), "--iters", "2",
                         "--out", str(out)] + STFT_FLAGS)
        assert code == cli.EXIT_INPUT
        assert not out.exists()
        if content == "100 bins":  # shape errors come from stft's own check
            assert ("magnitude must be 2-D with at least one frame of 256 bins, "
                    "got shape (6, 100)") in capsys.readouterr().err

    @pytest.mark.parametrize("solver", ["gd", "gla"])
    @pytest.mark.parametrize("frames", [2, 3])
    @pytest.mark.parametrize("reference", [False, True])
    def test_fewer_than_q_frames_is_input_error(self, tmp_path, capsys, solver, frames,
                                                reference):
        # Hann 256/64 has Q = 4: every signal's STFT has at least 4 frames.
        np.save(tmp_path / "mag.npy", np.ones((frames, 256)))
        flags = ["--reference", str(tmp_path / "ref.wav")] if reference else []
        if reference:
            make_wav(tmp_path / "ref.wav", duration=0.01)
        out = tmp_path / "run"
        code = cli.main(["reconstruct", str(tmp_path / "mag.npy"), "--solver", solver,
                         *flags, "--iters", "2", "--out", str(out)] + STFT_FLAGS)
        assert code == cli.EXIT_INPUT
        assert f"need at least Q=4 frames, got {frames}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("init, phase", [([], True), (["--init", "zeros"], True),
                                             (["--init", "random"], True),
                                             (["--init", "provided"], False)])
    def test_init_phase_goes_with_provided_init(self, tmp_path, capsys, init, phase):
        np.save(tmp_path / "mag.npy", np.ones((6, 256)))
        np.save(tmp_path / "p.npy", np.zeros((6, 256)))
        flags = ["--init-phase", str(tmp_path / "p.npy")] if phase else []
        out = tmp_path / "run"
        code = cli.main(["reconstruct", str(tmp_path / "mag.npy"), *init, *flags,
                         "--iters", "2", "--out", str(out)] + STFT_FLAGS)
        assert code == cli.EXIT_INPUT
        assert "--init provided" in capsys.readouterr().err
        assert not out.exists()

    def test_sample_rate_beyond_the_wav_header_is_input_error(self, tmp_path):
        np.save(tmp_path / "mag.npy", np.ones((6, 256)))
        out = tmp_path / "run"
        code = cli.main(["reconstruct", str(tmp_path / "mag.npy"), "--iters", "2",
                         "--sr", str(2**31), "--out", str(out)] + STFT_FLAGS)
        assert code == cli.EXIT_INPUT
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--seed", "-1"], ["--step", "nan"]])
    def test_bad_solver_flags_are_input_errors(self, tmp_path, flags):
        wav = tmp_path / "in.wav"
        make_wav(wav, duration=0.05)
        code = cli.main(["reconstruct", str(wav), "--iters", "2", *flags,
                         "--out", str(tmp_path / "run")] + STFT_FLAGS)
        assert code == cli.EXIT_INPUT

    def test_divergence_exit_code_with_partial_trace(self, tmp_path):
        wav = tmp_path / "in.wav"
        signal = make_wav(wav)
        config = sc.make_config(256, 64, "hann")
        phase_file = tmp_path / "p.npy"
        np.save(phase_file, stft(signal, config).phase)
        out = tmp_path / "run"
        code = cli.main(["reconstruct", str(wav), "--loss", "cos",
                         "--target-phase", str(phase_file),
                         "--init", "noisy", "--step", "inf",
                         "--step-rule", "fixed", "--iters", "5",
                         "--out", str(out)] + STFT_FLAGS)
        assert code == cli.EXIT_DIVERGENCE
        assert sorted(p.name for p in out.iterdir()) == ["trace.csv"]

    def test_diverging_ec_run_is_exit_3_with_warnings_as_errors(self, tmp_path):
        # Tier-1 turns every warning into an error, as python -W error does.
        wav = tmp_path / "in.wav"
        make_wav(wav)
        out = tmp_path / "run"
        code = cli.main(["reconstruct", str(wav), "--loss", "ec", "--step", "inf",
                         "--step-rule", "fixed", "--iters", "5",
                         "--out", str(out)] + STFT_FLAGS)
        assert code == cli.EXIT_DIVERGENCE
        assert sorted(p.name for p in out.iterdir()) == ["trace.csv"]

    @pytest.mark.parametrize("solver", ["gd", "gla"])
    @pytest.mark.parametrize("case", ["sr 0", "sr 2**31", "long reference"])
    def test_output_checks_run_before_the_solver(self, tmp_path, monkeypatch, capsys,
                                                 solver, case):
        def never(*args, **kwargs):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(solvers, "gd_reconstruct", never)
        monkeypatch.setattr(solvers, "griffin_lim", never)
        # 6 frames of Hann 256/64: istft returns at most 6 * 64 = 384 samples.
        np.save(tmp_path / "mag.npy", np.ones((6, 256)))
        flags = {"sr 0": ["--sr", "0"], "sr 2**31": ["--sr", str(2**31)],
                 "long reference": ["--reference", str(tmp_path / "ref.wav")]}[case]
        make_wav(tmp_path / "ref.wav", duration=385 / 8000)
        out = tmp_path / "run"
        code = cli.main(["reconstruct", str(tmp_path / "mag.npy"), "--solver", solver,
                         *flags, "--iters", "3000", "--out", str(out)] + STFT_FLAGS)
        assert code == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert ("length must be in [0, 384] for 6 frames" in err
                if case == "long reference" else "does not fit a WAV header" in err)
        assert not out.exists()


class TestCompare:
    @staticmethod
    def _make_corpus(tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        make_wav(corpus / "a.wav", "sine", freq=440.0, amp=0.4)
        make_wav(corpus / "b.wav", "sine", freq=700.0, amp=0.3)
        return corpus

    def test_row_cardinality_and_determinism(self, tmp_path):
        corpus = self._make_corpus(tmp_path)
        args = ["compare", str(corpus), "--losses", "ec,cos,aw", "--iters", "5",
                "--seed", "3"] + STFT_FLAGS
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = out1.read_text().strip().splitlines()
        assert len(rows) == 1 + 2 * 3
        assert rows[0].startswith("file,loss,")

    def test_rows_sorted_by_path(self, tmp_path):
        corpus = self._make_corpus(tmp_path)
        out = tmp_path / "r.csv"
        assert cli.main(["compare", str(corpus), "--losses", "ec", "--iters", "3",
                         "--out", str(out)] + STFT_FLAGS) == 0
        files = [line.split(",")[0] for line in out.read_text().strip().splitlines()[1:]]
        assert files == sorted(files)

    def test_empty_corpus_warns(self, tmp_path):
        corpus = tmp_path / "empty"
        corpus.mkdir()
        out = tmp_path / "r.csv"
        code = cli.main(["compare", str(corpus), "--out", str(out)])
        assert code == cli.EXIT_WARNING
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1

    def test_unknown_loss_is_input_error(self, tmp_path):
        corpus = self._make_corpus(tmp_path)
        code = cli.main(["compare", str(corpus), "--losses", "ec,bogus",
                         "--out", str(tmp_path / "r.csv")] + STFT_FLAGS)
        assert code == cli.EXIT_INPUT

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_unreadable_file_aborts_without_csv(self, tmp_path, monkeypatch,
                                                capsys, threads):
        corpus = self._make_corpus(tmp_path)
        (corpus / "b0.wav").write_bytes(b"RIFFgarbage")
        out = tmp_path / "outdir" / "r.csv"
        monkeypatch.setenv("SPECCONSIST_THREADS", threads)
        code = cli.main(["compare", str(corpus), "--losses", "ec", "--iters", "2",
                         "--out", str(out)] + STFT_FLAGS)
        assert code == cli.EXIT_INPUT
        assert "b0.wav" in capsys.readouterr().err
        assert not out.parent.exists()

    @pytest.mark.parametrize("threads", ["x", "2.5", ""])
    def test_malformed_thread_count_is_input_error(self, tmp_path, monkeypatch,
                                                   capsys, threads):
        corpus = self._make_corpus(tmp_path)
        out = tmp_path / "outdir" / "r.csv"
        monkeypatch.setenv("SPECCONSIST_THREADS", threads)
        code = cli.main(["compare", str(corpus), "--losses", "ec", "--iters", "2",
                         "--out", str(out)] + STFT_FLAGS)
        assert code == cli.EXIT_INPUT
        assert "SPECCONSIST_THREADS" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_diverging_run_in_worker_threads_is_exit_3(self, tmp_path, monkeypatch):
        # The solver silences numpy's warnings itself, so they never become
        # errors in compare's worker threads either.
        corpus = self._make_corpus(tmp_path)
        out = tmp_path / "outdir" / "r.csv"
        monkeypatch.setenv("SPECCONSIST_THREADS", "2")
        code = cli.main(["compare", str(corpus), "--step", "inf", "--step-rule",
                         "fixed", "--iters", "3", "--out", str(out)] + STFT_FLAGS)
        assert code == cli.EXIT_DIVERGENCE
        assert not out.parent.exists()

    def test_thread_cap_does_not_change_output(self, tmp_path, monkeypatch):
        corpus = self._make_corpus(tmp_path)
        args = ["compare", str(corpus), "--losses", "ec,cos", "--iters", "4",
                "--seed", "2"] + STFT_FLAGS
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        monkeypatch.setenv("SPECCONSIST_THREADS", "1")
        assert cli.main(args + ["--out", str(out1)]) == 0
        monkeypatch.setenv("SPECCONSIST_THREADS", "2")
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestSynthCommand:
    def test_writes_readable_wav(self, tmp_path):
        out = tmp_path / "tone.wav"
        code = cli.main(["synth", "sine", "--freq", "440", "--amp", "0.5",
                         "--sr", "8000", "--duration", "0.1", "--out", str(out)])
        assert code == 0
        signal, meta = sc.read_wav(out)
        assert meta.sample_rate == 8000
        assert len(signal) == 800

    def test_deterministic_noise(self, tmp_path):
        a, b = tmp_path / "a.wav", tmp_path / "b.wav"
        for path in (a, b):
            assert cli.main(["synth", "noise", "--amp", "0.2", "--seed", "6",
                             "--sr", "8000", "--duration", "0.05",
                             "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_impulse(self, tmp_path):
        out = tmp_path / "i.wav"
        assert cli.main(["synth", "impulse", "--position", "5", "--sr", "8000",
                         "--duration", "0.01", "--out", str(out)]) == 0
        signal, _ = sc.read_wav(out)
        assert signal.samples[5] == 1.0

    @pytest.mark.parametrize("argv", [
        ["sine"], ["multisine"], ["chirp"], ["chirp", "--f1", "900"],
        ["noise", "--duration", "nan"], ["noise", "--duration", "inf"],
        ["sine", "--freq", "440", "--duration=-inf"],
        ["noise", "--seed=-1"], ["noise", "--amp", "inf"], ["noise", "--amp", "nan"],
    ])
    def test_bad_parameters_are_input_errors(self, tmp_path, capsys, argv):
        out = tmp_path / "x.wav"
        assert cli.main(["synth", *argv, "--sr", "8000", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


# Drawn JSON values: every known config key gets either a plausible value or
# an arbitrary JSON value, and stray keys appear at the top and in sections.
_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 300),
                          st.floats(), st.text(max_size=5))
_JSON_VALUES = st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=2),
                         st.dictionaries(st.text(max_size=4), _JSON_SCALARS,
                                         max_size=2))
_KNOWN_VALUES = {
    "stft": {"window_len": st.sampled_from([16, 32, 64]),
             "hop": st.sampled_from([4, 8, 16]),
             "window_kind": st.sampled_from(WINDOW_KINDS)},
    "solver": {name: st.just(default) for name, default
               in cli.DEFAULT_CONFIG["solver"].items()},
    "metrics": {"search_radius": st.integers(0, 64)},
    "io": {"output_dir": st.just(".")},
}


@st.composite
def _config_files(draw):
    cfg = {}
    for section, keys in _KNOWN_VALUES.items():
        if draw(st.booleans()):
            cfg[section] = draw(_JSON_VALUES)
            continue
        cfg[section] = {key: draw(st.one_of(good, _JSON_VALUES)) for key, good
                        in keys.items() if draw(st.booleans())}
        cfg[section].update(draw(st.dictionaries(st.text(max_size=4), _JSON_VALUES,
                                                 max_size=1)))
    for key, good in (("loss", st.sampled_from(solvers.LOSSES)),
                      ("seed", st.integers(0, 9))):
        if draw(st.booleans()):
            cfg[key] = draw(st.one_of(good, _JSON_VALUES))
    cfg.update(draw(st.dictionaries(st.text(max_size=4), _JSON_VALUES, max_size=1)))
    return cfg


class TestConfigProperty:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(file_cfg=_config_files())
    def test_analyze_exits_ok_or_input_error(self, tmp_path, file_cfg):
        wav = tmp_path / "in.wav"
        if not wav.exists():
            make_wav(wav, duration=0.05)  # 400 samples
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(file_cfg))
        code = cli.main(["analyze", str(wav), "--config", str(cfg_file),
                         "--out", str(tmp_path / "r.json")])
        assert code in (cli.EXIT_OK, cli.EXIT_INPUT)


# Drawn argv for reconstruct and compare. Each flag is absent, valid, or (one
# time in four) a value the CLI must reject; 64/16 and 0.05 s keep runs small.
_SMALL_STFT = ["--window-len", "64", "--hop", "16"]
_FLAG_VALUES = {  # flag -> (accepted values, rejected values)
    "--solver": (cli.SOLVER_KINDS, ["lbfgs"]),
    "--iters": (["1", "3"], ["0", "-2", "x"]),
    "--step": (["1e-3", "0.5", "inf"], ["0", "-1", "nan", "x"]),
    "--radius": (["0", "16"], ["-1", "1.5"]),
    "--seed": (["0", "7"], ["-1", "x"]),
    "--sr": (["8000"], ["0", "-8000", str(2**31), "x"]),
}
_BAD_PHASES = ["mis-shaped", "nan", "garbage"]


def _mostly(valid, invalid):
    """Draws from ``valid`` three times in four, else from ``invalid``."""
    return st.sampled_from([True, True, True, False]).flatmap(
        lambda ok: valid if ok else invalid)


def _draw_flags(draw, flags) -> list[str]:
    argv = []
    for flag in flags:
        accepted, rejected = _FLAG_VALUES[flag]
        # --iters is always given: the default 100 iterations would be slow
        if flag == "--iters" or draw(st.booleans()):
            argv += [flag, draw(_mostly(st.sampled_from(accepted),
                                        st.sampled_from(rejected)))]
    return argv


def _write_phase(path, kind, shape):
    if kind == "garbage":
        path.write_bytes(b"not a numpy file")
    else:
        np.save(path, np.full(shape if kind != "mis-shaped" else (shape[0] + 1, 7),
                              np.nan if kind == "nan" else 0.0))


def _exit_code(argv) -> int:
    """What the console script exits with: argparse usage errors raise SystemExit(2)."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


class TestCommandProperty:
    """Any argv and input: an exit code in 0..4, no escaping exception, and
    nothing written under --out when the exit code is 2."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_reconstruct_exit_code_contract(self, data):
        draw = data.draw
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            if draw(st.booleans()):
                source = tmp / "in.wav"
                signal = make_wav(source, duration=0.05)
                frames = sc.num_frames(len(signal), sc.make_config(64, 16))
            else:
                shape = draw(_mostly(
                    st.tuples(st.integers(4, 6), st.sampled_from([64, 33])),
                    st.sampled_from([(), (6,), (0, 64), (2, 64), (3, 33), (5, 10),
                                     (2, 5, 64)])))
                source = tmp / "mag.npy"
                np.save(source, np.random.default_rng(0).random(shape))
                frames = shape[0] if shape else 1
            argv = ["reconstruct", str(source), *_SMALL_STFT,
                    *_draw_flags(draw, _FLAG_VALUES)]

            loss = draw(st.sampled_from(["ec", *cli.LOSS_FLAGS]))
            init = draw(_mostly(st.sampled_from(sorted(cli.INIT_FLAGS)), st.just("ones")))
            argv += ["--loss", loss, "--init", init]
            phases = {
                "--target-phase": _mostly(st.just("valid"), st.sampled_from(_BAD_PHASES))
                if loss != "ec" else _mostly(st.none(), st.just("valid")),
                "--init-phase": _mostly(st.just("valid"), st.sampled_from(_BAD_PHASES))
                if init == "provided" else _mostly(st.none(), st.just("valid")),
            }
            for flag, strategy in phases.items():
                kind = draw(strategy)
                if kind is not None:
                    _write_phase(tmp / f"{flag[2:]}.npy", kind, (frames, 64))
                    argv += [flag, str(tmp / f"{flag[2:]}.npy")]

            out = tmp / "run"
            code = _exit_code(argv + ["--out", str(out)])
            event(f"exit {code}")
            assert code in range(5)
            if code == cli.EXIT_INPUT:
                assert not out.exists()

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_compare_exit_code_contract(self, data):
        draw = data.draw
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            corpus = tmp / "corpus"
            corpus.mkdir()
            for i in range(draw(st.integers(0, 2))):
                kind = draw(st.sampled_from(["sine", "noise"]))
                signal = sc.synth(kind, {"freq": 440.0, "amp": 0.5}, 8000,
                                  draw(st.sampled_from([0.05, 0.02, 0.001])))
                encoding = draw(st.sampled_from(audio_io.ENCODINGS))
                write_wav(signal, WavMeta(8000, 1, encoding, len(signal)),
                          corpus / f"{i}.wav")
            unreadable = draw(_mostly(st.none(), st.sampled_from([b"RIFFgarbage", b""])))
            if unreadable is not None:
                (corpus / "bad.wav").write_bytes(unreadable)
            losses = draw(_mostly(
                st.lists(st.sampled_from(sorted(cli.LOSS_FLAGS)), min_size=1, max_size=3),
                st.just(["l9"])))
            argv = ["compare", str(corpus), *_SMALL_STFT, "--losses", ",".join(losses),
                    *_draw_flags(draw, ["--iters", "--step", "--radius", "--seed"])]

            out = tmp / "outdir" / "r.csv"
            threads = draw(st.sampled_from(["1", "2"]))
            with mock.patch.dict(os.environ, {"SPECCONSIST_THREADS": threads}):
                code = _exit_code(argv + ["--out", str(out)])
            event(f"exit {code}")
            assert code in range(5)
            if code == cli.EXIT_INPUT:
                assert not out.parent.exists()
