import csv
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import specconsist as sc
from specconsist import cli, solvers
from specconsist.audio_io import WavMeta, write_wav
from specconsist.stft import WINDOW_KINDS, stft


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

    @pytest.mark.parametrize("content", ["garbage", "strings", "no frames"])
    def test_bad_magnitude_file_is_input_error(self, tmp_path, content):
        mat = tmp_path / "mag.npy"
        if content == "garbage":
            mat.write_bytes(b"not a numpy file")
        else:
            np.save(mat, np.full((6, 256), "a") if content == "strings"
                    else np.ones((0, 256)))
        code = cli.main(["reconstruct", str(mat), "--iters", "2",
                         "--out", str(tmp_path / "run")] + STFT_FLAGS)
        assert code == cli.EXIT_INPUT

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
        with np.errstate(invalid="ignore"):
            code = cli.main(["reconstruct", str(wav), "--loss", "cos",
                             "--target-phase", str(phase_file),
                             "--init", "noisy", "--step", "inf",
                             "--step-rule", "fixed", "--iters", "5",
                             "--out", str(out)] + STFT_FLAGS)
        assert code == cli.EXIT_DIVERGENCE
        assert (out / "trace.csv").exists()


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
