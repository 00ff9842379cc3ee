import csv
import dataclasses
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

import specconsist as sc
from specconsist import audio_io, cli, consistency, metrics, solvers
from specconsist.audio_io import WavMeta, write_wav
from specconsist.stft import WINDOW_KINDS, _polar, signal_length, stft

from test_audio_io import MALFORMED_WAVS, _mostly
from test_solvers import reference_gla_inconsistency, reference_half_griffin_lim


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
        # windows beyond make_config's bound fail before numpy allocates them
        {"stft": {"window_len": 1099511627776, "hop": 274877906944}},
        {"stft": {"window_len": 10**41, "hop": 10**41}},
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


    @pytest.mark.parametrize("file_cfg", [
        {"solver": {"max_iters": 2.5}},
        {"solver": {"max_iters": True}},
        {"seed": 1.5},
        {"seed": True},
        {"seed": "4"},
        {"solver": {"max_iters": "7"}},
    ])
    def test_non_integers_in_integer_fields_are_input_errors(self, tmp_path, file_cfg):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps(file_cfg))
        with pytest.raises(sc.InputError, match="must be an integer"):
            cli.resolve_config(cfg_file)
        mag = np.ones((8, 64))
        np.save(tmp_path / "mag.npy", mag)
        assert cli.main(["reconstruct", str(tmp_path / "mag.npy"), "--config",
                         str(cfg_file), "--out", str(tmp_path / "run"),
                         "--window-len", "64", "--hop", "16"]) == cli.EXIT_INPUT
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("file_cfg, key", [
        ({"los": "cos"}, "los"),
        ({"stft": {"hops": 64}}, "stft.hops"),
        ({"solver": {"max_iter": 3}}, "solver.max_iter"),
        ({"metrics": {"radius": 3}}, "metrics.radius"),
        ({"io": {"output": "run"}}, "io.output"),
    ])
    def test_unknown_keys_are_input_errors(self, tmp_path, file_cfg, key):
        # a misspelled key would otherwise leave its default in force
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps(file_cfg))
        with pytest.raises(sc.InputError, match=f"unknown config keys \\['{key}'\\]"):
            cli.resolve_config(cfg_file)
        np.save(tmp_path / "mag.npy", np.ones((8, 64)))
        assert cli.main(["reconstruct", str(tmp_path / "mag.npy"), "--config",
                         str(cfg_file), "--out", str(tmp_path / "run"),
                         "--window-len", "64", "--hop", "16"]) == cli.EXIT_INPUT
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("file_cfg", [
        {"solver": {"tolerance": "inf"}},
        {"solver": {"tolerance": float("inf")}},
        {"solver": {"tolerance": -1e-3}},
        {"solver": {"initial_step": "0.01"}},
        {"solver": {"initial_step": 10**400}},
        {"solver": {"initial_step": 0}},
        {"solver": {"final_step": float("nan")}},
        {"solver": {"final_step": True}},
    ])
    def test_non_finite_or_string_floats_are_input_errors(self, tmp_path, file_cfg):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps(file_cfg))  # inf and nan as JSON's Infinity, NaN
        with pytest.raises(sc.InputError, match="must be a finite number"):
            cli.resolve_config(cfg_file)
        np.save(tmp_path / "mag.npy", np.ones((8, 64)))
        assert cli.main(["reconstruct", str(tmp_path / "mag.npy"), "--config",
                         str(cfg_file), "--out", str(tmp_path / "run"),
                         "--window-len", "64", "--hop", "16"]) == cli.EXIT_INPUT
        assert not (tmp_path / "run").exists()

    def test_integral_numbers_in_integer_fields_are_accepted(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"solver": {"max_iters": 3.0}, "seed": 4.0}))
        opts = cli._solver_options(cli.resolve_config(cfg_file))
        opts.validate()
        assert (opts.max_iters, opts.seed) == (3, 4)
        assert type(opts.max_iters) is int and type(opts.seed) is int
        # a number spelled as a string is not a number
        cfg_file.write_text(json.dumps({"solver": {"max_iters": 3.0}, "seed": "4"}))
        with pytest.raises(sc.InputError, match="seed must be an integer"):
            cli.resolve_config(cfg_file)
        np.save(tmp_path / "mag.npy", np.ones((8, 64)))
        assert cli.main(["reconstruct", str(tmp_path / "mag.npy"), "--config",
                         str(cfg_file), "--out", str(tmp_path / "run"),
                         "--window-len", "64", "--hop", "16"]) == cli.EXIT_INPUT
        assert not (tmp_path / "run").exists()

    def test_integral_floats_in_stft_and_metrics_are_accepted(self, tmp_path):
        wav, out = tmp_path / "in.wav", tmp_path / "run"
        make_wav(wav)
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"stft": {"window_len": 4096.0, "hop": 1024},
                                        "metrics": {"search_radius": 16.0}}))
        assert cli.main(["analyze", str(wav), "--config", str(cfg_file),
                         "--out", str(tmp_path / "r.json")]) == cli.EXIT_OK
        assert json.loads((tmp_path / "r.json").read_text())["results"]["bins"] == 4096
        assert cli.main(["reconstruct", str(wav), "--config", str(cfg_file),
                         "--solver", "gla", "--iters", "2", "--reference", str(wav),
                         "--out", str(out)]) == cli.EXIT_OK
        assert json.loads((out / "report.json").read_text())["results"]["eval"]

    @pytest.mark.parametrize("command", ["analyze", "reconstruct"])
    @pytest.mark.parametrize("content", [
        b"\xff{}",  # not UTF-8
        b'{"io": {"output_dir": "\xe9"}}',  # Latin-1
        b"[" * 100000,  # nested past the parser's recursion limit
        b'{"seed": ' + b"[" * 600 + b"]" * 600 + b"}",  # parses, too deep to copy
        b'{"seed": ' + b"1" * 5000 + b"}",  # more digits than int() converts
    ], ids=["not utf-8", "latin-1", "deep", "deep copy", "long integer"])
    def test_a_file_that_is_not_usable_json_is_input_error(self, tmp_path, capsys,
                                                           command, content):
        wav, out = tmp_path / "in.wav", tmp_path / "run"
        make_wav(wav, duration=0.05)
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_bytes(content)
        target = out / "report.json" if command == "analyze" else out
        assert cli.main([command, str(wav), "--config", str(cfg_file),
                         "--out", str(target)]) == cli.EXIT_INPUT
        assert "is not usable JSON" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-16-le", "utf-32"])
    def test_a_file_is_read_as_json_bytes(self, tmp_path, encoding):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"seed": 9, "io": {"output_dir": "\u00e9"}}),
                            encoding=encoding)
        resolved = cli.resolve_config(cfg_file)
        assert (resolved["seed"], resolved["io"]["output_dir"]) == (9, "\u00e9")

    @pytest.mark.parametrize("text, message", [
        ("{", "is not usable JSON"),
        ("[1]", "must contain a JSON object"),
        ('{"loss": "bogus"}', "unknown loss 'bogus'"),
        ('{"solver": {"kind": "x"}}', "solver kind must be one of"),
    ])
    def test_rejected_files_are_input_errors(self, tmp_path, capsys, text, message):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(text)
        with pytest.raises(sc.InputError, match=message):
            cli.resolve_config(cfg_file)
        np.save(tmp_path / "mag.npy", np.ones((8, 64)))
        assert cli.main(["reconstruct", str(tmp_path / "mag.npy"), "--config",
                         str(cfg_file), "--out", str(tmp_path / "run"),
                         "--window-len", "64", "--hop", "16"]) == cli.EXIT_INPUT
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestTables:
    def test_solver_defaults_come_from_solver_options(self):
        defaults = sc.SolverOptions()
        section = dict(cli.DEFAULT_CONFIG["solver"])
        assert section.pop("kind") == "gd"
        fields = {f.name for f in dataclasses.fields(sc.SolverOptions)}
        assert set(section) == fields - {"seed", "init_phase"}
        assert section == {name: getattr(defaults, name) for name in section}
        assert cli.DEFAULT_CONFIG["seed"] == defaults.seed

    def test_synth_flags_are_the_parameter_table(self):
        parser = cli.build_parser()
        args = vars(parser.parse_args(["synth", "sine", "--out", "x.wav"]))
        assert set(args) - {"command", "func", "kind", "sr", "duration", "encoding",
                            "out"} == set(audio_io.SYNTH_PARAMS)
        for name, (parse, _) in audio_io.SYNTH_PARAMS.items():
            args = parser.parse_args(["synth", "sine", f"--{name}=1", "--out", "x.wav"])
            assert getattr(args, name) == parse("1")
        for _, defaults in audio_io.SYNTH_KINDS.values():
            assert set(defaults) <= set(audio_io.SYNTH_PARAMS)

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

    @pytest.mark.parametrize("name", list(solvers.LOSSES))
    def test_the_target_rule_comes_from_the_loss_table(self, tmp_path, monkeypatch,
                                                       cfg_64_16, name):
        takes_target = solvers.LOSSES[name][1]
        rng = np.random.default_rng(0)
        mag = rng.uniform(0, 1, (4, 64))
        for target in (None, rng.uniform(-np.pi, np.pi, (4, 64))):
            run = lambda: solvers.gd_reconstruct(mag, name, target,
                                                 sc.SolverOptions(max_iters=2), cfg_64_16)
            if (target is not None) == takes_target:
                run()
            else:
                with pytest.raises(sc.InputError, match="target phase"):
                    run()

        flag = name.replace("_", "-")
        corpus, out = tmp_path / "corpus", tmp_path / "run"
        corpus.mkdir()
        make_wav(corpus / "a.wav")
        np.save(tmp_path / "p.npy", stft(sc.read_wav(corpus / "a.wav")[0],
                                         sc.make_config(256, 64)).phase)
        code = cli.main(["reconstruct", str(corpus / "a.wav"), "--solver", "gd",
                         "--loss", flag, "--target-phase", str(tmp_path / "p.npy"),
                         "--iters", "2", "--out", str(out)] + STFT_FLAGS)
        assert code == (cli.EXIT_OK if takes_target else cli.EXIT_INPUT)
        assert out.exists() == takes_target

        targets, solve = [], solvers.gd_reconstruct
        monkeypatch.setattr(solvers, "gd_reconstruct",
                            lambda mag, loss, target, *rest, **kw: (
                                targets.append(target is not None),
                                solve(mag, loss, target, *rest, **kw))[1])
        assert cli.main(["compare", str(corpus), "--losses", flag, "--iters", "2",
                         "--out", str(tmp_path / "r.csv")] + STFT_FLAGS) == cli.EXIT_OK
        assert targets == [takes_target]

    @pytest.mark.parametrize("flag", list(cli.CONFIG_FLAGS))
    def test_every_config_flag_sets_its_config_key(self, flag):
        path, commands, keywords = cli.CONFIG_FLAGS[flag]
        node = cli.DEFAULT_CONFIG
        for key in path.split("."):
            assert key in node
            node = node[key]
        choices = keywords.get("choices")
        if choices is not None:
            text = list(choices)[-1]
            want = choices[text] if isinstance(choices, dict) else text
        else:
            text = "7"
            want = keywords["type"](text)
        *sections, key = path.split(".")
        expected = {key: want}
        for section in reversed(sections):
            expected = {section: expected}
        parser = cli.build_parser()
        for command in commands:
            args = parser.parse_args([command, "in", flag, text])
            assert cli._config_overrides(args) == expected
        for command in {"analyze", "reconstruct", "compare"} - set(commands):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "in", flag, text])

    @pytest.mark.parametrize("command, flag", [("compare", "--loss cos"),
                                               ("reconstruct", "--it 2"),
                                               ("synth", "--phase 1")])
    def test_flags_are_spelled_in_full(self, tmp_path, capsys, command, flag):
        # each flag is a prefix of one the subcommand takes (--losses, --iters, --phases)
        make_wav(tmp_path / "corpus" / "a.wav")
        inputs = {"compare": [str(tmp_path / "corpus")],
                  "reconstruct": [str(tmp_path / "corpus" / "a.wav")],
                  "synth": ["sine", "--freq", "440"]}
        out = tmp_path / "out"
        assert _exit_code([command, *inputs[command], *flag.split(), "--out", str(out)]) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_solver_section_extra_key_and_string_number(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(
            {"solver": {"extra_key": 1, "initial_step": "0.01", "max_iters": "7"}}))
        with pytest.raises(sc.InputError, match=r"'solver\.extra_key'"):
            cli.resolve_config(cfg_file)
        cfg_file.write_text(json.dumps({"solver": {"initial_step": 0.01, "max_iters": 7.0}}))
        resolved = cli.resolve_config(cfg_file)
        assert resolved["solver"]["max_iters"] == 7.0  # the report keeps the spelling
        opts = cli._solver_options(resolved)
        opts.validate()
        assert (opts.initial_step, opts.max_iters) == (0.01, 7)
        # numbers spelled as strings are exit 2
        cfg_file.write_text(json.dumps({"solver": {"initial_step": "0.01", "max_iters": "7"}}))
        with pytest.raises(sc.InputError, match="must be an integer"):
            cli.resolve_config(cfg_file)
        np.save(tmp_path / "mag.npy", np.ones((8, 64)))
        assert cli.main(["reconstruct", str(tmp_path / "mag.npy"), "--config",
                         str(cfg_file), "--out", str(tmp_path / "run"),
                         "--window-len", "64", "--hop", "16"]) == cli.EXIT_INPUT
        assert not (tmp_path / "run").exists()


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

    def test_report_keys_and_environment(self, tmp_path):
        wav, out = tmp_path / "in.wav", tmp_path / "report.json"
        make_wav(wav)
        assert cli.main(["analyze", str(wav), "--out", str(out)] + STFT_FLAGS) == 0
        report = json.loads(out.read_text())
        assert set(report) == {"command", "config", "input", "results", "environment"}
        assert set(report["results"]) == {"consistency_measure", "frames", "bins"}
        assert report["environment"] == cli._environment()

    def test_missing_file_is_io_error(self, tmp_path):
        code = cli.main(["analyze", str(tmp_path / "nope.wav")])
        assert code == cli.EXIT_IO

    # At the default 512/128 any signal of at most R = 128 samples has Q = 4
    # frames, each mostly padding.
    @pytest.mark.parametrize("samples", [1, 100])
    def test_short_wav_has_q_frames(self, tmp_path, samples):
        wav, out = tmp_path / "in.wav", tmp_path / "report.json"
        signal = sc.Signal(np.linspace(0.1, 0.5, samples), 8000)
        write_wav(signal, WavMeta(8000, 1, "float32", samples), wav)
        assert cli.main(["analyze", str(wav), "--out", str(out)]) == cli.EXIT_OK
        results = json.loads(out.read_text())["results"]
        assert results["frames"] == 4
        assert results["consistency_measure"] < 1e-7

    def test_all_zero_wav_is_input_error_and_writes_nothing(self, tmp_path):
        wav, out = tmp_path / "in.wav", tmp_path / "run" / "report.json"
        write_wav(sc.Signal(np.zeros(800), 8000), WavMeta(8000, 1, "pcm16", 800), wav)
        assert cli.main(["analyze", str(wav), "--out", str(out)]) == cli.EXIT_INPUT
        assert not out.parent.exists()

    @pytest.mark.parametrize("command", ["analyze", "reconstruct"])
    @pytest.mark.parametrize("name", MALFORMED_WAVS)
    def test_malformed_wav_is_input_error_and_writes_nothing(self, tmp_path, capsys,
                                                             command, name):
        wav, out = tmp_path / "bad.wav", tmp_path / "run"
        wav.write_bytes(MALFORMED_WAVS[name])
        code = cli.main([command, str(wav), "--downmix", "--out", str(out)])
        assert code == cli.EXIT_INPUT
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    def test_stereo_wav_with_downmix(self, tmp_path):
        wav, out = tmp_path / "st.wav", tmp_path / "report.json"
        data = np.random.default_rng(3).uniform(-0.5, 0.5, (2000, 2)).astype(np.float32)
        wavfile.write(wav, 8000, data)
        assert cli.main(["analyze", str(wav), "--out", str(out)]) == cli.EXIT_INPUT
        assert cli.main(["analyze", str(wav), "--downmix", "--out", str(out)]) == cli.EXIT_OK
        results = json.loads(out.read_text())["results"]
        assert results["frames"] == sc.num_frames(2000, sc.make_config(512, 128))
        assert results["consistency_measure"] < 1e-7


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

    @pytest.mark.parametrize("solver", ["gd", "gla"])
    def test_report_records_the_numpy_build(self, tmp_path, solver):
        wav, out = tmp_path / "in.wav", tmp_path / "run"
        make_wav(wav)
        assert cli.main(["reconstruct", str(wav), "--solver", solver, "--iters", "2",
                         "--out", str(out)] + STFT_FLAGS) == 0
        report = json.loads((out / "report.json").read_text())
        simd = np.show_config(mode="dicts")["SIMD Extensions"]
        assert report["environment"] == {"numpy": np.__version__,
                                         "simd_extensions": simd}
        with open(out / "trace.csv", newline="") as fh:
            assert next(csv.reader(fh)) == list(cli.TRACE_COLUMNS)

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

    def test_gla_out_wav_matches_the_three_transform_oracle(self, tmp_path):
        config = sc.make_config(256, 64, "hann")
        signal = sc.synth("chirp", {"f0": 200.0, "f1": 1500.0, "amp": 0.5}, 8000, 0.25)
        mag = stft(signal, config).magnitude
        np.save(tmp_path / "mag.npy", mag)
        out = tmp_path / "run"
        assert cli.main(["reconstruct", str(tmp_path / "mag.npy"), "--solver", "gla",
                         "--iters", "25", "--sr", "8000", "--out", str(out)]
                        + STFT_FLAGS) == 0
        cfg = json.loads((out / "report.json").read_text())["config"]
        phase, want = reference_half_griffin_lim(mag, cli._solver_options(cfg), config)
        recon = solvers.reconstruct_signal(mag, phase, config,
                                           length=signal_length(len(mag), config),
                                           sample_rate=8000)
        write_wav(recon, WavMeta(8000, 1, "float32", len(recon)), tmp_path / "want.wav")
        assert (out / "out.wav").read_bytes() == (tmp_path / "want.wav").read_bytes()
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [float(row[1]) for row in rows] == list(want.losses)

    @pytest.mark.parametrize("solver", ["gd", "gla"])
    @pytest.mark.parametrize("scale", [1e154, 1e300, 1e307])
    def test_overflowing_magnitude_is_divergence(self, tmp_path, solver, scale):
        # ||mag||^2 overflows at every scale; the suite turns numpy's overflow
        # warnings into errors, as python -W error does.
        np.save(tmp_path / "mag.npy", np.full((23, 256), scale))
        out = tmp_path / "run"
        code = cli.main(["reconstruct", str(tmp_path / "mag.npy"), "--solver", solver,
                         "--iters", "5", "--out", str(out)] + STFT_FLAGS)
        assert code == cli.EXIT_DIVERGENCE
        assert sorted(p.name for p in out.iterdir()) == ["trace.csv"]
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 1 and not np.isfinite(float(rows[0][1]))

    @pytest.mark.parametrize("encoding, code", [("float32", cli.EXIT_INPUT),
                                                ("pcm16", cli.EXIT_OK)])
    def test_output_beyond_float32_range(self, tmp_path, encoding, code):
        config = sc.make_config(256, 64, "hann")
        signal = sc.synth("sine", {"freq": 500.0, "amp": 0.4}, 8000, 0.25)
        np.save(tmp_path / "mag.npy", 1e40 * stft(signal, config).magnitude)
        out = tmp_path / "run"
        assert cli.main(["reconstruct", str(tmp_path / "mag.npy"), "--solver", "gla",
                         "--iters", "3", "--encoding", encoding, "--out", str(out)]
                        + STFT_FLAGS) == code
        assert out.exists() == (code == cli.EXIT_OK)

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

    def test_eval_block_matches_the_public_path(self, tmp_path):
        wav = tmp_path / "in.wav"
        make_wav(wav, "chirp", f0=200.0, f1=1500.0, amp=0.5)
        signal = sc.read_wav(wav)[0]
        config = sc.make_config(256, 64, "hann")
        spec = stft(signal, config)
        target = np.random.default_rng(5).uniform(-np.pi, np.pi, spec.data.shape)
        np.save(tmp_path / "t.npy", target)
        out = tmp_path / "run"
        assert cli.main(["reconstruct", str(wav), "--loss", "time-l2", "--iters", "6",
                         "--target-phase", str(tmp_path / "t.npy"), "--reference",
                         str(wav), "--out", str(out)] + STFT_FLAGS) == 0
        cfg = json.loads((out / "report.json").read_text())["config"]
        mag = spec.magnitude
        phase, _ = solvers.gd_reconstruct(mag, "time_l2", target,
                                          cli._solver_options(cfg), config)
        recon = solvers.reconstruct_signal(mag, phase, config, length=len(signal),
                                           sample_rate=8000)
        snr, alignment = sc.aligned_snr(signal, recon, 128)
        want = {"consistency_measure": sc.consistency_measure(mag * np.exp(1j * phase),
                                                              config),
                "spectral_convergence_db": sc.spectral_convergence(
                    mag, stft(recon, config).magnitude),
                "aligned_snr_db": snr, "alignment": dataclasses.asdict(alignment)}
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["eval"] == want
        write_wav(recon, WavMeta(8000, 1, "float32", len(recon)), tmp_path / "want.wav")
        assert (out / "out.wav").read_bytes() == (tmp_path / "want.wav").read_bytes()

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

    # A header in format 2.0 or 3.0 (which np.save writes only when it must) is
    # format 1.0's with a 4-byte length; for a float64 array all are ASCII.
    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_every_npy_format_version_loads(self, tmp_path, version):
        mag = np.abs(np.random.default_rng(2).standard_normal((6, 256)))
        with open(tmp_path / "mag.npy", "wb") as fh:
            write = (np.lib.format.write_array_header_1_0 if version == 1
                     else np.lib.format.write_array_header_2_0)
            write(fh, np.lib.format.header_data_from_array_1_0(mag))
            fh.write(mag.tobytes())
        data = bytearray((tmp_path / "mag.npy").read_bytes())
        data[6] = version
        (tmp_path / "mag.npy").write_bytes(data)
        np.testing.assert_array_equal(cli._load_npy(tmp_path / "mag.npy"), mag)

    def test_an_unknown_npy_format_version_is_input_error(self, tmp_path, capsys):
        mat, out = tmp_path / "mag.npy", tmp_path / "run"
        np.save(mat, np.ones((6, 256)))
        data = bytearray(mat.read_bytes())
        data[6] = 9
        mat.write_bytes(data)
        assert cli.main(["reconstruct", str(mat), "--iters", "2", "--out", str(out)]
                        + STFT_FLAGS) == cli.EXIT_INPUT
        assert "unsupported .npy format version" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("solver", ["gd", "gla"])
    def test_a_one_bin_magnitude_is_not_half_band(self, tmp_path, solver):
        # at N = 1 the half band N//2+1 is the full width: nothing to expand
        np.save(tmp_path / "m1.npy", np.ones((6, 1)))
        out = tmp_path / "run"
        assert cli.main(["reconstruct", str(tmp_path / "m1.npy"), "--solver", solver,
                         "--window-len", "1", "--hop", "1", "--window", "rectangular",
                         "--iters", "2", "--out", str(out)]) == cli.EXIT_OK
        assert sorted(p.name for p in out.iterdir()) == ["out.wav", "report.json",
                                                         "trace.csv"]

    @pytest.mark.parametrize("n, hop", [(64, 16), (63, 21)])
    def test_half_and_full_band_magnitudes_give_the_same_output(self, tmp_path, n, hop):
        config = sc.make_config(n, hop, "hann")
        mag = stft(sc.synth("chirp", {"f0": 200.0, "f1": 3000.0}, 8000, 0.1),
                   config).magnitude
        full = np.maximum(mag, mag[:, -np.arange(n)])  # mirror-symmetric bit for bit
        for name, arr in (("full", full), ("half", full[:, : n // 2 + 1])):
            np.save(tmp_path / f"{name}.npy", arr)
            assert cli.main(["reconstruct", str(tmp_path / f"{name}.npy"), "--solver",
                             "gla", "--iters", "5", "--window-len", str(n), "--hop",
                             str(hop), "--out", str(tmp_path / name)]) == cli.EXIT_OK
        assert (tmp_path / "half" / "out.wav").read_bytes() == \
            (tmp_path / "full" / "out.wav").read_bytes()

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

    # np.load would allocate the shape the header claims before reading a byte.
    @pytest.mark.parametrize("role", ["magnitude", "--init-phase", "--target-phase"])
    def test_npy_header_claiming_more_than_the_file_is_input_error(self, tmp_path,
                                                                   capsys, role):
        big, out = tmp_path / "big.npy", tmp_path / "run"
        with open(big, "wb") as fh:
            np.lib.format.write_array_header_1_0(
                fh, {"shape": (10**9, 512), "fortran_order": False, "descr": "<f8"})
            fh.write(bytes(64))
        argv = ["reconstruct", str(big), "--loss", "cos", "--iters", "1",
                "--out", str(out)]
        if role != "magnitude":
            make_wav(tmp_path / "in.wav")
            argv[1:2] = [str(tmp_path / "in.wav"), role, str(big)]
            if role == "--init-phase":
                argv += ["--init", "provided"]
        assert cli.main(argv) == cli.EXIT_INPUT
        assert not out.exists()
        assert "(1000000000, 512) of float64" in capsys.readouterr().err

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
                                             (["--init", "provided"], False),
                                             (["--init", "noisy"], False)])
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

    @pytest.mark.parametrize("solver", ["gd", "gla"])
    def test_noisy_init_starts_from_the_wav_phase(self, tmp_path, solver):
        wav = tmp_path / "in.wav"
        make_wav(wav)
        signal = sc.read_wav(wav)[0]  # float32 samples, as the CLI reads them
        np.save(tmp_path / "p.npy", stft(signal, sc.make_config(256, 64)).phase)
        runs = {"noisy": ["--init", "noisy"], "provided": ["--init", "provided"],
                "file": ["--init", "provided", "--init-phase", str(tmp_path / "p.npy")]}
        for name, init in runs.items():
            assert cli.main(["reconstruct", str(wav), "--solver", solver, *init,
                             "--iters", "5", "--out", str(tmp_path / name)]
                            + STFT_FLAGS) == cli.EXIT_OK
        for output in ("out.wav", "trace.csv", "report.json"):
            want = (tmp_path / "file" / output).read_bytes()
            assert (tmp_path / "noisy" / output).read_bytes() == want
            assert (tmp_path / "provided" / output).read_bytes() == want
        report = json.loads((tmp_path / "noisy" / "report.json").read_text())
        assert report["config"]["solver"]["init"] == "provided"

    def test_noisy_phase_is_no_config_init(self, tmp_path, capsys):
        wav, out = tmp_path / "in.wav", tmp_path / "run"
        make_wav(wav)
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"solver": {"init": "noisy_phase"}}))
        code = cli.main(["reconstruct", str(wav), "--config", str(cfg_file),
                         "--iters", "2", "--out", str(out)] + STFT_FLAGS)
        assert code == cli.EXIT_INPUT
        assert "unknown init 'noisy_phase'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("solver, loss", [("gla", "ec"), ("gla", "cos"), ("gd", "ec")])
    def test_target_phase_goes_only_with_gd_and_a_target_loss(self, tmp_path, capsys,
                                                              solver, loss):
        wav, out = tmp_path / "in.wav", tmp_path / "run"
        make_wav(wav)
        (tmp_path / "p.npy").write_bytes(b"never read")
        code = cli.main(["reconstruct", str(wav), "--solver", solver, "--loss", loss,
                         "--target-phase", str(tmp_path / "p.npy"), "--iters", "2",
                         "--out", str(out)] + STFT_FLAGS)
        assert code == cli.EXIT_INPUT
        assert ("--target-phase goes only with --solver gd and a target-based loss"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_sample_rate_beyond_the_wav_header_is_input_error(self, tmp_path):
        np.save(tmp_path / "mag.npy", np.ones((6, 256)))
        out = tmp_path / "run"
        code = cli.main(["reconstruct", str(tmp_path / "mag.npy"), "--iters", "2",
                         "--sr", str(2**31), "--out", str(out)] + STFT_FLAGS)
        assert code == cli.EXIT_INPUT
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--seed", "-1"], ["--step", "nan"], ["--step", "inf"], ["--final-step", "inf"],
        ["--window-len", "1099511627776", "--hop", "274877906944"],
        ["--window-len", str(10**41), "--hop", str(10**41)],
    ])
    def test_bad_solver_flags_are_input_errors(self, tmp_path, flags):
        wav = tmp_path / "in.wav"
        make_wav(wav, duration=0.05)
        code = cli.main(["reconstruct", str(wav), *STFT_FLAGS, "--iters", "2", *flags,
                         "--out", str(tmp_path / "run")])
        assert code == cli.EXIT_INPUT
        assert not (tmp_path / "run").exists()

    def test_divergence_exit_code_with_partial_trace(self, tmp_path):
        wav = tmp_path / "in.wav"
        signal = make_wav(wav)
        config = sc.make_config(256, 64, "hann")
        phase_file = tmp_path / "p.npy"
        np.save(phase_file, stft(signal, config).phase)
        out = tmp_path / "run"
        # a finite step of 1e308 carries the phase past the float range
        code = cli.main(["reconstruct", str(wav), "--loss", "cos",
                         "--target-phase", str(phase_file),
                         "--init", "random", "--step", "1e308",
                         "--step-rule", "fixed", "--iters", "5",
                         "--out", str(out)] + STFT_FLAGS)
        assert code == cli.EXIT_DIVERGENCE
        assert sorted(p.name for p in out.iterdir()) == ["trace.csv"]

    def test_diverging_ec_run_is_exit_3_with_warnings_as_errors(self, tmp_path):
        # Tier-1 turns every warning into an error, as python -W error does.
        wav = tmp_path / "in.wav"
        make_wav(wav)
        out = tmp_path / "run"
        code = cli.main(["reconstruct", str(wav), "--loss", "ec", "--step", "1e308",
                         "--step-rule", "fixed", "--iters", "5",
                         "--out", str(out)] + STFT_FLAGS)
        assert code == cli.EXIT_DIVERGENCE
        assert sorted(p.name for p in out.iterdir()) == ["trace.csv"]

    @pytest.mark.parametrize("solver", ["gd", "gla"])
    @pytest.mark.parametrize("case", ["sr 0", "sr 2**31", "long reference",
                                      "reference rate", "short reference wav",
                                      "short reference npy", "long reference npy"])
    def test_output_checks_run_before_the_solver(self, tmp_path, monkeypatch, capsys,
                                                 solver, case):
        def never(*args, **kwargs):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(solvers, "gd_reconstruct", never)
        monkeypatch.setattr(solvers, "griffin_lim", never)
        # 6 frames of Hann 256/64: istft returns at most 6 * 64 = 384 samples.
        np.save(tmp_path / "mag.npy", np.ones((6, 256)))
        flags = {"sr 0": ["--sr", "0"], "sr 2**31": ["--sr", str(2**31)],
                 "long reference": ["--reference", str(tmp_path / "ref.wav")],
                 # a reference that fits, at 8000 Hz against the default --sr 16000
                 "reference rate": ["--reference", str(tmp_path / "ref384.wav")],
                 "short reference wav": ["--reference", str(tmp_path / "ref720.wav")],
                 "short reference npy": ["--reference", str(tmp_path / "ref128.wav")],
                 "long reference npy": ["--reference", str(tmp_path / "ref193.wav")]}[case]
        make_wav(tmp_path / "ref.wav", duration=385 / 8000)
        make_wav(tmp_path / "ref384.wav", duration=384 / 8000)
        # 6 frames span 129 to 192 samples; the 800-sample WAV's 16 frames 769 to 832
        make_wav(tmp_path / "in.wav", duration=800 / 8000)
        make_wav(tmp_path / "ref720.wav", duration=720 / 8000)
        make_wav(tmp_path / "ref128.wav", sr=16000, duration=128 / 16000)
        make_wav(tmp_path / "ref193.wav", sr=16000, duration=193 / 16000)
        source = tmp_path / ("in.wav" if case == "short reference wav" else "mag.npy")
        out = tmp_path / "run"
        code = cli.main(["reconstruct", str(source), "--solver", solver,
                         *flags, "--iters", "3000", "--out", str(out)] + STFT_FLAGS)
        assert code == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert {"long reference": "is at 8000 Hz, the input at 16000 Hz",
                "reference rate": "is at 8000 Hz, the input at 16000 Hz",
                "short reference wav": "ref720.wav has 720 samples; the input's 16 "
                                       "frames need 769 to 832",
                "short reference npy": "ref128.wav has 128 samples; the input's 6 "
                                       "frames need 129 to 192",
                "long reference npy": "ref193.wav has 193 samples; the input's 6 "
                                      "frames need 129 to 192"}.get(
                    case, "does not fit a WAV header") in err
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

    def test_the_wav_suffix_matches_in_any_case(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        make_wav(corpus / "A.WAV")
        out = tmp_path / "r.csv"
        assert cli.main(["compare", str(corpus), "--losses", "ec,cos", "--iters", "2",
                         "--out", str(out)] + STFT_FLAGS) == cli.EXIT_OK
        rows = list(csv.reader(out.read_text().splitlines()))[1:]
        assert [(row[0], row[1]) for row in rows] == [(str(corpus / "A.WAV"), "ec"),
                                                      (str(corpus / "A.WAV"), "cos")]

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_a_corpus_that_is_not_a_directory_is_an_io_error(self, tmp_path, capsys,
                                                             kind):
        corpus = tmp_path / "corpus"
        if kind == "file":
            make_wav(corpus)
        out = tmp_path / "outdir" / "r.csv"
        code = cli.main(["compare", str(corpus), "--out", str(out)])
        assert code == cli.EXIT_IO
        assert str(corpus) in capsys.readouterr().err
        assert not out.parent.exists()

    def test_only_ec_builds_a_workspace(self, tmp_path, monkeypatch):
        # the target losses' rows read no measure, so their runs take none
        corpus = self._make_corpus(tmp_path)
        built = []

        class Spy(consistency._Workspace):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        for module in (consistency, solvers):
            monkeypatch.setattr(module, "_Workspace", Spy)
        assert cli.main(["compare", str(corpus), "--losses", ",".join(cli.LOSS_FLAGS),
                         "--iters", "2", "--out", str(tmp_path / "r.csv")]
                        + STFT_FLAGS) == cli.EXIT_OK
        assert len(built) == 2  # one ec run per file

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

    @pytest.mark.parametrize("threads", ["x", "2.5", "", "0", "-1"])
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

    def test_a_thread_count_too_long_for_int_is_input_error(self, tmp_path, monkeypatch,
                                                            capsys):
        corpus = self._make_corpus(tmp_path)
        out = tmp_path / "outdir" / "r.csv"
        monkeypatch.setenv("SPECCONSIST_THREADS", "1" * 5000)
        code = cli.main(["compare", str(corpus), "--losses", "ec", "--iters", "2",
                         "--out", str(out)] + STFT_FLAGS)
        assert code == cli.EXIT_INPUT
        assert "SPECCONSIST_THREADS must be an integer" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_diverging_run_in_worker_threads_is_exit_3(self, tmp_path, monkeypatch):
        # The solver silences numpy's warnings itself, so they never become
        # errors in compare's worker threads either.
        corpus = self._make_corpus(tmp_path)
        out = tmp_path / "outdir" / "r.csv"
        monkeypatch.setenv("SPECCONSIST_THREADS", "2")
        code = cli.main(["compare", str(corpus), "--step", "1e308", "--step-rule",
                         "fixed", "--iters", "3", "--out", str(out)] + STFT_FLAGS)
        assert code == cli.EXIT_DIVERGENCE
        assert not out.parent.exists()

    def test_diverging_file_and_loss_are_named(self, tmp_path, capsys):
        corpus = self._make_corpus(tmp_path)
        out = tmp_path / "outdir" / "r.csv"
        code = cli.main(["compare", str(corpus), "--losses", "cos", "--step", "1e308",
                         "--step-rule", "fixed", "--out", str(out)] + STFT_FLAGS)
        assert code == cli.EXIT_DIVERGENCE
        err = capsys.readouterr().err
        assert f"{corpus / 'a.wav'}, loss cos: loss 'cos' became non-finite" in err
        assert not out.parent.exists()
        cfg = cli.resolve_config(None, {"solver": {"initial_step": 1e308,
                                                   "step_rule": "fixed"}})
        with pytest.raises(sc.DivergenceError) as excinfo:
            cli._compare_one(corpus / "a.wav", ["cos"], cfg, sc.make_config(256, 64))
        # the second step of 1e308 overflows the phase: records 0 and 1 are finite
        assert len(excinfo.value.trace.records) == 3

    def test_all_zero_file_and_loss_are_named(self, tmp_path, capsys):
        corpus = self._make_corpus(tmp_path)
        write_wav(sc.Signal(np.zeros(2000), 8000), WavMeta(8000, 1, "pcm16", 2000),
                  corpus / "silent.wav")
        out = tmp_path / "outdir" / "r.csv"
        code = cli.main(["compare", str(corpus), "--losses", "ec,cos", "--iters", "2",
                         "--out", str(out)] + STFT_FLAGS)
        assert code == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{corpus / 'silent.wav'}, loss ec: SNR undefined for a zero reference" \
            in err
        assert not out.parent.exists()

    def test_rows_match_the_public_path(self, tmp_path):
        corpus = self._make_corpus(tmp_path)
        out = tmp_path / "r.csv"
        flags = ["ec", "cos", "aw", "comp-l2", "time-l2"]
        assert cli.main(["compare", str(corpus), "--losses", ",".join(flags), "--iters",
                         "4", "--seed", "6", "--radius", "32", "--out", str(out)]
                        + STFT_FLAGS) == 0
        config = sc.make_config(256, 64, "hann")
        opts = sc.SolverOptions(max_iters=4, seed=6)
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["file", "loss", "final_loss", "consistency_measure",
                         "aligned_snr_db", "spectral_convergence_db"])
        for path in sorted(corpus.glob("*.wav")):
            signal = sc.read_wav(path)[0]
            spec = stft(signal, config)
            mag = spec.magnitude
            for loss in (cli.LOSS_FLAGS[flag] for flag in flags):
                target = None if loss == "ec" else spec.phase
                phase, trace = solvers.gd_reconstruct(mag, loss, target, opts, config)
                recon = solvers.reconstruct_signal(mag, phase, config, length=len(signal))
                writer.writerow([
                    str(path), loss, trace.final_loss,
                    sc.consistency_measure(_polar(phase, mag), config),
                    sc.aligned_snr(signal, recon, 32)[0],
                    sc.spectral_convergence(mag, stft(recon, config).magnitude)])
        assert out.read_bytes() == want.getvalue().encode()

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
        ["impulse", "--duration", "1e12"],
        ["sine", "--freq", "440", "--phases", "1.0"],
        ["multisine", "--freqs", "100,200", "--amp", "0.1"],
        ["impulse", "--freq", "440", "--seed", "3"], ["noise", "--position", "5"],
        ["noise", "--amp=-1"], ["noise", "--amp", "1e308"],
        ["sine", "--freq", "440", "--amp=-1"], ["sine", "--freq", "440", "--amp", "inf"],
        ["chirp", "--f0", "1", "--f1", "2", "--amp", "inf"],
        ["multisine", "--freqs", "440,440", "--amps", "1e308,1e308"],
        ["impulse", "--position", "8000"],
    ])
    def test_bad_parameters_are_input_errors(self, tmp_path, capsys, argv):
        out = tmp_path / "x.wav"
        assert cli.main(["synth", *argv, "--sr", "8000", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


# Drawn JSON values: every known config key gets either a plausible value or
# an arbitrary JSON value, and stray keys appear at the top and in sections.
# Numbers come as ints, integral floats, any float, 1e308, 10**41 and strings.
_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 300),
                          st.integers(-2, 300).map(float), st.floats(),
                          st.sampled_from([1e308, 10**41]),
                          st.sampled_from(["7", "0.01", "inf", "1e308"]),
                          st.text(max_size=5))
_JSON_VALUES = st.one_of(_JSON_SCALARS, st.lists(_JSON_SCALARS, max_size=2),
                         st.dictionaries(st.text(max_size=4), _JSON_SCALARS,
                                         max_size=2))
_KNOWN_VALUES = {
    "stft": {"window_len": st.sampled_from([128, 256, 512]),
             "hop": st.sampled_from([32, 64, 128]),
             "window_kind": st.sampled_from(WINDOW_KINDS)},
    "solver": {name: st.just(default) for name, default
               in cli.DEFAULT_CONFIG["solver"].items()},
    "metrics": {"search_radius": st.integers(0, 64)},
    "io": {"output_dir": st.just(".")},
}
# A valid max_iters such as 10**41 or 1e20 would never finish.
_ARBITRARY = {"max_iters": _JSON_VALUES.filter(
    lambda v: not (isinstance(v, (int, float)) and v > 300))}
_FLOAT_KEYS = ("initial_step", "final_step", "tolerance")


def _rarely(draw) -> bool:
    """True one time in eight, so that some drawn configs are valid throughout."""
    return draw(st.sampled_from([False] * 7 + [True]))


@st.composite
def _config_files(draw):
    cfg = {}
    for section, keys in _KNOWN_VALUES.items():
        if _rarely(draw):
            cfg[section] = draw(_JSON_VALUES)
            continue
        cfg[section] = {key: draw(_ARBITRARY.get(key, _JSON_VALUES) if _rarely(draw)
                                  else good)
                        for key, good in keys.items() if draw(st.booleans())}
        if _rarely(draw):
            cfg[section].update(draw(st.dictionaries(st.text(max_size=4), _JSON_VALUES,
                                                     max_size=1)))
    for key, good in (("loss", st.sampled_from(tuple(solvers.LOSSES))),
                      ("seed", st.integers(0, 9))):
        if draw(st.booleans()):
            cfg[key] = draw(_JSON_VALUES if _rarely(draw) else good)
    if _rarely(draw):
        cfg.update(draw(st.dictionaries(st.text(max_size=4), _JSON_VALUES, max_size=1)))
    return cfg


class TestConfigProperty:
    """Any config file: exit 0, 2 or 3, nothing written on exit 2, and exit 2
    whenever a float key holds a string or a non-finite number."""

    @pytest.mark.parametrize("command", ["analyze", "reconstruct"])
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(file_cfg=_config_files())
    def test_config_file_exit_code_contract(self, tmp_path, command, file_cfg):
        wav = tmp_path / "in.wav"
        if not wav.exists():
            make_wav(wav, duration=0.05)  # 400 samples
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(file_cfg))
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            code = cli.main([command, str(wav), "--config", str(cfg_file), "--out",
                             str(out / "r.json" if command == "analyze" else out)])
            event(f"exit {code}")
            assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_DIVERGENCE)
            if code == cli.EXIT_INPUT:
                assert not out.exists()
        solver = file_cfg.get("solver")
        if isinstance(solver, dict) and any(
                isinstance(value, str) or (isinstance(value, float)
                                           and not np.isfinite(value))
                for key, value in solver.items() if key in _FLOAT_KEYS):
            assert code == cli.EXIT_INPUT


# Drawn argv for reconstruct and compare. Each flag is absent, valid, or (one
# time in four) a value the CLI must reject; 64/16 and 0.05 s keep runs small.
_SMALL_STFT = ["--window-len", "64", "--hop", "16"]
_FLAG_VALUES = {  # flag -> (accepted values, rejected values)
    "--solver": (cli.SOLVER_KINDS, ["lbfgs"]),
    "--iters": (["1", "3"], ["0", "-2", "x"]),
    "--step": (["1e-3", "0.5", "1e308"], ["0", "-1", "nan", "inf", "x"]),
    "--radius": (["0", "16"], ["-1", "1.5"]),
    "--seed": (["0", "7"], ["-1", "x"]),
    "--sr": (["8000"], ["0", "-8000", str(2**31), "x"]),
}
_BAD_PHASES = ["mis-shaped", "nan", "garbage"]


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


_GOOD_SYNTH_TEXTS = {"freq": "440", "f0": "100", "f1": "3000", "amp": "0.5",
                     "freqs": "100,200", "amps": "0.5,0.25", "phases": "1,-2",
                     "position": "79", "seed": "7"}
_BAD_SYNTH_TEXTS = st.sampled_from(["-0", "-1", "2.7", "80", "4000", "inf", "nan", "1e308",
                                    "abc", "", "1,2,3", "1e308,1e308", "0.1,nan"])


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
                scale = draw(st.sampled_from([1.0, 1e154, 1e300]))
                np.save(source, scale * np.random.default_rng(0).random(shape))
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

    @pytest.mark.parametrize("command", ["analyze", "reconstruct", "compare"])
    def test_a_refused_allocation_is_input_error(self, tmp_path, monkeypatch, capsys,
                                                 command):
        # what numpy raises for an STFT too large to allocate, without allocating
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.01 TiB for an array")

        monkeypatch.setattr(metrics, "consistency_measure", refuse)
        monkeypatch.setattr(cli, "stft", refuse)
        monkeypatch.setenv("SPECCONSIST_THREADS", "2")
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("a.wav", "b.wav"):
            make_wav(corpus / name, duration=0.05)
        source, out = {"analyze": (corpus / "a.wav", tmp_path / "run" / "report.json"),
                       "reconstruct": (corpus / "a.wav", tmp_path / "run"),
                       "compare": (corpus, tmp_path / "run" / "r.csv")}[command]
        assert cli.main([command, str(source), "--out", str(out)]) == cli.EXIT_INPUT
        assert ("error: out of memory: Unable to allocate 8.01 TiB"
                in capsys.readouterr().err)
        assert not (tmp_path / "run").exists()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_synth_exit_code_contract(self, data):
        draw = data.draw
        kind = draw(st.sampled_from(sorted(audio_io.SYNTH_KINDS)))
        names = [name for name in audio_io.SYNTH_KINDS[kind][1] if draw(st.integers(0, 3))]
        if draw(st.integers(0, 4)) == 0:
            names.append(draw(st.sampled_from(sorted(set(audio_io.SYNTH_PARAMS) - set(names)))))
        argv = ["synth", kind, "--sr", "8000", "--duration",
                draw(_mostly(st.just("0.01"), st.sampled_from(["1e-9", "inf"])))]
        for name in names:
            text = draw(_mostly(st.just(_GOOD_SYNTH_TEXTS[name]), _BAD_SYNTH_TEXTS))
            argv.append(f"--{name}={text}")
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "new" / "s.wav"
            code = _exit_code(argv + ["--out", str(out)])
            event(f"exit {code}")
            assert code in (cli.EXIT_OK, cli.EXIT_INPUT)
            assert out.parent.exists() == (code == cli.EXIT_OK)

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
                params = {"sine": {"freq": 440.0, "amp": 0.5}, "noise": {"amp": 0.5}}
                signal = sc.synth(kind, params[kind], 8000,
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
