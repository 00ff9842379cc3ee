"""Command-line front end wiring the library into reproducible experiments.

Subcommands: analyze, reconstruct, compare, synth. Configuration comes from a
JSON file (--config) with CLI flags taking precedence; every report embeds the
fully resolved configuration. Exit codes: 0 success, 1 warning (e.g. empty
corpus), 2 input/configuration error, 3 solver divergence, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import audio_io, metrics, solvers
from .errors import DivergenceError, InputError, SpecConsistError
from .stft import (WINDOW_KINDS, _check_frames, _check_length, expand_half_spectrum,
                   make_config, signal_length, stft)

EXIT_OK = 0
EXIT_WARNING = 1
EXIT_INPUT = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4

TRACE_COLUMNS = ("iter", "loss", "consistency_measure", "step_size")

SOLVER_KINDS = ("gla", "gd")

# CLI spellings -> library names
LOSS_FLAGS = {name.replace("_", "-"): name for name in solvers.LOSSES}
INIT_FLAGS = {"zeros": "zeros", "random": "random_uniform",
              "noisy": "noisy_phase", "provided": "provided"}

# The config's "solver" section holds every SolverOptions field except the
# seed (a top-level key) and the initial phase (loaded from --init-phase).
_SOLVER_DEFAULTS = {f.name: f.default for f in dataclasses.fields(solvers.SolverOptions)
                    if f.name not in ("seed", "init_phase")}

DEFAULT_CONFIG = {
    "stft": {"window_len": 512, "hop": 128, "window_kind": "hann"},
    "solver": {"kind": "gd", **_SOLVER_DEFAULTS},
    "loss": "ec",
    "metrics": {"search_radius": 128},
    "io": {"output_dir": "."},
    "seed": 0,
}


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def resolve_config(config_path=None, overrides: dict | None = None) -> dict:
    """Defaults <- config file <- CLI flags, validated against preconditions."""
    resolved = copy.deepcopy(DEFAULT_CONFIG)
    if config_path is not None:
        try:
            with open(config_path) as fh:
                file_cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"config file {config_path} is not valid JSON: {exc}")
        if not isinstance(file_cfg, dict):
            raise InputError("config file must contain a JSON object")
        resolved = _deep_merge(resolved, file_cfg)
    if overrides:
        resolved = _deep_merge(resolved, overrides)
    # Fail early on anything the modules would reject.
    for section in ("stft", "solver", "metrics", "io"):
        if not isinstance(resolved[section], dict):
            raise InputError(f"config section {section!r} must be a JSON object")
    unknown = set(resolved["stft"]) - set(DEFAULT_CONFIG["stft"])
    if unknown:
        raise InputError(f"unknown stft config keys {sorted(unknown)}")
    make_config(**resolved["stft"])
    _solver_options(resolved).validate()
    if resolved["loss"] not in solvers.LOSSES:
        raise InputError(f"unknown loss {resolved['loss']!r}")
    if resolved["solver"]["kind"] not in SOLVER_KINDS:
        raise InputError(f"solver kind must be one of {SOLVER_KINDS}")
    metrics._check_search_radius(resolved["metrics"]["search_radius"])
    if not isinstance(resolved["io"]["output_dir"], str):
        raise InputError("io.output_dir must be a string")
    return resolved


def _number(kind, value, name: str):
    """``kind(value)``; a config file may spell a number as a string such as "0.01"."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{name} must be a number, got {value!r}") from None


def _solver_options(cfg: dict, init_phase=None) -> solvers.SolverOptions:
    fields = {}
    for name, default in _SOLVER_DEFAULTS.items():
        value = cfg["solver"][name]
        fields[name] = (_number(type(default), value, f"solver.{name}")
                        if isinstance(default, (int, float)) else value)
    return solvers.SolverOptions(**fields, seed=_number(int, cfg["seed"], "seed"),
                                 init_phase=init_phase)


# argparse dest -> (dotted config path, map from flag value to config value)
CONFIG_FLAGS = {
    "seed": ("seed", None),
    "solver": ("solver.kind", None),
    "iters": ("solver.max_iters", None),
    "init": ("solver.init", INIT_FLAGS),
    "step": ("solver.initial_step", None),
    "final_step": ("solver.final_step", None),
    "step_rule": ("solver.step_rule", None),
    "loss": ("loss", LOSS_FLAGS),
    "radius": ("metrics.search_radius", None),
    "window_len": ("stft.window_len", None),
    "hop": ("stft.hop", None),
    "window": ("stft.window_kind", None),
}


def _config_overrides(args) -> dict:
    over: dict = {}
    for dest, (path, spellings) in CONFIG_FLAGS.items():
        value = getattr(args, dest, None)
        if value is None:
            continue
        *sections, key = path.split(".")
        node = over
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = value if spellings is None else spellings[value]
    return over


def _write_report(path: Path, payload: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_trace(path: Path, trace: solvers.SolveTrace):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for rec in trace.records:
            writer.writerow([rec.iteration, rec.loss,
                             rec.consistency_measure, rec.step_size])


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args) -> int:
    cfg = resolve_config(args.config, _config_overrides(args))
    config = make_config(**cfg["stft"])
    signal, meta = audio_io.read_wav(args.input, downmix=args.downmix)
    spec = stft(signal, config)
    measure = metrics.consistency_measure(spec, config)
    report = {
        "command": "analyze",
        "config": cfg,
        "input": {"path": str(args.input), "samples": len(signal),
                  "sample_rate": meta.sample_rate, "encoding": meta.encoding},
        "results": {
            "consistency_measure": measure,
            "frames": spec.num_frames,
            "bins": config.window_len,
        },
    }
    out = Path(args.out) if args.out else Path(cfg["io"]["output_dir"]) / "report.json"
    _write_report(out, report)
    print(f"consistency_measure={measure:.6e} frames={spec.num_frames} "
          f"bins={config.window_len} -> {out}")
    return EXIT_OK


def _load_reconstruct_input(args, config):
    """Returns (magnitude, noisy_phase_or_None, reference_or_None, sample_rate)."""
    path = Path(args.input)
    if path.suffix.lower() == ".npy":
        arr = _load_npy(path)
        if arr.ndim == 2 and arr.shape[1] == config.window_len // 2 + 1:
            arr = expand_half_spectrum(arr)
        mag = _check_frames(np.asarray(arr, dtype=np.float64), config, "magnitude")
        return mag, None, None, args.sr
    signal, meta = audio_io.read_wav(path, downmix=args.downmix)
    spec = stft(signal, config)
    return spec.magnitude, spec.phase, signal, meta.sample_rate


def _load_npy(path) -> np.ndarray:
    """A real numeric array from a .npy file; pickled objects are never loaded."""
    try:
        arr = np.load(path, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise InputError(f"{path} is not a readable .npy array: {exc}") from None
    if arr.dtype.kind not in "biuf":
        raise InputError(f"{path} must hold a real numeric array, not {arr.dtype}")
    return arr


def cmd_reconstruct(args) -> int:
    cfg = resolve_config(args.config, _config_overrides(args))
    config = make_config(**cfg["stft"])
    mag, noisy_phase, reference, sample_rate = _load_reconstruct_input(args, config)
    audio_io._check_sample_rate(sample_rate)

    if args.reference is not None:
        reference, _ = audio_io.read_wav(args.reference, downmix=args.downmix)

    init_phase = None
    if (cfg["solver"]["init"] == "provided") != (args.init_phase is not None):
        raise InputError("--init-phase goes with --init provided, and only with it")
    if cfg["solver"]["init"] == "noisy_phase":
        if noisy_phase is None:
            raise InputError("noisy-phase init requires WAV input")
        init_phase = noisy_phase
    elif args.init_phase is not None:
        init_phase = _load_npy(args.init_phase)

    target_phase = None
    if args.target_phase is not None:
        if cfg["loss"] == "ec":
            raise InputError("the consistency loss never consumes a target phase")
        target_phase = _load_npy(args.target_phase)

    opts = _solver_options(cfg, init_phase=init_phase)
    out_dir = Path(args.out) if args.out else Path(cfg["io"]["output_dir"])
    span = signal_length(len(mag), config)  # no signal has fewer than Q frames
    length = span if reference is None else _check_length(len(reference), len(mag),
                                                          config)

    solver_kind = cfg["solver"]["kind"]
    try:
        if solver_kind == "gla":
            phase, trace = solvers.griffin_lim(mag, opts, config)
        else:
            phase, trace = solvers.gd_reconstruct(mag, cfg["loss"], target_phase,
                                                  opts, config)
    except DivergenceError as exc:
        if exc.trace is not None:
            _write_trace(out_dir / "trace.csv", exc.trace)
        raise

    recon = solvers.reconstruct_signal(mag, phase, config, length=length,
                                       sample_rate=sample_rate)

    results = {
        "solver": solver_kind,
        "loss": cfg["loss"] if solver_kind == "gd" else "inconsistency",
        "iterations": len(trace.records),
        "best_iteration": trace.best_iteration,
        "initial_loss": trace.records[0].loss,
        "final_loss": trace.final_loss,
        "eval": None,
    }
    if reference is not None:
        results["eval"] = metrics.evaluate(
            reference, recon, mag, phase, config,
            cfg["metrics"]["search_radius"]).to_dict()

    audio_io.write_wav(recon, audio_io.WavMeta(sample_rate, 1, args.encoding,
                                               len(recon)),
                       out_dir / "out.wav")
    _write_trace(out_dir / "trace.csv", trace)
    _write_report(out_dir / "report.json", {
        "command": "reconstruct",
        "config": cfg,
        "input": {"path": str(args.input)},
        "results": results,
    })
    print(f"{solver_kind}: loss {results['initial_loss']:.6e} -> "
          f"{results['final_loss']:.6e} in {results['iterations']} iterations "
          f"-> {out_dir}")
    return EXIT_OK


def _compare_one(path: Path, loss_names, cfg, config):
    signal, _ = audio_io.read_wav(path)
    spec = stft(signal, config)
    mag, clean_phase = spec.magnitude, spec.phase
    rows = []
    for loss in loss_names:
        target = None if loss == "ec" else clean_phase
        opts = _solver_options(cfg)
        phase, trace = solvers.gd_reconstruct(mag, loss, target, opts, config)
        recon = solvers.reconstruct_signal(mag, phase, config, length=len(signal))
        scores = metrics.evaluate(signal, recon, mag, phase, config,
                                  cfg["metrics"]["search_radius"])
        rows.append([str(path), loss, trace.final_loss,
                     scores.consistency_measure, scores.aligned_snr_db,
                     scores.spectral_convergence_db])
    return rows


def cmd_compare(args) -> int:
    cfg = resolve_config(args.config, _config_overrides(args))
    config = make_config(**cfg["stft"])
    try:
        loss_names = [LOSS_FLAGS[name.strip()] for name in args.losses.split(",")]
    except KeyError as exc:
        raise InputError(f"unknown loss {exc.args[0]!r}; expected one of "
                         f"{sorted(LOSS_FLAGS)}") from None
    corpus = sorted(Path(args.corpus).glob("*.wav"))
    out_path = Path(args.out) if args.out else Path(cfg["io"]["output_dir"]) / "results.csv"

    header = ["file", "loss", "final_loss", "consistency_measure",
              "aligned_snr_db", "spectral_convergence_db"]
    threads = max(1, _number(int, os.environ.get("SPECCONSIST_THREADS", "1"),
                             "SPECCONSIST_THREADS"))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        per_file = list(pool.map(
            lambda p: _compare_one(p, loss_names, cfg, config), corpus))

    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rows in per_file:
            for row in rows:
                writer.writerow(row)

    if not corpus:
        print(f"warning: no WAV files in {args.corpus}; wrote header-only CSV",
              file=sys.stderr)
        return EXIT_WARNING
    print(f"wrote {sum(len(r) for r in per_file)} rows -> {out_path}")
    return EXIT_OK


def cmd_synth(args) -> int:
    params = {name: getattr(args, name) for name in SYNTH_FLAGS
              if getattr(args, name) is not None}
    signal = audio_io.synth(args.kind, params, args.sr, args.duration)
    out = Path(args.out)
    audio_io.write_wav(signal, audio_io.WavMeta(args.sr, 1, args.encoding,
                                                len(signal)), out)
    print(f"wrote {len(signal)} samples at {args.sr} Hz -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


# synth parameter flag -> argparse type; audio_io.SYNTH_KINDS says which a kind needs
SYNTH_FLAGS = {"freq": float, "freqs": _floats, "amps": _floats, "phases": _floats,
               "f0": float, "f1": float, "amp": float, "position": int, "seed": int}


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file; flags take precedence")
    sub.add_argument("--seed", type=int, help="master seed (also the solver seed)")
    sub.add_argument("--window-len", type=int, dest="window_len")
    sub.add_argument("--hop", type=int)
    sub.add_argument("--window", choices=WINDOW_KINDS)


def _add_solver_flags(sub):
    sub.add_argument("--iters", type=int)
    sub.add_argument("--step", type=float, help="initial step size")
    sub.add_argument("--final-step", dest="final_step", type=float)
    sub.add_argument("--step-rule", dest="step_rule", choices=solvers.STEP_RULES)
    sub.add_argument("--radius", type=int, help="alignment search radius in samples")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specconsist",
        description="Consistent-spectrogram experiments: analysis, phase "
                    "reconstruction, and loss comparison.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="consistency measure of a WAV file's STFT")
    _add_common(p)
    p.add_argument("input")
    p.add_argument("--out", help="report path (default <output_dir>/report.json)")
    p.add_argument("--downmix", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("reconstruct",
                        help="phase reconstruction from a WAV or magnitude matrix")
    _add_common(p)
    p.add_argument("input", help="WAV file or .npy magnitude matrix")
    p.add_argument("--solver", choices=SOLVER_KINDS)
    p.add_argument("--loss", choices=sorted(LOSS_FLAGS))
    _add_solver_flags(p)
    p.add_argument("--init", choices=sorted(INIT_FLAGS))
    p.add_argument("--init-phase", dest="init_phase", help=".npy phase for --init provided")
    p.add_argument("--target-phase", dest="target_phase",
                   help=".npy target phase for target-based losses")
    p.add_argument("--reference", help="WAV reference for the evaluation report")
    p.add_argument("--sr", type=int, default=16000,
                   help="sample rate for matrix inputs (default 16000)")
    p.add_argument("--encoding", choices=audio_io.ENCODINGS, default="float32")
    p.add_argument("--out", help="output directory")
    p.add_argument("--downmix", action="store_true")
    p.set_defaults(func=cmd_reconstruct)

    p = subs.add_parser("compare", help="loss comparison table over a WAV corpus")
    _add_common(p)
    p.add_argument("corpus", help="directory of WAV files")
    p.add_argument("--losses", default="ec,cos,aw",
                   help="comma-separated loss names (CLI spellings)")
    _add_solver_flags(p)
    p.add_argument("--out", help="results CSV path (default <output_dir>/results.csv)")
    p.set_defaults(func=cmd_compare)

    p = subs.add_parser("synth", help="write a deterministic test signal")
    p.add_argument("kind", choices=audio_io.SYNTH_KINDS)
    p.add_argument("--sr", type=int, default=16000)
    p.add_argument("--duration", type=float, default=1.0)
    for name, kind in SYNTH_FLAGS.items():
        list_help = "comma-separated list (multisine)" if kind is _floats else None
        p.add_argument(f"--{name}", type=kind, help=list_help)
    p.add_argument("--encoding", choices=audio_io.ENCODINGS, default="float32")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecConsistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE if isinstance(exc, DivergenceError) else EXIT_INPUT
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
