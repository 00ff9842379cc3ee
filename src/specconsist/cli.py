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
import math
import os
import sys
import tokenize
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import audio_io, metrics, solvers
from .errors import DivergenceError, InputError, SpecConsistError
from .stft import (WINDOW_KINDS, _check_length, _integer, _magnitude, expand_half_spectrum,
                   istft, make_config, num_frames, signal_length, stft)

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
              "noisy": "provided", "provided": "provided"}

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
    # Fail early on anything the modules would reject, unknown keys first.
    unknown = set(resolved) - set(DEFAULT_CONFIG)
    for section, keys in DEFAULT_CONFIG.items():
        if isinstance(keys, dict):
            if not isinstance(resolved[section], dict):
                raise InputError(f"config section {section!r} must be a JSON object")
            unknown |= {f"{section}.{key}" for key in set(resolved[section]) - set(keys)}
    if unknown:
        raise InputError(f"unknown config keys {sorted(unknown)}")
    make_config(**resolved["stft"])
    _solver_options(resolved).validate()
    if resolved["loss"] not in tuple(solvers.LOSSES):
        raise InputError(f"unknown loss {resolved['loss']!r}")
    if resolved["solver"]["kind"] not in SOLVER_KINDS:
        raise InputError(f"solver kind must be one of {SOLVER_KINDS}")
    _integer(resolved["metrics"]["search_radius"], "search_radius", 0)
    if not isinstance(resolved["io"]["output_dir"], str):
        raise InputError("io.output_dir must be a string")
    return resolved


def _solver_options(cfg: dict, init_phase=None) -> solvers.SolverOptions:
    """The run's options, taken as the config spells them; ``validate`` checks them."""
    fields = {name: cfg["solver"][name] for name in _SOLVER_DEFAULTS}
    return solvers.SolverOptions(**fields, seed=cfg["seed"], init_phase=init_phase)


# CLI flag -> (dotted config path, subcommands that take it, argparse keywords).
# A dict of choices maps each CLI spelling to its config value.
_ALL, _SOLVING = ("analyze", "reconstruct", "compare"), ("reconstruct", "compare")
CONFIG_FLAGS = {
    "--seed": ("seed", _ALL, {"type": int, "help": "master seed (also the solver seed)"}),
    "--window-len": ("stft.window_len", _ALL, {"type": int}),
    "--hop": ("stft.hop", _ALL, {"type": int}),
    "--window": ("stft.window_kind", _ALL, {"choices": WINDOW_KINDS}),
    "--solver": ("solver.kind", ("reconstruct",), {"choices": SOLVER_KINDS}),
    "--loss": ("loss", ("reconstruct",), {"choices": LOSS_FLAGS}),
    "--iters": ("solver.max_iters", _SOLVING, {"type": int}),
    "--step": ("solver.initial_step", _SOLVING, {"type": float, "help": "initial step size"}),
    "--final-step": ("solver.final_step", _SOLVING, {"type": float}),
    "--step-rule": ("solver.step_rule", _SOLVING, {"choices": solvers.STEP_RULES}),
    "--init": ("solver.init", ("reconstruct",), {"choices": INIT_FLAGS}),
    "--radius": ("metrics.search_radius", _SOLVING,
                 {"type": int, "help": "alignment search radius in samples"}),
}


def _config_overrides(args) -> dict:
    over: dict = {}
    for flag, (path, _, keywords) in CONFIG_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)  # argparse's dest
        if value is None:
            continue
        *sections, key = path.split(".")
        node = over
        for section in sections:
            node = node.setdefault(section, {})
        spellings = keywords.get("choices")
        node[key] = spellings[value] if isinstance(spellings, dict) else value
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
    measure = metrics.consistency_measure(signal, config)
    frames = num_frames(len(signal), config)
    report = {
        "command": "analyze",
        "config": cfg,
        "input": {"path": str(args.input), "samples": len(signal),
                  "sample_rate": meta.sample_rate, "encoding": meta.encoding},
        "results": {
            "consistency_measure": measure,
            "frames": frames,
            "bins": config.window_len,
        },
    }
    out = Path(args.out) if args.out else Path(cfg["io"]["output_dir"]) / "report.json"
    _write_report(out, report)
    print(f"consistency_measure={measure:.6e} frames={frames} "
          f"bins={config.window_len} -> {out}")
    return EXIT_OK


def _load_reconstruct_input(args, config):
    """Returns (magnitude, wav_phase_or_None, reference_or_None, sample_rate)."""
    path = Path(args.input)
    if path.suffix.lower() == ".npy":
        arr = _load_npy(path)
        if arr.ndim == 2 and arr.shape[1] == config.window_len // 2 + 1:
            arr = expand_half_spectrum(arr)
        return _magnitude(arr, config), None, None, args.sr
    signal, meta = audio_io.read_wav(path, downmix=args.downmix)
    spec = stft(signal, config)
    return spec.magnitude, spec.phase, signal, meta.sample_rate


# .npy format version -> its header reader. 3.0 differs from 2.0 only in a UTF-8
# header, which only the field names of structured dtypes need.
_NPY_HEADERS = {(1, 0): np.lib.format.read_array_header_1_0,
                (2, 0): np.lib.format.read_array_header_2_0,
                (3, 0): np.lib.format.read_array_header_2_0}


def _load_npy(path) -> np.ndarray:
    """A real numeric array from a .npy file; pickled objects are never loaded.

    The header's shape and dtype must account for exactly the bytes after it,
    checked before anything is allocated.
    """
    with open(path, "rb") as fh:
        try:
            read_header = _NPY_HEADERS.get(np.lib.format.read_magic(fh))
            if read_header is None:
                raise ValueError("unsupported .npy format version")
            shape, _, dtype = read_header(fh)
            if dtype.kind not in "biuf":
                raise InputError(f"{path} must hold a real numeric array, not {dtype}")
            size = math.prod(shape) * dtype.itemsize
            if size != os.fstat(fh.fileno()).st_size - fh.tell():
                raise ValueError(f"its header claims shape {shape} of {dtype} "
                                 f"({size} bytes), which the file does not hold")
            fh.seek(0)
            return np.load(fh, allow_pickle=False)
        # numpy's header parser lets a TypeError escape on keys of mixed types, and
        # a TokenError from its retry for headers that Python 2 wrote.
        except (ValueError, EOFError, TypeError, tokenize.TokenError) as exc:
            raise InputError(f"{path} is not a readable .npy array: {exc}") from None


def cmd_reconstruct(args) -> int:
    cfg = resolve_config(args.config, _config_overrides(args))
    config = make_config(**cfg["stft"])
    mag, wav_phase, reference, sample_rate = _load_reconstruct_input(args, config)
    audio_io._check_sample_rate(sample_rate)

    if args.reference is not None:
        reference, _ = audio_io.read_wav(args.reference, downmix=args.downmix)

    # --init provided (or noisy) starts from --init-phase, else from the WAV's phase.
    init_phase = None
    if cfg["solver"]["init"] != "provided":
        if args.init_phase is not None:
            raise InputError("--init-phase goes only with --init provided or noisy")
    elif args.init_phase is not None:
        init_phase = _load_npy(args.init_phase)
    elif (init_phase := wav_phase) is None:
        raise InputError("--init provided on a .npy magnitude needs --init-phase")

    solver_kind = cfg["solver"]["kind"]
    target_phase = None
    if args.target_phase is not None:
        if solver_kind != "gd" or not solvers.LOSSES[cfg["loss"]][1]:
            raise InputError("--target-phase goes only with --solver gd and a "
                             "target-based loss")
        target_phase = _load_npy(args.target_phase)

    opts = _solver_options(cfg, init_phase=init_phase)
    out_dir = Path(args.out) if args.out else Path(cfg["io"]["output_dir"])
    span = signal_length(len(mag), config)  # no signal has fewer than Q frames
    length = span if reference is None else _check_length(len(reference), len(mag),
                                                          config)

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

    spec = solvers._spectrogram(mag, phase, config)
    recon = istft(spec, length=length, sample_rate=sample_rate)

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
            reference, recon, mag, spec, config,
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
        "environment": _environment(),
    })
    print(f"{solver_kind}: loss {results['initial_loss']:.6e} -> "
          f"{results['final_loss']:.6e} in {results['iterations']} iterations "
          f"-> {out_dir}")
    return EXIT_OK


def _environment() -> dict:
    """numpy's version and SIMD dispatch: the last bits of a run follow them,
    through numpy's tan, abs and angle kernels."""
    return {"numpy": np.__version__,
            "simd_extensions": np.show_config(mode="dicts")["SIMD Extensions"]}


def _compare_one(path: Path, loss_names, cfg, config):
    signal, _ = audio_io.read_wav(path)
    spec = stft(signal, config)
    mag, clean_phase = spec.magnitude, spec.phase
    rows = []
    for loss in loss_names:
        target = clean_phase if solvers.LOSSES[loss][1] else None
        opts = _solver_options(cfg)
        try:
            phase, trace = solvers.gd_reconstruct(mag, loss, target, opts, config)
            spec = solvers._spectrogram(mag, phase, config)
            scores = metrics.evaluate(signal, istft(spec, length=len(signal)), mag,
                                      spec, config, cfg["metrics"]["search_radius"])
        except SpecConsistError as exc:  # same class, trace and exit code
            exc.args = (f"{path}, loss {loss.replace('_', '-')}: {exc}",)
            raise
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
    text = os.environ.get("SPECCONSIST_THREADS", "1")  # _integer rejects any other string
    threads = _integer(int(text) if text.strip().isdecimal() else text,
                       "SPECCONSIST_THREADS", 1)
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


# synth parameter flag -> argparse type; audio_io.SYNTH_KINDS says which a kind takes
SYNTH_FLAGS = {"freq": float, "freqs": _floats, "amps": _floats, "phases": _floats,
               "f0": float, "f1": float, "amp": float, "position": int, "seed": int}


def _add_config_flags(sub, command: str):
    sub.add_argument("--config", help="JSON config file; flags take precedence")
    for flag, (_, commands, keywords) in CONFIG_FLAGS.items():
        if command in commands:
            sub.add_argument(flag, **keywords)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specconsist", allow_abbrev=False,
        description="Consistent-spectrogram experiments: analysis, phase "
                    "reconstruction, and loss comparison.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="consistency measure of a WAV file's STFT",
                        allow_abbrev=False)
    _add_config_flags(p, "analyze")
    p.add_argument("input")
    p.add_argument("--out", help="report path (default <output_dir>/report.json)")
    p.add_argument("--downmix", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("reconstruct", allow_abbrev=False,
                        help="phase reconstruction from a WAV or magnitude matrix")
    _add_config_flags(p, "reconstruct")
    p.add_argument("input", help="WAV file or .npy magnitude matrix")
    p.add_argument("--init-phase",
                   help=".npy phase for --init provided (default: a WAV input's phase)")
    p.add_argument("--target-phase", help=".npy target phase for gd's target-based losses")
    p.add_argument("--reference", help="WAV reference for the evaluation report")
    p.add_argument("--sr", type=int, default=16000,
                   help="sample rate for matrix inputs (default 16000)")
    p.add_argument("--encoding", choices=audio_io.ENCODINGS, default="float32")
    p.add_argument("--out", help="output directory")
    p.add_argument("--downmix", action="store_true")
    p.set_defaults(func=cmd_reconstruct)

    p = subs.add_parser("compare", help="loss comparison table over a WAV corpus",
                        allow_abbrev=False)
    _add_config_flags(p, "compare")
    p.add_argument("corpus", help="directory of WAV files")
    p.add_argument("--losses", default="ec,cos,aw",
                   help="comma-separated loss names (CLI spellings)")
    p.add_argument("--out", help="results CSV path (default <output_dir>/results.csv)")
    p.set_defaults(func=cmd_compare)

    p = subs.add_parser("synth", help="write a deterministic test signal",
                        allow_abbrev=False)
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
