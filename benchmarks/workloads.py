"""The four benchmark workloads: inputs from a seed, one timed unit, checks.

Each workload is a class built from ``(seed, sizes, workdir)``. ``run()`` is
one closed-loop unit of work and returns its job outputs; ``check(outputs)``
returns one error string (or None) per job. ``specconsist`` must already be
importable; ``run.py`` puts the checkout's ``src`` first on ``sys.path``.

To record the desk_ec reference table for the code under test, run from
the repository root::

    PYTHONPATH=src python3 benchmarks/workloads.py > benchmarks/references.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import specconsist as sc
from specconsist import cli, solvers
from specconsist.solvers import SolverOptions

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
# desk_ec maps the workload seed onto this many solver seeds, each with a
# recorded reference in references.json.
REFERENCE_SEEDS = 8
# Entry points are called as module attributes (``solvers.gd_reconstruct``)
# so that the tracer's wrappers are the objects called.
COMPARE_LOSSES = "ec,cos,aw,comp-l2,time-l2"
COMPARE_THREADS = 2
# At the CLI default radius (128) the alignment search takes about 40% of a
# compare unit (3.5 s per unit against 2.3 s at 32); 32 keeps the solver and
# loss layers visible and fits more units in a run.
COMPARE_RADIUS = 32


@dataclass(frozen=True)
class Sizes:
    desk_iters: int = 40
    gla_seeds: int = 4
    gla_iters: int = 50
    corpus_files: int = 4
    corpus_seconds: float = 1.0
    compare_iters: int = 5
    long_files: int = 3
    long_seconds: float = 30.0
    setup_repeats: int = 5


FULL = Sizes()
QUICK = Sizes(desk_iters=3, gla_seeds=1, gla_iters=10, corpus_files=2,
              corpus_seconds=0.25, compare_iters=2, long_files=1,
              long_seconds=2.0, setup_repeats=2)


@dataclass
class Probe:
    """What the isolated layer timings run on: the workload's own shape."""

    config: sc.StftConfig
    signal: sc.Signal
    radius: int
    wav: Path


def _sha256(*chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk if isinstance(chunk, bytes)
                      else np.ascontiguousarray(chunk).tobytes())
    return digest.hexdigest()


@contextlib.contextmanager
def _threads(value: str):
    old = os.environ.get("SPECCONSIST_THREADS")
    os.environ["SPECCONSIST_THREADS"] = value
    try:
        yield
    finally:
        if old is None:
            del os.environ["SPECCONSIST_THREADS"]
        else:
            os.environ["SPECCONSIST_THREADS"] = old


def _cli(args) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in args])


def _write(signal: sc.Signal, encoding: str, path: Path) -> Path:
    sc.write_wav(signal, sc.WavMeta(signal.sample_rate, 1, encoding, len(signal)),
                 path)
    return path


def desk_signals() -> list[sc.Signal]:
    """The acceptance suite's multisine (1 s), chirp (0.5 s) and AM tone (0.5 s)."""
    sr = 16000
    multi = sc.synth("multisine", {"freqs": [220.0, 495.0, 1210.0, 2750.0],
                                   "amps": [0.4, 0.3, 0.2, 0.1]}, sr, 1.0)
    chirp = sc.synth("chirp", {"f0": 200.0, "f1": 3000.0, "amp": 0.8}, sr, 0.5)
    t = np.arange(sr // 2) / sr
    env = np.sin(np.pi * np.arange(sr // 2) / (sr // 2)) ** 2
    am = sc.Signal(0.8 * env * np.sin(2 * np.pi * 440.0 * t), sr)
    return [multi, chirp, am]


def _desk_options(mag, iters: int, seed: int) -> SolverOptions:
    """The acceptance suite's fixed step, relative to the magnitude."""
    step = 0.5 / mag.max() ** 2
    return SolverOptions(max_iters=iters, step_rule="fixed", initial_step=step,
                         final_step=step, init="random_uniform", seed=seed)


class DeskEc:
    """Gradient descent on the consistency loss at 128x512, fixed relative step."""

    config_args = (512, 128, "hann")

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.config = sc.make_config(*self.config_args)
        self.signals = desk_signals()
        self.mags = [sc.stft(s, self.config).magnitude for s in self.signals]
        self.iters = sizes.desk_iters
        self.solver_seed = seed % REFERENCE_SEEDS
        self.iterations = self.iters * len(self.mags)
        self.audio_seconds = sum(len(s) / s.sample_rate for s in self.signals)
        self.input_sha256 = _sha256(*self.mags, str(self.solver_seed).encode())
        np.save(workdir / "setup_mag.npy", self.mags[0])
        self.workdir = workdir

    def run(self):
        return [solvers.gd_reconstruct(mag, "ec", None,
                                       _desk_options(mag, self.iters, self.solver_seed),
                                       self.config)
                for mag in self.mags]

    def outcomes(self, outputs) -> dict:
        """Multisine reduction factor and final aligned SNR of each signal."""
        factor, snrs = None, []
        for signal, mag, (phase, trace) in zip(self.signals, self.mags, outputs):
            first = trace.records[0].consistency_measure
            best = trace.records[trace.best_iteration].consistency_measure
            if factor is None:
                factor = first / best
            recon = sc.reconstruct_signal(mag, phase, self.config, length=len(signal))
            snrs.append(sc.aligned_snr(signal, recon, 256)[0])
        return {"multisine_factor": factor, "snr_db": snrs}

    def check(self, outputs) -> list:
        table = json.loads(REFERENCES.read_text())
        ref = table[str(self.iters)][str(self.solver_seed)]
        got = self.outcomes(outputs)
        errors = []
        for i, (_, trace) in enumerate(outputs):
            err = None
            measures = trace.consistency_measures
            if not measures[trace.best_iteration] < measures[0]:
                err = "consistency measure did not decrease"
            elif abs(got["snr_db"][i] - ref["snr_db"][i]) > 1e-6:
                err = (f"aligned SNR {got['snr_db'][i]!r} != "
                       f"reference {ref['snr_db'][i]!r}")
            elif i == 0 and (abs(got["multisine_factor"] - ref["multisine_factor"])
                             > 1e-6 * ref["multisine_factor"]):
                err = (f"reduction factor {got['multisine_factor']!r} != "
                       f"reference {ref['multisine_factor']!r}")
            errors.append(err)
        return errors

    def probe(self) -> Probe:
        return Probe(self.config, self.signals[0], 256,
                     _write(self.signals[0], "float32", self.workdir / "probe.wav"))

    @classmethod
    def warmup(cls, workdir: Path, config):
        mag = np.load(workdir / "setup_mag.npy")
        solvers.gd_reconstruct(mag, "ec", None, _desk_options(mag, 1, 0), config)


class GlaSmall:
    """Griffin-Lim at 23x256 over the five synth kinds x several init seeds."""

    config_args = (256, 64, "hann")

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.config = sc.make_config(*self.config_args)
        sr, dur = 8000, 0.16
        self.signals = [
            sc.synth("sine", {"freq": 440.0, "amp": 0.6}, sr, dur),
            sc.synth("multisine", {"freqs": [300.0, 700.0, 1500.0],
                                   "amps": [0.4, 0.3, 0.2]}, sr, dur),
            sc.synth("chirp", {"f0": 100.0, "f1": 2000.0, "amp": 0.7}, sr, dur),
            sc.synth("noise", {"amp": 0.4, "seed": 5}, sr, dur),
            sc.synth("impulse", {"position": 600}, sr, dur),
        ]
        self.mags = [sc.stft(s, self.config).magnitude for s in self.signals]
        self.iters = sizes.gla_iters
        self.init_seeds = [seed * sizes.gla_seeds + j for j in range(sizes.gla_seeds)]
        jobs = len(self.mags) * len(self.init_seeds)
        self.iterations = self.iters * jobs
        self.audio_seconds = dur * jobs
        self.input_sha256 = _sha256(*self.mags, repr(self.init_seeds).encode())
        np.save(workdir / "setup_mag.npy", self.mags[0])
        self.workdir = workdir

    def run(self):
        return [solvers.griffin_lim(mag, SolverOptions(max_iters=self.iters, seed=s),
                                    self.config)[1]
                for mag in self.mags for s in self.init_seeds]

    def check(self, outputs) -> list:
        errors = []
        for trace in outputs:
            losses = trace.losses
            if len(losses) != self.iters:
                errors.append(f"{len(losses)} iterations, expected {self.iters}")
            elif not np.all(np.diff(losses) <= 0.0):
                errors.append("inconsistency trace increased")
            else:
                errors.append(None)
        return errors

    def probe(self) -> Probe:
        return Probe(self.config, self.signals[0], 128,
                     _write(self.signals[0], "float32", self.workdir / "probe.wav"))

    @classmethod
    def warmup(cls, workdir: Path, config):
        solvers.griffin_lim(np.load(workdir / "setup_mag.npy"),
                            SolverOptions(max_iters=1), config)


def _corpus_signal(rng, kind: str, sr: int, dur: float) -> sc.Signal:
    if kind == "multisine":
        return sc.synth("multisine", {"freqs": list(rng.uniform(100, 4000, 3)),
                                      "amps": [0.3, 0.2, 0.1]}, sr, dur)
    if kind == "chirp":
        f0, f1 = rng.uniform(100, 1000), rng.uniform(2000, 6000)
        return sc.synth("chirp", {"f0": f0, "f1": f1, "amp": 0.6}, sr, dur)
    if kind == "noise":
        return sc.synth("noise", {"amp": 0.3, "seed": int(rng.integers(2**31))},
                        sr, dur)
    return sc.synth("sine", {"freq": rng.uniform(100, 4000), "amp": 0.5}, sr, dur)


CORPUS_KINDS = ("multisine", "chirp", "noise", "sine")


class CompareCorpus:
    """``specconsist compare`` in-process over a mixed pcm16/float32 corpus."""

    config_args = (512, 128, "hann")
    threads = str(COMPARE_THREADS)  # SPECCONSIST_THREADS during each unit

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.config = sc.make_config(*self.config_args)
        rng = np.random.default_rng(seed)
        sr = 16000
        self.corpus = workdir / "corpus"
        self.corpus.mkdir()
        paths = []
        for i in range(sizes.corpus_files):
            signal = _corpus_signal(rng, CORPUS_KINDS[i % len(CORPUS_KINDS)], sr,
                                    sizes.corpus_seconds)
            paths.append(_write(signal, ("pcm16", "float32")[i % 2],
                                self.corpus / f"f{i}.wav"))
        self.args = ["compare", self.corpus, "--losses", COMPARE_LOSSES,
                     "--iters", sizes.compare_iters, "--radius", COMPARE_RADIUS,
                     "--seed", seed % 2**32]
        self.out = workdir / "results.csv"
        losses = len(COMPARE_LOSSES.split(","))
        self.rows = sizes.corpus_files * losses
        self.iterations = self.rows * sizes.compare_iters
        self.audio_seconds = sizes.corpus_files * sizes.corpus_seconds
        self.input_sha256 = _sha256(*(p.read_bytes() for p in paths))
        self.reference_csv = None
        self.workdir = workdir
        warm = workdir / "setup_corpus"
        warm.mkdir()
        _write(_corpus_signal(rng, "multisine", sr, sizes.corpus_seconds),
               "pcm16", warm / "w.wav")

    def _compare(self, threads: str, out: Path):
        with _threads(threads):
            code = _cli(self.args + ["--out", out])
        return code, out.read_bytes() if code == 0 else b""

    def reference(self):
        """The same corpus with one thread; the bytes every unit must equal."""
        code, data = self._compare("1", self.workdir / "reference.csv")
        if code != 0:
            raise RuntimeError(f"single-thread reference exited {code}")
        self.reference_csv = data

    def run(self):
        return [self._compare(self.threads, self.out)]

    def check(self, outputs) -> list:
        errors = []
        for code, data in outputs:
            if code != 0:
                errors.append(f"compare exited {code}")
            elif data != self.reference_csv:
                errors.append("CSV differs from the single-thread run")
            elif data.count(b"\n") != self.rows + 1:
                errors.append("CSV row count is wrong")
            else:
                errors.append(None)
        return errors

    def probe(self) -> Probe:
        wav = self.corpus / "f0.wav"
        return Probe(self.config, sc.read_wav(wav)[0], COMPARE_RADIUS, wav)

    @classmethod
    def warmup(cls, workdir: Path, config):
        with _threads(cls.threads):
            _cli(["compare", workdir / "setup_corpus", "--losses", COMPARE_LOSSES,
                  "--iters", 1, "--out", workdir / "setup.csv"])


class AnalyzeLong:
    """``specconsist analyze`` over long pcm16 recordings: one large residual."""

    config_args = (512, 128, "hann")

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.config = sc.make_config(*self.config_args)
        rng = np.random.default_rng(seed)
        sr = 16000
        self.files = []
        for i in range(sizes.long_files):
            parts = [_corpus_signal(rng, kind, sr, sizes.long_seconds)
                     for kind in ("multisine", "chirp", "noise")]
            mix = sc.Signal(sum(p.samples for p in parts) / 2.0, sr)
            self.files.append(_write(mix, "pcm16", workdir / f"long{i}.wav"))
        self.samples = int(round(sr * sizes.long_seconds))
        self.iterations = len(self.files)  # one residual evaluation per file
        self.audio_seconds = sizes.long_files * sizes.long_seconds
        self.input_sha256 = _sha256(*(p.read_bytes() for p in self.files))
        self.workdir = workdir

    def run(self):
        outputs = []
        for i, path in enumerate(self.files):
            report = self.workdir / f"report{i}.json"
            outputs.append((_cli(["analyze", path, "--out", report]), report))
        return outputs

    def check(self, outputs) -> list:
        frames = sc.num_frames(self.samples, self.config)
        errors = []
        for code, report in outputs:
            if code != 0:
                errors.append(f"analyze exited {code}")
                continue
            results = json.loads(report.read_text())["results"]
            if not results["consistency_measure"] < 1e-7:
                errors.append(f"measure {results['consistency_measure']!r} "
                              "of a true STFT is not below 1e-7")
            elif results["frames"] != frames:
                errors.append(f"{results['frames']} frames, expected {frames}")
            else:
                errors.append(None)
        return errors

    def probe(self) -> Probe:
        return Probe(self.config, sc.read_wav(self.files[0])[0], 128, self.files[0])

    @classmethod
    def warmup(cls, workdir: Path, config):
        _cli(["analyze", workdir / "long0.wav", "--out", workdir / "setup.json"])


WORKLOADS = {"desk_ec": DeskEc, "gla_small": GlaSmall,
             "compare_corpus": CompareCorpus, "analyze_long": AnalyzeLong}


def record_references(workdir: Path) -> dict:
    """desk_ec outcomes for every solver seed, at the full and quick sizes."""
    table = {}
    for sizes in (FULL, QUICK):
        table[str(sizes.desk_iters)] = {}
        for seed in range(REFERENCE_SEEDS):
            wl = DeskEc(seed, sizes, workdir)
            table[str(sizes.desk_iters)][str(seed)] = wl.outcomes(wl.run())
    return table


if __name__ == "__main__":
    import tempfile

    scratch = HERE.parent / ".bench_build"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        print(json.dumps(record_references(Path(tmp)), indent=1))
