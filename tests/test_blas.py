"""No output depends on the BLAS thread count, because the library calls no BLAS.

BLAS dots, norms and correlations split sums over more than about 10,000
elements across the BLAS library's own threads, so their rounding follows the
thread count of the host. The library sums with ``stft._sum_squares`` and
einsum instead; these tests keep it that way.
"""

import io
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import specconsist as sc
from specconsist.audio_io import WavMeta, write_wav

REPO = Path(__file__).resolve().parents[1]
SOURCES = sorted((REPO / "src" / "specconsist").glob("*.py"))

# numpy calls that reach BLAS, matched in code tokens joined by single spaces
_BLAS_CALL = re.compile(r"\b(np|numpy) \. (dot|vdot|inner|matmul|tensordot|linalg|correlate)\b"
                        r"|\. dot \(")


def blas_calls(source: str) -> list[str]:
    """Each logical line of ``source`` that calls BLAS, as ``"<line>: <code>"``.

    Comments and strings are skipped. ``@`` counts as matrix multiplication
    everywhere except at the start of a line, where it is a decorator.
    """
    found, code, start = [], [], 0
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            text = " ".join(code)
            if _BLAS_CALL.search(text) or "@" in code[1:] or "@=" in code:
                found.append(f"{start}: {text}")
            code = []
        elif tok.type in (tokenize.NAME, tokenize.OP, tokenize.NUMBER):
            start = start if code else tok.start[0]
            code.append(tok.string)
    return found


class TestNoBlasInTheLibrary:
    @pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
    def test_source_calls_no_blas(self, path):
        assert blas_calls(path.read_text()) == []

    @pytest.mark.parametrize("line", [
        "a = np.dot(x, y)", "a = np.vdot(x, y)", "a = np.inner(x, y)",
        "a = np.matmul(x, y)", "a = np.tensordot(x, y)", "a = np.linalg.norm(x)",
        "a = numpy.correlate(x, y, 'valid')", "a = x.dot(y)", "a = x @ y",
        "a @= y", "f(x,\n  y.dot(z))"])
    def test_scan_finds_each_form(self, line):
        assert len(blas_calls(line + "\n")) == 1

    def test_scan_skips_decorators_comments_and_strings(self):
        source = ('@dataclass(frozen=True)\nclass A:\n'
                  '    """np.dot(x, y) in a docstring."""\n'
                  '    x = "a @ b"  # np.linalg.norm in a comment\n'
                  '    y = dot(x) + np.einsum("i,i->", x, x)\n')
        assert blas_calls(source) == []


def _run_cli(args, blas_threads, cwd):
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads), PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-m", "specconsist.cli", *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Two 1 s files at 16 kHz, long enough for BLAS to split their sums."""
    corpus = tmp_path_factory.mktemp("blas") / "corpus"
    chirp = sc.synth("chirp", {"f0": 100.0, "f1": 6000.0, "amp": 0.6}, 16000, 1.0)
    tones = sc.synth("multisine", {"freqs": [220.0, 495.0, 1830.0],
                                   "amps": [0.4, 0.3, 0.2]}, 16000, 1.0)
    write_wav(chirp, WavMeta(16000, 1, "pcm16", len(chirp)), corpus / "chirp.wav")
    write_wav(tones, WavMeta(16000, 1, "float32", len(tones)), corpus / "tones.wav")
    return corpus


@pytest.mark.parametrize("args, outputs", [
    (["compare", "corpus", "--losses", "ec,cos", "--iters", "2", "--out", "out/results.csv"],
     ["results.csv"]),
    (["reconstruct", "corpus/chirp.wav", "--solver", "gla", "--iters", "10",
      "--reference", "corpus/chirp.wav", "--out", "out"],
     ["report.json", "trace.csv"]),
    (["analyze", "corpus/tones.wav", "--out", "out/report.json"], ["report.json"]),
], ids=["compare", "reconstruct", "analyze"])
def test_output_is_independent_of_the_blas_thread_count(corpus, args, outputs):
    cwd = corpus.parent
    runs = []
    for blas_threads in (1, 2):
        _run_cli(args, blas_threads, cwd)
        runs.append({name: (cwd / "out" / name).read_bytes() for name in outputs})
    assert runs[0] == runs[1]
