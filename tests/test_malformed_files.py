"""The file boundary under mutation: any WAV or .npy input, however damaged,
exits 0, 2 or 4 from the CLI, with no escaping exception, and nothing is
written on exit 2."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from specconsist import audio_io, cli

_SMALL_STFT = ["--window-len", "64", "--hop", "16"]
_CHUNK_IDS = [b"RIFF", b"RIFX", b"RF64", b"WAVE", b"fmt ", b"fact", b"data", b"LIST",
              b"JUNK", b"\x00\x00\x00\x00"]
_FIELD_VALUES = [0, 1, 2, 3, 4, 16, 18, 40, 0xFFFE, 0xFFFF, 2**31, 2**32 - 1]


def _valid_wav(encoding: str, channels: int, frames: int) -> bytes:
    dtype = audio_io._CODECS[encoding][1]
    data = np.random.default_rng(frames).uniform(-0.5, 0.5, (frames, channels))
    if encoding == "pcm16":
        data = np.round(data * 32768)
    return audio_io._header(8000, channels, frames, encoding) + data.astype(dtype).tobytes()


def _chunk_offsets(buf: bytes) -> list[int]:
    """Where each chunk id of a valid file starts, the RIFF and WAVE ids included."""
    offsets, pos = [0, 8], 12
    while True:
        offsets.append(pos)
        chunk_id, size = struct.unpack_from("<4sI", buf, pos)
        if chunk_id == b"data":
            return offsets
        pos += 8 + size + size % 2


@st.composite
def _mutated_wavs(draw):
    encoding = draw(st.sampled_from(audio_io.ENCODINGS))
    buf = bytearray(_valid_wav(encoding, draw(st.sampled_from([1, 2])),
                               draw(st.sampled_from([1, 7, 200]))))
    offsets = _chunk_offsets(bytes(buf))
    header_len = offsets[-1] + 8
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["truncate", "id", "size", "field", "byte", "insert"]))
        event(f"wav {kind}")
        if kind == "truncate":
            del buf[draw(st.integers(0, len(buf))):]
        elif kind == "id":
            at = draw(st.sampled_from(offsets))
            buf[at:at + 4] = draw(st.sampled_from(_CHUNK_IDS) | st.binary(min_size=4,
                                                                          max_size=4))
        elif kind in ("size", "field"):  # a chunk size, or any 2- or 4-byte field
            at, width = ((draw(st.sampled_from(offsets)) + 4, 4) if kind == "size" else
                         (draw(st.integers(0, header_len - 2)), draw(st.sampled_from([2, 4]))))
            value = draw(st.sampled_from(_FIELD_VALUES) | st.integers(0, 2**32 - 1))
            buf[at:at + width] = struct.pack("<I", value)[:width]
        elif kind == "byte" and buf:
            buf[draw(st.integers(0, min(header_len, len(buf)) - 1))] = draw(
                st.integers(0, 255))
        elif kind == "insert":  # a chunk before fmt or before data, its size true or not
            body = draw(st.binary(max_size=5))
            size = draw(st.sampled_from([len(body), len(body) + 1, 2**32 - 1]))
            chunk = struct.pack("<4sI", draw(st.sampled_from(_CHUNK_IDS)), size) + body
            at = draw(st.sampled_from([12, offsets[-1]]))
            buf[at:at] = chunk
    return bytes(buf)


def _valid_npy(shape) -> bytes:
    with tempfile.TemporaryFile() as fh:
        # Multiples of 1/4 stay finite and small when their bytes are swapped.
        np.save(fh, np.random.default_rng(0).integers(1, 4, shape) / 4)
        fh.seek(0)
        return fh.read()


@st.composite
def _npy_headers(draw):
    """A .npy header, written by numpy, whose fields may disagree with the data."""
    shape = draw(st.sampled_from([(6, 64), (64, 6), (6, 32), (10**9, 512), (0, 64),
                                  (-6, -64), (2**62, 2**62), (384,), (), (6, 64, 1)])
                 | st.tuples(st.integers(-2, 10), st.sampled_from([33, 64])))
    descr = draw(st.sampled_from(["<f8", ">f8", "<f4", "<i8", "<u8", "|b1", "|u1",
                                  "<c16", "|O", "<U2", "|V8"]))
    header = {"shape": shape, "fortran_order": draw(st.booleans()), "descr": descr}
    with tempfile.TemporaryFile() as fh:
        write = draw(st.sampled_from([np.lib.format.write_array_header_1_0,
                                      np.lib.format.write_array_header_2_0]))
        write(fh, header)
        fh.seek(0)
        return fh.read()


@st.composite
def _mutated_npys(draw):
    buf = bytearray(_valid_npy((6, 64)))
    header_len = len(buf) - 6 * 64 * 8
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["truncate", "extend", "header", "byte"]))
        event(f"npy {kind}")
        if kind == "truncate":
            del buf[draw(st.integers(0, len(buf))):]
        elif kind == "extend":
            buf += bytes(draw(st.sampled_from([1, 8, 512])))
        elif kind == "header":
            header = draw(_npy_headers())
            buf[:header_len], header_len = header, len(header)
        elif buf:
            buf[draw(st.integers(0, min(header_len, len(buf)) - 1))] = draw(
                st.integers(0, 255))
    return bytes(buf)


def _run(argv, run: Path, out: Path):
    """Runs the CLI with ``--out out``, a path under the directory ``run``."""
    code = cli.main(argv + ["--out", str(out)])
    event(f"exit {code}")
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_IO)
    if code == cli.EXIT_INPUT:
        assert not run.exists()


class TestMutatedFiles:
    @settings(max_examples=200, deadline=None)
    @given(wav=_mutated_wavs(), command=st.sampled_from(["analyze", "reconstruct"]),
           downmix=st.booleans())
    def test_a_mutated_wav_exits_0_2_or_4(self, wav, command, downmix):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.wav"
            path.write_bytes(wav)
            argv = [command, str(path), *_SMALL_STFT, *(["--downmix"] * downmix)]
            if command == "reconstruct":
                argv += ["--solver", "gla", "--iters", "1"]
            run = Path(tmp) / "run"
            _run(argv, run, run / "r.json" if command == "analyze" else run)

    # A mutated header can take numpy's path for headers written by Python 2,
    # which warns; the warning is not an error of the file boundary.
    @pytest.mark.filterwarnings("ignore:Reading `.npy` or `.npz` file required:UserWarning")
    @settings(max_examples=200, deadline=None)
    @given(npy=_mutated_npys(), role=st.sampled_from(["magnitude", "--init-phase"]))
    def test_a_mutated_npy_exits_0_2_or_4(self, npy, role):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "x.npy").write_bytes(npy)
            if role == "magnitude":
                argv = ["reconstruct", str(tmp / "x.npy"), "--sr", "8000"]
            else:  # 33 samples have 6 frames of 64/16
                (tmp / "in.wav").write_bytes(_valid_wav("float32", 1, 33))
                argv = ["reconstruct", str(tmp / "in.wav"), "--init", "provided",
                        "--init-phase", str(tmp / "x.npy")]
            _run(argv + [*_SMALL_STFT, "--solver", "gla", "--iters", "1"], tmp / "run",
                 tmp / "run")
