import numpy as np
import pytest

from specconsist import make_config


@pytest.fixture(scope="session")
def cfg_512_128():
    return make_config(512, 128, "hann")


@pytest.fixture(scope="session")
def cfg_256_64():
    return make_config(256, 64, "hann")


@pytest.fixture(scope="session")
def cfg_64_16():
    return make_config(64, 16, "hann")


@pytest.fixture(scope="session")
def cfg_rect_4():
    return make_config(4, 4, "rectangular")


def random_spectrogram(rng, m, n):
    return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def strided_polar(phase, mag=None):
    """``mag * exp(1j * phase)`` by the polar builder's arithmetic, computed in the
    strided real and imaginary views of the complex result and scaled by ``mag``
    as a complex product: the oracle of ``stft._polar`` and of the gd loop."""
    out = np.empty(np.shape(phase), complex)
    cos, sin = out.real, out.imag
    with np.errstate(invalid="ignore"):  # tan of inf is NaN
        t = np.tan(np.multiply(phase, 0.5))
    np.add(t, 1.0, out=cos)
    np.subtract(1.0, t, out=sin)  # sin holds 1 - t, then 1 + t^2, then the sine
    cos *= sin
    np.multiply(t, t, out=sin)
    sin += 1.0
    cos /= sin
    t += t
    np.divide(t, sin, out=sin)
    if mag is not None:
        out *= mag
    return out


def zero_filled_add_blocks(frames, config, out):
    """The overlap-add of ``stft._add_blocks`` as a plain sum: every row of ``out``
    starts at zero and takes the blocks that land on it in ascending frame order."""
    (m, _), q = frames.shape, config.overlap_factor
    blocks = frames.reshape(m, q, config.hop)
    out.fill(0)
    for j in reversed(range(q)):
        out[j : j + m] += blocks[:, j]
    return out.ravel()
