"""specconsist: consistent-spectrogram analysis and phase reconstruction.

STFT/iSTFT with exact-reconstruction window pairs, an explicit per-bin
consistency residual with its loss and analytic gradient, the standard phase
losses, two phase-reconstruction solvers, and desk-scale evaluation metrics.
"""

from .audio_io import WavMeta, read_wav, synth, write_wav
from .consistency import (get_kernel, grad_loss_ec_phase, loss_ec,
                          loss_ec_phase, residual)
from .errors import (AudioFormatError, ConfigError, DegenerateWindowError,
                     DivergenceError, InputError, MetricError, SpecConsistError)
from .metrics import (Alignment, EvalReport, aligned_snr, consistency_measure,
                      plain_snr, spectral_convergence)
from .phase_losses import (LossReport, loss_aw, loss_complex, loss_cos, loss_report,
                           loss_time, loss_with_derivatives)
from .solvers import (SolveTrace, SolverOptions, TraceRecord, gd_reconstruct,
                      griffin_lim, reconstruct_signal)
from .stft import (Signal, Spectrogram, StftConfig, expand_half_spectrum, istft,
                   make_config, num_frames, overlap_add, project, stft)

__version__ = "0.1.0"

__all__ = [
    "Alignment", "AudioFormatError", "ConfigError",
    "DegenerateWindowError", "DivergenceError", "EvalReport", "InputError",
    "LossReport", "MetricError", "Signal", "SolveTrace", "SolverOptions",
    "SpecConsistError", "Spectrogram", "StftConfig", "TraceRecord", "WavMeta",
    "aligned_snr", "consistency_measure", "expand_half_spectrum",
    "gd_reconstruct", "get_kernel", "grad_loss_ec_phase", "griffin_lim", "istft",
    "loss_aw", "loss_complex", "loss_cos", "loss_ec", "loss_ec_phase",
    "loss_report", "loss_time", "loss_with_derivatives", "make_config",
    "num_frames", "overlap_add", "plain_snr", "project", "read_wav",
    "reconstruct_signal", "residual", "spectral_convergence", "stft", "synth",
    "write_wav",
]
