"""Audio denoising with batch and online non-negative spectrogram factorization."""

from .audio_io import AudioBuffer, SynthConfig, read_wav, synth_mixture, write_wav
from .metrics import EvalReport, decompose, evaluate
from .nmf import Dictionary, fit_nmf, load_dictionary, save_dictionary, update_code
from .onmf import (
    OnmfState,
    SamplerConfig,
    aggregate,
    fit_onmf,
    sample_batch,
    sparse_code,
    update_dictionary_online,
)
from .pipeline import (
    DenoiseConfig,
    DenoiseResult,
    apply_mask,
    concat_dictionaries,
    denoise,
    fit_dictionary,
    separate,
    train_dictionaries,
)
from .stft import Spectrogram, StftParams, istft, stft, stft_magnitudes

__version__ = "0.1.0"
