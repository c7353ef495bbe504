"""Audio denoising with batch and online non-negative spectrogram factorization."""

__version__ = "0.1.0"
