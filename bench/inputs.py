"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the workload seed. The chord
vocabulary, segment length, amplitude and SNR follow the chord fixture of
``tests/conftest.py``. One thing differs on purpose: every clean prior
holds eight chords that together sound each pitch of the vocabulary (ten
tones in two octaves). With purely random chords a prior misses a few
pitches on some seeds, and the SDR gain of the whole run then hinges on which ones
(from about 6 dB to about 13 dB across seeds 0-9), which would drown any
change of the program in seed noise.

The package's functions are called through their module, so the traced
run sees them.
"""

from __future__ import annotations

import numpy as np

from onmfdenoise import audio_io
from onmfdenoise.audio_io import AudioBuffer, SynthConfig
from onmfdenoise.stft import StftParams

SR = 16000
BASE_TONES = [220, 247, 262, 294, 330, 349, 392, 440, 494, 523]
SEGMENT_S = 0.5
AMPLITUDE = 0.3
SNR_DB = 5.0
NOISE_PRIOR_STD = 0.1
STFT = StftParams(window_len=4096, hop=1024, fft_len=4096)


def random_chords(rng, count):
    """Three distinct base tones, all in the low or all in the high octave."""
    return [
        [int(t) for t in rng.choice(BASE_TONES, size=3, replace=False) * rng.choice([1, 2])]
        for _ in range(count)
    ]


def covering_chords(rng, count):
    """``count`` chords in seeded order that include every vocabulary pitch."""
    chords = []
    for octave in (1, 2):
        # a permutation of the ten tones plus two more, cut into four chords
        tones = list(rng.permutation(BASE_TONES))
        tones += [int(t) for t in rng.choice(tones[:9], size=2, replace=False)]
        chords += [[int(t) * octave for t in tones[i : i + 3]] for i in range(0, 12, 3)]
    chords += random_chords(rng, count - len(chords))
    return [chords[i] for i in rng.permutation(len(chords))]


def clean_prior(rng, duration_s, seed):
    n_chords = int(round(duration_s / SEGMENT_S))
    clean, _, _ = audio_io.synth_mixture(
        SynthConfig(
            duration_s=duration_s,
            chords=covering_chords(rng, n_chords),
            segment_s=SEGMENT_S,
            amplitude=AMPLITUDE,
            snr_db=np.inf,
            seed=seed,
        )
    )
    return clean


def noise_prior(duration_s, seed):
    n = int(round(duration_s * SR))
    samples = np.random.default_rng([seed, 50]).standard_normal(n) * NOISE_PRIOR_STD
    return AudioBuffer(samples, SR)


def mixture(rng, duration_s, seed):
    """(clean, noise, mixture) at SNR_DB; the noise is white."""
    n_chords = int(round(duration_s / SEGMENT_S))
    return audio_io.synth_mixture(
        SynthConfig(
            duration_s=duration_s,
            chords=random_chords(rng, n_chords),
            segment_s=SEGMENT_S,
            amplitude=AMPLITUDE,
            snr_db=SNR_DB,
            seed=seed,
        )
    )


def make_inputs(seed, prior_s, mixture_s, n_mixtures):
    """Clean prior, noise prior and ``n_mixtures`` test triples for one seed."""
    rng = np.random.default_rng(seed)
    return {
        "clean_prior": clean_prior(rng, prior_s, seed),
        "noise_prior": noise_prior(prior_s, seed),
        "mixtures": [
            mixture(rng, mixture_s, seed * 1000 + 100 + j) for j in range(n_mixtures)
        ],
    }
