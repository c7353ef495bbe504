"""SDR/SIR/SAR via orthogonal projection onto the reference signals.

The estimate is split into a component along the clean reference, a
component along the noise direction (after Gram-Schmidt against the
clean reference), and a residual. The three parts are mutually
orthogonal and sum back to the estimate, so the usual energy-ratio
measures are well defined. Full-length, filter-free variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioBuffer
from .errors import InvalidInputError

__all__ = ["EvalReport", "decompose", "evaluate", "db_for_csv", "INF_DB_CAP"]

# sentinel cap used when a ratio's numerator or denominator energy is zero
INF_DB_CAP = 300.0

# an energy at most this fraction of the energy it is compared with counts as zero
_REL_ZERO = 1e-24


@dataclass(frozen=True)
class EvalReport:
    sdr_db: float
    sir_db: float
    sar_db: float


def _as_vectors(estimate: AudioBuffer, clean: AudioBuffer, noise: AudioBuffer):
    if not (len(estimate) == len(clean) == len(noise)):
        raise InvalidInputError(
            f"lengths differ: estimate={len(estimate)}, clean={len(clean)}, "
            f"noise={len(noise)}"
        )
    if not (estimate.sample_rate_hz == clean.sample_rate_hz == noise.sample_rate_hz):
        raise InvalidInputError(
            f"sample rates differ: estimate={estimate.sample_rate_hz}, "
            f"clean={clean.sample_rate_hz}, noise={noise.sample_rate_hz}"
        )
    for name, buf in (("estimate", estimate), ("clean", clean), ("noise", noise)):
        if not np.all(np.isfinite(buf.samples)):
            raise InvalidInputError(f"{name} signal contains NaN or Inf samples")
    return estimate.samples, clean.samples, noise.samples


def decompose(estimate: AudioBuffer, clean: AudioBuffer, noise: AudioBuffer):
    """Split the estimate into (target, interference, artifact) parts."""
    e, c, n = _as_vectors(estimate, clean, noise)
    cc = float(c @ c)
    if cc == 0.0:
        raise InvalidInputError("clean reference is identically zero")
    s_target = (float(e @ c) / cc) * c
    n_perp = n - (float(n @ c) / cc) * c
    npnp = float(n_perp @ n_perp)
    resid = e - s_target
    if npnp > _REL_ZERO * float(n @ n) and npnp > 0.0:
        e_interf = (float(resid @ n_perp) / npnp) * n_perp
    else:
        e_interf = np.zeros_like(e)
    e_artif = resid - e_interf
    return s_target, e_interf, e_artif


def _ratio_db(num: float, den: float) -> float:
    if num == 0.0:
        return -math.inf
    # relative to the numerator alone, so the test does not depend on level
    if den <= _REL_ZERO * num:
        return math.inf
    return 10.0 * math.log10(num / den)


def evaluate(estimate: AudioBuffer, clean: AudioBuffer, noise: AudioBuffer) -> EvalReport:
    """Energy-ratio report; a zero numerator energy (no target in the
    estimate, as for silence) gives -inf, a zero denominator +inf."""
    s_target, e_interf, e_artif = decompose(estimate, clean, noise)
    et = float(s_target @ s_target)
    ei = float(e_interf @ e_interf)
    ea = float(e_artif @ e_artif)
    return EvalReport(
        sdr_db=_ratio_db(et, ei + ea),
        sir_db=_ratio_db(et, ei),
        sar_db=_ratio_db(et + ei, ea),
    )


def db_for_csv(value_db: float) -> float:
    """Cap the +-inf sentinels at +-INF_DB_CAP for CSV output."""
    return min(max(value_db, -INF_DB_CAP), INF_DB_CAP)
