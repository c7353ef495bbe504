"""Command-line front end: train, denoise, eval, sweep, spectrogram.

Exit codes: 0 on success, 2 for usage/config problems, 3 for numeric
failures (non-finite losses or masks). A ``key = value`` config file can
supply any long-flag value; explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from . import audio_io, metrics, nmf, onmf, pipeline
from .errors import DenoiseError, InvalidConfigError
from .stft import StftParams, export_csv, export_pgm
from .stft import stft as compute_stft

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class NumericFailure(Exception):
    pass


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DenoiseError(f"{path}: bad config line {line!r}")
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


# argparse checks these for flags; _merge checks them for --config values
_CHOICES = {"method": ("nmf", "onmf"), "sampler_mode": ("uniform", "consecutive")}
_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_bool(key: str, raw: str) -> bool:
    try:
        return _BOOLS[raw.lower()]
    except KeyError:
        raise InvalidConfigError(
            f"{key} = {raw!r}: expected true/false, yes/no or 1/0"
        ) from None


def _merge(args: argparse.Namespace, defaults: dict) -> argparse.Namespace:
    """Fill unset (None) options from --config, then from hard defaults."""
    file_vals = _read_config_file(args.config) if getattr(args, "config", None) else {}
    for key, default in defaults.items():
        if getattr(args, key, None) is not None:
            continue
        if key in file_vals:
            raw = file_vals[key]
            if key in _CHOICES and raw not in _CHOICES[key]:
                raise InvalidConfigError(
                    f"{key} = {raw!r}: expected one of {', '.join(_CHOICES[key])}"
                )
            if isinstance(default, bool):
                value = _parse_bool(key, raw)
            else:
                value = (type(default) if default is not None else str)(raw)
            setattr(args, key, value)
        else:
            setattr(args, key, default)
    return args


def _require_files(*paths):
    for p in paths:
        if p is not None and not os.path.exists(p):
            raise DenoiseError(f"input file not found: {p}")


def _stft_params(args) -> StftParams:
    return StftParams(
        window_len=args.window_len, hop=args.hop, fft_len=args.fft_len
    )


_STFT_DEFAULTS = {"window_len": 1024, "hop": 512, "fft_len": 1024}


def cmd_train(args) -> int:
    args = _merge(
        args,
        {
            "method": "nmf",
            "k_signal": 50,
            "k_noise": 10,
            "train_alpha": 0.0,
            "seed": 0,
            "max_iters": 500,
            "rel_tol": 1e-4,
            "steps": 100,
            "batch_cols": 100,
            "sampler_mode": "uniform",
            "out_dir": ".",
            "train_log": None,
            **_STFT_DEFAULTS,
        },
    )
    _require_files(args.signal, args.noise)
    params = _stft_params(args)
    os.makedirs(args.out_dir, exist_ok=True)
    cfg = pipeline.DenoiseConfig(
        trainer={"nmf": "batch", "onmf": "online"}[args.method],
        k_signal=args.k_signal,
        k_noise=args.k_noise,
        train_alpha=args.train_alpha,
        stft=params,
        sampler=onmf.SamplerConfig(
            mode=args.sampler_mode,
            batch_cols=args.batch_cols,
            steps=args.steps,
        ),
        seed=args.seed,
        max_iters=args.max_iters,
        rel_tol=args.rel_tol,
    )
    for role, path in (("signal", args.signal), ("noise", args.noise)):
        mags = compute_stft(audio_io.read_wav(path), params).magnitudes
        log = f"{args.train_log}.{role}.jsonl" if args.train_log else None
        dictionary, final_loss = pipeline.fit_dictionary(mags, cfg, role, log_path=log)
        del mags  # free this prior before the next one is transformed
        if not np.isfinite(final_loss):
            raise NumericFailure(f"non-finite training loss for {role} dictionary")
        out_path = os.path.join(args.out_dir, f"w_{role}.dict")
        nmf.save_dictionary(dictionary, out_path)
        print(f"{role}: {dictionary.k} atoms, final loss {final_loss:.6g} -> {out_path}")
    return EXIT_OK


def cmd_denoise(args) -> int:
    args = _merge(
        args,
        {
            "alpha": 100.0,
            "mask_epsilon": 1e-12,
            "emit_spectrograms": False,
            "clean": None,
            "emit_noise": None,
            **_STFT_DEFAULTS,
        },
    )
    _require_files(args.dict_signal, args.dict_noise, args.input, args.clean)
    params = _stft_params(args)
    w_signal = nmf.load_dictionary(args.dict_signal)
    w_noise = nmf.load_dictionary(args.dict_noise)
    noisy = audio_io.read_wav(args.input)
    cfg = pipeline.DenoiseConfig(
        k_signal=w_signal.k,
        k_noise=w_noise.k,
        code_alpha=args.alpha,
        stft=params,
        mask_epsilon=args.mask_epsilon,
    )
    result = pipeline.denoise(noisy, w_signal, w_noise, cfg)
    if not np.all(np.isfinite(result.denoised.samples)):
        raise NumericFailure("non-finite values in the denoised signal")
    audio_io.write_wav(result.denoised, args.output)
    print(f"denoised {args.input} -> {args.output}")
    if args.emit_noise:
        audio_io.write_wav(pipeline.render_noise(result), args.emit_noise)
    if args.emit_spectrograms:
        base, _ = os.path.splitext(args.output)
        mags = result.mixture.magnitudes
        s_masked = result.ratio * mags
        export_pgm(mags, base + ".noisy.pgm")
        export_pgm(s_masked, base + ".denoised.pgm")
        export_pgm(mags - s_masked, base + ".noise.pgm")
        if args.clean:
            clean_spec = compute_stft(audio_io.read_wav(args.clean), params)
            export_pgm(clean_spec.magnitudes, base + ".clean.pgm")
    return EXIT_OK


def _metric_cells(estimate, clean, noise) -> tuple[str, str, str]:
    """SDR, SIR and SAR as CSV cells; signals of unequal length raise
    ``LengthMismatchError`` rather than being cut to the shortest."""
    report = metrics.evaluate(estimate, clean, noise)
    return tuple(
        f"{metrics.db_for_csv(db):.4f}" for db in (report.sdr_db, report.sir_db, report.sar_db)
    )


def _write_metric_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def cmd_eval(args) -> int:
    args = _merge(args, {"nmf": None, "onmf": None, "noisy": None, "out": None})
    _require_files(args.clean, args.noise, args.nmf, args.onmf, args.noisy)
    clean = audio_io.read_wav(args.clean)
    noise = audio_io.read_wav(args.noise)
    rows = []
    for label, path in (("NMF", args.nmf), ("ONMF", args.onmf), ("ORIGINAL", args.noisy)):
        if path is not None:
            rows.append((label, *_metric_cells(audio_io.read_wav(path), clean, noise)))
    if args.out:
        _write_metric_csv(args.out, ("method", "SDR", "SIR", "SAR"), rows)
    for row in rows:
        print(",".join(row))
    return EXIT_OK


def cmd_sweep(args) -> int:
    args = _merge(
        args,
        {
            "alphas": "50,60,70,80,90",
            "mask_epsilon": 1e-12,
            "out": None,
            **_STFT_DEFAULTS,
        },
    )
    alphas = [float(a) for a in str(args.alphas).split(",") if a.strip()]
    if not alphas:
        raise InvalidConfigError(f"--alphas {args.alphas!r} lists no weight")
    _require_files(args.dict_signal, args.dict_noise, args.input, args.clean, args.noise)
    params = _stft_params(args)
    w_signal = nmf.load_dictionary(args.dict_signal)
    w_noise = nmf.load_dictionary(args.dict_noise)
    noisy = audio_io.read_wav(args.input)
    clean = audio_io.read_wav(args.clean)
    noise = audio_io.read_wav(args.noise)
    X = compute_stft(noisy, params)
    rows = []
    for alpha in alphas:
        result = pipeline.denoise_spectrogram(
            X, w_signal, w_noise, alpha, args.mask_epsilon, len(noisy)
        )
        if not np.all(np.isfinite(result.denoised.samples)):
            raise NumericFailure(f"non-finite denoised signal at alpha={alpha}")
        rows.append((f"{alpha:g}", *_metric_cells(result.denoised, clean, noise)))
    if args.out:
        _write_metric_csv(args.out, ("alpha", "SDR", "SIR", "SAR"), rows)
    for row in rows:
        print(",".join(row))
    return EXIT_OK


def cmd_spectrogram(args) -> int:
    args = _merge(args, {"csv": None, **_STFT_DEFAULTS})
    _require_files(args.input)
    mags = compute_stft(audio_io.read_wav(args.input), _stft_params(args)).magnitudes
    export_pgm(mags, args.out)
    if args.csv:
        export_csv(mags, args.csv)
    print(f"spectrogram {mags.shape[0]}x{mags.shape[1]} -> {args.out}")
    return EXIT_OK


def _command(sub, name, func, help, stft=True):
    """Add subcommand ``name``, run by ``func``, with --config and the STFT flags."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--config", default=None)
    if stft:
        for flag in ("--window-len", "--hop", "--fft-len"):
            p.add_argument(flag, type=int, default=None)
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onmfdenoise",
        description="Spectrogram-dictionary audio denoising (batch and online NMF)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "train", cmd_train, "learn signal and noise dictionaries")
    p.add_argument("--method", choices=_CHOICES["method"], default=None)
    p.add_argument("--signal", required=True, help="clean prior WAV")
    p.add_argument("--noise", required=True, help="noise prior WAV")
    p.add_argument("--out-dir", default=None)
    p.add_argument("--k-signal", type=int, default=None)
    p.add_argument("--k-noise", type=int, default=None)
    p.add_argument("--train-alpha", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--rel-tol", type=float, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--batch-cols", type=int, default=None)
    p.add_argument("--sampler-mode", choices=_CHOICES["sampler_mode"], default=None)
    p.add_argument("--train-log", default=None, help="JSONL training log prefix")

    p = _command(sub, "denoise", cmd_denoise, "separate a noisy WAV with trained dictionaries")
    p.add_argument("--dict-signal", required=True)
    p.add_argument("--dict-noise", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--mask-epsilon", type=float, default=None)
    p.add_argument("--clean", default=None, help="clean WAV for the reference image")
    p.add_argument("--emit-spectrograms", action="store_true", default=None)
    p.add_argument("--emit-noise", default=None, help="also write the noise render")

    p = _command(sub, "eval", cmd_eval, "SDR/SIR/SAR against references", stft=False)
    p.add_argument("--clean", required=True)
    p.add_argument("--noise", required=True)
    p.add_argument("--nmf", default=None, help="estimate from the batch method")
    p.add_argument("--onmf", default=None, help="estimate from the online method")
    p.add_argument("--noisy", default=None, help="unprocessed mixture (ORIGINAL row)")
    p.add_argument("--out", default=None, help="CSV output path")

    p = _command(sub, "sweep", cmd_sweep, "metrics across regularization weights")
    p.add_argument("--dict-signal", required=True)
    p.add_argument("--dict-noise", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--clean", required=True)
    p.add_argument("--noise", required=True)
    p.add_argument("--alphas", default=None, help="comma-separated list")
    p.add_argument("--mask-epsilon", type=float, default=None)
    p.add_argument("--out", default=None, help="CSV output path")

    p = _command(sub, "spectrogram", cmd_spectrogram, "export a WAV's spectrogram as PGM/CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="PGM output path")
    p.add_argument("--csv", default=None, help="optional CSV output path")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DenoiseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
