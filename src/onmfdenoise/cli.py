"""Command-line front end: train, denoise, eval, sweep, spectrogram.

Exit codes: 0 on success, 2 for usage/config problems
(``InvalidInputError``), 3 for numeric failures (``NonFiniteResultError``:
non-finite energies, losses, products or output). A ``key = value``
config file can supply the value of any optional flag of the command;
explicit flags win over the file, and keys that name no such flag are
ignored.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys

import numpy as np

from . import audio_io, metrics, nmf, onmf, pipeline
from .errors import DenoiseError, InvalidInputError, NonFiniteResultError, check_weight
from .stft import StftParams, export_csv, export_pgm, stft

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidInputError(f"{path}: bad config line {line!r}")
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


# every library setting's default and choices come from the library's own types
_DEFAULTS = pipeline.DenoiseConfig()
_METHODS = {"nmf": "batch", "onmf": "online"}  # --method names of pipeline.TRAINERS
_CHOICES = {"method": tuple(_METHODS), "sampler_mode": onmf.SAMPLER_MODES}
_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}
_TYPE_NAMES = {int: "an integer", float: "a number"}


def _config_value(action: argparse.Action, raw: str):
    """A config-file string as the value its flag would give; argparse
    checks flags, but not defaults, against their choices."""
    key = action.dest
    if action.choices and raw not in action.choices:
        raise InvalidInputError(f"{key} = {raw!r}: expected one of {', '.join(action.choices)}")
    if isinstance(action.default, bool):
        if raw.lower() not in _BOOLS:
            raise InvalidInputError(f"{key} = {raw!r}: expected true/false, yes/no or 1/0")
        return _BOOLS[raw.lower()]
    try:
        return (action.type or str)(raw)
    except ValueError:
        raise InvalidInputError(f"{key} = {raw!r}: expected {_TYPE_NAMES[action.type]}") from None


def _require_files(*paths):
    for p in paths:
        if p is not None and not os.path.exists(p):
            raise InvalidInputError(f"input file not found: {p}")


def _stft_params(args) -> StftParams:
    return StftParams(
        window_len=args.window_len, hop=args.hop, fft_len=args.fft_len
    )


def cmd_train(args) -> int:
    _require_files(args.signal, args.noise)
    params = _stft_params(args)
    os.makedirs(args.out_dir, exist_ok=True)
    cfg = pipeline.DenoiseConfig(
        trainer=_METHODS[args.method],
        k_signal=args.k_signal,
        k_noise=args.k_noise,
        train_alpha=args.train_alpha,
        sampler=onmf.SamplerConfig(
            mode=args.sampler_mode,
            batch_cols=args.batch_cols,
            steps=args.steps,
        ),
        seed=args.seed,
        max_iters=args.max_iters,
        rel_tol=args.rel_tol,
    )
    trained = []
    for role, path in (("signal", args.signal), ("noise", args.noise)):
        mags = stft(audio_io.read_wav(path), params).magnitudes
        log = f"{args.train_log}.{role}.jsonl" if args.train_log else None
        dictionary, final_loss = pipeline.fit_dictionary(mags, cfg, role, log_path=log)
        del mags  # free this prior before the next one is transformed
        trained.append((role, dictionary, final_loss))
    # save only when both are trained: a failed run leaves any earlier pair whole
    for role, dictionary, final_loss in trained:
        out_path = os.path.join(args.out_dir, f"w_{role}.dict")
        nmf.save_dictionary(dictionary, out_path)
        print(f"{role}: {dictionary.k} atoms, final loss {final_loss:.6g} -> {out_path}")
    return EXIT_OK


def cmd_denoise(args) -> int:
    _require_files(args.dict_signal, args.dict_noise, args.input, args.clean)
    params = _stft_params(args)
    params.check_cola()
    cfg = pipeline.DenoiseConfig(code_alpha=args.alpha, stft=params)
    w_signal = nmf.load_dictionary(args.dict_signal)
    w_noise = nmf.load_dictionary(args.dict_noise)
    # denoising holds the samples, the codes and the output, and one
    # block of anything else
    result = pipeline.denoise(audio_io.read_wav(args.input), w_signal, w_noise, cfg)
    audio_io.write_wav(result.denoised, args.output)
    print(f"denoised {args.input} -> {args.output}")
    # nothing below reads the output: a zero-stride stand-in of its length
    # frees the written samples first
    stand_in = np.broadcast_to(0.0, len(result.denoised))
    rate = result.denoised.sample_rate_hz
    result = dataclasses.replace(result, denoised=audio_io.AudioBuffer(stand_in, rate))
    if args.emit_noise:
        audio_io.write_wav(pipeline.render_noise(result), args.emit_noise)
    if args.emit_spectrograms:
        base, _ = os.path.splitext(args.output)
        # |X| and the ratio once each, and the samples and the codes freed
        # before the first image; s = ratio * |X| in the ratio's buffer,
        # then n = |X| - s in that of |X|, as s_masked and n_masked
        mags, s_masked = stft(result.noisy, params).magnitudes, result.ratio
        del result
        export_pgm(mags, base + ".noisy.pgm")
        s_masked *= mags
        export_pgm(s_masked, base + ".denoised.pgm")
        mags -= s_masked
        del s_masked
        export_pgm(mags, base + ".noise.pgm")
        del mags
        if args.clean:
            export_pgm(stft(audio_io.read_wav(args.clean), params).magnitudes, base + ".clean.pgm")
    return EXIT_OK


def _metric_cells(estimate, clean, noise) -> tuple[str, str, str]:
    """SDR, SIR and SAR as CSV cells; signals of unequal length raise
    ``InvalidInputError`` rather than being cut to the shortest."""
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
    if args.nmf is None and args.onmf is None and args.noisy is None:
        raise InvalidInputError("eval needs at least one of --nmf, --onmf or --noisy")
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
    try:
        alphas = [float(a) for a in str(args.alphas).split(",") if a.strip()]
    except ValueError as exc:
        raise InvalidInputError(f"--alphas {args.alphas!r}: {exc}") from None
    if not alphas:
        raise InvalidInputError(f"--alphas {args.alphas!r} lists no weight")
    # every weight and the STFT are checked before any file is read
    params = _stft_params(args)
    for alpha in alphas:
        check_weight(alpha)
    params.check_cola()
    _require_files(args.dict_signal, args.dict_noise, args.input, args.clean, args.noise)
    w_signal = nmf.load_dictionary(args.dict_signal)
    w_noise = nmf.load_dictionary(args.dict_noise)
    noisy = audio_io.read_wav(args.input)
    clean = audio_io.read_wav(args.clean)
    noise = audio_io.read_wav(args.noise)
    rows = []
    # the mixture's products are formed once for the whole grid
    results = pipeline.denoise_each(noisy, w_signal, w_noise, params, alphas)
    for alpha in alphas:
        denoised = next(results).denoised
        rows.append((f"{alpha:g}", *_metric_cells(denoised, clean, noise)))
        del denoised  # freed before the next weight's output is made
    if args.out:
        _write_metric_csv(args.out, ("alpha", "SDR", "SIR", "SAR"), rows)
    for row in rows:
        print(",".join(row))
    return EXIT_OK


def cmd_spectrogram(args) -> int:
    _require_files(args.input)
    mags = stft(audio_io.read_wav(args.input), _stft_params(args)).magnitudes
    export_pgm(mags, args.out)
    if args.csv:
        export_csv(mags, args.csv)
    print(f"spectrogram {mags.shape[0]}x{mags.shape[1]} -> {args.out}")
    return EXIT_OK


def _setting(p, flag, default, help, **kwargs):
    """Add ``flag`` for a library setting, typed as its library ``default``."""
    p.add_argument(flag, type=type(default), default=default, help=help, **kwargs)


def _command(sub, name, func, help, stft=True):
    """Add subcommand ``name``, run by ``func``, with --config and the STFT flags."""
    p = sub.add_parser(name, help=help, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--config", help="key = value file of this command's optional flags")
    if stft:
        params = _DEFAULTS.stft
        _setting(p, "--window-len", params.window_len, "analysis window, samples")
        _setting(p, "--hop", params.hop, "frame step, samples")
        _setting(p, "--fft-len", params.fft_len, "FFT size, a power of two")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onmfdenoise",
        description="Spectrogram-dictionary audio denoising (batch and online NMF)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cfg, sampler = _DEFAULTS, _DEFAULTS.sampler
    method = {trainer: m for m, trainer in _METHODS.items()}[cfg.trainer]

    p = _command(sub, "train", cmd_train, "learn signal and noise dictionaries")
    _setting(p, "--method", method, "batch or online", choices=_CHOICES["method"])
    p.add_argument("--signal", required=True, help="clean prior WAV")
    p.add_argument("--noise", required=True, help="noise prior WAV")
    p.add_argument("--out-dir", default=".", help="where w_signal.dict and w_noise.dict go")
    _setting(p, "--k-signal", cfg.k_signal, "signal atoms")
    _setting(p, "--k-noise", cfg.k_noise, "noise atoms")
    _setting(p, "--train-alpha", cfg.train_alpha, "L1 weight in training")
    _setting(p, "--seed", cfg.seed, "signal seed; noise takes seed + 1")
    _setting(p, "--max-iters", cfg.max_iters, "batch iteration cap")
    _setting(p, "--rel-tol", cfg.rel_tol, "batch stop: loss change / L0")
    _setting(p, "--steps", sampler.steps, "cap on online steps")
    _setting(p, "--batch-cols", sampler.batch_cols, "online columns per step")
    _setting(p, "--sampler-mode", sampler.mode, "online sampler", choices=_CHOICES["sampler_mode"])
    p.add_argument("--train-log", help="JSONL training log prefix")

    p = _command(sub, "denoise", cmd_denoise, "separate a noisy WAV with trained dictionaries")
    p.add_argument("--dict-signal", required=True)
    p.add_argument("--dict-noise", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    _setting(p, "--alpha", cfg.code_alpha, "L1 weight of the sparse codes")
    p.add_argument("--clean", help="clean WAV for the reference image")
    p.add_argument("--emit-spectrograms", action="store_true", help="write PGM images")
    p.add_argument("--emit-noise", help="also write the noise render")

    p = _command(sub, "eval", cmd_eval, "SDR/SIR/SAR against references", stft=False)
    p.add_argument("--clean", required=True)
    p.add_argument("--noise", required=True)
    p.add_argument("--nmf", help="estimate from the batch method")
    p.add_argument("--onmf", help="estimate from the online method")
    p.add_argument("--noisy", help="unprocessed mixture (ORIGINAL row)")
    p.add_argument("--out", help="CSV output path")

    p = _command(sub, "sweep", cmd_sweep, "metrics across regularization weights")
    p.add_argument("--dict-signal", required=True)
    p.add_argument("--dict-noise", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--clean", required=True)
    p.add_argument("--noise", required=True)
    p.add_argument("--alphas", default="50,60,70,80,90", help="comma-separated list")
    p.add_argument("--out", help="CSV output path")

    p = _command(sub, "spectrogram", cmd_spectrogram, "export a WAV's spectrogram as PGM/CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="PGM output path")
    p.add_argument("--csv", help="optional CSV output path")

    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """Parse ``argv``: explicit flags win over ``--config`` values, which
    win over the declared defaults. Only keys that name one of the
    command's own optional flags are read from the file."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        command = next(a for a in parser._actions if a.dest == "command").choices[args.command]
        options = {
            a.dest: a
            for a in command._actions
            if a.option_strings and not a.required and a.dest not in ("help", "config")
        }
        file_vals = _read_config_file(args.config)
        command.set_defaults(
            **{k: _config_value(options[k], raw) for k, raw in file_vals.items() if k in options}
        )
        args = parser.parse_args(argv)
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
        return args.func(args)
    except NonFiniteResultError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DenoiseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
