#!/usr/bin/env python3
"""Benchmark of onmfdenoise: training, denoising and memory.

Run from the repository root, for example:

    python3 bench/run.py --workload chord-batch --seed 0 --seconds 50 --trace 0

BENCHMARK.json runs the workloads ``chord-batch`` and ``long-cli``;
``chord-online`` is an extra one for isolating the online trainer.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics. ``--trace 1`` runs the same rounds, every
second one with the package's functions wrapped (see spans.py), and reports
the per-layer metrics instead. Each run writes a result file with the
environment, and with ``--trace 1`` the spans, under ``.bench_out/``.
bench/README.md describes the workloads and metrics.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS thread, set before numpy loads; child processes inherit it
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
import wave  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PACKAGE = "onmfdenoise"
LAYERS = ("audio_io", "stft", "nmf", "onmf", "pipeline", "metrics", "cli")
MIB = 2.0**20
MIN_ROUNDS = 3
IMPORT_REPEATS = 3
SDR_TOL_DB = 1e-6
MIN_SDR_GAIN_DB = 3.0

END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "train_peak_mib": "MiB",
    "denoise_xrt": "s/s",
    "denoise_peak_mib": "MiB",
    "sdr_gain_db": "dB",
}

PER_LAYER = {
    "onmf.sparse_code_train_s": "s",
    "onmf.update_dictionary_online_s": "s",
    "onmf.aggregate_s": "s",
    "onmf.sample_batch_s": "s",
    "onmf.sparse_code_calls": "count",
    "onmf.sparse_code_denoise_s": "s",
    "onmf.cols_coded_per_sampled_col": "ratio",
    "nmf.fit_nmf_s": "s",
    "nmf.iters": "count",
    "nmf.loss_s": "s",
    "nmf.update_code_s": "s",
    "stft.stft_s": "s",
    "stft.istft_s": "s",
    "stft.stft_calls": "count",
    "stft.frames_per_input_frame": "ratio",
    "pipeline.train_dictionaries_s": "s",
    "pipeline.separate_s": "s",
    "pipeline.apply_mask_s": "s",
    "pipeline.denoise_s": "s",
    "audio_io.read_wav_s": "s",
    "audio_io.write_wav_s": "s",
    "audio_io.synth_mixture_s": "s",
    "cli.import_s": "s",
    "cli.train_s": "s",
    "cli.denoise_s": "s",
}

# counts stored on a function's spans, taken from its arguments or result
SPAN_COUNTS = {
    "onmf.sparse_code": lambda args, result: {"cols": result.shape[1]},
    "onmf.sample_batch": lambda args, result: {"cols": result.shape[1]},
    "nmf.fit_nmf": lambda args, result: {"iters": len(result[2]) - 1},
    "stft.stft": lambda args, result: {"frames": result.n_frames},
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def n_frames(n_samples, stft_params):
    """Frames the package's STFT makes from ``n_samples`` samples."""
    win, hop = stft_params.window_len, stft_params.hop
    return 1 + math.ceil(max(0, n_samples - win) / hop)


class ChordWorkload:
    """Library calls on the 5 s chord fixture, one process, no disk."""

    prior_s = 10.0
    mixture_s = 5.0
    n_mixtures = 12
    denoise_passes = 2
    ops_per_round = 1 + n_mixtures * denoise_passes
    audio_s_per_round = mixture_s * n_mixtures * denoise_passes

    def __init__(self, trainer, seed):
        self.seed = seed
        self.cfg = pipeline.DenoiseConfig(
            trainer=trainer,
            stft=inputs.STFT,
            sampler=onmf.SamplerConfig(mode="uniform", batch_cols=100, steps=100, seed=seed),
            seed=seed,
        )
        self.first = None
        self.sdr_gain_db = None
        self.input_frames = n_frames(int(self.mixture_s * inputs.SR), inputs.STFT)

    def setup(self):
        self.data = inputs.make_inputs(self.seed, self.prior_s, self.mixture_s, self.n_mixtures)

    def train(self):
        s_prime = stft_mod.stft(self.data["clean_prior"], self.cfg.stft)
        n_prime = stft_mod.stft(self.data["noise_prior"], self.cfg.stft)
        return pipeline.train_dictionaries(s_prime, n_prime, self.cfg)

    def warm_up(self):
        """Untimed memory pass: tracemalloc peaks of one training and one
        denoise call, in MiB. The denoise call is also the warm-up."""
        tracemalloc.start()
        try:
            dicts = self.train()
            train_peak = tracemalloc.get_traced_memory()[1] / MIB
        finally:
            tracemalloc.stop()
        tracemalloc.start()
        try:
            self._denoise(dicts, 0)
            denoise_peak = tracemalloc.get_traced_memory()[1] / MIB
        finally:
            tracemalloc.stop()
        self.peaks = (train_peak, denoise_peak)

    def peaks_mib(self):
        return self.peaks

    def _denoise(self, dicts, j):
        return pipeline.denoise(self.data["mixtures"][j][2], *dicts, self.cfg)

    def round(self, timer):
        with timer.op("train"):
            dicts = self.train()
        results = []
        for _ in range(self.denoise_passes):
            for j in range(self.n_mixtures):
                with timer.op("denoise"):
                    results.append(self._denoise(dicts, j))
        return dicts, results

    def check(self, outputs):
        dicts, results = outputs
        for name, w in zip(("w_signal", "w_noise"), dicts):
            checks.check_dictionary(w.atoms, name)
        out_bytes = [r.denoised.samples.tobytes() for r in results]
        if self.first is None:
            self.first = (
                [w.atoms.tobytes() for w in dicts],
                out_bytes[: self.n_mixtures],
            )
            self._check_outputs(results[: self.n_mixtures])
        if [w.atoms.tobytes() for w in dicts] != self.first[0]:
            raise checks.CheckFailed("dictionaries differ between rounds")
        if out_bytes != self.first[1] * self.denoise_passes:
            raise checks.CheckFailed("repeated denoise calls gave different output")

    def _check_outputs(self, results):
        gains = []
        for (clean, noise, mix), r in zip(self.data["mixtures"], results):
            out = r.denoised
            checks.check_audio(out.samples, out.sample_rate_hz, len(mix), mix.sample_rate_hz, "denoised")
            X = stft_mod.stft(mix, self.cfg.stft).magnitudes
            checks.check_mask(X, r.s_masked, r.n_masked)
            gains.append(sdr_gain(out, mix, clean, noise))
        self.sdr_gain_db = statistics.fmean(gains)


class LongCliWorkload:
    """The ``train`` and ``denoise`` commands on minutes of audio, as child processes."""

    prior_s = 120.0
    mixture_s = 120.0
    ops_per_round = 2
    audio_s_per_round = mixture_s
    stft_flags = ["--window-len", "4096", "--hop", "1024", "--fft-len", "4096"]

    def __init__(self, seed, workdir, in_process):
        self.seed = seed
        self.first = None
        self.sdr_gain_db = None
        self.input_frames = n_frames(int(self.mixture_s * inputs.SR), inputs.STFT)
        self.wav = {k: str(workdir / f"{k}.wav") for k in ("clean_prior", "noise_prior", "mixture", "denoised")}
        self.dict_dir = str(workdir / "dicts")
        self.train_argv = [
            "train", "--method", "onmf", "--sampler-mode", "consecutive",
            "--signal", self.wav["clean_prior"], "--noise", self.wav["noise_prior"],
            "--out-dir", self.dict_dir, "--seed", str(seed), *self.stft_flags,
        ]  # fmt: skip
        self.denoise_argv = [
            "denoise",
            "--dict-signal", os.path.join(self.dict_dir, "w_signal.dict"),
            "--dict-noise", os.path.join(self.dict_dir, "w_noise.dict"),
            "--input", self.wav["mixture"], "--output", self.wav["denoised"], *self.stft_flags,
        ]  # fmt: skip
        self.peaks = {"train": [], "denoise": []}
        # traced runs call cli.main here, so the wrapped functions are seen
        self.in_process = in_process

    def setup(self):
        data = inputs.make_inputs(self.seed, self.prior_s, self.mixture_s, 1)
        self.clean, self.noise, mix = data["mixtures"][0]
        audio_io.write_wav(data["clean_prior"], self.wav["clean_prior"])
        audio_io.write_wav(data["noise_prior"], self.wav["noise_prior"])
        audio_io.write_wav(mix, self.wav["mixture"])

    def _command(self, kind, argv):
        if self.in_process:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        else:
            code, maxrss_kib = run_child([sys.executable, "-m", f"{PACKAGE}.cli", *argv])
            self.peaks[kind].append(maxrss_kib * 1024 / MIB)
        if code != 0:
            raise RuntimeError(f"{argv[0]} exited with code {code}")

    def round(self, timer):
        with timer.op("train"):
            self._command("train", self.train_argv)
        with timer.op("denoise"):
            self._command("denoise", self.denoise_argv)
        return None

    def check(self, _outputs):
        dicts = []
        for name, k in (("signal", 50), ("noise", 10)):
            path = os.path.join(self.dict_dir, f"w_{name}.dict")
            w = nmf.load_dictionary(path)
            if w.atoms.shape != (inputs.STFT.n_bins, k):
                raise checks.CheckFailed(f"{path}: shape {w.atoms.shape}")
            checks.check_dictionary(w.atoms, path)
            dicts.append(Path(path).read_bytes())
        out_bytes = Path(self.wav["denoised"]).read_bytes()
        if self.first is None:
            self.first = (dicts, out_bytes)
            out = read_wav_stdlib(self.wav["denoised"])
            mix = read_wav_stdlib(self.wav["mixture"])
            checks.check_audio(out.samples, out.sample_rate_hz, len(mix), mix.sample_rate_hz, "denoised")
            self.sdr_gain_db = sdr_gain(out, mix, self.clean, self.noise)
        if dicts != self.first[0]:
            raise checks.CheckFailed("train wrote different dictionaries between rounds")
        if out_bytes != self.first[1]:
            raise checks.CheckFailed("repeated denoise commands wrote different output")

    def warm_up(self):
        """Start one interpreter that imports the CLI, so the rounds find
        the libraries in the page cache."""
        run_child([sys.executable, "-c", f"import {PACKAGE}.cli"])

    def peaks_mib(self):
        """Median peak resident set of the train and denoise processes."""
        return statistics.median(self.peaks["train"]), statistics.median(self.peaks["denoise"])


def run_child(cmd):
    """Run ``cmd`` to completion; (exit code, peak resident set in KiB)."""
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stderr.close()
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace"))
    return proc.returncode, usage.ru_maxrss


def read_wav_stdlib(path):
    """16-bit mono PCM through the stdlib reader, as an AudioBuffer."""
    with wave.open(str(path), "rb") as fh:
        if fh.getnchannels() != 1 or fh.getsampwidth() != 2:
            raise checks.CheckFailed(f"{path}: not 16-bit mono PCM")
        rate = fh.getframerate()
        raw = fh.readframes(fh.getnframes())
    return audio_io.AudioBuffer(np.frombuffer(raw, dtype="<i2") / 32768.0, rate)


def sdr_gain(out, mix, clean, noise):
    """SDR(out) - SDR(mix), by the benchmark's own projection; both SDRs are
    also checked against ``metrics.evaluate``."""
    sdrs = []
    for est in (out, mix):
        ours = checks.sdr_db(est.samples, clean.samples, noise.samples)
        theirs = metrics.evaluate(est, clean, noise).sdr_db
        checks.check_close(ours, theirs, SDR_TOL_DB, "SDR against metrics.evaluate")
        sdrs.append(ours)
    gain = sdrs[0] - sdrs[1]
    if not gain >= MIN_SDR_GAIN_DB:
        raise checks.CheckFailed(f"SDR gain {gain:.3f} dB is below {MIN_SDR_GAIN_DB} dB")
    return gain


class Timer:
    """Times the operations of one round; in a traced round each is a root span."""

    def __init__(self, tracer, round_id):
        self.tracer = tracer
        self.round_id = round_id
        self.seconds = {}
        self.done = 0

    @contextlib.contextmanager
    def op(self, kind, counted=True):
        span = (
            self.tracer.span("op." + kind, op=kind, round_id=self.round_id)
            if self.tracer
            else contextlib.nullcontext()
        )
        start = time.perf_counter()
        with span:
            yield
        self.seconds[kind] = self.seconds.get(kind, 0.0) + time.perf_counter() - start
        self.done += counted


def trace_targets():
    """Every public function of every layer module, with its span counts."""
    targets = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_"):
                qualname = f"{layer}.{name}"
                targets[qualname] = SPAN_COUNTS.get(qualname)
    return targets


def measure(workload, seconds, tracer):
    """Whole rounds for ``seconds``, at least MIN_ROUNDS; returns the raw record.

    A round re-synthesises the inputs (timed as set-up, so set-up is
    sampled across the run), then trains and denoises. A traced run
    alternates plain and traced rounds.
    """
    rec = {"rounds": [], "attempted": 0, "failed": 0, "check_failures": []}
    targets = trace_targets() if tracer else None
    workload.setup()
    workload.warm_up()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MIN_ROUNDS or time.perf_counter() < deadline:
        traced = tracer is not None and i % 2 == 1
        timer = Timer(tracer if traced else None, i)
        ctx = tracer.installed(PACKAGE, targets) if traced else contextlib.nullcontext()
        rec["attempted"] += workload.ops_per_round
        try:
            with ctx:
                with timer.op("setup", counted=False):
                    workload.setup()
                outputs = workload.round(timer)
        except Exception:
            traceback.print_exc()
            rec["failed"] += workload.ops_per_round - timer.done
        else:
            try:
                workload.check(outputs)
            except checks.CheckFailed as exc:
                rec["check_failures"].append(str(exc))
            rec["rounds"].append({"traced": traced, "seconds": timer.seconds})
        i += 1
    return rec


def end_to_end(workload, rec):
    rounds = rec["rounds"]
    train_peak, denoise_peak = workload.peaks_mib()
    return {
        "setup_s": statistics.median(r["seconds"]["setup"] for r in rounds),
        "train_s": statistics.median(r["seconds"]["train"] for r in rounds),
        "train_peak_mib": train_peak,
        "denoise_xrt": statistics.median(
            workload.audio_s_per_round / r["seconds"]["denoise"] for r in rounds
        ),
        "denoise_peak_mib": denoise_peak,
        "sdr_gain_db": workload.sdr_gain_db,
    }


def per_layer(workload, rec, tracer):
    n = sum(1 for r in rec["rounds"] if r["traced"])
    ops = ("train", "denoise")

    def s(name, which=ops):
        return tracer.seconds(name, which) / n

    sampled = tracer.total("onmf.sample_batch", "cols", ("train",))
    coded = tracer.total("onmf.sparse_code", "cols", ("train",))
    denoise_ops = len(tracer.select("op.denoise"))
    return {
        "onmf.sparse_code_train_s": s("onmf.sparse_code", ("train",)),
        "onmf.update_dictionary_online_s": s("onmf.update_dictionary_online"),
        "onmf.aggregate_s": s("onmf.aggregate"),
        "onmf.sample_batch_s": s("onmf.sample_batch"),
        "onmf.sparse_code_calls": len(tracer.select("onmf.sparse_code", ("train",))) / n,
        "onmf.sparse_code_denoise_s": s("onmf.sparse_code", ("denoise",)),
        "onmf.cols_coded_per_sampled_col": coded / sampled if sampled else 0.0,
        "nmf.fit_nmf_s": s("nmf.fit_nmf"),
        "nmf.iters": tracer.total("nmf.fit_nmf", "iters", ops) / n,
        "nmf.loss_s": s("nmf.loss"),
        "nmf.update_code_s": s("nmf.update_code"),
        "stft.stft_s": s("stft.stft"),
        "stft.istft_s": s("stft.istft"),
        "stft.stft_calls": len(tracer.select("stft.stft", ops)) / n,
        "stft.frames_per_input_frame": tracer.total("stft.stft", "frames", ("denoise",))
        / (denoise_ops * workload.input_frames),
        "pipeline.train_dictionaries_s": s("pipeline.train_dictionaries"),
        "pipeline.separate_s": s("pipeline.separate"),
        "pipeline.apply_mask_s": s("pipeline.apply_mask"),
        "pipeline.denoise_s": s("pipeline.denoise"),
        "audio_io.read_wav_s": s("audio_io.read_wav"),
        "audio_io.write_wav_s": s("audio_io.write_wav"),
        "audio_io.synth_mixture_s": s("audio_io.synth_mixture", ("setup",)),
        "cli.import_s": cli_import_s() if isinstance(workload, LongCliWorkload) else 0.0,
        "cli.train_s": s("cli.main", ("train",)),
        "cli.denoise_s": s("cli.main", ("denoise",)),
    }


def cli_import_s():
    """Median wall time of a fresh interpreter that imports the CLI module."""
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        code, _ = run_child([sys.executable, "-c", f"import {PACKAGE}.cli"])
        times.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError("importing the CLI failed")
    return statistics.median(times)


def tracing_overhead(rec):
    """Median traced round over median plain round, minus one."""

    def median_round(traced):
        return statistics.median(
            sum(r["seconds"].values()) for r in rec["rounds"] if r["traced"] == traced
        )

    return median_round(True) / median_round(False) - 1.0


def environment(seed):
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
    }


def make_workload(name, seed, workdir, traced):
    if name == "chord-online":
        return ChordWorkload("online", seed)
    if name == "chord-batch":
        return ChordWorkload("batch", seed)
    return LongCliWorkload(seed, workdir, in_process=traced)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("chord-online", "chord-batch", "long-cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_modules()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / tag
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    workload = make_workload(args.workload, args.seed, workdir, traced=bool(args.trace))
    try:
        rec = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not rec["rounds"]:
        print("error: no round completed", file=sys.stderr)
        return 1

    if tracer is None:
        values, units = end_to_end(workload, rec), END_TO_END
    else:
        values, units = per_layer(workload, rec, tracer), PER_LAYER
        rec["tracing_overhead"] = tracing_overhead(rec)
        tracer.write(OUT / f"{tag}-spans.jsonl")
    for msg in rec["check_failures"]:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not rec["check_failures"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump({"environment": environment(args.seed), "args": vars(args), "result": result, "raw": rec}, fh, indent=1)
    if tracer is not None:
        print(f"tracing overhead: {100 * rec['tracing_overhead']:+.1f}% per round", file=sys.stderr)
    print(json.dumps(result))
    return 0


def load_modules():
    """Import the package and the benchmark modules that depend on it."""
    global audio_io, cli, metrics, nmf, onmf, pipeline, stft_mod, checks, inputs, spans
    from onmfdenoise import audio_io, cli, metrics, nmf, onmf, pipeline  # noqa: F401

    # the package namespace rebinds ``stft`` to the function; take the module
    stft_mod = importlib.import_module(f"{PACKAGE}.stft")
    import checks
    import inputs
    import spans


if __name__ == "__main__":
    sys.exit(main())
