import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from onmfdenoise import cli
from onmfdenoise.audio_io import AudioBuffer, write_wav
from onmfdenoise.errors import InvalidInputError
from onmfdenoise.onmf import SAMPLER_MODES, SamplerConfig
from onmfdenoise.pipeline import TRAINERS, DenoiseConfig
from onmfdenoise.stft import StftParams
from tests.conftest import child_env

SR = 16000
SMALL_STFT = ["--window-len", "256", "--hop", "128", "--fft-len", "256"]
SMALL_TRAIN = [
    "--k-signal", "3", "--k-noise", "2",
    "--max-iters", "40", "--seed", "0",
    "--steps", "10", "--batch-cols", "20",
] + SMALL_STFT


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "onmfdenoise.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=child_env(),
    )


@pytest.fixture(scope="module")
def wavs(tmp_path_factory):
    """Tiny clean/noise/mixture WAV trio plus prior recordings."""
    root = tmp_path_factory.mktemp("wavs")
    rng = np.random.default_rng(0)
    t = np.arange(SR) / SR
    clean = 0.3 * (
        np.sin(2 * np.pi * 440 * t)
        + np.sin(2 * np.pi * 550 * t)
        + np.sin(2 * np.pi * 660 * t)
    ) / 3
    noise = 0.05 * rng.standard_normal(SR)
    paths = {}
    for name, samples in (
        ("clean", clean),
        ("noise", noise),
        ("mixture", clean + noise),
        ("clean_prior", np.tile(clean, 2)),
        ("noise_prior", 0.05 * rng.standard_normal(2 * SR)),
    ):
        path = root / f"{name}.wav"
        write_wav(AudioBuffer(samples, SR), path)
        paths[name] = path
    return paths


def zero_atom_dictionary(tmp_path):
    """A well-formed .dict file holding 129 rows and no atoms."""
    from onmfdenoise.nmf import Dictionary, save_dictionary

    path = tmp_path / "empty.dict"
    save_dictionary(Dictionary(np.zeros((129, 0))), path)
    return path


def huge_float_wav(tmp_path):
    """A 1 s 64-bit float WAV of finite samples, one of them 1e308: read
    as-is, it passes every input check, and its spectrum's energy
    overflows."""
    samples = np.zeros(SR)
    samples[SR // 2] = 1e308
    path = tmp_path / "huge.wav"
    wavfile.write(path, SR, samples)
    return path


@pytest.fixture(scope="module")
def trained(wavs, tmp_path_factory):
    out = tmp_path_factory.mktemp("dicts")
    res = run_cli(
        "train",
        "--signal", wavs["clean_prior"],
        "--noise", wavs["noise_prior"],
        "--out-dir", out,
        *SMALL_TRAIN,
    )
    assert res.returncode == 0, res.stderr
    return {"signal": out / "w_signal.dict", "noise": out / "w_noise.dict"}


class TestTrain:
    def test_writes_both_dictionaries(self, trained):
        assert trained["signal"].exists() and trained["noise"].exists()

    def test_reports_atoms_and_loss(self, wavs, tmp_path):
        res = run_cli(
            "train",
            "--signal", wavs["clean_prior"],
            "--noise", wavs["noise_prior"],
            "--out-dir", tmp_path,
            *SMALL_TRAIN,
        )
        assert res.returncode == 0
        assert "signal: 3 atoms" in res.stdout
        assert "noise: 2 atoms" in res.stdout
        assert "final loss" in res.stdout

    def test_online_method(self, wavs, tmp_path):
        res = run_cli(
            "train",
            "--method", "onmf",
            "--signal", wavs["clean_prior"],
            "--noise", wavs["noise_prior"],
            "--out-dir", tmp_path,
            "--train-log", tmp_path / "log",
            *SMALL_TRAIN,
        )
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "w_signal.dict").exists()
        assert (tmp_path / "log.signal.jsonl").exists()
        assert (tmp_path / "log.noise.jsonl").exists()

    @pytest.mark.parametrize("method", ["nmf", "onmf"])
    def test_final_loss_matches_direct_residual(self, wavs, tmp_path, capsys, method):
        from onmfdenoise.audio_io import read_wav
        from onmfdenoise.nmf import load_dictionary
        from onmfdenoise.onmf import sparse_code
        from onmfdenoise.stft import StftParams, stft
        from tests.conftest import loss

        argv = [
            "train", "--method", method, "--train-alpha", "0.5",
            "--signal", str(wavs["clean_prior"]), "--noise", str(wavs["noise_prior"]),
            "--out-dir", str(tmp_path), *SMALL_TRAIN,
        ]  # fmt: skip
        assert cli.main(argv) == 0
        printed = capsys.readouterr().out.splitlines()
        params = StftParams(window_len=256, hop=128, fft_len=256)
        for name, prior, line in zip(("signal", "noise"), ("clean_prior", "noise_prior"), printed):
            mags = stft(read_wav(wavs[prior]), params).magnitudes
            W = load_dictionary(tmp_path / f"w_{name}.dict").atoms
            direct = loss(mags, W, sparse_code(mags.T @ W, W.T @ W, 0.5), 0.5)
            assert f"final loss {direct:.6g} " in line

    @pytest.mark.parametrize("method, trainer", [("nmf", "batch"), ("onmf", "online")])
    def test_train_writes_what_fit_dictionary_gives(self, wavs, tmp_path, capsys, method, trainer):
        from onmfdenoise.audio_io import read_wav
        from onmfdenoise.nmf import save_dictionary
        from onmfdenoise.onmf import SamplerConfig
        from onmfdenoise.pipeline import DenoiseConfig, fit_dictionary
        from onmfdenoise.stft import StftParams, stft

        argv = [
            "train", "--method", method, "--train-alpha", "0.5",
            "--signal", str(wavs["clean_prior"]), "--noise", str(wavs["noise_prior"]),
            "--out-dir", str(tmp_path / "cli"), *SMALL_TRAIN,
        ]  # fmt: skip
        assert cli.main(argv) == 0
        printed = capsys.readouterr().out.splitlines()
        params = StftParams(window_len=256, hop=128, fft_len=256)
        cfg = DenoiseConfig(
            trainer=trainer, k_signal=3, k_noise=2, train_alpha=0.5, stft=params,
            sampler=SamplerConfig(batch_cols=20, steps=10), seed=0, max_iters=40,
        )  # fmt: skip
        for role, prior, line in zip(("signal", "noise"), ("clean_prior", "noise_prior"), printed):
            mags = stft(read_wav(wavs[prior]), params).magnitudes
            dictionary, final_loss = fit_dictionary(mags, cfg, role)
            save_dictionary(dictionary, tmp_path / "lib.dict")
            name = f"w_{role}.dict"
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib.dict").read_bytes()
            assert line.startswith(f"{role}: {dictionary.k} atoms, final loss {final_loss:.6g} -> ")

    @pytest.mark.parametrize("method", ["nmf", "onmf"])
    def test_one_prior_spectrogram_alive_at_a_time(self, tmp_path, method):
        from onmfdenoise.audio_io import read_wav
        from onmfdenoise.stft import StftParams, stft
        from tests.conftest import peak_bytes

        rng = np.random.default_rng(3)
        for name in ("s", "n"):
            write_wav(AudioBuffer(0.1 * rng.standard_normal(4 * SR), SR), tmp_path / f"{name}.wav")
        params = StftParams(window_len=256, hop=128, fft_len=256)
        one_prior, mags = peak_bytes(
            lambda: stft(read_wav(tmp_path / "s.wav"), params).magnitudes
        )
        mags_bytes = mags.nbytes
        del mags
        argv = [
            "train", "--method", method, "--out-dir", str(tmp_path),
            "--signal", str(tmp_path / "s.wav"), "--noise", str(tmp_path / "n.wav"),
            *SMALL_TRAIN,
        ]  # fmt: skip
        peak, code = peak_bytes(lambda: cli.main(argv))
        assert code == 0
        # the signal prior's magnitudes must be gone while the noise prior
        # is read and transformed
        assert peak - one_prior < 0.75 * mags_bytes

    @pytest.mark.parametrize("method", ["nmf", "onmf"])
    def test_peak_is_one_prior_its_magnitudes_and_a_few_blocks(self, tmp_path, method):
        from onmfdenoise.stft import StftParams, frames_per_block
        from tests.conftest import peak_bytes

        n = 30 * SR  # many transform blocks long
        rng = np.random.default_rng(4)
        for name in ("s", "n"):
            write_wav(AudioBuffer(0.1 * rng.standard_normal(n), SR), tmp_path / f"{name}.wav")
        params = StftParams(window_len=256, hop=128, fft_len=256)
        n_frames = 1 + -(-(n - params.window_len) // params.hop)
        mags_bytes = 8 * params.n_bins * n_frames
        block_bytes = 16 * params.n_bins * frames_per_block(params)  # one complex block
        argv = [
            "train", "--method", method, "--out-dir", str(tmp_path),
            "--signal", str(tmp_path / "s.wav"), "--noise", str(tmp_path / "n.wav"),
            *SMALL_TRAIN,
        ]  # fmt: skip
        peak, code = peak_bytes(lambda: cli.main(argv))
        assert code == 0
        # the samples, their magnitudes and the transform's block arrays;
        # no complex spectrum, twice the size of the magnitudes
        assert peak <= 8 * n + mags_bytes + 4 * block_bytes

    @pytest.mark.parametrize("method", ["nmf", "onmf"])
    def test_silent_prior_exits_2_naming_it(self, wavs, tmp_path, method):
        silent = tmp_path / "silent.wav"
        wavfile.write(silent, SR, np.zeros(2 * SR, dtype=np.float32))
        res = run_cli(
            "train",
            "--method", method,
            "--signal", wavs["clean_prior"],
            "--noise", silent,
            "--out-dir", tmp_path,
            *SMALL_TRAIN,
        )  # fmt: skip
        assert res.returncode == 2
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1 and "the noise prior is silent" in lines[0]
        assert not (tmp_path / "w_signal.dict").exists()

    def test_prior_that_starts_with_silence_trains_online(self, tmp_path):
        samples = np.zeros(7 * SR, dtype=np.float32)
        samples[5 * SR :] = 0.1 * np.random.default_rng(5).standard_normal(2 * SR)
        prior = tmp_path / "late.wav"
        wavfile.write(prior, SR, samples)
        res = run_cli(
            "train",
            "--method", "onmf", "--sampler-mode", "consecutive",
            "--signal", prior, "--noise", prior, "--out-dir", tmp_path,
        )  # fmt: skip
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "w_signal.dict").exists() and (tmp_path / "w_noise.dict").exists()

    def test_deterministic_artifacts(self, wavs, tmp_path):
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            res = run_cli(
                "train",
                "--signal", wavs["clean_prior"],
                "--noise", wavs["noise_prior"],
                "--out-dir", out,
                *SMALL_TRAIN,
            )
            assert res.returncode == 0
            outs.append(out)
        for name in ("w_signal.dict", "w_noise.dict"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_missing_input_exits_2(self, wavs, tmp_path):
        res = run_cli(
            "train",
            "--signal", tmp_path / "nope.wav",
            "--noise", wavs["noise_prior"],
            "--out-dir", tmp_path,
            *SMALL_TRAIN,
        )
        assert res.returncode == 2
        assert "error" in res.stderr.lower()

    def test_unknown_flag_exits_2(self, wavs):
        res = run_cli("train", "--signal", wavs["clean"], "--bogus", "1")
        assert res.returncode == 2

    @pytest.mark.parametrize("method", ["nmf", "onmf"])
    def test_negative_train_alpha_exits_2(self, wavs, tmp_path, method):
        res = run_cli(
            "train",
            "--method", method,
            "--signal", wavs["clean_prior"],
            "--noise", wavs["noise_prior"],
            "--out-dir", tmp_path,
            "--train-alpha", "-1",
            *SMALL_TRAIN,
        )
        assert res.returncode == 2
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert not (tmp_path / "w_signal.dict").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--max-iters", "-1", "max_iters must be >= 0"),
            ("--rel-tol", "nan", "rel_tol must be positive"),
            ("--rel-tol", "0", "rel_tol must be positive"),
        ],
    )
    def test_batch_stop_it_cannot_honour_exits_2(self, wavs, tmp_path, flag, value, message):
        # DenoiseConfig checks the batch stop, so the online method, which
        # never reads it, rejects it too
        for method in ("nmf", "onmf"):
            res = run_cli(
                "train",
                "--method", method,
                "--signal", wavs["clean_prior"],
                "--noise", wavs["noise_prior"],
                "--out-dir", tmp_path,
                *SMALL_TRAIN, flag, value,
            )  # fmt: skip
            assert res.returncode == 2, method
            lines = res.stderr.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0]
            assert not list(tmp_path.glob("*.dict"))

    @pytest.mark.parametrize("method", ["nmf", "onmf"])
    def test_negative_seed_exits_2_naming_it(self, wavs, tmp_path, method):
        res = run_cli(
            "train",
            "--method", method,
            "--signal", wavs["clean_prior"],
            "--noise", wavs["noise_prior"],
            "--out-dir", tmp_path,
            *SMALL_TRAIN, "--seed", "-1",
        )  # fmt: skip
        assert res.returncode == 2
        lines = res.stderr.strip().splitlines()
        assert lines == ["error: seed must be >= 0, got -1"]
        assert not list(tmp_path.glob("*.dict"))

    def test_zero_iteration_cap_trains(self, wavs, tmp_path):
        res = run_cli(
            "train",
            "--method", "nmf",
            "--signal", wavs["clean_prior"],
            "--noise", wavs["noise_prior"],
            "--out-dir", tmp_path,
            *SMALL_TRAIN, "--max-iters", "0",
        )  # fmt: skip
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "w_signal.dict").exists() and (tmp_path / "w_noise.dict").exists()

    @pytest.mark.parametrize("method", ["nmf", "onmf"])
    def test_overflowing_float_prior_exits_3_with_one_error_line(self, tmp_path, method):
        huge = huge_float_wav(tmp_path)
        res = run_cli(
            "train",
            "--method", method,
            "--signal", huge,
            "--noise", huge,
            "--out-dir", tmp_path,
            *SMALL_TRAIN,
        )
        assert res.returncode == 3
        assert res.stderr.splitlines() == ["error: energy of the signal prior is not finite"]
        assert not (tmp_path / "w_signal.dict").exists()

    def test_malformed_noise_prior_leaves_the_saved_pair_alone(self, wavs, trained, tmp_path):
        for role in ("signal", "noise"):
            (tmp_path / f"w_{role}.dict").write_bytes(trained[role].read_bytes())
        cut = tmp_path / "cut.wav"
        cut.write_bytes(wavs["noise_prior"].read_bytes()[:30])
        res = run_cli(
            "train",
            "--signal", wavs["clean_prior"],
            "--noise", cut,
            "--out-dir", tmp_path,
            *SMALL_TRAIN,
            "--seed", "3",  # a completed run would write other bytes
        )
        assert res.returncode == 2
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        for role in ("signal", "noise"):
            assert (tmp_path / f"w_{role}.dict").read_bytes() == trained[role].read_bytes()


class TestDenoise:
    def test_output_duration_and_determinism(self, wavs, trained, tmp_path):
        from onmfdenoise.audio_io import read_wav

        outs = []
        for run in ("a.wav", "b.wav"):
            out = tmp_path / run
            res = run_cli(
                "denoise",
                "--dict-signal", trained["signal"],
                "--dict-noise", trained["noise"],
                "--input", wavs["mixture"],
                "--output", out,
                *SMALL_STFT,
            )
            assert res.returncode == 0, res.stderr
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert len(read_wav(outs[0])) == SR

    def test_explicit_default_alpha_matches(self, wavs, trained, tmp_path):
        implicit = tmp_path / "implicit.wav"
        explicit = tmp_path / "explicit.wav"
        common = [
            "--dict-signal", trained["signal"],
            "--dict-noise", trained["noise"],
            "--input", wavs["mixture"],
        ] + SMALL_STFT
        assert run_cli("denoise", *common, "--output", implicit).returncode == 0
        assert (
            run_cli(
                "denoise", *common, "--output", explicit, "--alpha", "100"
            ).returncode
            == 0
        )
        assert implicit.read_bytes() == explicit.read_bytes()

    def test_emits_spectrogram_images(self, wavs, trained, tmp_path):
        out = tmp_path / "den.wav"
        res = run_cli(
            "denoise",
            "--dict-signal", trained["signal"],
            "--dict-noise", trained["noise"],
            "--input", wavs["mixture"],
            "--output", out,
            "--clean", wavs["clean"],
            "--emit-spectrograms",
            "--emit-noise", tmp_path / "noise_part.wav",
            *SMALL_STFT,
        )
        assert res.returncode == 0, res.stderr
        for suffix in ("noisy", "denoised", "noise", "clean"):
            pgm = tmp_path / f"den.{suffix}.pgm"
            assert pgm.exists()
            assert pgm.read_bytes().startswith(b"P5\n")
        assert (tmp_path / "noise_part.wav").exists()


    def test_images_equal_those_of_the_masked_parts(self, wavs, trained, tmp_path):
        from onmfdenoise import pipeline
        from onmfdenoise.audio_io import read_wav
        from onmfdenoise.nmf import load_dictionary
        from onmfdenoise.stft import StftParams, export_pgm, stft

        argv = [
            "denoise", "--dict-signal", str(trained["signal"]),
            "--dict-noise", str(trained["noise"]), "--input", str(wavs["mixture"]),
            "--output", str(tmp_path / "den.wav"), "--alpha", "1", "--emit-spectrograms",
            *SMALL_STFT,
        ]  # fmt: skip
        assert cli.main(argv) == 0
        cfg = pipeline.DenoiseConfig(
            code_alpha=1.0, stft=StftParams(window_len=256, hop=128, fft_len=256)
        )
        result = pipeline.denoise(
            read_wav(wavs["mixture"]),
            load_dictionary(trained["signal"]),
            load_dictionary(trained["noise"]),
            cfg,
        )
        for suffix, image in (
            ("noisy", stft(result.noisy, result.params).magnitudes),
            ("denoised", result.s_masked),
            ("noise", result.n_masked),
        ):
            export_pgm(image, tmp_path / "ref.pgm")
            assert (tmp_path / f"den.{suffix}.pgm").read_bytes() == (
                tmp_path / "ref.pgm"
            ).read_bytes()

    def test_images_hold_the_magnitudes_and_ratio_once(self, trained, tmp_path):
        from tests.conftest import peak_bytes

        n = 16 * SR
        rng = np.random.default_rng(5)
        write_wav(AudioBuffer(0.1 * rng.standard_normal(n), SR), tmp_path / "m.wav")
        n_frames = 1 + -(-(n - 256) // 128)
        real_bytes = 8 * 129 * n_frames  # one bins x frames float64 array
        argv = [
            "denoise", "--dict-signal", str(trained["signal"]),
            "--dict-noise", str(trained["noise"]), "--input", str(tmp_path / "m.wav"),
            "--output", str(tmp_path / "den.wav"), *SMALL_STFT,
        ]  # fmt: skip
        assert cli.main(argv) == 0  # the first call's one-time allocations
        plain, code = peak_bytes(lambda: cli.main(argv))
        assert code == 0
        emitting, code = peak_bytes(lambda: cli.main([*argv, "--emit-spectrograms"]))
        assert code == 0
        # |X|, the ratio and export_pgm's working copy, less what the plain
        # command had already freed; forming either of the first two again
        # costs close to one more bins x frames array
        assert emitting - plain <= 2.25 * real_bytes

    def test_noise_render_is_formed_once_the_output_is_freed(self, trained, tmp_path):
        from tests.conftest import peak_bytes

        n = 16 * SR
        rng = np.random.default_rng(8)
        write_wav(AudioBuffer(0.1 * rng.standard_normal(n), SR), tmp_path / "m.wav")
        argv = [
            "denoise", "--dict-signal", str(trained["signal"]),
            "--dict-noise", str(trained["noise"]), "--input", str(tmp_path / "m.wav"),
            "--output", str(tmp_path / "den.wav"), *SMALL_STFT,
        ]  # fmt: skip
        assert cli.main(argv) == 0  # the first call's one-time allocations
        plain, code = peak_bytes(lambda: cli.main(argv))
        assert code == 0
        emit = [*argv, "--emit-noise", str(tmp_path / "noise.wav")]
        emitting, code = peak_bytes(lambda: cli.main(emit))
        assert code == 0
        # the noise render takes the place of the written output, whose
        # 8n bytes would otherwise be held beside it
        assert emitting - plain < 0.5 * 8 * n, (emitting - plain) / (8 * n)

    def test_first_image_is_formed_once_x_the_codes_and_the_output_are_freed(
        self, trained, tmp_path, monkeypatch
    ):
        import tracemalloc

        from onmfdenoise.stft import export_pgm
        from tests.conftest import peak_bytes

        n = 16 * SR
        rng = np.random.default_rng(7)
        write_wav(AudioBuffer(0.1 * rng.standard_normal(n), SR), tmp_path / "m.wav")
        real_bytes = 8 * 129 * (1 + -(-(n - 256) // 128))  # one bins x frames float64 array
        held = []

        def recording_export(image, path):
            held.append(tracemalloc.get_traced_memory()[0])
            export_pgm(image, path)

        monkeypatch.setattr(cli, "export_pgm", recording_export)
        argv = [
            "denoise", "--dict-signal", str(trained["signal"]),
            "--dict-noise", str(trained["noise"]), "--input", str(tmp_path / "m.wav"),
            "--output", str(tmp_path / "den.wav"), "--emit-spectrograms", *SMALL_STFT,
        ]  # fmt: skip
        _, code = peak_bytes(lambda: cli.main(argv))
        assert code == 0
        # |X| and the ratio; the complex X alone would be two more arrays
        assert held[0] <= 2.25 * real_bytes, held[0] / real_bytes

    def test_peak_holds_no_copy_of_the_input_samples(self, trained, tmp_path):
        from functools import partial

        from onmfdenoise.audio_io import read_wav
        from onmfdenoise.nmf import load_dictionary
        from onmfdenoise.pipeline import denoise
        from tests.conftest import peak_bytes

        n = 60 * SR  # its float64 samples outweigh every block
        rng = np.random.default_rng(6)
        write_wav(AudioBuffer(0.1 * rng.standard_normal(n), SR), tmp_path / "m.wav")
        argv = [
            "denoise", "--dict-signal", str(trained["signal"]),
            "--dict-noise", str(trained["noise"]), "--input", str(tmp_path / "m.wav"),
            "--output", str(tmp_path / "den.wav"), "--alpha", "1", *SMALL_STFT,
        ]  # fmt: skip
        assert cli.main(argv) == 0  # the first call's one-time allocations
        peak, code = peak_bytes(lambda: cli.main(argv))
        assert code == 0
        x = read_wav(tmp_path / "m.wav")
        w_s, w_n = load_dictionary(trained["signal"]), load_dictionary(trained["noise"])
        cfg = DenoiseConfig(code_alpha=1.0, stft=StftParams(window_len=256, hop=128, fft_len=256))
        denoising, _ = peak_bytes(partial(denoise, x, w_s, w_n, cfg))
        # the samples and what denoising holds beyond them, plus less than
        # the 8n bytes of another copy: the 16-bit payload and a block
        # while reading or writing
        assert peak - x.samples.nbytes - denoising < 4 * n

    def test_hop_it_cannot_invert_exits_2_before_reading_the_input(
        self, wavs, trained, tmp_path, monkeypatch
    ):
        from onmfdenoise import audio_io, pipeline

        def failing(*args, **kwargs):
            raise AssertionError("read or denoised before the hop was checked")

        monkeypatch.setattr(audio_io, "read_wav", failing)
        monkeypatch.setattr(pipeline, "denoise", failing)
        args = cli.parse_args([
            "denoise", "--dict-signal", str(trained["signal"]),
            "--dict-noise", str(trained["noise"]), "--input", str(wavs["mixture"]),
            "--output", str(tmp_path / "den.wav"),
            "--window-len", "4096", "--hop", "1000", "--fft-len", "4096",
        ])  # fmt: skip
        with pytest.raises(InvalidInputError, match="got hop 1000 for window_len 4096"):
            args.func(args)
        assert not (tmp_path / "den.wav").exists()

    def test_nan_sample_exits_2_with_one_error_line(self, wavs, trained, tmp_path):
        samples = np.zeros(SR, dtype=np.float32)
        samples[SR // 2] = np.nan
        bad = tmp_path / "nan.wav"
        wavfile.write(bad, SR, samples)
        res = run_cli(
            "denoise",
            "--dict-signal", trained["signal"],
            "--dict-noise", trained["noise"],
            "--input", bad,
            "--output", tmp_path / "out.wav",
            *SMALL_STFT,
        )
        assert res.returncode == 2
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert not (tmp_path / "out.wav").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--alpha", "nan"),
            ("--alpha", "inf"),
            ("--alpha", "-1000"),
        ],
    )
    def test_invalid_weight_or_floor_exits_2(self, wavs, trained, tmp_path, flag, value):
        res = run_cli(
            "denoise",
            "--dict-signal", trained["signal"],
            "--dict-noise", trained["noise"],
            "--input", wavs["mixture"],
            "--output", tmp_path / "out.wav",
            flag, value,
            *SMALL_STFT,
        )
        assert res.returncode == 2
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert not (tmp_path / "out.wav").exists()


    def test_overflowing_dictionary_exits_3(self, wavs, trained, tmp_path):
        # finite atoms of about 1e200 load, but W^T W overflows
        from onmfdenoise.nmf import Dictionary, load_dictionary, save_dictionary

        big = {}
        for role in ("signal", "noise"):
            big[role] = tmp_path / f"{role}.dict"
            save_dictionary(Dictionary(load_dictionary(trained[role]).atoms * 1e200), big[role])
        out = tmp_path / "den.wav"
        res = run_cli(
            "denoise",
            "--dict-signal", big["signal"],
            "--dict-noise", big["noise"],
            "--input", wavs["mixture"],
            "--output", out,
            *SMALL_STFT,
        )
        assert res.returncode == 3
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert not out.exists()

    def test_vanishing_dictionary_denoises_without_a_warning(self, wavs, tmp_path):
        # atoms of 1e-160 load, and W^T W's largest eigenvalue is a
        # subnormal that (P - alpha)/L overflows past: every code is 0
        from onmfdenoise.nmf import Dictionary, save_dictionary

        tiny = {}
        for role, k in (("signal", 3), ("noise", 2)):
            tiny[role] = tmp_path / f"{role}.dict"
            save_dictionary(Dictionary(np.full((129, k), 1e-160)), tiny[role])
        res = run_cli(
            "denoise",
            "--dict-signal", tiny["signal"],
            "--dict-noise", tiny["noise"],
            "--input", wavs["mixture"],
            "--output", tmp_path / "den.wav",
            *SMALL_STFT,
        )
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""

    def test_overflowing_float_input_exits_3_with_one_error_line(self, trained, tmp_path):
        out = tmp_path / "den.wav"
        res = run_cli(
            "denoise",
            "--dict-signal", trained["signal"],
            "--dict-noise", trained["noise"],
            "--input", huge_float_wav(tmp_path),
            "--output", out,
            *SMALL_STFT,
        )
        assert res.returncode == 3
        assert res.stderr.splitlines() == ["error: |X|^T W of the mixture is not finite"]
        assert not out.exists()

    def test_rate_the_header_cannot_hold_exits_2(self, wavs, trained, tmp_path):
        # a 16-bit mono input whose header says 3,000,000,000 Hz reads and
        # denoises, but 2 * rate does not fit the output header's byte rate
        raw = bytearray(wavs["mixture"].read_bytes())
        raw[24:28] = (3_000_000_000).to_bytes(4, "little")
        fast = tmp_path / "fast.wav"
        fast.write_bytes(raw)
        out = tmp_path / "den.wav"
        res = run_cli(
            "denoise",
            "--dict-signal", trained["signal"],
            "--dict-noise", trained["noise"],
            "--input", fast,
            "--output", out,
            *SMALL_STFT,
        )
        assert res.returncode == 2
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert not out.exists()

    def test_zero_atom_dictionary_exits_2(self, wavs, trained, tmp_path):
        empty = zero_atom_dictionary(tmp_path)
        out = tmp_path / "den.wav"
        res = run_cli(
            "denoise",
            "--dict-signal", trained["signal"],
            "--dict-noise", empty,
            "--input", wavs["mixture"],
            "--output", out,
            *SMALL_STFT,
        )
        assert res.returncode == 2
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert str(empty) in lines[0]
        assert not out.exists()


class TestEval:
    def test_row_order_and_format(self, wavs, tmp_path):
        out = tmp_path / "m.csv"
        res = run_cli(
            "eval",
            "--clean", wavs["clean"],
            "--noise", wavs["noise"],
            "--nmf", wavs["mixture"],
            "--onmf", wavs["mixture"],
            "--noisy", wavs["mixture"],
            "--out", out,
        )
        assert res.returncode == 0, res.stderr
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "method,SDR,SIR,SAR"
        assert [line.split(",")[0] for line in lines[1:]] == ["NMF", "ONMF", "ORIGINAL"]
        for line in lines[1:]:
            for cell in line.split(",")[1:]:
                float(cell)  # four-decimal finite numbers
                assert len(cell.split(".")[1]) == 4

    def test_perfect_estimate_hits_sentinel_cap(self, wavs, tmp_path):
        out = tmp_path / "m.csv"
        res = run_cli(
            "eval",
            "--clean", wavs["clean"],
            "--noise", wavs["noise"],
            "--nmf", wavs["clean"],
            "--out", out,
        )
        assert res.returncode == 0
        row = out.read_text().strip().splitlines()[1].split(",")
        # int16 quantization keeps SDR finite but the projections are exact
        assert row[2] == "300.0000"

    def test_silent_estimate_scores_minus_cap(self, wavs, tmp_path):
        silent = tmp_path / "silent.wav"
        write_wav(AudioBuffer(np.zeros(SR), SR), silent)
        out = tmp_path / "m.csv"
        res = run_cli(
            "eval",
            "--clean", wavs["clean"],
            "--noise", wavs["noise"],
            "--nmf", silent,
            "--out", out,
        )
        assert res.returncode == 0, res.stderr
        row = out.read_text().strip().splitlines()[1].split(",")
        assert row[1:3] == ["-300.0000", "-300.0000"]

    def test_nan_estimate_exits_2_with_one_error_line(self, wavs, tmp_path):
        samples = wavfile.read(wavs["mixture"])[1] / np.float32(32768.0)
        samples[SR // 3] = np.nan
        bad = tmp_path / "nan.wav"
        wavfile.write(bad, SR, samples.astype(np.float32))
        res = run_cli("eval", "--clean", wavs["clean"], "--noise", wavs["noise"], "--nmf", bad)
        assert res.returncode == 2
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert res.stdout == ""

    def test_unequal_lengths_exit_2_naming_all_three(self, wavs, tmp_path):
        short = tmp_path / "short.wav"
        write_wav(AudioBuffer(np.zeros(SR - 100), SR), short)
        long_noise = tmp_path / "long_noise.wav"
        write_wav(AudioBuffer(0.05 * np.ones(SR + 7), SR), long_noise)
        res = run_cli("eval", "--clean", wavs["clean"], "--noise", long_noise, "--nmf", short)
        assert res.returncode == 2
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        for part in (f"estimate={SR - 100}", f"clean={SR}", f"noise={SR + 7}"):
            assert part in lines[0]
        assert res.stdout == ""

    def test_no_estimate_exits_2_naming_the_three_flags(self, wavs, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli.audio_io, "read_wav", lambda path: pytest.fail(f"read {path}"))
        out = tmp_path / "m.csv"
        argv = ["eval", "--clean", str(wavs["clean"]), "--noise", str(wavs["noise"]), "--out", str(out)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        for flag in ("--nmf", "--onmf", "--noisy"):
            assert flag in lines[0]
        assert captured.out == ""
        assert not out.exists()

    def test_deterministic_csv(self, wavs, tmp_path):
        outs = []
        for run in ("a.csv", "b.csv"):
            out = tmp_path / run
            res = run_cli(
                "eval",
                "--clean", wavs["clean"],
                "--noise", wavs["noise"],
                "--noisy", wavs["mixture"],
                "--out", out,
            )
            assert res.returncode == 0
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestSweep:
    def test_default_grid(self, wavs, trained, tmp_path):
        out = tmp_path / "sweep.csv"
        res = run_cli(
            "sweep",
            "--dict-signal", trained["signal"],
            "--dict-noise", trained["noise"],
            "--input", wavs["mixture"],
            "--clean", wavs["clean"],
            "--noise", wavs["noise"],
            "--out", out,
            *SMALL_STFT,
        )
        assert res.returncode == 0, res.stderr
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "alpha,SDR,SIR,SAR"
        assert [line.split(",")[0] for line in lines[1:]] == ["50", "60", "70", "80", "90"]

    def test_single_alpha_matches_denoise_plus_eval(self, wavs, trained, tmp_path):
        out = tmp_path / "one.csv"
        res = run_cli(
            "sweep",
            "--dict-signal", trained["signal"],
            "--dict-noise", trained["noise"],
            "--input", wavs["mixture"],
            "--clean", wavs["clean"],
            "--noise", wavs["noise"],
            "--alphas", "100",
            "--out", out,
            *SMALL_STFT,
        )
        assert res.returncode == 0, res.stderr
        den = tmp_path / "den.wav"
        assert (
            run_cli(
                "denoise",
                "--dict-signal", trained["signal"],
                "--dict-noise", trained["noise"],
                "--input", wavs["mixture"],
                "--output", den,
                *SMALL_STFT,
            ).returncode
            == 0
        )
        ev = tmp_path / "ev.csv"
        assert (
            run_cli(
                "eval",
                "--clean", wavs["clean"],
                "--noise", wavs["noise"],
                "--nmf", den,
                "--out", ev,
            ).returncode
            == 0
        )
        sweep_sdr = float(out.read_text().strip().splitlines()[1].split(",")[1])
        eval_sdr = float(ev.read_text().strip().splitlines()[1].split(",")[1])
        # eval re-reads the written (int16-quantized) WAV, so allow a hair
        assert sweep_sdr == pytest.approx(eval_sdr, abs=0.05)


    def test_unequal_lengths_exit_2_naming_all_three(self, wavs, trained, tmp_path):
        short_clean = tmp_path / "short_clean.wav"
        clean = wavfile.read(wavs["clean"])[1]
        wavfile.write(short_clean, SR, clean[: SR - 100])
        res = run_cli(
            "sweep",
            "--dict-signal", trained["signal"],
            "--dict-noise", trained["noise"],
            "--input", wavs["mixture"],
            "--clean", short_clean,
            "--noise", wavs["noise"],
            "--alphas", "100",
            *SMALL_STFT,
        )
        assert res.returncode == 2
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        for part in (f"estimate={SR}", f"clean={SR - 100}", f"noise={SR}"):
            assert part in lines[0]
        assert res.stdout == ""

    @pytest.mark.parametrize("alphas", [",", " , "])
    def test_empty_alpha_list_exits_2(self, wavs, trained, tmp_path, alphas):
        out = tmp_path / "sweep.csv"
        res = run_cli(
            "sweep",
            "--dict-signal", trained["signal"],
            "--dict-noise", trained["noise"],
            "--input", wavs["mixture"],
            "--clean", wavs["clean"],
            "--noise", wavs["noise"],
            "--alphas", alphas,
            "--out", out,
            *SMALL_STFT,
        )
        assert res.returncode == 2
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert not out.exists()

    def test_alpha_that_is_not_a_number_is_invalid_input_naming_it(self, wavs, trained):
        args = cli.parse_args([
            "sweep",
            "--dict-signal", str(trained["signal"]),
            "--dict-noise", str(trained["noise"]),
            "--input", str(wavs["mixture"]),
            "--clean", str(wavs["clean"]),
            "--noise", str(wavs["noise"]),
            "--alphas", "5,x",
        ])
        with pytest.raises(InvalidInputError, match=r"^--alphas '5,x': .*'x'"):
            args.func(args)

    def test_zero_atom_dictionary_exits_2(self, wavs, trained, tmp_path):
        empty = zero_atom_dictionary(tmp_path)
        res = run_cli(
            "sweep",
            "--dict-signal", trained["signal"],
            "--dict-noise", empty,
            "--input", wavs["mixture"],
            "--clean", wavs["clean"],
            "--noise", wavs["noise"],
            "--alphas", "100",
            *SMALL_STFT,
        )
        assert res.returncode == 2
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert str(empty) in lines[0]
        assert res.stdout == ""

    def test_sweep_reads_each_wav_once_and_forms_no_spectrogram(
        self, wavs, trained, monkeypatch, capsys
    ):
        from onmfdenoise import audio_io
        from onmfdenoise.stft import block_spectra, stft

        calls = {"read_wav": 0, "stft": 0, "block_spectra": 0}

        def counting(name, original):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapped

        originals = {"read_wav": audio_io.read_wav, "stft": stft, "block_spectra": block_spectra}
        for name, module in list(sys.modules.items()):
            if name.startswith("onmfdenoise"):
                for attr, value in list(vars(module).items()):
                    for key, original in originals.items():
                        if value is original:
                            monkeypatch.setattr(module, attr, counting(key, original))
        code = cli.main(
            [
                "sweep",
                "--dict-signal", str(trained["signal"]),
                "--dict-noise", str(trained["noise"]),
                "--input", str(wavs["mixture"]),
                "--clean", str(wavs["clean"]),
                "--noise", str(wavs["noise"]),
                "--alphas", "50,70,90",
                *SMALL_STFT,
            ]
        )
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3
        # no spectrogram is kept: one forward pass forms the mixture's
        # products for the whole grid, and one more per weight resynthesizes
        assert calls == {"read_wav": 3, "stft": 0, "block_spectra": 1 + 3}

    @pytest.mark.parametrize(
        "alphas, flags, message",
        [
            ("1,-1", [], "L1 weight must be finite and >= 0, got -1.0"),
            ("1,nan", [], "L1 weight must be finite and >= 0, got nan"),
            ("1", ["--window-len", "4096", "--hop", "1000", "--fft-len", "4096"], "got hop 1000"),
        ],
    )
    def test_every_setting_is_checked_before_any_wav_is_read(
        self, wavs, trained, monkeypatch, alphas, flags, message
    ):
        from onmfdenoise import audio_io, pipeline

        def failing(*args, **kwargs):
            raise AssertionError("read or denoised before every setting was checked")

        monkeypatch.setattr(audio_io, "read_wav", failing)
        monkeypatch.setattr(pipeline, "denoise", failing)
        args = cli.parse_args([
            "sweep",
            "--dict-signal", str(trained["signal"]),
            "--dict-noise", str(trained["noise"]),
            "--input", str(wavs["mixture"]),
            "--clean", str(wavs["clean"]),
            "--noise", str(wavs["noise"]),
            "--alphas", alphas,
            *flags,
        ])  # fmt: skip
        with pytest.raises(InvalidInputError, match=message):
            args.func(args)


class TestSpectrogram:
    def test_pgm_and_csv_outputs(self, wavs, tmp_path):
        pgm = tmp_path / "s.pgm"
        csv_path = tmp_path / "s.csv"
        res = run_cli(
            "spectrogram",
            "--input", wavs["mixture"],
            "--out", pgm,
            "--csv", csv_path,
            *SMALL_STFT,
        )
        assert res.returncode == 0, res.stderr
        assert pgm.read_bytes().startswith(b"P5\n")
        mags = np.loadtxt(csv_path, delimiter=",")
        assert mags.shape[0] == 129
        assert "129x" in res.stdout


    def test_truncated_wav_exits_2_with_one_error_line(self, wavs, tmp_path):
        cut = tmp_path / "cut.wav"
        cut.write_bytes(wavs["mixture"].read_bytes()[:30])
        res = run_cli("spectrogram", "--input", cut, "--out", tmp_path / "s.pgm")
        assert res.returncode == 2
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


def test_cli_import_does_not_load_scipy():
    res = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, onmfdenoise.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


class TestConfigFile:
    def test_file_supplies_values_and_flags_win(self, wavs, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "k-signal = 3\nk-noise = 2\nmax-iters = 40\n"
            "window-len = 256\nhop = 128\nfft-len = 256\n"
            "steps = 10\nbatch-cols = 20\nseed = 5\n"
        )
        out_a = tmp_path / "a"
        res = run_cli(
            "train",
            "--signal", wavs["clean_prior"],
            "--noise", wavs["noise_prior"],
            "--out-dir", out_a,
            "--config", cfg,
        )
        assert res.returncode == 0, res.stderr
        # explicit --seed overrides the file value
        out_b = tmp_path / "b"
        assert (
            run_cli(
                "train",
                "--signal", wavs["clean_prior"],
                "--noise", wavs["noise_prior"],
                "--out-dir", out_b,
                "--config", cfg,
                "--seed", "0",
            ).returncode
            == 0
        )
        out_c = tmp_path / "c"
        assert (
            run_cli(
                "train",
                "--signal", wavs["clean_prior"],
                "--noise", wavs["noise_prior"],
                "--out-dir", out_c,
                *SMALL_TRAIN,
            ).returncode
            == 0
        )
        a = (out_a / "w_signal.dict").read_bytes()
        b = (out_b / "w_signal.dict").read_bytes()
        c = (out_c / "w_signal.dict").read_bytes()
        assert b == c  # flag seed 0 matches pure-flag run
        assert a != b  # file seed 5 differs

    @pytest.mark.parametrize("key", ["method", "sampler-mode"])
    def test_value_outside_choices_exits_2(self, wavs, tmp_path, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = bogus\n")
        res = run_cli(
            "train",
            "--signal", wavs["clean_prior"],
            "--noise", wavs["noise_prior"],
            "--out-dir", tmp_path,
            "--config", cfg,
            *SMALL_TRAIN,
        )
        assert res.returncode == 2
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "bogus" in lines[0]
        assert not (tmp_path / "w_signal.dict").exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("k-signal = many", "k_signal = 'many': expected an integer"),
            ("train-alpha = lots", "train_alpha = 'lots': expected a number"),
        ],
    )
    def test_value_of_the_wrong_type_names_key_and_type(self, wavs, tmp_path, capsys, line, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        argv = [
            "train", "--signal", str(wavs["clean_prior"]), "--noise", str(wavs["noise_prior"]),
            "--out-dir", str(tmp_path), "--config", str(cfg),
        ]  # fmt: skip
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    def test_malformed_config_exits_2(self, wavs, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a key value pair\n")
        res = run_cli(
            "train",
            "--signal", wavs["clean_prior"],
            "--noise", wavs["noise_prior"],
            "--out-dir", tmp_path,
            "--config", cfg,
        )
        assert res.returncode == 2

    def test_boolean_values(self, tmp_path):
        cfg = tmp_path / "bools.cfg"
        for raw, expected in (
            ("true", True), ("yes", True), ("1", True), ("True", True),
            ("false", False), ("no", False), ("0", False), ("NO", False),
        ):  # fmt: skip
            cfg.write_text(f"emit-spectrograms = {raw}\n")
            merged = cli.parse_args(["denoise", *REQUIRED["denoise"], "--config", str(cfg)])
            assert merged.emit_spectrograms is expected

    def test_false_boolean_writes_no_images_and_bad_value_exits_2(
        self, wavs, trained, tmp_path
    ):
        common = [
            "denoise",
            "--dict-signal", trained["signal"],
            "--dict-noise", trained["noise"],
            "--input", wavs["mixture"],
            "--output", tmp_path / "den.wav",
            *SMALL_STFT,
        ]
        cfg = tmp_path / "off.cfg"
        cfg.write_text("emit-spectrograms = false\n")
        res = run_cli(*common, "--config", cfg)
        assert res.returncode == 0, res.stderr
        assert not list(tmp_path.glob("*.pgm"))
        cfg.write_text("emit-spectrograms = maybe\n")
        res = run_cli(*common, "--config", cfg)
        assert res.returncode == 2
        assert res.stderr.startswith("error:")

    @pytest.mark.parametrize("command", ["spectrogram", "denoise"])
    def test_keys_that_are_not_the_commands_options_are_ignored(
        self, wavs, trained, tmp_path, command
    ):
        # handler and parser state, required and foreign flags, and a key of
        # a removed flag: a shared train/denoise file must not reach them
        cfg = tmp_path / "other.cfg"
        cfg.write_text(
            "func = x\ncommand = train\nconfig = missing.cfg\n"
            f"input = {tmp_path / 'missing.wav'}\nmethod = bogus\nk-signal = many\n"
            "mask-epsilon = nan\n"
        )
        argv = [command, "--input", str(wavs["mixture"]), *SMALL_STFT]
        if command == "denoise":
            argv += ["--dict-signal", str(trained["signal"]), "--dict-noise", str(trained["noise"])]
        out_flag = {"spectrogram": "--out", "denoise": "--output"}[command]
        assert cli.main([*argv, out_flag, str(tmp_path / "plain.out")]) == 0
        assert cli.main([*argv, out_flag, str(tmp_path / "file.out"), "--config", str(cfg)]) == 0
        assert (tmp_path / "plain.out").read_bytes() == (tmp_path / "file.out").read_bytes()


def test_train_without_optional_flags_trains_with_the_library_config(wavs, tmp_path, monkeypatch):
    from onmfdenoise import pipeline

    configs = []

    def recording(mags, cfg, role, log_path=None):
        configs.append(cfg)
        raise InvalidInputError("recorded")

    monkeypatch.setattr(pipeline, "fit_dictionary", recording)
    argv = ["train", "--signal", str(wavs["clean_prior"]), "--noise", str(wavs["noise_prior"])]
    assert cli.main([*argv, "--out-dir", str(tmp_path)]) == 2
    # field by field, the sampler's and the trainer's included
    assert configs == [DenoiseConfig()]
    assert configs[0].sampler == SamplerConfig()


# train options, their defaults (whose types --config values convert to), and values
TRAIN_DEFAULTS = {
    "method": "nmf", "k_signal": 50, "k_noise": 10, "train_alpha": 0.0, "seed": 0,
    "max_iters": 500, "rel_tol": 1e-4, "steps": 100, "batch_cols": 100,
    "sampler_mode": "uniform", "out_dir": ".", "train_log": None,
    "window_len": 1024, "hop": 512, "fft_len": 1024,
}  # fmt: skip
_STFT_DEFAULTS = {"window_len": 1024, "hop": 512, "fft_len": 1024}
COMMAND_DEFAULTS = {
    "train": TRAIN_DEFAULTS,
    "denoise": {
        "alpha": 100.0, "emit_spectrograms": False,
        "clean": None, "emit_noise": None, **_STFT_DEFAULTS,
    },
    "eval": {"nmf": None, "onmf": None, "noisy": None, "out": None},
    "sweep": {"alphas": "50,60,70,80,90", "out": None, **_STFT_DEFAULTS},
    "spectrogram": {"csv": None, **_STFT_DEFAULTS},
}  # fmt: skip
REQUIRED = {
    "train": ["--signal", "s.wav", "--noise", "n.wav"],
    "denoise": ["--dict-signal", "s.dict", "--dict-noise", "n.dict", "--input", "x.wav", "--output", "y.wav"],
    "eval": ["--clean", "c.wav", "--noise", "n.wav"],
    "sweep": [
        "--dict-signal", "s.dict", "--dict-noise", "n.dict",
        "--input", "x.wav", "--clean", "c.wav", "--noise", "n.wav",
    ],
    "spectrogram": ["--input", "x.wav", "--out", "x.pgm"],
}  # fmt: skip
_FLOATS = st.floats(0.0, 1e6, allow_subnormal=False)
_PATHS = st.text("abc/._-=09", min_size=1, max_size=12).filter(lambda s: not s.startswith("-"))
TRAIN_VALUES = {
    key: (
        st.sampled_from(cli._CHOICES[key]) if key in cli._CHOICES
        else _FLOATS if isinstance(default, float)
        else _PATHS if default is None or isinstance(default, str)
        else st.integers(0, 10**6)
    )
    for key, default in TRAIN_DEFAULTS.items()
}  # fmt: skip
_BLANK = st.sampled_from(["", " ", "\t", "  \t "])


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "train.cfg"


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_config_file_gives_the_values_of_the_same_flags(config_path, data):
    keys = data.draw(st.lists(st.sampled_from(sorted(TRAIN_VALUES)), unique=True))
    values = {key: data.draw(TRAIN_VALUES[key]) for key in keys}
    flags, lines = [], []
    for key, value in values.items():
        flags += ["--" + key.replace("_", "-"), str(value)]
        # each separator spelled "-" or "_", whitespace anywhere around
        # key, "=" and value, and an optional trailing comment
        spelled = "".join(
            data.draw(st.sampled_from("-_")) if ch == "_" else ch for ch in key
        )
        line = data.draw(_BLANK) + spelled + data.draw(_BLANK) + "="
        line += data.draw(_BLANK) + str(value) + data.draw(_BLANK)
        line += data.draw(st.sampled_from(["", "# note", " # k = v"]))
        lines += data.draw(st.lists(st.sampled_from(["", "  ", "# comment", " # a = 1"]), max_size=2))
        lines.append(line)
    config_path.write_text("\n".join(lines) + "\n")
    required = ["train", "--signal", "s.wav", "--noise", "n.wav"]
    from_flags = cli.parse_args(required + flags)
    from_file = cli.parse_args(required + ["--config", str(config_path)])
    for key in TRAIN_DEFAULTS:
        got, want = getattr(from_file, key), getattr(from_flags, key)
        assert got == want and type(got) is type(want), key


@pytest.mark.parametrize("command", sorted(COMMAND_DEFAULTS))
def test_each_command_parses_to_the_library_defaults(command):
    args = cli.parse_args([command, *REQUIRED[command]])
    library = DenoiseConfig()
    if "hop" in COMMAND_DEFAULTS[command]:
        assert cli._stft_params(args) == StftParams() == library.stft
    if command == "denoise":
        assert args.alpha == library.code_alpha
    if command == "train":
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if a.dest == "command").choices[command]
        choices = {a.dest: a.choices for a in sub._actions if a.choices}
        assert choices["sampler_mode"] == SAMPLER_MODES
        assert [cli._METHODS[m] for m in choices["method"]] == list(TRAINERS)


@pytest.mark.parametrize("command", sorted(COMMAND_DEFAULTS))
def test_each_command_parses_to_its_defaults(command):
    args = cli.parse_args([command, *REQUIRED[command]])
    for key, want in COMMAND_DEFAULTS[command].items():
        got = getattr(args, key)
        assert got == want and type(got) is type(want), key
    # every optional flag has a row above, so a new setting shows up here
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if a.dest == "command").choices[command]
    optional = {a.dest for a in sub._actions if a.option_strings and not a.required}
    assert optional - {"help", "config"} == set(COMMAND_DEFAULTS[command])
