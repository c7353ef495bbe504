"""Tests of the benchmark's tracer.

Run with ``python3 -m pytest bench/test_spans.py`` from the repository root.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from onmfdenoise import nmf, onmf, pipeline  # noqa: E402
from spans import Tracer  # noqa: E402


def test_wraps_every_binding_records_nesting_and_restores():
    original = onmf.sparse_code
    assert pipeline.sparse_code is original
    rng = np.random.default_rng(0)
    w_s = nmf.Dictionary(rng.random((9, 3)))
    w_n = nmf.Dictionary(rng.random((9, 2)))
    X = rng.random((9, 4))
    tracer = Tracer()
    targets = {
        "pipeline.separate": None,
        "onmf.sparse_code": lambda args, result: {"cols": result.shape[1]},
    }
    with tracer.installed("onmfdenoise", targets):
        assert pipeline.sparse_code is onmf.sparse_code is not original
        with tracer.span("op.denoise", op="denoise", round_id=7):
            spec = pipeline.Spectrogram(X, np.zeros_like(X), pipeline.StftParams(), 16000)
            pipeline.separate(spec, w_s, w_n, 1.0)
    assert pipeline.sparse_code is onmf.sparse_code is original

    names = [s["name"] for s in tracer.spans]
    assert names == ["op.denoise", "pipeline.separate", "onmf.sparse_code"]
    root, sep, code = tracer.spans
    assert (sep["parent"], code["parent"]) == (0, 1)
    assert all(s["op"] == "denoise" and s["round"] == 7 for s in tracer.spans)
    assert root["start"] <= sep["start"] <= code["start"] <= code["end"] <= sep["end"] <= root["end"]
    assert tracer.total("onmf.sparse_code", "cols", ("denoise",)) == 4
    assert tracer.select("onmf.sparse_code", ("train",)) == []
    assert tracer.seconds("pipeline.separate") == sep["end"] - sep["start"]


def test_restores_when_the_block_raises():
    original = onmf.sparse_code
    tracer = Tracer()
    try:
        with tracer.installed("onmfdenoise", {"onmf.sparse_code": None}):
            raise KeyError("boom")
    except KeyError:
        pass
    assert pipeline.sparse_code is onmf.sparse_code is original
