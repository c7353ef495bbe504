import ast
from pathlib import Path

import numpy as np
import pytest

from onmfdenoise import errors
from onmfdenoise.errors import InvalidInputError
from onmfdenoise.nmf import fit_nmf
from onmfdenoise.onmf import SamplerConfig
from onmfdenoise.pipeline import DenoiseConfig, fit_dictionary

SOURCES = sorted(Path(errors.__file__).parent.glob("*.py"))
RAISED = {"InvalidInputError", "NonFiniteResultError"}


def test_errors_module_defines_the_two_failure_kinds_and_their_base():
    tree = ast.parse(Path(errors.__file__).read_text())
    classes = {
        node.name: [base.id for base in node.bases]
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    assert classes == {
        "DenoiseError": ["Exception"],
        "InvalidInputError": ["DenoiseError"],
        "NonFiniteResultError": ["DenoiseError"],
    }


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_raise_names_one_of_the_two_failure_kinds(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue  # a bare raise re-raises what was caught
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)
        assert name in RAISED, f"{path.name}:{node.lineno} raises {name}"


@pytest.mark.parametrize(
    ("make", "message"),
    [
        pytest.param(lambda: DenoiseConfig(trainer="x"), "unknown trainer 'x'", id="trainer"),
        pytest.param(lambda: DenoiseConfig(k_noise=0), "k_noise must be >= 1", id="k"),
        pytest.param(
            lambda: DenoiseConfig(max_iters=-1), "max_iters must be >= 0", id="config-iters"
        ),
        pytest.param(
            lambda: DenoiseConfig(rel_tol=np.nan), "rel_tol must be positive", id="config-tol"
        ),
        pytest.param(lambda: SamplerConfig(mode="x"), "unknown sampler mode 'x'", id="mode"),
        pytest.param(lambda: SamplerConfig(batch_cols=0), "batch_cols must be >= 1", id="cols"),
        pytest.param(
            lambda: fit_nmf(np.ones((3, 4)), 1, 0.0, seed=0, max_iters=500, rel_tol=0),
            "rel_tol must be positive",
            id="tol",
        ),
        pytest.param(
            lambda: fit_nmf(-np.ones((3, 4)), 1, 0.0, seed=0, max_iters=500, rel_tol=1e-4),
            "X must be non-negative",
            id="negative-x",
        ),
        pytest.param(
            lambda: errors.check_weight(-0.5), "L1 weight must be finite and >= 0, got -0.5", id="weight"
        ),
        pytest.param(
            lambda: fit_dictionary(np.ones((3, 4)), DenoiseConfig(), "bogus"),
            "unknown dictionary role 'bogus'",
            id="role",
        ),
    ],
)
def test_rejected_settings_are_invalid_input(make, message):
    with pytest.raises(InvalidInputError, match=message):
        make()

