import ast
import importlib
from pathlib import Path

import pytest

import onmfdenoise

SOURCES = sorted(Path(onmfdenoise.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_a_private_name_of_another(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            private = [a.name for a in node.names if a.name.startswith("_")]
            assert not private, f"{path.name}:{node.lineno} imports {', '.join(private)}"


@pytest.mark.parametrize("name", ["audio_io", "stft", "nmf", "onmf", "pipeline", "metrics"])
def test_all_lists_every_public_function_and_class(name):
    module = importlib.import_module(f"onmfdenoise.{name}")
    tree = ast.parse(Path(module.__file__).read_text())
    public = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    missing = sorted(public - set(module.__all__))
    assert not missing, f"{name}.__all__ leaves out {', '.join(missing)}"
