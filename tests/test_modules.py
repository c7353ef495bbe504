import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import onmfdenoise
from tests.conftest import child_env

SOURCES = sorted(Path(onmfdenoise.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
MODULES = ["audio_io", "stft", "nmf", "onmf", "pipeline", "metrics"]


def names_used(path, skip=None):
    """Every identifier the file at ``path`` uses as a name, an attribute
    or an import, outside the top-level definition named ``skip``."""
    tree = ast.parse(path.read_text())
    stack = [
        node
        for node in tree.body
        if not (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == skip)
    ]
    used = set()
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_a_private_name_of_another(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            private = [a.name for a in node.names if a.name.startswith("_")]
            assert not private, f"{path.name}:{node.lineno} imports {', '.join(private)}"


@pytest.mark.parametrize("name", MODULES)
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


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_has_a_caller_besides_the_unit_tests(name):
    # callers: the rest of the package and the benchmark; a name only unit
    # tests call belongs in the tests. The acceptance gates do not count: a
    # gate checks the code that ships, and a function that only a gate
    # calls is not that code
    module = importlib.import_module(f"onmfdenoise.{name}")
    own = Path(module.__file__)
    callers = [p for p in SOURCES if p != own]
    callers += [p for p in sorted((ROOT / "bench").glob("*.py")) if not p.name.startswith("test_")]
    used = set().union(*map(names_used, callers))
    unused = [n for n in module.__all__ if n not in used and n not in names_used(own, skip=n)]
    assert not unused, f"{name}.__all__: nothing but unit tests uses {', '.join(unused)}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_parameter_of_every_function_is_read(path):
    # a parameter nothing reads is a dead input its callers still fill in
    unread = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            read = {
                n.id
                for stmt in node.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unread += [
                f"{node.name}({a.arg}) at line {node.lineno}"
                for a in params
                if a.arg != "self" and a.arg not in read
            ]
    assert not unread, f"{path.name}: nothing reads {', '.join(unread)}"


def test_each_module_name_of_the_package_is_that_module():
    # one import path per name: the root re-exports nothing, so no name of
    # a module's contents can rebind the module's own name
    stems = {p.stem for p in SOURCES if p.stem != "__init__"}
    for stem in stems:
        module = importlib.import_module(f"onmfdenoise.{stem}")
        assert getattr(onmfdenoise, stem) is module, f"onmfdenoise.{stem} is not the module"
    public = {name for name in vars(onmfdenoise) if not name.startswith("_")}
    assert public == stems
    assert isinstance(onmfdenoise.__version__, str)


def test_readme_example_runs_and_denoises():
    # the README's one python example, run as a user would, from the modules
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    res = subprocess.run(
        [sys.executable, "-c", blocks[0]], capture_output=True, text=True, env=child_env()
    )
    assert res.returncode == 0, res.stderr
    printed = re.fullmatch(r"SDR (\S+) dB in, (\S+) dB out\n", res.stdout)
    sdr_in, sdr_out = map(float, printed.groups())
    assert sdr_out - sdr_in >= 3.0
