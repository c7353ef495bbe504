import ast
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
