"""Source hygiene: every import in a library module is used, and ``import sitctl`` stays lean."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sitctl"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that the module never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_detector_flags_an_unused_name():
    assert unused_imports("import os\nfrom math import pi, tau as t\nprint(pi)\n") == ["os", "t"]


# __init__.py imports in order to re-export
@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - {SRC / "__init__.py"}), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_import_sitctl_loads_no_process_pool():
    # the sweep imports them when it starts workers; at import they would cost ~18 ms of a ~0.125 s set-up
    code = "import sys, sitctl; print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


def test_import_sitctl_compiles_no_generated_function():
    # laws, fields and integration kernels are compiled when a run first needs them, never in set-up
    code = "import sitctl, sitctl.model; print(len(sitctl.model._CODE))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "0\n"


def test_import_sitctl_starts_no_compiler():
    # a native kernel is built when a run first needs it; set-up neither imports subprocess nor looks for a compiler
    code = ("import sys, sitctl, sitctl.native as n; "
            "print('subprocess' in sys.modules, n.compiler.cache_info().currsize, len(n._BUILT))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "False 0 0\n"
