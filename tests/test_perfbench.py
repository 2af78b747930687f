"""The benchmark's entry points into the library still exist and still run.

perfbench builds its workloads from sitctl's public names and traces the
layers by wrapping module attributes the library looks its callees up
by; a refactor that breaks either would otherwise surface only when the
benchmark runs.  These tests read perfbench/ and write nothing there.
"""
import ast
import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))


def traced_attributes() -> list[tuple[str, str]]:
    """(module, attribute) of every ``tracer.wrap(module, "attribute", ...)`` in layers.py."""
    tree = ast.parse((PERFBENCH / "layers.py").read_text())
    return [
        (node.args[0].id, node.args[1].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "wrap"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "tracer"
    ]


def test_layers_wraps_something():
    assert ("cli", "read_config") in traced_attributes()


@pytest.mark.parametrize("module, attr", traced_attributes(), ids=lambda x: x)
def test_traced_attribute_is_read_by_its_module(module, attr):
    mod = importlib.import_module(f"sitctl.{module}")
    assert hasattr(mod, attr)
    tree = ast.parse(Path(mod.__file__).read_text())
    # a wrapper only sees calls that look the name up in the module's globals
    assert any(isinstance(node, ast.Name) and node.id == attr and isinstance(node.ctx, ast.Load)
               for node in ast.walk(tree))


@pytest.mark.parametrize("name", ["study", "sweep", "audit"])
def test_workload_builds_and_warms_up(workloads, tmp_path, monkeypatch, name):
    run_cli, exit_codes = workloads.run_cli, []

    def recording_run_cli(argv):
        out = run_cli(argv)
        exit_codes.append(out.exit_code)
        return out

    monkeypatch.setattr(workloads, "run_cli", recording_run_cli)
    workload = workloads.build(name, workloads.DEFAULT_SEED, tmp_path / "inputs")
    assert workload.ops
    warm = tmp_path / "warmup"
    warm.mkdir()
    workload.warmup(warm)
    assert set(exit_codes) <= {0, 1}  # 2 would mean the CLI rejected a study config
