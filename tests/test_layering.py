"""Layering: model.py spells the vector fields, simulate.py only integrates them, control.py knows no plant."""
import ast
from pathlib import Path

from sitctl.model import PARAM_KEYS

SOURCE = Path(__file__).resolve().parent.parent / "src" / "sitctl"
SIMULATE = SOURCE / "simulate.py"
VECTOR_FIELDS = {"reduced_field", "full_field", "reduced_rhs", "full_rhs"}


def parameter_reads(source: str) -> list[str]:
    """Attribute reads named after a BioParams field, as ``line:name``."""
    return [
        f"{node.lineno}:{node.attr}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in PARAM_KEYS
    ]


def imported_names(source: str) -> set[str]:
    """Names bound by ``from ... import`` statements, plus every attribute read (``model.full_field``)."""
    tree = ast.parse(source)
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    return names | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_detector_flags_a_parameter_read():
    assert parameter_reads("p = spec.plant\nloss = p.delta_F * F\n") == ["2:delta_F"]


def test_simulate_reads_no_parameter():
    # a rate read here means a field term has crept back out of model.py
    assert parameter_reads(SIMULATE.read_text()) == []


def test_detector_flags_an_imported_field():
    assert imported_names("from .model import g, reduced_field\n") & VECTOR_FIELDS == {"reduced_field"}
    assert imported_names("from . import model\nrates = model.full_field(p, u)\n") & VECTOR_FIELDS == {"full_field"}


def test_control_imports_no_vector_field():
    # the law gives u; a plant's field takes it in simulate.py, never inside the law
    assert imported_names((SOURCE / "control.py").read_text()) & VECTOR_FIELDS == set()
