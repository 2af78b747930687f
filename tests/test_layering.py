"""Layering: model.py spells the vector fields, simulate.py only integrates them."""
import ast
from pathlib import Path

from sitctl.model import PARAM_KEYS

SIMULATE = Path(__file__).resolve().parent.parent / "src" / "sitctl" / "simulate.py"


def parameter_reads(source: str) -> list[str]:
    """Attribute reads named after a BioParams field, as ``line:name``."""
    return [
        f"{node.lineno}:{node.attr}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in PARAM_KEYS
    ]


def test_detector_flags_a_parameter_read():
    assert parameter_reads("p = spec.plant\nloss = p.delta_F * F\n") == ["2:delta_F"]


def test_simulate_reads_no_parameter():
    # a rate read here means a field term has crept back out of model.py
    assert parameter_reads(SIMULATE.read_text()) == []
