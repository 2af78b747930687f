"""Layering: model.py spells the vector fields, simulate.py only integrates them, control.py knows no plant,
cli.py decides where run output goes, native.py reads no other module's private names, and no module starts a
process to run the library's own code."""
import ast
from pathlib import Path

from sitctl.model import PARAM_KEYS

SOURCE = Path(__file__).resolve().parent.parent / "src" / "sitctl"
SIMULATE = SOURCE / "simulate.py"
VECTOR_FIELDS = {"reduced_field", "full_field", "reduced_rhs", "full_rhs"}
OUTPUT_CALLS = {"mkdir", "makedirs", "open", "write_text", "write_bytes"}
OUTPUT_SUFFIXES = (".csv", ".txt")


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


def private_reads(source: str) -> list[str]:
    """Private names of other sitctl modules read through an import, ``from .simulate import _record`` or
    ``model._CODE`` after ``from . import model``, as ``line:name``."""
    tree = ast.parse(source)
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").split(".")[0] == "sitctl")]
    modules = {alias.asname or alias.name for node in imports if node.module in (None, "sitctl") for alias in node.names}
    found = [(node.lineno, alias.name) for node in imports for alias in node.names if alias.name.startswith("_")]
    found += [(node.lineno, node.attr) for node in ast.walk(tree) if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id in modules
              and node.attr.startswith("_") and not node.attr.endswith("__")]
    return [f"{line}:{name}" for line, name in sorted(found)]


def process_starts(source: str) -> list[str]:
    """Imports of ``multiprocessing`` or ``ProcessPoolExecutor``, and calls of ``os.fork`` (or a bare ``fork``), as
    ``line:what``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names if alias.name.split(".")[0] == "multiprocessing"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "multiprocessing":
            found.append((node.lineno, node.module))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names if alias.name == "ProcessPoolExecutor"]
        elif isinstance(node, ast.Attribute) and node.attr == "ProcessPoolExecutor":
            found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in ("os.fork", "fork"):
            found.append((node.lineno, ast.unparse(node.func)))
    return [f"{line}:{what}" for line, what in sorted(found)]


def output_decisions(source: str) -> list[str]:
    """Names that make a directory or write a file, and string literals naming a .csv or .txt file, as ``line:what``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = node.attr if isinstance(node, ast.Attribute) else node.id if isinstance(node, ast.Name) else None
        if name in OUTPUT_CALLS:
            found.append(f"{node.lineno}:{name}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.endswith(OUTPUT_SUFFIXES):
            found.append(f"{node.lineno}:{node.value}")
    return found


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


def test_detector_flags_an_output_decision():
    source = 'out.mkdir(parents=True)\nsummary = out / f"{name}.summary.txt"\nopen(out / "run.csv", "w")\n'
    assert sorted(output_decisions(source)) == ["1:mkdir", "2:.summary.txt", "3:open", "3:run.csv"]


def test_harness_makes_no_directory_and_names_no_output_file():
    # where a run's files go is cli.py's decision; run_scenario writes only to the path it is given
    assert output_decisions((SOURCE / "harness.py").read_text()) == []


def test_trajectory_csv_is_written_in_run_scenario_only():
    calls = [
        (path.stem, node.lineno)
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "write_trajectory_csv"
    ]
    run_scenario = next(node for node in ast.walk(ast.parse((SOURCE / "harness.py").read_text()))
                        if isinstance(node, ast.FunctionDef) and node.name == "run_scenario")
    assert [(module, run_scenario.lineno < line <= run_scenario.end_lineno) for module, line in calls] == [
        ("harness", True)
    ]


def test_detector_flags_a_private_read():
    source = ("from . import model\nfrom .simulate import _record, integrate\n"
              "code = model._CODE\nname = model.__name__\nmodel.define(*kernel)\n")
    assert private_reads(source) == ["2:_record", "3:_CODE"]


def test_native_reads_no_private_name_of_another_module():
    # the translator works from define's arguments, never from another module's caches or helpers
    assert private_reads((SOURCE / "native.py").read_text()) == []


def test_detector_flags_a_process_start():
    source = ("import multiprocessing\nfrom multiprocessing.pool import Pool\nimport os\npid = os.fork()\nos.getpid()\n"
              "import multiprocessing as mp\nfrom concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor\n"
              "pool = concurrent.futures.ProcessPoolExecutor(2)\n")
    assert process_starts(source) == ["1:multiprocessing", "2:multiprocessing.pool", "4:os.fork", "6:multiprocessing",
                                      "7:ProcessPoolExecutor", "8:concurrent.futures.ProcessPoolExecutor"]


def test_no_module_starts_a_process():
    # sweep trials run on threads: a trial is one C call that releases the GIL, so a process pool costs more than it saves
    found = {path.name: process_starts(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
