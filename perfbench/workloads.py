"""The benchmark's workloads: their inputs and their operations.

Importing this module does not import ``sitctl``; :func:`build` does, so
the set-up probe can time that import as part of set-up.

* ``study``: the paper's simulation study through the documented CLI,
  ``sitctl simulate CONFIG --out DIR`` called in process, three configs.
* ``sweep``: ``harness.run_robustness`` on the two robustness presets.
* ``audit``: ``verify.audit_grid``, every check on three designs.

:func:`measure` runs whole passes over a list of operations; the
untraced and the traced run both time their operations with it.
"""
from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import speed  # imports numpy only when it first measures

NAMES = ("study", "sweep", "audit")
DEFAULT_SEED = 2024

NOMINAL_PARAMS_TEXT = """\
[params]
beta_E = 10.0
gamma_s = 1.0
nu_E = 0.005
nu = 0.49
delta_E = 0.03
delta_M = 0.1
delta_F = 0.04
delta_s = 0.12
k = 212370.0
"""

# name -> ([controller] lines, [sim] lines); every run is 2000 days at dt 0.01.
STUDY_CONFIGS = {
    # reduced model, clipped law, nominal gains, from (F_bar, 0)
    "reduced_plus": ("F_hat_ratio = 1.35\neta = 0.1\nrho = 0.5\nvariant = plus\n", "model = reduced\n"),
    # full model, global law, strong gains (eps = 0.01), from the persistence equilibrium
    "full_global": ("eps = 0.01\neta = 0.1\nrho = 0.5\nvariant = global\n", "model = full\n"),
    # reduced model, global law, from 2 F_bar > F_hat: crosses the chi gate and the u = 0 region
    "reduced_global_high": (
        "F_hat_ratio = 1.35\neta = 0.1\nrho = 0.5\nvariant = global\n", "model = reduced\nF0_ratio = 2\n",
    ),
}
STUDY_SIM = "t_end = 2000\ndt = 0.01\nrecord_every = 100\n"

SWEEP_PRESETS = ("robust-reduced", "robust-full")
SWEEP_TRIALS = 3
SWEEP_UNCERTAINTY = 0.10

AUDIT_DESIGNS = ("nominal", "strong", "nominal_cubic")


def study_config_text(name: str) -> str:
    controller, sim = STUDY_CONFIGS[name]
    return f"{NOMINAL_PARAMS_TEXT}\n[controller]\n{controller}\n[sim]\n{sim}{STUDY_SIM}"


@dataclass
class Op:
    """One timed operation: ``run(pass_dir)`` returns its output, ``ok`` the program's verdict."""

    label: str
    run: Callable[[Path], object]
    ok: Callable[[object], bool]


@dataclass
class Workload:
    name: str
    seed: int
    ops: list
    warmup: Callable[[Path], None]  # the same code paths on tiny inputs, untimed
    inputs: dict  # what the checks and the traced run need


@dataclass
class CliOutput:
    exit_code: int
    stdout: str


def run_cli(argv) -> CliOutput:
    from sitctl import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return CliOutput(code, buf.getvalue())


def _study(seed: int, workdir: Path) -> Workload:
    import sitctl  # noqa: F401  (set-up includes the package import)

    configs = {}
    for name in STUDY_CONFIGS:
        path = workdir / f"{name}.cfg"
        path.write_text(study_config_text(name))
        configs[name] = path

    def op(path):
        return lambda pass_dir: run_cli(["simulate", str(path), "--out", str(pass_dir)])

    def warmup(warm_dir):
        for path in configs.values():
            run_cli(["simulate", str(path), "--out", str(warm_dir), "--t-end", "20"])

    ops = [Op(name, op(path), lambda out: out.exit_code == 0) for name, path in configs.items()]
    return Workload("study", seed, ops, warmup, {"configs": configs})


def _sweep(seed: int, workdir: Path) -> Workload:
    from sitctl.harness import RobustnessConfig, preset_scenario, run_robustness

    configs = {
        name: RobustnessConfig(
            base=preset_scenario(name), trials=SWEEP_TRIALS, uncertainty=SWEEP_UNCERTAINTY, seed=seed,
        )
        for name in SWEEP_PRESETS
    }

    def op(config):
        return lambda pass_dir: run_robustness(config)

    def warmup(warm_dir):
        for config in configs.values():
            short = dataclasses.replace(config.base, t_end=20.0)
            run_robustness(dataclasses.replace(config, base=short, trials=1))

    ops = [Op(name, op(config), lambda result: result.all_passed) for name, config in configs.items()]
    return Workload("sweep", seed, ops, warmup, {"configs": configs})


def audit_designs():
    from sitctl.control import ControllerConfig
    from sitctl.harness import NOMINAL_PARAMS, nominal_controller, strong_controller

    nominal = nominal_controller()
    return {
        "nominal": nominal,
        "strong": strong_controller(),
        "nominal_cubic": ControllerConfig.design(
            NOMINAL_PARAMS, F_hat=nominal.F_hat, eta=nominal.eta, rho=nominal.rho, cutoff_kind="cubic",
        ),
    }


def _audit(seed: int, workdir: Path) -> Workload:
    from sitctl.harness import NOMINAL_PARAMS
    from sitctl.verify import AUDIT_CHECKS, audit_grid

    designs = audit_designs()
    p = NOMINAL_PARAMS

    def op(cfg, check):
        return lambda pass_dir: audit_grid(cfg, p, check)

    def warmup(warm_dir):
        for check in AUDIT_CHECKS:
            audit_grid(designs["nominal"], p, check, n_1d=40, n_2d=8)

    ops = [
        Op(f"{design}/{check}", op(cfg, check), lambda report: bool(report.passed))
        for design, cfg in designs.items()
        for check in AUDIT_CHECKS
    ]
    return Workload("audit", seed, ops, warmup, {"designs": designs, "checks": AUDIT_CHECKS})


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Make the workload's inputs in ``workdir``: config files, presets, designs."""
    workdir.mkdir(parents=True, exist_ok=True)
    return {"study": _study, "sweep": _sweep, "audit": _audit}[name](seed, workdir)


def measure(ops, seconds: float, workdir: Path):
    """Whole passes over ``ops`` while the next pass still fits in ``seconds`` (at least one).

    A calibration sample (:mod:`speed`) is taken before the first
    operation and after every operation, outside the timed intervals.
    An operation that raises, or whose ``ok`` verdict is false, counts as
    failed; its output is then ``None`` or what it returned.  Returns the
    outputs of every pass, the pass directories, each pass's wall time and
    each operation's time (both at the reference speed and unscaled), and
    the counts of attempted and failed operations.
    """
    outputs, pass_dirs = [], []
    walls, raw_walls, op_times, raw_op_times = [], [], [], []
    unit = speed.unit_time()
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        pass_dir = workdir / f"pass{len(walls)}"
        pass_dir.mkdir(parents=True)
        gc.collect()
        results, times, scaled = [], [], []
        t_pass = time.perf_counter()
        for op in ops:
            t_op = time.perf_counter()
            try:
                out = op.run(pass_dir)
            except Exception as err:  # a failed operation is counted, the pass goes on
                print(f"{op.label}: {type(err).__name__}: {err}", file=sys.stderr)
                out = None
            elapsed = time.perf_counter() - t_op
            unit_after = speed.unit_time()
            times.append(elapsed)
            scaled.append(speed.scale(elapsed, unit, unit_after))
            unit = unit_after
            results.append(out)
        for op, out in zip(ops, results):
            attempted += 1
            if out is None or not op.ok(out):
                failed += 1
        outputs.append(results)
        pass_dirs.append(pass_dir)
        walls.append(sum(scaled))
        raw_walls.append(sum(times))
        op_times += scaled
        raw_op_times += times
        now = time.perf_counter()
        if now - start + (now - t_pass) > seconds:
            return outputs, pass_dirs, (walls, raw_walls, op_times, raw_op_times), attempted, failed
