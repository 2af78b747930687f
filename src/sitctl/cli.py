"""Command-line entry point.

Subcommands: ``equilibria`` (print R0 and the persistence levels),
``simulate`` (one closed- or open-loop run, CSV out), ``audit`` (grid
inequality checks), ``robustness`` (Monte-Carlo uncertainty sweep).
Exit code is 0 iff every requested check passed.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .configio import ConfigError, params_from_mapping, read_config, write_trajectory_csv
from .control import ControllerConfig, ControllerError
from .harness import (
    DEFAULT_EXTINCTION_THRESHOLD,
    NOMINAL_PARAMS,
    RobustnessConfig,
    ScenarioConfig,
    run_robustness,
    run_scenario,
)
from .model import BioParams, ParamError, capacity_from_E_bar, persistence_equilibrium, validate_params
from .verify import AUDIT_CHECKS, audit_grid


def _value(section: str, mapping: dict, key: str, default=None, convert=float):
    """``mapping[key]`` converted, or ``default`` when absent; a bad value is a ConfigError."""
    if key not in mapping:
        return default
    try:
        return convert(mapping[key])
    except ValueError:
        raise ConfigError(f"[{section}] {key}: invalid value {mapping[key]!r}") from None


def _load(path):
    """(params, controller_cfg, variant, sim overrides) from a config file."""
    sections = read_config(path)
    p = params_from_mapping(sections["params"]) if "params" in sections else NOMINAL_PARAMS
    validate_params(p)
    ctrl = sections.get("controller", {})
    variant = ctrl.get("variant", "plus")
    kwargs = {}
    for key in ("F_hat", "F_hat_ratio", "eps", "eta", "rho", "F2"):
        if key in ctrl:
            kwargs[key] = _value("controller", ctrl, key)
    if "cutoff_kind" in ctrl:
        kwargs["cutoff_kind"] = ctrl["cutoff_kind"]
    if not any(k in kwargs for k in ("F_hat", "F_hat_ratio", "eps")):
        kwargs["F_hat_ratio"] = 27.0 / 20.0
    kwargs.setdefault("eta", p.delta_s - 0.02)
    kwargs.setdefault("rho", 0.5)
    cfg = ControllerConfig.design(p, **kwargs)
    sim = sections.get("sim", {})
    return p, cfg, variant, sim


def _initial_from_sim(sim: dict, p: BioParams, model: str):
    eq = persistence_equilibrium(p)
    F0 = _value("sim", sim, "F0", _value("sim", sim, "F0_ratio", 1.0) * eq.F_bar)
    Ms0 = _value("sim", sim, "Ms0", 0.0)
    if model == "reduced":
        return (F0, Ms0)
    return (_value("sim", sim, "E0", eq.E_bar), _value("sim", sim, "M0", eq.M_bar), F0, Ms0)


def _scenario_from_config(path, args) -> ScenarioConfig:
    p, cfg, variant, sim = _load(path)
    model = args.model or sim.get("model", "reduced")
    scenario = ScenarioConfig(
        name=Path(path).stem,
        params=p,
        controller=cfg,
        variant=args.variant or variant,
        model=model,
        initial=_initial_from_sim(sim, p, model),
        t_end=args.t_end if args.t_end is not None else _value("sim", sim, "t_end", 2000.0),
        dt=args.dt if args.dt is not None else _value("sim", sim, "dt", 0.01),
        record_every=_value("sim", sim, "record_every", 100, int),
        extinction_threshold=_value("sim", sim, "extinction_threshold", DEFAULT_EXTINCTION_THRESHOLD),
        out_dir=Path(args.out) if getattr(args, "out", None) else None,
    )
    try:
        scenario.sim_spec()
        if not scenario.extinction_threshold > 0.0:
            raise ValueError("extinction_threshold must be positive")
    except ControllerError:
        raise
    except ValueError as err:  # the message names the offending setting
        raise ConfigError(f"[sim] {err}") from None
    return scenario


def cmd_equilibria(args) -> int:
    p, cfg, _, _ = _load(args.config)
    eq = persistence_equilibrium(p)
    k_check = capacity_from_E_bar(eq.E_bar, p)
    print(f"R0 = {eq.R0:.10g}")
    print(f"F_bar = {eq.F_bar:.10g}")
    print(f"E_bar = {eq.E_bar:.10g}")
    print(f"M_bar = {eq.M_bar:.10g}")
    print(f"k_from_E_bar = {k_check:.10g} (configured k = {p.k:.10g})")
    print(f"F_hat = {cfg.F_hat:.10g}  eps = {cfg.eps:.10g}")
    return 0


def cmd_simulate(args) -> int:
    scenario = _scenario_from_config(args.config, args)
    result = run_scenario(scenario)
    for line in result.summary_lines():
        print(line)
    if scenario.out_dir is None:
        # still emit the CSV next to the config when no directory was given
        out = Path(args.config).with_suffix(".csv")
        write_trajectory_csv(result.trajectory, out)
        print(f"trajectory = {out}")
    return 0 if result.passed else 1


def cmd_audit(args) -> int:
    p, cfg, _, _ = _load(args.config)
    checks = AUDIT_CHECKS if args.check == "all" else (args.check,)
    all_passed = True
    print("check,grid,pass,worst_value,witness_F,witness_Ms")
    for name in checks:
        report = audit_grid(cfg, p, name)
        print(report.csv_row())
        all_passed &= report.passed
    return 0 if all_passed else 1


def cmd_robustness(args) -> int:
    scenario = _scenario_from_config(args.config, args)
    config = RobustnessConfig(
        base=scenario,
        trials=args.trials,
        uncertainty=args.uncertainty,
        seed=args.seed,
    )
    result = run_robustness(config)
    lines = result.summary_lines()
    for line in lines:
        print(line)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "robustness.txt").write_text("\n".join(lines) + "\n")
    return 0 if result.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sitctl",
        description="Sterile-insect-technique mosquito control: simulation and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    eq = sub.add_parser("equilibria", help="print R0 and the persistence equilibrium")
    eq.add_argument("config")
    eq.set_defaults(func=cmd_equilibria)

    sim = sub.add_parser("simulate", help="run one scenario and write its trajectory CSV")
    sim.add_argument("config")
    sim.add_argument("--model", choices=["reduced", "full"])
    sim.add_argument("--variant", choices=["none", "raw", "plus", "global"])
    sim.add_argument("--t-end", type=float, dest="t_end")
    sim.add_argument("--dt", type=float)
    sim.add_argument("--out")
    sim.set_defaults(func=cmd_simulate)

    audit = sub.add_parser("audit", help="grid audits of the controller inequalities")
    audit.add_argument("config")
    audit.add_argument("--check", default="all", choices=list(AUDIT_CHECKS) + ["all"])
    audit.set_defaults(func=cmd_audit)

    rob = sub.add_parser("robustness", help="Monte-Carlo uncertainty sweep with the nominal law")
    rob.add_argument("config")
    rob.add_argument("--trials", type=int, default=20)
    rob.add_argument("--uncertainty", type=float, default=0.10)
    rob.add_argument("--seed", type=int, default=2024)
    rob.add_argument("--model", choices=["reduced", "full"])
    rob.add_argument("--variant", choices=["none", "raw", "plus", "global"])
    rob.add_argument("--t-end", type=float, dest="t_end")
    rob.add_argument("--dt", type=float)
    rob.add_argument("--out")
    rob.set_defaults(func=cmd_robustness)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ControllerError, ParamError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
