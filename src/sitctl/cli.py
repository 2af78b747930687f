"""Command-line entry point.

Subcommands: ``equilibria`` (print R0 and the persistence levels),
``simulate`` (one closed- or open-loop run, CSV out), ``audit`` (grid
inequality checks), ``robustness`` (Monte-Carlo uncertainty sweep).
Exit code is 0 iff every requested check passed.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .configio import INITIAL_KEYS, SECTION_KEYS, ConfigError, params_from_mapping, read_config, write_trajectory_csv
from .control import VARIANTS, ControllerError
from .harness import (
    NOMINAL_PARAMS,
    RobustnessConfig,
    ScenarioConfig,
    nominal_controller,
    run_robustness,
    run_scenario,
)
from .model import ParamError, capacity_from_E_bar, persistence_equilibrium, validate_params
from .verify import AUDIT_CHECKS, audit_grid


def _load(path):
    """(params, controller_cfg, variant, [sim] settings) from a config file."""
    sections = read_config(path)
    p = params_from_mapping(sections["params"]) if "params" in sections else NOMINAL_PARAMS
    validate_params(p)
    design = dict(sections.get("controller", {}))
    variant = design.pop("variant", "plus")
    return p, nominal_controller(p, **design), variant, sections.get("sim", {})


def _initial_from_sim(sim: dict, default: tuple) -> tuple:
    """The scenario's default initial state, (F, Ms) or (E, M, F, Ms), with the ``[sim]`` overrides applied."""
    *aquatic, F, Ms = default
    initial = (sim.get("F0", sim.get("F0_ratio", 1.0) * F), sim.get("Ms0", Ms))
    if not aquatic:
        return initial
    E, M = aquatic
    return (sim.get("E0", E), sim.get("M0", M)) + initial


def _scenario_from_config(path, args) -> ScenarioConfig:
    """The config's scenario: ``[sim]`` keys, then the flags named after them, over ScenarioConfig's defaults."""
    p, cfg, variant, sim = _load(path)
    settings = {key: value for key, value in sim.items() if key not in INITIAL_KEYS}
    settings |= {key: value for key, value in vars(args).items() if key in SECTION_KEYS["sim"] and value is not None}
    scenario = ScenarioConfig(
        name=Path(path).stem,
        params=p,
        controller=cfg,
        variant=args.variant or variant,
        out_dir=Path(args.out) if args.out else None,
        **settings,
    )
    if sim.keys() & INITIAL_KEYS:
        scenario = replace(scenario, initial=_initial_from_sim(sim, scenario.resolve_initial()))
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
    try:
        config = RobustnessConfig(base=scenario, trials=args.trials, uncertainty=args.uncertainty, seed=args.seed)
    except ValueError as err:  # the message starts with the field, which is also the option's name
        raise ConfigError(f"--{err}") from None
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

    # the options simulate and robustness share; --model, --t-end and --dt override their [sim] keys
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("config")
    scenario.add_argument("--model", choices=["reduced", "full"])
    scenario.add_argument("--variant", choices=VARIANTS)
    scenario.add_argument("--t-end", type=float, dest="t_end")
    scenario.add_argument("--dt", type=float)
    scenario.add_argument("--out")

    sim = sub.add_parser("simulate", parents=[scenario], help="run one scenario and write its trajectory CSV")
    sim.set_defaults(func=cmd_simulate)

    audit = sub.add_parser("audit", help="grid audits of the controller inequalities")
    audit.add_argument("config")
    audit.add_argument("--check", default="all", choices=list(AUDIT_CHECKS) + ["all"])
    audit.set_defaults(func=cmd_audit)

    rob = sub.add_parser("robustness", parents=[scenario], help="Monte-Carlo uncertainty sweep with the nominal law")
    rob.add_argument("--trials", type=int, default=20)
    rob.add_argument("--uncertainty", type=float, default=0.10)
    rob.add_argument("--seed", type=int, default=2024)
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
