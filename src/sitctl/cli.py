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

from .configio import ConfigError, params_from_mapping, read_config
from .control import VARIANTS, ControllerError
from .harness import RobustnessConfig, run_robustness, run_scenario, scenario_from_config
from .model import ParamError, capacity_from_E_bar, persistence_equilibrium
from .verify import AUDIT_CHECKS, audit_grid


def _scenario(args):
    """The config's scenario, with the flags named after a [controller] or [sim] key as overrides."""
    given = vars(args)  # equilibria and audit have none of these flags
    flags = {key: given[key] for key in ("model", "variant", "t_end", "dt") if given.get(key) is not None}
    sections = read_config(args.config)
    params = params_from_mapping(sections["params"]) if "params" in sections else None
    return scenario_from_config(sections, Path(args.config).stem, params, **flags)


def _outputs(args, *names) -> list[Path]:
    """``names`` in the --out directory, made before any run, or next to the config.

    Refused before any run: an output that is the config itself, or that exists and is not a regular file.
    """
    out = Path(args.out or Path(args.config).parent)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / name for name in names]
    for path in filter(Path.exists, paths):
        if not path.is_file():
            raise OSError(f"{path}: exists and is not a regular file")
        if path.samefile(args.config):
            raise ConfigError(f"{args.config}: an output would overwrite the config; pass --out with another directory")
    return paths


def cmd_equilibria(args) -> int:
    scenario = _scenario(args)
    p, cfg = scenario.params, scenario.controller
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
    scenario = _scenario(args)
    names = [f"{scenario.name}.csv"] + ([f"{scenario.name}.summary.txt"] if args.out else [])
    csv, *summary = _outputs(args, *names)
    result = run_scenario(scenario, csv)
    text = "\n".join(result.summary_lines())
    print(text)
    if summary:
        summary[0].write_text(text + "\n")
    else:
        print(f"trajectory = {csv}")
    return 0 if result.passed else 1


def cmd_audit(args) -> int:
    scenario = _scenario(args)
    p, cfg = scenario.params, scenario.controller
    checks = AUDIT_CHECKS if args.check == "all" else (args.check,)
    all_passed = True
    print("check,grid,pass,worst_value,witness_F,witness_Ms")
    for name in checks:
        report = audit_grid(cfg, p, name)
        print(report.csv_row())
        all_passed &= report.passed
    return 0 if all_passed else 1


def cmd_robustness(args) -> int:
    scenario = _scenario(args)
    given = {key: value for key in ("trials", "uncertainty", "seed") if (value := getattr(args, key)) is not None}
    try:
        config = RobustnessConfig(base=scenario, **given)
    except ValueError as err:  # the message starts with the field, which is also the option's name
        raise ConfigError(f"--{err}") from None
    report = _outputs(args, "robustness.txt")[0] if args.out else None
    result = run_robustness(config)
    text = "\n".join(result.summary_lines())
    print(text)
    if report:
        report.write_text(text + "\n")
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
    rob.add_argument("--trials", type=int)
    rob.add_argument("--uncertainty", type=float)
    rob.add_argument("--seed", type=int)
    rob.set_defaults(func=cmd_robustness)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ControllerError, ParamError, OSError) as err:  # OSError: a path that cannot be read or made
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
