"""Sterile-insect-technique mosquito population control.

Compartmental population models, a family of backstepping release-rate
controllers, fixed-step closed-loop simulation, numerical verification of
the exponential-decay certificates, and a parameter-uncertainty
robustness harness.
"""
from .model import (
    BioParams,
    EquilibriumSet,
    ParamError,
    alpha,
    basic_offspring_number,
    capacity_from_E_bar,
    dg_dMs,
    full_rhs,
    g,
    persistence_equilibrium,
    reduced_rhs,
    validate_params,
)
from .control import (
    ControlLaw,
    ControllerConfig,
    ControllerError,
    chi,
    cut2,
    dms_star_dF,
    epsilon_for,
    f_hat_for,
    lyapunov_V,
    ms_star,
    pi,
    sigma,
    u_star,
    u_star_plus,
    u_tilde,
)
from .simulate import (
    NonnegativityError,
    SimSpec,
    Trajectory,
    detect_extinction,
    integrate,
    step_rk4,
)
from .verify import (
    AuditReport,
    ControlBudget,
    DecayReport,
    audit_grid,
    control_budget,
    fit_decay_rate,
    vdot_check,
    verify_decay,
)
from .harness import (
    NOMINAL_PARAMS,
    RobustnessConfig,
    ScenarioConfig,
    nominal_controller,
    perturb_params,
    preset_scenario,
    run_robustness,
    run_scenario,
    strong_controller,
    trial_rng,
)
from .configio import (
    ConfigError,
    params_from_text,
    params_to_text,
    read_config,
    read_trajectory_csv,
    write_trajectory_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
