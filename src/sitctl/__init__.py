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
    dms_star_dF,
    epsilon_for,
    f_hat_for,
    lyapunov_V,
    ms_star,
    sigma,
)
from .simulate import (
    NonFiniteError,
    NonnegativityError,
    SimSpec,
    Trajectory,
    detect_extinction,
    integrate,
)
from .verify import (
    AuditReport,
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
