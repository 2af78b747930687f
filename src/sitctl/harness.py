"""Scenario execution and the parameter-uncertainty robustness sweep.

A scenario bundles plant parameters, a controller variant and simulation
settings; running one integrates the closed loop, verifies the decay
certificate (reduced model) or the extinction threshold (full model) and
writes the trajectory CSV to the path its caller gives.

The robustness sweep feeds the *nominal* control law to plants whose
parameters carry independent uniform multiplicative perturbations;
perturbed sets that break the model assumptions are resampled, and the
resample rate is reported.
"""
from __future__ import annotations

import operator
import os
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .configio import INITIAL_KEYS, ConfigError, parse_config_text, write_trajectory_csv
from .control import ControlLaw, ControllerConfig, ControllerError, sigma
from .model import BioParams, ParamError, persistence_equilibrium, validate_params
from .simulate import TERMINATION_HORIZON, SimSpec, Trajectory, integrate, detect_extinction
from .verify import DecayReport, control_budget, verify_decay

#: Table of nominal biological rates used throughout the study.
NOMINAL_PARAMS = BioParams(
    beta_E=10.0, gamma_s=1.0, nu_E=0.005, nu=0.49,
    delta_E=0.03, delta_M=0.1, delta_F=0.04, delta_s=0.12, k=212370.0,
)

#: The rates subject to uncertainty; the capacity k is excluded
#: (robustness to capacity errors is a separate question).
DEFAULT_PERTURB_SET = ("beta_E", "gamma_s", "nu_E", "nu", "delta_E", "delta_M", "delta_F", "delta_s")

#: Draws perturb_params makes before it gives up on a parameter set.
MAX_PERTURB_TRIES = 100

#: The most trials a sweep runs.  run_robustness queues every trial before the first one returns, about 1.9 kB each,
#: so this caps the queue near 19 MB; with a C compiler on 2 cores such a sweep of a robust preset takes 30-60 s.
MAX_TRIALS = 10**4

#: Below one individual the female population counts as extinct.
DEFAULT_EXTINCTION_THRESHOLD = 1.0


def nominal_controller(p: BioParams = NOMINAL_PARAMS, **design) -> ControllerConfig:
    """Study gains: ceiling at 27/20 of the persistence level, eta = delta_s - 0.02.

    Keyword arguments of :meth:`ControllerConfig.design` override these
    defaults; giving ``F_hat`` or ``eps`` replaces the ceiling ratio.  The
    achieved contraction offset follows from the ceiling (about 0.030 for
    the nominal rates), giving a certified female decay barely below
    delta_F.  See :func:`strong_controller` for the aggressive reading.
    """
    if not any(key in design for key in ("F_hat", "F_hat_ratio", "eps")):
        design["F_hat_ratio"] = 27.0 / 20.0
    design.setdefault("eta", p.delta_s - 0.02)
    return ControllerConfig.design(p, **design)


def strong_controller(p: BioParams = NOMINAL_PARAMS) -> ControllerConfig:
    """Aggressive gains: contraction offset pinned at 0.01, ceiling solved from it.

    The larger ceiling (about 4.18 F_bar) triples the virtual-feedback
    slope at the origin, which is what lets the full four-compartment
    model reach extinction within a 2000-day horizon; the milder
    :func:`nominal_controller` stalls near a few individuals there.
    """
    return nominal_controller(p, eps=0.01)


@dataclass(frozen=True)
class ScenarioConfig:
    """One named run: plant, law and integration settings."""

    name: str
    params: BioParams
    controller: ControllerConfig
    variant: str
    model: str = "reduced"
    initial: tuple | None = None  # default: persistence equilibrium, Ms = 0
    t_end: float = 2000.0
    dt: float = 0.01
    record_every: int = 100
    extinction_threshold: float = DEFAULT_EXTINCTION_THRESHOLD

    def resolve_initial(self) -> tuple:
        if self.initial is not None:
            return self.initial
        eq = persistence_equilibrium(self.params)
        if self.model == "reduced":
            return (eq.F_bar, 0.0)
        return (eq.E_bar, eq.M_bar, eq.F_bar, 0.0)

    def sim_spec(self, plant: BioParams | None = None) -> SimSpec:
        """SimSpec driving ``plant`` (default: own params) with this scenario's law."""
        law = ControlLaw(variant=self.variant, config=self.controller, params=self.params)
        return SimSpec(
            model=self.model,
            law=law,
            initial=self.resolve_initial(),
            t_end=self.t_end,
            dt=self.dt,
            record_every=self.record_every,
            plant=plant,
        )


#: The study presets, written as the config files of the README's "Study runs".  The full-model and
#: robustness presets run the aggressive design (offset 0.01); the reduced one keeps the study gains.
PRESETS = {
    "nominal-reduced": "[sim]\n",
    "nominal-full": "[controller]\neps = 0.01\nvariant = global\n[sim]\nmodel = full\n",
    "open-loop": "[controller]\nvariant = none\n[sim]\nF0_ratio = 0.9\n",
    "robust-reduced": "[controller]\neps = 0.01\nvariant = global\n[sim]\ndt = 0.05\nrecord_every = 20\n",
    "robust-full": "[controller]\neps = 0.01\nvariant = global\n[sim]\nmodel = full\ndt = 0.05\nrecord_every = 20\n",
}


def scenario_from_config(sections: dict, name: str, params=None, **overrides) -> ScenarioConfig:
    """The scenario of a parsed config whose ``[params]`` built ``params`` (None: the table).

    ``[controller]`` overrides the gains of :func:`nominal_controller`, ``variant`` defaulting to
    ``plus``, and ``[sim]`` overrides ScenarioConfig's defaults.  An override replaces
    ``[controller] variant`` or a ``[sim]`` key and is parsed as that config line would be.
    ``F0_ratio`` scales the default F0 and excludes ``F0``; ``E0`` and ``M0`` need the full
    model.  A setting the integrator rejects is a ConfigError.
    """
    text = "".join(f"[{'controller' if key == 'variant' else 'sim'}]\n{key} = {value}\n"
                   for key, value in overrides.items())
    sections = dict(sections)
    for section, values in parse_config_text(text, source="override").items():
        sections[section] = sections.get(section, {}) | values
    p = NOMINAL_PARAMS if params is None else params
    design = dict(sections.get("controller", {}))
    variant = design.pop("variant", "plus")
    sim = sections.get("sim", {})
    settings = {key: value for key, value in sim.items() if key not in INITIAL_KEYS}
    scenario = ScenarioConfig(name, p, nominal_controller(p, **design), variant, **settings)
    if sim.keys() & INITIAL_KEYS:
        if "F0" in sim and "F0_ratio" in sim:
            raise ConfigError("[sim] specify at most one of F0, F0_ratio")
        if scenario.model == "reduced" and (full_only := [key for key in ("E0", "M0") if key in sim]):
            raise ConfigError(f"[sim] {' and '.join(full_only)}: full model only, got model = reduced")
        *aquatic, F, Ms = scenario.resolve_initial()
        aquatic = tuple(sim.get(key, x) for key, x in zip(("E0", "M0"), aquatic))
        initial = aquatic + (sim.get("F0", sim.get("F0_ratio", 1.0) * F), sim.get("Ms0", Ms))
        scenario = replace(scenario, initial=initial)
    try:
        scenario.sim_spec()
        if not scenario.extinction_threshold > 0.0:
            raise ValueError("extinction_threshold must be positive")
    except ControllerError:
        raise
    except ValueError as err:  # the message names the offending setting
        raise ConfigError(f"[sim] {err}") from None
    return scenario


def preset_scenario(name: str, **overrides) -> ScenarioConfig:
    """The :data:`PRESETS` entry ``name`` as a scenario; ``overrides`` as for :func:`scenario_from_config`."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; expected one of {', '.join(PRESETS)}")
    return scenario_from_config(parse_config_text(PRESETS[name], source=name), name, **overrides)


def guaranteed_rate(cfg: ControllerConfig, p: BioParams, global_variant: bool) -> float:
    """Certified decay rate: 2 min(delta_F - eps, eta[, sigma]) ."""
    rate = min(p.delta_F - cfg.eps, cfg.eta)
    if global_variant:
        rate = min(rate, sigma(cfg.F2, p))
    return 2.0 * rate


@dataclass
class ScenarioResult:
    """Artifacts and pass/fail verdict of one scenario run."""

    name: str
    trajectory: Trajectory
    decay: DecayReport | None
    extinction_time: float | None
    control_nonneg: bool
    budget_total: float
    passed: bool

    def summary_lines(self) -> list[str]:
        lines = [
            f"scenario = {self.name}",
            f"samples = {len(self.trajectory.times)}",
            f"termination = {self.trajectory.termination}",
            f"final_F = {float(self.trajectory.F[-1])!r}",
            f"control_nonneg = {self.control_nonneg}",
            f"budget_total = {self.budget_total!r}",
        ]
        if self.decay is not None:
            lines += [
                f"lambda_theory = {self.decay.lambda_theory!r}",
                f"lambda_fit = {self.decay.lambda_fit!r}",
                f"max_violation = {self.decay.max_violation!r}",
            ]
        if self.extinction_time is not None:
            lines.append(f"extinction_time = {self.extinction_time!r}")
        lines.append(f"passed = {self.passed}")
        return lines


def run_scenario(scenario: ScenarioConfig, csv=None) -> ScenarioResult:
    """Integrate and verify one scenario; write its trajectory CSV to the path ``csv`` when given."""
    traj = integrate(scenario.sim_spec())
    control_nonneg = bool(np.all(traj.controls >= 0.0))
    budget = control_budget(traj)
    decay = None
    extinction = detect_extinction(traj, scenario.extinction_threshold)  # None unless the run reached its horizon
    completed = traj.termination == TERMINATION_HORIZON
    if scenario.model == "reduced" and scenario.variant != "none":
        lam = guaranteed_rate(scenario.controller, scenario.params, scenario.variant == "global")
        decay = verify_decay(traj, lam)
        passed = decay.passed and control_nonneg and completed
    elif scenario.model == "full" and scenario.variant != "none":
        passed = extinction is not None and control_nonneg
    else:
        # open loop: success means the run completed (stability claims are test-side)
        passed = completed
    if csv is not None:
        write_trajectory_csv(traj, csv)
    return ScenarioResult(
        name=scenario.name,
        trajectory=traj,
        decay=decay,
        extinction_time=extinction,
        control_nonneg=control_nonneg,
        budget_total=budget,
        passed=passed,
    )


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent, machine-portable PCG64 stream for one trial index."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(trial,))))


def perturb_params(p: BioParams, fraction: float, rng: np.random.Generator):
    """Multiply each rate of DEFAULT_PERTURB_SET by an independent uniform factor in [1-f, 1+f].

    Draws are resampled until the perturbed set re-validates (the analysis
    presumes the model assumptions).  Returns (params, tries).
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"fraction must lie in [0, 1), got {fraction}")
    last_error = None
    for tries in range(1, MAX_PERTURB_TRIES + 1):
        factors = rng.uniform(1.0 - fraction, 1.0 + fraction, size=len(DEFAULT_PERTURB_SET))
        candidate = p.replace(**{name: getattr(p, name) * f for name, f in zip(DEFAULT_PERTURB_SET, factors)})
        try:
            return validate_params(candidate), tries
        except ParamError as err:
            last_error = err
    raise ParamError(
        f"no admissible perturbation after {MAX_PERTURB_TRIES} draws at fraction {fraction}; "
        f"last violation: {last_error}"
    )


@dataclass(frozen=True)
class RobustnessConfig:
    """Sweep settings: nominal scenario, trial count, uncertainty, seed."""

    base: ScenarioConfig
    trials: int = 20
    uncertainty: float = 0.10
    seed: int = 2024

    def __post_init__(self):
        for name in ("trials", "seed"):
            try:
                object.__setattr__(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be a whole number, got {getattr(self, name)!r}") from None
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ValueError(f"trials must lie in [1, MAX_TRIALS = {MAX_TRIALS}], got {self.trials}")
        if not 0.0 <= self.uncertainty < 1.0:
            raise ValueError("uncertainty must lie in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class TrialSummary:
    trial: int
    resamples: int  # extra draws needed before the set re-validated
    extinction_time: float | None
    max_control: float
    total_control: float
    control_nonneg: bool
    control_decreasing: bool  # fitted slope of u over the last half-horizon <= 0
    extinct: bool

    def line(self) -> str:
        return (
            f"trial={self.trial} resamples={self.resamples} extinct={self.extinct} "
            f"t_ext={self.extinction_time!r} u_max={self.max_control!r} "
            f"u_total={self.total_control!r} u_nonneg={self.control_nonneg} "
            f"u_decreasing={self.control_decreasing}"
        )


@dataclass
class RobustnessResult:
    trials: list[TrialSummary]

    @property
    def n_extinct(self) -> int:
        return sum(t.extinct for t in self.trials)

    @property
    def n_nonneg(self) -> int:
        return sum(t.control_nonneg for t in self.trials)

    @property
    def n_decreasing(self) -> int:
        return sum(t.control_decreasing for t in self.trials)

    @property
    def resample_rate(self) -> float:
        """Extra parameter draws per trial."""
        return sum(t.resamples for t in self.trials) / len(self.trials)

    @property
    def all_passed(self) -> bool:
        n = len(self.trials)
        return self.n_extinct == n and self.n_nonneg == n and self.n_decreasing == n

    def summary_lines(self) -> list[str]:
        lines = [t.line() for t in self.trials]
        n = len(self.trials)
        lines.append(
            f"aggregate extinct={self.n_extinct}/{n} nonneg={self.n_nonneg}/{n} "
            f"decreasing={self.n_decreasing}/{n} resample_rate={self.resample_rate!r}"
        )
        return lines


def _control_decreasing(traj: Trajectory) -> bool:
    """Trend of u over the last half-horizon: nonpositive fitted slope.

    The window holds at least the last two samples, so a short run still
    fits a line; a run with a single sample has no trend and counts as
    decreasing.
    """
    t = traj.times
    start = max(0, min(int(np.searchsorted(t, 0.5 * t[-1])), len(t) - 2))
    u = traj.controls[start:]
    if len(u) < 2 or np.all(u == 0.0):
        return True
    slope = np.polyfit(t[start:], u, 1)[0]
    return bool(slope <= 0.0)


def _trial(config: RobustnessConfig, trial: int) -> TrialSummary:
    """One trial of the sweep: perturb the plant with the trial's own stream, drive it with the nominal law."""
    base = config.base
    plant, tries = perturb_params(base.params, config.uncertainty, trial_rng(config.seed, trial))
    traj = integrate(base.sim_spec(plant))
    ext = detect_extinction(traj, base.extinction_threshold)
    return TrialSummary(
        trial=trial,
        resamples=tries - 1,
        extinction_time=ext,
        max_control=float(np.max(traj.controls)),
        total_control=control_budget(traj),
        control_nonneg=bool(np.all(traj.controls >= 0.0)),
        control_decreasing=_control_decreasing(traj),
        extinct=ext is not None,
    )


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_robustness(config: RobustnessConfig) -> RobustnessResult:
    """Drive perturbed plants with the unperturbed nominal law, one :func:`_trial` per trial.

    The step gate of :meth:`SimSpec.check_step` is checked once, at the plant's rates times
    ``1 + uncertainty``, before any trial runs (a ConfigError), so no trial fails on it part way.
    Trials run on ``min(trials, usable CPUs)`` threads of this process; usable CPUs are the process's
    affinity mask where the OS has one (so ``taskset -c 0`` gives one thread), else ``os.cpu_count()``.
    A trial spends most of its time in one call of the C driver, which releases the GIL, so the threads
    run in parallel; with no C compiler the trials are pure Python and run at one thread's speed.
    Each trial is a pure function of the config and its index, and results come back in trial order,
    so the summaries are byte-identical to a one-thread run.  A failing trial fails the sweep with its
    own exception, the first in trial order; the pending trials are cancelled and every worker thread
    has exited before it propagates.
    """
    try:
        config.base.sim_spec().check_step(1.0 + config.uncertainty)
    except ValueError as err:
        raise ConfigError(f"[sim] {err}, at uncertainty {config.uncertainty!r}") from None
    from concurrent.futures import ThreadPoolExecutor  # imported here: ``import sitctl`` need not pay for it

    # a trial that raises ends map's iteration, which cancels the trials not yet started; the with joins the threads
    with ThreadPoolExecutor(min(config.trials, _usable_cpus())) as pool:
        return RobustnessResult(trials=list(pool.map(partial(_trial, config), range(config.trials))))
