"""Scenario execution and the parameter-uncertainty robustness sweep.

A scenario bundles plant parameters, a controller variant and simulation
settings; running one integrates the closed loop, verifies the decay
certificate (reduced model) or the extinction threshold (full model) and
writes the trajectory CSV plus a machine-readable summary.

The robustness sweep feeds the *nominal* control law to plants whose
parameters carry independent uniform multiplicative perturbations;
perturbed sets that break the model assumptions are resampled, and the
resample rate is reported.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .configio import ConfigError, write_trajectory_csv
from .control import ControlLaw, ControllerConfig, sigma
from .model import BioParams, ParamError, persistence_equilibrium, validate_params
from .simulate import SimSpec, Trajectory, integrate, detect_extinction
from .verify import DecayReport, control_budget, verify_decay

#: Table of nominal biological rates used throughout the study.
NOMINAL_PARAMS = BioParams(
    beta_E=10.0, gamma_s=1.0, nu_E=0.005, nu=0.49,
    delta_E=0.03, delta_M=0.1, delta_F=0.04, delta_s=0.12, k=212370.0,
)

#: The rates subject to uncertainty; the capacity k is excluded
#: (robustness to capacity errors is a separate question).
DEFAULT_PERTURB_SET = ("beta_E", "gamma_s", "nu_E", "nu", "delta_E", "delta_M", "delta_F", "delta_s")

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
    controller: ControllerConfig | None
    variant: str
    model: str = "reduced"
    initial: tuple | None = None  # default: persistence equilibrium, Ms = 0
    t_end: float = 2000.0
    dt: float = 0.01
    record_every: int = 100
    extinction_threshold: float = DEFAULT_EXTINCTION_THRESHOLD
    out_dir: Path | None = None

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


def preset_scenario(name: str, **overrides) -> ScenarioConfig:
    """Named study setups: nominal-reduced, nominal-full, open-loop, robust-reduced, robust-full.

    The full-model and robustness presets run the aggressive controller
    (offset 0.01); the reduced nominal preset keeps the ceiling-primary
    gains whose certificates the verification suite checks.
    """
    p = NOMINAL_PARAMS
    if name == "nominal-reduced":
        base = ScenarioConfig(name=name, params=p, controller=nominal_controller(p), variant="plus", model="reduced")
    elif name == "nominal-full":
        base = ScenarioConfig(name=name, params=p, controller=strong_controller(p), variant="global", model="full")
    elif name == "open-loop":
        eq = persistence_equilibrium(p)
        base = ScenarioConfig(
            name=name, params=p, controller=nominal_controller(p), variant="none", model="reduced",
            initial=(0.9 * eq.F_bar, 0.0),
        )
    elif name in ("robust-reduced", "robust-full"):
        model = name.removeprefix("robust-")
        base = ScenarioConfig(
            name=name, params=p, controller=strong_controller(p), variant="global", model=model,
            dt=0.05, record_every=20,
        )
    else:
        raise ConfigError(
            f"unknown preset {name!r}; expected nominal-reduced, nominal-full, open-loop, "
            "robust-reduced or robust-full"
        )
    return replace(base, **overrides) if overrides else base


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


def run_scenario(scenario: ScenarioConfig) -> ScenarioResult:
    """Integrate, verify and (optionally) write artifacts for one scenario."""
    traj = integrate(scenario.sim_spec())
    control_nonneg = bool(np.all(traj.controls >= 0.0))
    budget = control_budget(traj)
    decay = None
    extinction = detect_extinction(traj, scenario.extinction_threshold)
    if scenario.model == "reduced" and scenario.variant in ("raw", "plus", "global"):
        lam = guaranteed_rate(scenario.controller, scenario.params, scenario.variant == "global")
        decay = verify_decay(traj, lam)
        passed = decay.passed and control_nonneg and traj.termination != "nonnegativity-violation"
    elif scenario.model == "full" and scenario.variant in ("raw", "plus", "global"):
        passed = extinction is not None and control_nonneg
    else:
        # open loop: success means the run completed (stability claims are test-side)
        passed = traj.termination != "nonnegativity-violation"
    result = ScenarioResult(
        name=scenario.name,
        trajectory=traj,
        decay=decay,
        extinction_time=extinction,
        control_nonneg=control_nonneg,
        budget_total=budget.total,
        passed=passed,
    )
    if scenario.out_dir is not None:
        out = Path(scenario.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_trajectory_csv(traj, out / f"{scenario.name}.csv")
        (out / f"{scenario.name}.summary.txt").write_text("\n".join(result.summary_lines()) + "\n")
    return result


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent, machine-portable PCG64 stream for one trial index."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(trial,))))


def perturb_params(
    p: BioParams,
    fraction: float,
    rng: np.random.Generator,
    max_tries: int = 100,
):
    """Multiply each rate of DEFAULT_PERTURB_SET by an independent uniform factor in [1-f, 1+f].

    Draws are resampled until the perturbed set re-validates (the analysis
    presumes the model assumptions).  Returns (params, tries).
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"fraction must lie in [0, 1), got {fraction}")
    last_error = None
    for tries in range(1, max_tries + 1):
        factors = rng.uniform(1.0 - fraction, 1.0 + fraction, size=len(DEFAULT_PERTURB_SET))
        candidate = p.replace(**{name: getattr(p, name) * f for name, f in zip(DEFAULT_PERTURB_SET, factors)})
        try:
            return validate_params(candidate), tries
        except ParamError as err:
            last_error = err
    raise ParamError(
        f"no admissible perturbation after {max_tries} draws at fraction {fraction}; "
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
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0.0 <= self.uncertainty < 1.0:
            raise ValueError("uncertainty must lie in [0, 1)")


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
    n_extinct: int
    n_nonneg: int
    n_decreasing: int
    resample_rate: float

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


def run_robustness(config: RobustnessConfig) -> RobustnessResult:
    """Drive perturbed plants with the unperturbed nominal law, trial by trial."""
    base = config.base
    summaries = []
    total_draws = 0
    for trial in range(config.trials):
        rng = trial_rng(config.seed, trial)
        plant, tries = perturb_params(base.params, config.uncertainty, rng)
        total_draws += tries
        traj = integrate(base.sim_spec(plant))
        ext = detect_extinction(traj, base.extinction_threshold)
        summaries.append(
            TrialSummary(
                trial=trial,
                resamples=tries - 1,
                extinction_time=ext,
                max_control=float(np.max(traj.controls)),
                total_control=control_budget(traj).total,
                control_nonneg=bool(np.all(traj.controls >= 0.0)),
                control_decreasing=_control_decreasing(traj),
                extinct=ext is not None,
            )
        )
    return RobustnessResult(
        trials=summaries,
        n_extinct=sum(s.extinct for s in summaries),
        n_nonneg=sum(s.control_nonneg for s in summaries),
        n_decreasing=sum(s.control_decreasing for s in summaries),
        resample_rate=(total_draws - config.trials) / config.trials,
    )
