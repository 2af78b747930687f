"""Fixed-step closed-loop integration with nonnegativity guards.

The feedback is re-evaluated from the state at every Runge-Kutta stage
(pure continuous-time state feedback, no sample-and-hold).  Tiny negative
overshoots after a step are integrator artifacts and get clamped to zero;
anything beyond the clamp tolerance signals a genuinely negative release
rate or an oversized step and aborts the run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control import ControlLaw, lyapunov_V
from .model import BioParams, full_rhs, validate_params

TERMINATION_HORIZON = "horizon"
TERMINATION_EXTINCTION = "extinction-threshold"
TERMINATION_NONNEG = "nonnegativity-violation"


class NonnegativityError(RuntimeError):
    """A state component left the nonnegative domain by more than clamp_tol."""


@dataclass(frozen=True)
class SimSpec:
    """Everything needed to reproduce one closed-loop run."""

    model: str  # 'reduced' or 'full'
    law: ControlLaw
    initial: tuple  # (F, Ms) or (E, M, F, Ms)
    t_end: float
    dt: float = 0.01
    record_every: int = 100
    stop_when_F_below: float | None = None
    plant: BioParams | None = None  # drives the dynamics; default: the law's params

    def __post_init__(self):
        if self.model not in ("reduced", "full"):
            raise ValueError(f"model must be 'reduced' or 'full', got {self.model!r}")
        expected = 2 if self.model == "reduced" else 4
        if len(self.initial) != expected:
            raise ValueError(f"{self.model} model needs {expected} initial components")
        if any(x < 0.0 for x in self.initial):
            raise ValueError("initial state must be nonnegative")
        if not self.t_end > 0.0:
            raise ValueError("t_end must be positive")
        if not 0.0 < self.dt <= 0.1:
            raise ValueError("dt must lie in (0, 0.1] (stability margin vs the fastest rates)")
        if abs(round(self.t_end / self.dt) * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ValueError(f"t_end={self.t_end} must be a whole number of dt={self.dt} steps")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.plant is not None:
            validate_params(self.plant)


@dataclass
class Trajectory:
    """Recorded samples of one run.

    ``states`` has one row per sample: (F, Ms) for the reduced model,
    (E, M, F, Ms) for the full one.  ``lyapunov`` is present only for
    reduced runs whose law carries a controller config.
    """

    model: str
    times: np.ndarray
    states: np.ndarray
    controls: np.ndarray
    lyapunov: np.ndarray | None
    termination: str = TERMINATION_HORIZON
    max_clamp: float = 0.0

    @property
    def F(self) -> np.ndarray:
        return self.states[:, 0] if self.model == "reduced" else self.states[:, 2]

    @property
    def Ms(self) -> np.ndarray:
        return self.states[:, 1] if self.model == "reduced" else self.states[:, 3]

    def columns(self) -> list[str]:
        cols = ["t", "F", "Ms"]
        if self.model == "full":
            cols += ["E", "M"]
        cols.append("u")
        if self.lyapunov is not None:
            cols.append("V")
        return cols

    def rows(self):
        for i, t in enumerate(self.times):
            row = [t]
            if self.model == "reduced":
                row += [self.states[i, 0], self.states[i, 1]]
            else:
                row += [self.states[i, 2], self.states[i, 3], self.states[i, 0], self.states[i, 1]]
            row.append(self.controls[i])
            if self.lyapunov is not None:
                row.append(self.lyapunov[i])
            yield row


def step_rk4(state, t, dt, f, clamp_tol=0.0):
    """One classical RK4 step of ds/dt = f(t, s) with boundary clamping.

    ``state`` is a tuple; ``f`` returns a tuple of the same length and is
    expected to fold the feedback in, so the control is re-evaluated at
    each stage.  Components in (-clamp_tol, 0) after the step are set to
    0; larger undershoots raise :class:`NonnegativityError`.

    Returns ``(next_state, clamp_amount)`` where the second entry is the
    largest clamped magnitude (0.0 when nothing was clamped).
    """
    h2 = 0.5 * dt
    k1 = f(t, state)
    k2 = f(t + h2, tuple(s + h2 * d for s, d in zip(state, k1)))
    k3 = f(t + h2, tuple(s + h2 * d for s, d in zip(state, k2)))
    k4 = f(t + dt, tuple(s + dt * d for s, d in zip(state, k3)))
    sixth = dt / 6.0
    nxt = tuple(
        s + sixth * (a + 2.0 * (b + c) + d)
        for s, a, b, c, d in zip(state, k1, k2, k3, k4)
    )
    clamped = 0.0
    if any(x < 0.0 for x in nxt):
        worst = -min(nxt)
        if worst > clamp_tol:
            raise NonnegativityError(
                f"state component undershot to {-worst} (beyond clamp_tol={clamp_tol}) at t={t + dt}; "
                "the control is negative somewhere or dt is too large"
            )
        clamped = worst
        nxt = tuple(x if x >= 0.0 else 0.0 for x in nxt)
    return nxt, clamped


def _closed_loop_field(spec: SimSpec, u):
    """Fused RHS closure for the chosen model, feedback ``u(F, Ms)`` folded in."""
    p = spec.law.params if spec.plant is None else spec.plant
    if spec.model == "reduced":
        delta_F, delta_s = p.delta_F, p.delta_s
        beta_E, gamma_s, nu_E, nu = p.beta_E, p.gamma_s, p.nu_E, p.nu
        delta_E, delta_M, k = p.delta_E, p.delta_M, p.k
        A = nu * (1.0 - nu) * beta_E**2 * nu_E**2

        def field(t, s):
            F, Ms = s
            if F == 0.0:
                gv = 0.0
            else:
                a = beta_E * F / k + nu_E + delta_E
                gv = A * F * F / (a * ((1.0 - nu) * nu_E * beta_E * F + a * delta_M * gamma_s * Ms))
            return (gv - delta_F * F, u(F, Ms) - delta_s * Ms)

        return field

    def field(t, s):
        return full_rhs(s, u(s[2], s[3]), p)

    return field


def integrate(spec: SimSpec) -> Trajectory:
    """Run the closed loop to the horizon (or early termination).

    Deterministic: the same spec always yields bit-identical samples.
    """
    u = spec.law.evaluator()
    f = _closed_loop_field(spec, u)
    cfg = spec.law.config
    p = spec.law.params  # the Lyapunov target is the law's, whatever the plant
    record_V = spec.model == "reduced" and cfg is not None
    clamp_tol = 1e-9 * math.sqrt(sum(x * x for x in spec.initial))
    n_steps = max(1, round(spec.t_end / spec.dt))

    def u_of(state):
        F, Ms = (state[0], state[1]) if spec.model == "reduced" else (state[2], state[3])
        return u(F, Ms)

    times, states, controls, lyap = [], [], [], []

    def record(t, state):
        times.append(t)
        states.append(state)
        controls.append(u_of(state))
        if record_V:
            lyap.append(lyapunov_V(*state, cfg, p))

    state = tuple(float(x) for x in spec.initial)
    record(0.0, state)
    termination = TERMINATION_HORIZON
    max_clamp = 0.0
    F_index = 0 if spec.model == "reduced" else 2
    for i in range(1, n_steps + 1):
        t_prev = (i - 1) * spec.dt
        try:
            state, clamped = step_rk4(state, t_prev, spec.dt, f, clamp_tol)
        except NonnegativityError:
            termination = TERMINATION_NONNEG
            break
        max_clamp = max(max_clamp, clamped)
        t = i * spec.dt
        if i % spec.record_every == 0:
            record(t, state)
        elif i == n_steps:
            record(t, state)
        if spec.stop_when_F_below is not None and state[F_index] < spec.stop_when_F_below:
            if i % spec.record_every != 0 and i != n_steps:
                record(t, state)
            termination = TERMINATION_EXTINCTION
            break

    return Trajectory(
        model=spec.model,
        times=np.array(times),
        states=np.array(states),
        controls=np.array(controls),
        lyapunov=np.array(lyap) if record_V else None,
        termination=termination,
        max_clamp=max_clamp,
    )


def detect_extinction(traj: Trajectory, threshold: float):
    """Earliest sample time after which F stays below ``threshold``, else None."""
    if not threshold > 0.0:
        raise ValueError("threshold must be positive")
    F = traj.F
    below = F < threshold
    if not below[-1]:
        return None
    # last index where F was at or above threshold
    above = np.nonzero(~below)[0]
    first = 0 if len(above) == 0 else above[-1] + 1
    return float(traj.times[first])
