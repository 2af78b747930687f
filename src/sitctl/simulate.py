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
from .model import BioParams, validate_params

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


def _clamp(nxt, clamp_tol, t=None):
    """Zero the components of ``nxt`` in (-clamp_tol, 0); raise beyond that.

    ``t``, the time the step reached, only goes into the error message.
    Returns ``(clamped_state, largest_clamped_magnitude)``.
    """
    worst = -min(nxt)
    if worst > clamp_tol:
        at = "" if t is None else f" at t={t}"
        raise NonnegativityError(
            f"state component undershot to {-worst} (beyond clamp_tol={clamp_tol}){at}; "
            "the control is negative somewhere or dt is too large"
        )
    return tuple(x if x >= 0.0 else 0.0 for x in nxt), worst


def step_rk4(state, t, dt, f, clamp_tol=0.0):
    """One classical RK4 step of ds/dt = f(t, s) with boundary clamping.

    The generic reference stepper: :func:`integrate` runs an unrolled
    per-model copy of this step and matches it bit for bit.  ``state`` is
    a tuple; ``f`` returns a tuple of the same length and is expected to
    fold the feedback in, so the control is re-evaluated at each stage.
    Components in (-clamp_tol, 0) after the step are set to 0; larger
    undershoots raise :class:`NonnegativityError`.

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
    if any(x < 0.0 for x in nxt):
        return _clamp(nxt, clamp_tol, t + dt)
    return nxt, 0.0


def _closed_loop_step(spec: SimSpec, u, clamp_tol: float):
    """RK4 step closure ``state -> (next_state, clamp_amount)`` for the spec's model.

    :func:`step_rk4` written out for two (reduced) or four (full)
    components, with the vector field inlined and the feedback ``u(F,
    Ms)`` re-evaluated at each stage.  Every sum and product keeps the
    association of ``step_rk4``, ``g`` and ``full_rhs``, so the result is
    the same to the last bit.
    """
    p = spec.law.params if spec.plant is None else spec.plant
    beta_E, gamma_s, nu_E, nu = p.beta_E, p.gamma_s, p.nu_E, p.nu
    delta_E, delta_M, delta_F, delta_s, k = p.delta_E, p.delta_M, p.delta_F, p.delta_s, p.k
    dt = spec.dt
    h2 = 0.5 * dt
    sixth = dt / 6.0

    if spec.model == "reduced":
        A = nu * (1.0 - nu) * beta_E**2 * nu_E**2
        male_rate = (1.0 - nu) * nu_E * beta_E

        def rates(F, Ms):
            a = beta_E * F / k + nu_E + delta_E
            scale = a * (male_rate * F + a * delta_M * gamma_s * Ms)
            gv = 0.0 if F == 0.0 or scale == 0.0 else A * F * F / scale
            return gv - delta_F * F, u(F, Ms) - delta_s * Ms

        def step(state):
            F, Ms = state
            dF1, dMs1 = rates(F, Ms)
            dF2, dMs2 = rates(F + h2 * dF1, Ms + h2 * dMs1)
            dF3, dMs3 = rates(F + h2 * dF2, Ms + h2 * dMs2)
            dF4, dMs4 = rates(F + dt * dF3, Ms + dt * dMs3)
            nxt = (F + sixth * (dF1 + 2.0 * (dF2 + dF3) + dF4), Ms + sixth * (dMs1 + 2.0 * (dMs2 + dMs3) + dMs4))
            if nxt[0] < 0.0 or nxt[1] < 0.0:
                return _clamp(nxt, clamp_tol)
            return nxt, 0.0

        return step

    egg_loss = nu_E + delta_E
    male_birth = (1.0 - nu) * nu_E
    female_birth = nu * nu_E

    def rates(E, M, F, Ms):
        males = M + gamma_s * Ms
        mating = M / males if males > 0.0 else 0.0
        return (
            beta_E * F * (1.0 - E / k) - egg_loss * E,
            male_birth * E - delta_M * M,
            female_birth * E * mating - delta_F * F,
            u(F, Ms) - delta_s * Ms,
        )

    def step(state):
        E, M, F, Ms = state
        dE1, dM1, dF1, dMs1 = rates(E, M, F, Ms)
        dE2, dM2, dF2, dMs2 = rates(E + h2 * dE1, M + h2 * dM1, F + h2 * dF1, Ms + h2 * dMs1)
        dE3, dM3, dF3, dMs3 = rates(E + h2 * dE2, M + h2 * dM2, F + h2 * dF2, Ms + h2 * dMs2)
        dE4, dM4, dF4, dMs4 = rates(E + dt * dE3, M + dt * dM3, F + dt * dF3, Ms + dt * dMs3)
        nxt = (
            E + sixth * (dE1 + 2.0 * (dE2 + dE3) + dE4),
            M + sixth * (dM1 + 2.0 * (dM2 + dM3) + dM4),
            F + sixth * (dF1 + 2.0 * (dF2 + dF3) + dF4),
            Ms + sixth * (dMs1 + 2.0 * (dMs2 + dMs3) + dMs4),
        )
        if nxt[0] < 0.0 or nxt[1] < 0.0 or nxt[2] < 0.0 or nxt[3] < 0.0:
            return _clamp(nxt, clamp_tol)
        return nxt, 0.0

    return step


def integrate(spec: SimSpec) -> Trajectory:
    """Run the closed loop to the horizon (or early termination).

    Deterministic: the same spec always yields bit-identical samples.
    """
    u = spec.law.evaluator()
    cfg = spec.law.config
    p = spec.law.params  # the Lyapunov target is the law's, whatever the plant
    record_V = spec.model == "reduced" and cfg is not None
    step = _closed_loop_step(spec, u, 1e-9 * math.sqrt(sum(x * x for x in spec.initial)))
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
    dt, every, stop = spec.dt, spec.record_every, spec.stop_when_F_below
    for i in range(1, n_steps + 1):
        try:
            state, clamped = step(state)
        except NonnegativityError:
            termination = TERMINATION_NONNEG
            break
        max_clamp = max(max_clamp, clamped)
        recorded = i % every == 0 or i == n_steps
        if recorded:
            record(i * dt, state)
        if stop is not None and state[F_index] < stop:
            if not recorded:
                record(i * dt, state)
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
