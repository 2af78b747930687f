"""Fixed-step closed-loop integration with nonnegativity guards.

The law gives ``u``, a field takes it (:func:`_closed_loop_rates`), and
:func:`_rk4_step` steps the rates, so the feedback is re-evaluated at every
Runge-Kutta stage (no sample-and-hold).  Tiny negative
overshoots after a step are integrator artifacts and get clamped to zero;
anything beyond the clamp tolerance signals a genuinely negative release
rate or an oversized step and aborts the run, and so does a NaN or infinite state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .control import ControlLaw, lyapunov_V
from .model import MAX_MAGNITUDE, BioParams, full_field, loss_rates, reduced_field, validate_params

TERMINATION_HORIZON = "horizon"
TERMINATION_NONNEG = "nonnegativity-violation"
TERMINATION_NONFINITE = "non-finite"
MAX_STEPS = 10**8  # 500x a 2000-day run at dt 0.01
#: RK4 damps a linear decay at rate r only while dt * r stays below about 2.785 (its stability interval on the
#: negative real axis ends at the root 2.78529... of x^3 - 4x^2 + 12x - 24); beyond it the step amplifies.
RK4_REAL_LIMIT = 2.785


class NonnegativityError(RuntimeError):
    """A state component left the nonnegative domain by more than clamp_tol."""


class NonFiniteError(ArithmeticError):
    """A state component became NaN or infinite."""


@dataclass(frozen=True)
class SimSpec:
    """Everything needed to reproduce one closed-loop run."""

    model: str  # 'reduced' or 'full'
    law: ControlLaw
    initial: tuple  # (F, Ms) or (E, M, F, Ms)
    t_end: float
    dt: float = 0.01
    record_every: int = 100
    plant: BioParams | None = None  # drives the dynamics; default: the law's params

    def __post_init__(self):
        if self.model not in ("reduced", "full"):
            raise ValueError(f"model must be 'reduced' or 'full', got {self.model!r}")
        expected = 2 if self.model == "reduced" else 4
        if len(self.initial) != expected:
            raise ValueError(f"{self.model} model needs {expected} initial components")
        if not all(0.0 <= x < math.inf for x in self.initial):
            raise ValueError("initial state must be nonnegative and finite")
        for name, x in zip(("E0", "M0", "F0", "Ms0")[-expected:], self.initial):
            if x > MAX_MAGNITUDE:
                raise ValueError(f"initial {name} = {x} exceeds MAX_MAGNITUDE = {MAX_MAGNITUDE:.0e}")
        if not 0.0 < self.t_end < math.inf:
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if not 0.0 < self.dt <= 0.1:
            raise ValueError("dt must lie in (0, 0.1] (stability margin vs the fastest rates)")
        if self.t_end / self.dt > MAX_STEPS:
            raise ValueError(f"t_end/dt = {self.t_end / self.dt:.3g} steps exceeds MAX_STEPS = {MAX_STEPS:.0e}")
        if abs(round(self.t_end / self.dt) * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ValueError(f"t_end={self.t_end} must be a whole number of dt={self.dt} steps")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.plant is not None:
            validate_params(self.plant)
        self.check_step()

    def check_step(self, plant_scale: float = 1.0):
        """Raise ValueError when ``dt`` times a linear decay rate of the closed loop passes :data:`RK4_REAL_LIMIT`.

        The rates are the plant's loss rates (:func:`~sitctl.model.loss_rates`), each times
        ``plant_scale``, and the gain ``eta`` of a feedback law; ``Ms`` then relaxes at ``eta``.
        """
        plant = self.law.params if self.plant is None else self.plant
        rates = {name: plant_scale * rate for name, rate in loss_rates(plant, self.model).items()}
        if self.law.variant != "none":
            rates["eta"] = self.law.config.eta
        name, rate = max(rates.items(), key=lambda item: item[1])
        if self.dt * rate > RK4_REAL_LIMIT:
            scaled = f" ({plant_scale!r} times the plant's)" if name != "eta" and plant_scale != 1.0 else ""
            raise ValueError(
                f"dt = {self.dt!r} times the decay rate {name} = {rate!r}{scaled} is {self.dt * rate:.4g}, "
                f"past RK4's stability limit {RK4_REAL_LIMIT} on the real axis"
            )


@dataclass
class Trajectory:
    """Recorded samples of one run.

    ``states`` has one row per sample, (F, Ms) or (E, M, F, Ms): F and Ms
    come last in both models.  ``controls`` is u and ``lyapunov`` is V at
    each sample; V is present for reduced runs only.
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
        return self.states[:, -2]

    @property
    def Ms(self) -> np.ndarray:
        return self.states[:, -1]

    def table(self) -> tuple[list[str], np.ndarray]:
        """The run record in CSV order: header t,F,Ms[,E,M],u[,V] and one row per sample."""
        aquatic = {"E": self.states[:, 0], "M": self.states[:, 1]} if self.model == "full" else {}
        V = {} if self.lyapunov is None else {"V": self.lyapunov}
        columns = {"t": self.times, "F": self.F, "Ms": self.Ms, **aquatic, "u": self.controls, **V}
        return list(columns), np.column_stack(list(columns.values()))


def _clamp(nxt, clamp_tol, t=None):
    """Zero the components of ``nxt`` in (-clamp_tol, 0); raise beyond that or on a NaN or infinity.

    ``t``, the time the step reached, only goes into the error message.
    Returns ``(clamped_state, largest_clamped_magnitude)``.
    """
    at = "" if t is None else f" at t={t}"
    if not all(abs(x) < math.inf for x in nxt):
        raise NonFiniteError(f"state component is not finite{at}: {nxt}")
    worst = -min(nxt)
    if worst > clamp_tol:
        raise NonnegativityError(
            f"state component undershot to {-worst} (beyond clamp_tol={clamp_tol}){at}; "
            "the control is negative somewhere or dt is too large"
        )
    return tuple(x if x >= 0.0 else 0.0 for x in nxt), worst


def step_rk4(state, t, dt, f, clamp_tol=0.0):
    """One classical RK4 step of ds/dt = f(t, s) with boundary clamping.

    The generic reference stepper: :func:`_rk4_step`, which
    :func:`integrate` runs, is its unrolled copy, bit for bit.  ``state`` is
    a tuple; ``f`` returns a tuple of the same length and is expected to
    fold the feedback in, so the control is re-evaluated at each stage.
    Components in (-clamp_tol, 0) after the step are set to 0; larger
    undershoots raise :class:`NonnegativityError`, and a NaN or infinite
    component raises :class:`NonFiniteError`.

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
    if any(not 0.0 <= x < math.inf for x in nxt):  # NaN fails the test too, and so does inf
        return _clamp(nxt, clamp_tol, t + dt)
    return nxt, 0.0


def _closed_loop_rates(spec: SimSpec):
    """The spec's closed-loop rates ``state -> d(state)/dt``, feedback folded in.

    The one place that picks them: a reduced run of a feedback law on the
    law's own params takes the law's rates (``ControlLaw._reduced_rates``,
    ``g`` once per stage); every other run takes the model's field on the
    plant under ``law.evaluator()``.
    """
    law = spec.law
    if spec.model == "reduced" and spec.plant is None and law.variant != "none":
        return law._reduced_rates()
    field = reduced_field if spec.model == "reduced" else full_field
    return field(law.params if spec.plant is None else spec.plant, law.evaluator())


def _rk4_step(rates, n: int, dt: float, clamp_tol: float):
    """:func:`step_rk4` over ``rates`` unrolled for ``n`` = 2 or 4 components: ``state -> (next, clamp)``.

    The two bodies have the same shape and call only ``rates``; every sum
    keeps the association of ``step_rk4``, so the result is the same to
    the last bit.
    """
    h2, sixth, inf = 0.5 * dt, dt / 6.0, math.inf
    if n == 2:
        def step(state):
            x, y = state
            dx1, dy1 = rates(x, y)
            dx2, dy2 = rates(x + h2 * dx1, y + h2 * dy1)
            dx3, dy3 = rates(x + h2 * dx2, y + h2 * dy2)
            dx4, dy4 = rates(x + dt * dx3, y + dt * dy3)
            nxt = (x + sixth * (dx1 + 2.0 * (dx2 + dx3) + dx4), y + sixth * (dy1 + 2.0 * (dy2 + dy3) + dy4))
            if not 0.0 <= nxt[0] < inf or not 0.0 <= nxt[1] < inf:  # NaN fails the test too, and so does inf
                return _clamp(nxt, clamp_tol)
            return nxt, 0.0

        return step

    def step(state):
        w, x, y, z = state
        dw1, dx1, dy1, dz1 = rates(w, x, y, z)
        dw2, dx2, dy2, dz2 = rates(w + h2 * dw1, x + h2 * dx1, y + h2 * dy1, z + h2 * dz1)
        dw3, dx3, dy3, dz3 = rates(w + h2 * dw2, x + h2 * dx2, y + h2 * dy2, z + h2 * dz2)
        dw4, dx4, dy4, dz4 = rates(w + dt * dw3, x + dt * dx3, y + dt * dy3, z + dt * dz3)
        nxt = (
            w + sixth * (dw1 + 2.0 * (dw2 + dw3) + dw4),
            x + sixth * (dx1 + 2.0 * (dx2 + dx3) + dx4),
            y + sixth * (dy1 + 2.0 * (dy2 + dy3) + dy4),
            z + sixth * (dz1 + 2.0 * (dz2 + dz3) + dz4),
        )
        if not 0.0 <= nxt[0] < inf or not 0.0 <= nxt[1] < inf or not 0.0 <= nxt[2] < inf or not 0.0 <= nxt[3] < inf:
            return _clamp(nxt, clamp_tol)
        return nxt, 0.0

    return step


def integrate(spec: SimSpec) -> Trajectory:
    """Run the closed loop to the horizon, or until a step leaves the nonnegative domain or turns NaN or infinite.

    Deterministic: the same spec always yields bit-identical samples.  Steps
    of :func:`_rk4_step` over :func:`_closed_loop_rates` run in chunks of
    ``record_every`` (the last one may be shorter), each followed by one
    sample ``(i * dt, state)``; the loop records nothing else.  After it,
    ``controls`` maps ``law.evaluator()`` over the sampled (F, Ms) and
    ``lyapunov`` is one array call of :func:`lyapunov_V`, both rounding
    exactly as per-sample float calls would.
    """
    clamp_tol = 1e-9 * math.sqrt(sum(x * x for x in spec.initial))
    step = _rk4_step(_closed_loop_rates(spec), len(spec.initial), spec.dt, clamp_tol)
    n_steps = max(1, round(spec.t_end / spec.dt))

    state = tuple(float(x) for x in spec.initial)
    times, states = [0.0], [state]
    termination = TERMINATION_HORIZON
    max_clamp = 0.0
    dt, every = spec.dt, spec.record_every
    try:
        for start in range(0, n_steps, every):  # a chunk of steps, then one sample
            end = min(start + every, n_steps)
            for _ in range(start, end):
                state, clamped = step(state)
                if clamped > max_clamp:
                    max_clamp = clamped
            times.append(end * dt)
            states.append(state)
    except NonnegativityError:
        termination = TERMINATION_NONNEG
    except NonFiniteError:
        termination = TERMINATION_NONFINITE

    states = np.array(states)
    F, Ms = states[:, -2], states[:, -1]
    u = spec.law.evaluator()
    lyapunov = None
    if spec.model == "reduced":
        with np.errstate(over="ignore", invalid="ignore"):  # float arithmetic: inf and nan, no warning
            lyapunov = lyapunov_V(F, Ms, spec.law.config, spec.law.params)  # the law's target, whatever the plant
    return Trajectory(
        model=spec.model,
        times=np.array(times),
        states=states,
        controls=np.array([u(f, m) for f, m in zip(F.tolist(), Ms.tolist())]),
        lyapunov=lyapunov,
        termination=termination,
        max_clamp=max_clamp,
    )


def detect_extinction(traj: Trajectory, threshold: float):
    """Earliest sample time after which F stays below ``threshold`` up to the horizon, else None.

    A run that stopped before its horizon has no extinction time.
    """
    if not threshold > 0.0:
        raise ValueError("threshold must be positive")
    if traj.termination != TERMINATION_HORIZON:
        return None
    F = traj.F
    below = F < threshold
    if not below[-1]:
        return None
    # last index where F was at or above threshold
    above = np.nonzero(~below)[0]
    first = 0 if len(above) == 0 else above[-1] + 1
    return float(traj.times[first])
