"""Fixed-step closed-loop integration with nonnegativity guards.

One generated RK4 kernel per closed loop (:func:`_kernel`) writes each stage
out as the law's body, which gives ``u``, then the plant's field, which takes
it, so the feedback is re-evaluated at every Runge-Kutta stage (no
sample-and-hold); after its steps it runs the law's body once more, for ``u``
at the state it reached.  :func:`_record` is the record rule: a sample of the
state and of ``u`` after each ``record_every`` steps.  :func:`kernel` records
a run through :mod:`sitctl.native`, as compiled C in one call where it can,
else as :func:`_record`, with the same bits.  Tiny negative
overshoots after a step are integrator artifacts and get clamped to zero;
anything beyond the clamp tolerance signals a genuinely negative release
rate or an oversized step and aborts the run, and so does a NaN or infinite state.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from textwrap import indent

import numpy as np

from .control import ControlLaw, lyapunov_V
from .model import FIELDS, MAX_MAGNITUDE, RELEASE, STATE_NAMES, BioParams, field_constants, loss_rates, validate_params

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
        for name, value in (("initial", tuple(map(float, self.initial))), ("t_end", float(self.t_end)),
                            ("dt", float(self.dt))):  # plain floats, as the kernel's constants must be
            object.__setattr__(self, name, value)
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
        if not 1 <= self.record_every <= MAX_STEPS:
            raise ValueError(f"record_every = {self.record_every} must lie in [1, MAX_STEPS = {MAX_STEPS:.0e}]")
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


def _clamp(nxt, clamp_tol, worst):
    """Zero the components of ``nxt`` in (-clamp_tol, 0); raise beyond that or on a NaN or infinity.

    ``worst`` is the largest clamp of the chunk's earlier steps.  Returns ``(clamped_state, the larger of
    worst and this clamp)``; an error carries ``worst`` as ``max_clamp``, so integrate's count stays whole.
    """
    low = min(nxt)
    if not all(abs(x) < math.inf for x in nxt):
        err = NonFiniteError(f"state component is not finite: {nxt}")
    elif -low > clamp_tol:
        err = NonnegativityError(f"state component undershot to {low} (beyond clamp_tol={clamp_tol}); "
                                 "the control is negative somewhere or dt is too large")
    else:
        return tuple(x if x >= 0.0 else 0.0 for x in nxt), max(worst, -low)
    err.max_clamp = worst
    raise err


def _rk4(names, stage: str, law: str) -> str:
    """The body of ``advance(state, n)``: ``n`` classical RK4 steps of the ODE whose rates ``stage`` sets.

    ``stage`` is statement text that sets ``d<name>`` from the state ``names``; it is written out once per
    stage.  Every sum keeps the association of the textbook step ``s + h/6 (k1 + 2 (k2 + k3) + k4)``, so the
    result is that step's to the last bit.  A step that leaves [0, inf) in any component goes to
    :func:`_clamp`.  After the loop, ``law``, statement text that sets ``u``, runs once at the state reached;
    the body returns that state, the largest clamp, ``worst``, and ``u``.
    """
    y = [f"y{i}" for i in range(len(names))]
    rates = ["d" + name for name in names]

    def assign(targets, values, pad="    "):  # one statement each: a tuple of four would be built and unpacked
        return "".join(f"{pad}{target} = {value}\n" for target, value in zip(targets, values))

    def k(j):
        return [f"k{j}_{i}" for i in range(len(names))]

    text = f"{', '.join(y)} = state\nworst = 0.0\nfor _ in range(n):\n" + assign(names, y)
    for j, h in ((1, "h2"), (2, "h2"), (3, "dt")):
        text += indent(stage, "    ") + assign(k(j), rates)
        text += assign(names, [f"{s} + {h} * {d}" for s, d in zip(y, k(j))])
    text += indent(stage, "    ") + assign(y, [
        f"{s} + sixth * ({a} + 2.0 * ({b} + {c}) + {d})" for s, a, b, c, d in zip(y, k(1), k(2), k(3), rates)
    ])
    text += "    if " + " or ".join(f"not 0.0 <= {s} < inf" for s in y) + ":  # NaN fails the test too, and inf\n"
    text += f"        ({', '.join(y)}), worst = _clamp(({', '.join(y)}), clamp_tol, worst)\n"
    return text + assign(names, y, "") + law + f"return ({', '.join(y)}), worst, u\n"


def _kernel(model: str, law: str, constants: dict, plant: BioParams | None, dt: float, clamp_tol: float) -> tuple:
    """The RK4 kernel ``advance(state, n) -> (state, largest clamp, u)`` of one closed loop, ``n`` steps of ``dt``
    and ``u`` at the state reached, as the arguments of :func:`~sitctl.model.define`.

    ``law`` and ``constants`` are a law's body and the values it reads (:meth:`ControlLaw.body`).  With a
    ``plant``, each stage is the law, then the model's field with the plant's constants renamed
    ``plant_<name>``.  With ``plant`` None, a reduced stage is the law, whose ``dF`` is the field's on the
    law's own params, then :data:`~sitctl.model.RELEASE`: ``g`` is computed once per stage.  Values enter the
    function only as defaults (:func:`~sitctl.model.define`), so its source depends on the loop's shape only.
    """
    if plant is None:
        stage = law + RELEASE
    else:
        values = field_constants(plant)
        stage = law + re.sub(r"\b(" + "|".join(values) + r")\b", r"plant_\1", FIELDS[model])
        constants = {**constants, **{"plant_" + name: value for name, value in values.items()}}
    steps = {"h2": 0.5 * dt, "sixth": dt / 6.0, "dt": dt, "clamp_tol": clamp_tol, "inf": math.inf, "_clamp": _clamp}
    return "advance", "state, n", _rk4(STATE_NAMES[model], stage, law), {**constants, **steps}


def _advance(spec: SimSpec) -> tuple:
    """The spec's kernel (:func:`_kernel`), clamping within 1e-9 of the initial state's norm.

    A reduced run of a feedback law on its own params (``plant`` None) takes the law's ``dF``; every
    other run takes the model's field on the plant.
    """
    law = spec.law
    own = spec.model == "reduced" and spec.plant is None and law.variant != "none"
    plant = None if own else law.params if spec.plant is None else spec.plant
    clamp_tol = 1e-9 * math.sqrt(sum(x * x for x in spec.initial))
    return _kernel(spec.model, *law.body(), plant, spec.dt, clamp_tol)


def _record(chunk, initial: tuple, n_steps: int, every: int):
    """The record rule, in Python: the reference of :func:`kernel`'s native recorder, and the whole run wherever C
    does not record it.

    ``chunk(state, n) -> (state, largest clamp, u)`` gives ``u`` at ``initial`` with ``n = 0``, then runs the steps
    in chunks of ``every`` (the last one may be shorter), each followed by one sample of the state and ``u``.
    Returns ``(states, controls, termination, max_clamp)``: one row and one u per sample.  A chunk that stops at a
    step (:func:`_clamp`) ends the run with the samples before it; a division by zero in a text raises through.
    """
    states, controls = [initial], [chunk(initial, 0)[2]]
    termination, max_clamp = TERMINATION_HORIZON, 0.0
    try:
        for start in range(0, n_steps, every):  # a chunk of steps, then one sample
            state, clamped, u = chunk(states[-1], min(every, n_steps - start))
            if clamped > max_clamp:
                max_clamp = clamped
            states.append(state)
            controls.append(u)
    except NonnegativityError as err:
        termination, max_clamp = TERMINATION_NONNEG, max(max_clamp, err.max_clamp)
    except NonFiniteError as err:
        termination, max_clamp = TERMINATION_NONFINITE, max(max_clamp, err.max_clamp)
    return np.array(states), np.array(controls), termination, max_clamp


def kernel(spec: SimSpec):
    """The spec's recorder ``record(initial, n_steps, every) -> (states, controls, termination, max_clamp)``:
    :func:`_record` on :func:`_advance`'s kernel, run by :func:`native.recorder` (in one C call where it can)."""
    from . import native  # imported on first use, so set-up does not load the translator

    return native.recorder(_advance(spec), _record)


def integrate(spec: SimSpec) -> Trajectory:
    """Run the closed loop to the horizon, or until a step leaves the nonnegative domain or turns NaN or infinite.

    Deterministic: the same spec always yields bit-identical samples.  One call of the spec's recorder
    (:func:`kernel`) records the run: a sample ``(i * dt, state)`` after each ``record_every`` steps and at the
    horizon, with u at each from the kernel (:func:`_record`).  ``lyapunov`` is one array call of
    :func:`lyapunov_V`, rounding exactly as per-sample float calls would.
    """
    n_steps = round(spec.t_end / spec.dt)
    every = spec.record_every
    states, controls, termination, max_clamp = kernel(spec)(tuple(float(x) for x in spec.initial), n_steps, every)
    F, Ms = states[:, -2], states[:, -1]
    lyapunov = None
    if spec.model == "reduced":
        with np.errstate(over="ignore", invalid="ignore"):  # float arithmetic: inf and nan, no warning
            lyapunov = lyapunov_V(F, Ms, spec.law.config, spec.law.params)  # the law's target, whatever the plant
    return Trajectory(
        model=spec.model,
        times=np.minimum(np.arange(len(states)) * every, n_steps) * spec.dt,  # each int times dt, as a float would
        states=states,
        controls=controls,
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
