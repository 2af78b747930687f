"""Reference code for the tests: a generic RK4 step and a dense-grid check of the cutoff.

``step_rk4`` is the textbook step over any rates function, with its own copy of the clamp policy, so
the integration kernel is checked against code it does not share.
"""
import math

import numpy as np

from sitctl.control import ControllerConfig, chi
from sitctl.simulate import NonFiniteError, NonnegativityError


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

    The generic reference stepper: the kernel that :func:`sitctl.integrate` runs
    reproduces it bit for bit.  ``state`` is
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


def chi_sandwich(cfg: ControllerConfig, n: int = 1000) -> bool:
    """0 <= chi <= 1 and nonincreasing on a dense grid."""
    vals = chi(np.linspace(0.0, 2.0 * cfg.F_hat, n), cfg)
    return bool(np.all((0.0 <= vals) & (vals <= 1.0)) and np.all(vals[:-1] >= vals[1:]))
