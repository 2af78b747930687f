"""Reference code for the tests: a generic RK4 step, the law composed of numpy functions, the native
kernel's chunks on the record driver, and the Python record.

``step_rk4`` is the textbook step over any rates function, with its own copy of the clamp policy, so
the integration kernel is checked against code it does not share.  The composed law (``pi``, ``u_star``,
``u_star_plus``, ``chi``, ``u_tilde`` and their parts) writes the law a second way, one numpy function per
term of the paper: the tests' oracle for the law text that every run integrates and every audit evaluates
(``sitctl.control.LAW``).  Its functions broadcast over numpy arrays (scalar inputs give a float); their
integer powers are written as products, so an array rounds exactly like its points passed one float at a
time (numpy's vectorised ``power`` need not round like libm's ``pow``).
"""
import math

import numpy as np

from sitctl import model, native
from sitctl.control import PI_SWITCH_TOL, ControllerConfig, dms_star_dF, ms_star
from sitctl.model import BioParams, _plain, alpha, g
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


def dg_dMs(F, Ms, p: BioParams):
    """Partial derivative of ``g`` in the sterile-male direction.

    Always <= 0 and bounded; undefined at the origin where the gradient of
    ``g`` is discontinuous.  Broadcasts like ``g``.
    """
    if np.any((F == 0.0) & (Ms == 0.0)):
        raise ValueError("dg_dMs is undefined at (F, Ms) = (0, 0)")
    denom = (1.0 - p.nu) * p.nu_E * p.beta_E * F + alpha(F, p) * p.delta_M * p.gamma_s * Ms
    d2 = denom * denom
    num = p.nu * (1.0 - p.nu) * p.beta_E**2 * p.nu_E**2 * F * F * p.delta_M * p.gamma_s
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.divide(-num, d2)
    # subnormal inputs underflow the denominator; the limit is 0
    return _plain(np.where(d2 == 0.0, 0.0, value))


def pi(F, Ms, cfg: ControllerConfig, p: BioParams):
    """Mismatch rate between actual and virtual recruitment, times F.

    Divided difference of g between Ms and ms_star(F) away from the
    diagonal; the exact partial derivative on it, evaluated at those
    points only.  Nonpositive on the whole nonnegative quadrant; 0 at the
    origin, where the derivative branch is undefined.  The backstepping
    laws share its body, ``_mismatch``, and hand it the g and ms_star
    they computed.
    """
    return _mismatch(F, Ms, g(F, Ms, p), ms_star(F, cfg, p), cfg, p)


def _mismatch(F, Ms, gv, target, cfg: ControllerConfig, p: BioParams):
    """The body of ``pi`` on ``gv = g(F, Ms)`` and ``target = ms_star(F)`` computed by the caller.

    ``dg_dMs`` runs only on the switch band: the points that fail the
    off-diagonal test, a NaN gap among them, less the origin.
    """
    origin = (F == 0.0) & (Ms == 0.0)
    gap = Ms - target
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.where(origin, 0.0, np.divide(gv - cfg.eps * F, gap) * F)
    band = ~((np.abs(gap) > PI_SWITCH_TOL * np.maximum(1.0, np.abs(target))) | origin)
    if band.any():
        value[band] = _on(band, lambda F, Ms: dg_dMs(F, Ms, p) * F, F, Ms)
    return _plain(value)


def _on(mask, fn, *args):
    """``fn`` of ``args``, each broadcast to ``mask``'s shape, at the points where ``mask`` holds only, as a flat array.

    Each operation of ``fn`` is elementwise, so a point rounds as it does in the whole block.
    """
    return fn(*(np.broadcast_to(x, mask.shape)[mask] for x in args))


def cut2(x, y):
    """Product x*y zeroed on the open second quadrant (x < 0, y > 0)."""
    return _plain(np.where((x < 0.0) & (y > 0.0), 0.0, x * y))


def _backstepping(F, Ms, cfg: ControllerConfig, p: BioParams, clip: bool):
    """The body of ``u_star`` and, with ``clip``, of ``u_star_plus``: cut2 on the last term.

    ``g`` and ``ms_star`` are computed once, for the law and its mismatch rate both.
    """
    gv, target = g(F, Ms, p), ms_star(F, cfg, p)
    slope, drift = dms_star_dF(F, cfg, p), gv - p.delta_F * F
    return (
        (p.delta_s - cfg.eta) * Ms
        + cfg.eta * target
        - cfg.rho * _mismatch(F, Ms, gv, target, cfg, p)
        + (cut2(slope, drift) if clip else slope * drift)
    )


def u_star(F, Ms, cfg: ControllerConfig, p: BioParams):
    """Raw backstepping release rate; may be negative in places."""
    return _backstepping(F, Ms, cfg, p, False)


def u_star_plus(F, Ms, cfg: ControllerConfig, p: BioParams):
    """Backstepping law with the sign-indefinite term clipped by cut2.

    Nonnegative on [0, F_hat] x R+ whenever eta lies in (delta_F, delta_s).
    """
    return _backstepping(F, Ms, cfg, p, True)


def chi(F, cfg: ControllerConfig):
    """Smooth nonincreasing gate: 1 below the knee F2, 0 above F_hat.

    The ramp is clamped at 0: the quintic rounds to about -1.6e-15 in the last floats below F_hat.
    """
    s = (F - cfg.F2) / (cfg.F_hat - cfg.F2)
    if cfg.cutoff_kind == "cubic":
        ramp = 1.0 - s * s * (3.0 - 2.0 * s)
    else:
        ramp = 1.0 - s * s * s * (6.0 * s * s - 15.0 * s + 10.0)
    return _plain(np.where(F <= cfg.F2, 1.0, np.where(F >= cfg.F_hat, 0.0, np.maximum(ramp, 0.0))))


def u_tilde(F, Ms, cfg: ControllerConfig, p: BioParams):
    """Globally defined nonnegative law: the clipped controller gated by chi.

    ``u_star_plus`` runs only where chi is nonzero; the law is 0 elsewhere.
    """
    c = chi(F, cfg)
    keep = c != 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        if np.all(keep):  # a scalar F below F_hat, or no F at or past it: no subset to take
            return _plain(u_star_plus(F, Ms, cfg, p) * c)
        value = np.zeros(np.broadcast_shapes(np.shape(F), np.shape(Ms)))
        if np.any(keep):
            keep = np.broadcast_to(keep, value.shape)
            value[keep] = _on(keep, lambda F, Ms, c: u_star_plus(F, Ms, cfg, p) * c, F, Ms, c)
    return _plain(value)


def native_kernel(kernel):
    """The kernel ``kernel``, ``sitctl.model.define``'s arguments of ``advance``, as a chunk function on its record
    driver (``sitctl_record``), or the Python ``advance`` where no C compiler is found or the build fails.

    A chunk runs in C as one record step; one that stops in C (a step that leaves [0, inf), or one where Python
    raises) runs again on ``advance``, as ``sitctl.native.record`` runs again in Python a run that stops in C.  So
    every clean chunk runs in C, and the results are ``advance``'s bit for bit.  A construct outside the
    translated subset raises ``TranslationError``, with or without a compiler.
    """
    driver, size = native._built(kernel)
    advance, values = model.define(*kernel), native._doubles(kernel[3])
    if driver is None:
        return advance

    def run(state, n):
        if len(state) != size:  # the Python kernel raises on the unpack
            return advance(state, n)
        states, controls = np.array([state, state], dtype=float), np.empty(2)
        if driver(states.ctypes.data, controls.ctypes.data, 2, size, n, n, values) != 2:
            return advance(state, n)
        return tuple(states[1].tolist()), 0.0, float(controls[1])

    return run


def python_record(kernel, reference, initial, n_steps, every):
    """``sitctl.native.record`` as it is with no build: ``reference`` on the Python kernel, compiler or not."""
    return reference(model.define(*kernel), initial, n_steps, every)


#: A config that passes every gate, yet its state overflows to inf at the second RK4 step, inside the first chunk: the
#: run stops ``non-finite`` after 1 sample.
OVERFLOW_CONFIG = "[controller]\nrho = 1e20\neps = 1e-6\n[sim]\nmodel = full\nE0 = 1e30\n"


def translate(kernel: tuple) -> str:
    """The C of the kernel ``kernel``, ``sitctl.model.define``'s arguments; raises ``TranslationError`` outside the
    translated subset."""
    return native._Translator(*kernel[1:]).advance()
