"""Numerical verification of the stability certificates.

Everything here checks inequalities the theory asserts: Lyapunov decay
envelopes along integrated trajectories, the squared-norm convergence
estimate, and static grid audits of the controller identities
(virtual-feedback identity, mismatch-rate sign, the ms_star slope
inequality, clipped-law nonnegativity, the linear growth bound).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import ControlLaw, ControllerConfig, dms_star_dF, ms_star, ms_star_coefficients
from .model import BioParams, g
from .simulate import Trajectory

AUDIT_CHECKS = ("nonneg_plus", "lemma4", "pi_sign", "mstar_identity", "utilde_bound")
#: The slack of :func:`verify_decay`'s envelope and of :func:`vdot_check`'s inequality.
DECAY_TOL = 1e-3


@dataclass
class DecayReport:
    """Outcome of checking V(t) against its guaranteed exponential envelope."""

    lambda_theory: float
    lambda_fit: float
    c0_fit: float
    max_violation: float  # worst V(t) / (V(0) e^{-lambda t})
    passed: bool


@dataclass
class AuditReport:
    """Worst case of one inequality over a documented grid."""

    check: str
    grid: str
    passed: bool
    worst_value: float
    witness: tuple  # (F,) or (F, Ms) where the worst case occurred
    tolerance: float

    def csv_row(self) -> str:
        wMs = repr(self.witness[1]) if len(self.witness) > 1 else ""  # the 1-D checks leave the field empty
        return f"{self.check},{self.grid},{self.passed},{self.worst_value!r},{self.witness[0]!r},{wMs}"


def fit_decay_rate(times, values):
    """Least-squares exponential fit; returns (rate, prefactor).

    Ordinary least squares on (t, ln value); the rate is the negated slope.
    Needs at least 10 strictly positive samples.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if len(t) < 10:
        raise ValueError(f"need at least 10 samples for a decay fit, got {len(t)}")
    if np.any(v <= 0.0):
        raise ValueError("decay fit requires strictly positive values")
    slope, intercept = np.polyfit(t, np.log(v), 1)
    return float(-slope), float(np.exp(intercept))


def _max_envelope_ratio(values: np.ndarray, t: np.ndarray, rate: float) -> float:
    """Largest values(t) / (values(0) e^{-rate t}), in log space so the envelope cannot underflow."""
    with np.errstate(divide="ignore"):
        return float(np.exp(np.max(np.log(values) - np.log(values[0]) + rate * t)))


def verify_decay(traj: Trajectory, lambda_theory: float) -> DecayReport:
    """Check V(t) <= V(0) e^{-lambda t} (1 + DECAY_TOL) at every sample.

    Also fits the empirical rate on log V over the window that skips the
    first 5% of the horizon and values below 1e-12 V(0), and records the
    fitted squared-norm prefactor for the convergence estimate.
    """
    if traj.lyapunov is None:
        raise ValueError("trajectory has no Lyapunov samples (reduced-model runs only)")
    V = traj.lyapunov
    t = traj.times
    V0 = V[0]
    if V0 == 0.0:
        return DecayReport(lambda_theory, float("nan"), 1.0, 0.0, True)
    max_violation = _max_envelope_ratio(V, t, lambda_theory)
    passed = max_violation <= 1.0 + DECAY_TOL

    mask = (t >= 0.05 * t[-1]) & (V > 1e-12 * V0)
    lambda_fit = fit_decay_rate(t[mask], V[mask])[0] if np.count_nonzero(mask) >= 10 else float("nan")

    # Squared-norm convergence estimate: smallest c0 making it hold everywhere.
    with np.errstate(over="ignore"):  # a run that blew up: inf, whose ratio is inf
        norm2 = traj.F**2 + traj.Ms**2
    c0_fit = _max_envelope_ratio(norm2, t, lambda_theory) if norm2[0] > 0 else 1.0

    return DecayReport(
        lambda_theory=lambda_theory,
        lambda_fit=lambda_fit,
        c0_fit=c0_fit,
        max_violation=max_violation,
        passed=passed,
    )


def vdot_check(traj: Trajectory, lambda_theory: float) -> AuditReport:
    """Check the differential inequality dV/dt <= -lambda V + DECAY_TOL (1 + V).

    dV/dt is estimated by central differences on the recorded samples, so
    the tolerance absorbs an O(dt^2) discretization term; the check runs
    against the trajectory actually integrated, not a symbolic closed loop.
    Needs at least 3 samples.
    """
    if traj.lyapunov is None:
        raise ValueError("trajectory has no Lyapunov samples")
    V = traj.lyapunov
    t = traj.times
    if len(t) < 3:
        raise ValueError(f"need at least 3 samples for the vdot check, got {len(t)}")
    vdot = (V[2:] - V[:-2]) / (t[2:] - t[:-2])
    slack = vdot + lambda_theory * V[1:-1] - DECAY_TOL * (1.0 + V[1:-1])
    worst = int(np.argmax(slack))
    return AuditReport(
        check="vdot",
        grid=f"{len(vdot)} interior samples",
        passed=bool(np.all(slack <= 0.0)),
        worst_value=float(slack[worst]),
        witness=(float(t[worst + 1]),),
        tolerance=DECAY_TOL,
    )


def control_budget(traj: Trajectory) -> float:
    """Total release over the horizon: the trapezoidal integral of the recorded rate, inf past the float range."""
    with np.errstate(over="ignore"):
        return float(np.trapezoid(traj.controls, traj.times))


#: Each 2-D check's law variant and the index of its value among the law text's outputs ``u, mismatch``.
_GRID_VALUES = {"nonneg_plus": ("plus", 0), "pi_sign": ("plus", 1), "utilde_bound": ("global", 0)}


def _scanner(check: str, cfg: ControllerConfig, p: BioParams):
    """``scan(Fs, Mss) -> (worst value, witness, max |value|, K)``: :func:`_scan_2d` of the 2-D check's value on the
    grid Fs x Mss, from the law text that every run integrates (:data:`~sitctl.control.LAW`), in one
    :func:`~sitctl.native.scanner` call (one build for every design and variant).  ``pi_sign`` looks for the highest
    value, and ``utilde_bound`` estimates K."""
    from . import native  # imported on first use, so set-up loads no ctypes

    variant, output = _GRID_VALUES[check]
    body, constants = ControlLaw(variant, cfg, p).body()
    scan = native.scanner(("evaluate", "F, Ms", body + "return u, mismatch\n", constants), _scan_2d)
    slope = p.delta_s - cfg.eta if check == "utilde_bound" else None
    return lambda Fs, Mss: scan(Fs, Mss, output, check == "pi_sign", slope)


def _scan_2d(grid, Fs, Mss, highest: bool = False, slope: float | None = None):
    """(worst value, witness, max |value|, K) of ``grid``, the values at the points of Fs x Mss (``grid[i, j]`` at
    ``(Fs[i], Mss[j])``), which has a point.

    The worst value is the lowest, or with ``highest`` the highest; the first
    point in row-major scan order wins a tie.  A NaN is worse than any
    number: the first one is the worst value and the witness, so the check
    fails.  With ``slope``, K is the largest (value - slope Ms) / F over
    F > 0, or 0.0, else 0.0; the largest |value| and K skip NaNs.
    """
    i, j = np.unravel_index(np.argmax(grid) if highest else np.argmin(grid), grid.shape)
    scale = float(np.fmax.reduce(np.abs(grid), axis=None, initial=0.0))
    K = 0.0
    if slope is not None:
        rows = Fs > 0.0
        with np.errstate(invalid="ignore", over="ignore"):  # a NaN or an infinity is a value like any other here
            slack = (grid[rows] - slope * Mss) / Fs[rows, None]
        # max(0.0, x) is x only where x > 0.0: a tie of 0.0 with -0.0 keeps 0.0
        K = max(0.0, float(np.fmax.reduce(slack, axis=None, initial=-np.inf)))
    return float(grid[i, j]), (float(Fs[i]), float(Mss[j])), scale, K


def audit_grid(cfg: ControllerConfig, p: BioParams, which: str, n_1d: int = 4000, n_2d: int = 400) -> AuditReport:
    """Evaluate one named controller inequality on its documented grid.

    Checks: 'nonneg_plus' (clipped law >= 0 on [0,F_hat] x [0,10 max ms*]),
    'lemma4' (ms* - F dms*/dF >= 0 plus its closed-form identity),
    'pi_sign' (mismatch rate nonpositive), 'mstar_identity'
    (g(F, ms*(F)) = eps F on a log grid), 'utilde_bound' (global law under
    a linear bound (delta_s - eta) Ms + K F, K estimated on the grid).
    The 1-D checks evaluate their whole grid at once; the 2-D checks
    scan the law's text, which every run integrates, over their whole grid
    in one call, which in C holds no grid in memory (:func:`_scanner`).
    Both grid sizes must be at least 2.
    """
    for name, size in (("n_1d", n_1d), ("n_2d", n_2d)):
        if not size >= 2:
            raise ValueError(f"audit grid size {name} must be at least 2, got {size}")

    if which == "mstar_identity":
        Fs = np.logspace(-6, np.log10(cfg.F_hat), 1000)
        rel = np.abs(g(Fs, ms_star(Fs, cfg, p), p) - cfg.eps * Fs) / (cfg.eps * Fs)
        j = int(np.argmax(rel))  # the first NaN if there is one, and a NaN fails the check
        worst = float(rel[j])
        return AuditReport("mstar_identity", "1000 log-spaced F in (0..F_hat]", worst <= 1e-9, worst, (float(Fs[j]),), 1e-9)

    if which == "lemma4":
        Fs = np.linspace(0.0, cfg.F_hat, n_1d)
        B, C = ms_star_coefficients(p)
        levels = ms_star(Fs, cfg, p)
        scale = float(np.max(levels))
        lhs = levels - Fs * dms_star_dF(Fs, cfg, p)
        lin = p.beta_E * Fs + B
        closed = C * Fs * Fs * (p.beta_E * (2.0 * cfg.F_hat - Fs) + B) / (lin * lin * lin)
        worst_id = float(np.max(np.abs(lhs - closed) / np.maximum(1.0, np.abs(closed))))
        j = int(np.argmin(lhs))
        worst_gap, witness = float(lhs[j]), (float(Fs[j]),)
        passed = worst_gap >= -1e-12 * scale and worst_id <= 1e-9
        return AuditReport("lemma4", f"{n_1d} points on [0..F_hat]", passed, worst_gap, witness, 1e-12 * scale)

    if which in ("pi_sign", "nonneg_plus"):
        Fs = np.linspace(0.0, cfg.F_hat, n_2d)
        Mss = np.linspace(0.0, 10.0 * float(np.max(ms_star(np.linspace(0.0, cfg.F_hat, 2001), cfg, p))), n_2d)
        grid = f"{n_2d}x{n_2d} on [0..F_hat]x[0..10 max ms*]"
        worst, witness, scale, _ = _scanner(which, cfg, p)(Fs, Mss)
        if which == "pi_sign":
            return AuditReport("pi_sign", grid, worst <= 1e-12, worst, witness, 1e-12)
        return AuditReport("nonneg_plus", grid, worst >= -1e-9 * scale, worst, witness, 1e-9 * scale)

    if which == "utilde_bound":
        Fs = np.linspace(0.0, 3.0 * cfg.F_hat, n_2d)
        Mss = np.linspace(0.0, 1e5, n_2d)
        worst, witness, _, K = _scanner(which, cfg, p)(Fs, Mss)
        passed = worst >= 0.0 and bool(np.isfinite(K))
        grid = f"{n_2d}x{n_2d} on [0..3 F_hat]x[0..1e5]; K={K:.6g}"
        return AuditReport("utilde_bound", grid, passed, worst, witness, 0.0)

    raise ValueError(f"unknown audit check {which!r}; expected one of {AUDIT_CHECKS}")

