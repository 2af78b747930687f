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

from .control import (
    ControllerConfig,
    chi,
    dms_star_dF,
    ms_star,
    ms_star_coefficients,
    pi,
    u_star_plus,
    u_tilde,
)
from .model import BioParams, g
from .simulate import Trajectory

AUDIT_CHECKS = ("nonneg_plus", "lemma4", "pi_sign", "mstar_identity", "utilde_bound")


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
        wF = self.witness[0]
        wMs = self.witness[1] if len(self.witness) > 1 else ""
        return f"{self.check},{self.grid},{self.passed},{self.worst_value!r},{wF!r},{wMs!r}"


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


def verify_decay(traj: Trajectory, lambda_theory: float, tol: float = 1e-3) -> DecayReport:
    """Check V(t) <= V(0) e^{-lambda t} (1 + tol) at every sample.

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
    passed = max_violation <= 1.0 + tol

    mask = (t >= 0.05 * t[-1]) & (V > 1e-12 * V0)
    lambda_fit = fit_decay_rate(t[mask], V[mask])[0] if np.count_nonzero(mask) >= 10 else float("nan")

    # Squared-norm convergence estimate: smallest c0 making it hold everywhere.
    norm2 = traj.F**2 + traj.Ms**2
    c0_fit = _max_envelope_ratio(norm2, t, lambda_theory) if norm2[0] > 0 else 1.0

    return DecayReport(
        lambda_theory=lambda_theory,
        lambda_fit=lambda_fit,
        c0_fit=c0_fit,
        max_violation=max_violation,
        passed=passed,
    )


def vdot_check(traj: Trajectory, lambda_theory: float, tol: float = 1e-3) -> AuditReport:
    """Check the differential inequality dV/dt <= -lambda V + tol (1 + V).

    dV/dt is estimated by central differences on the recorded samples, so
    the tolerance absorbs an O(dt^2) discretization term; the check runs
    against the trajectory actually integrated, not a symbolic closed loop.
    """
    if traj.lyapunov is None:
        raise ValueError("trajectory has no Lyapunov samples")
    V = traj.lyapunov
    t = traj.times
    vdot = (V[2:] - V[:-2]) / (t[2:] - t[:-2])
    slack = vdot + lambda_theory * V[1:-1] - tol * (1.0 + V[1:-1])
    worst = int(np.argmax(slack))
    return AuditReport(
        check="vdot",
        grid=f"{len(vdot)} interior samples",
        passed=bool(np.all(slack <= 0.0)),
        worst_value=float(slack[worst]),
        witness=(float(t[worst + 1]),),
        tolerance=tol,
    )


def control_budget(traj: Trajectory) -> float:
    """Total release over the horizon: the trapezoidal integral of the recorded rate."""
    return float(np.trapezoid(traj.controls, traj.times))


def _grid_extent_ms(cfg: ControllerConfig, p: BioParams, factor: float) -> float:
    return factor * float(np.max(ms_star(np.linspace(0.0, cfg.F_hat, 2001), cfg, p)))


# F rows per law call in the 2-D audits: a block of the default 400-point rows holds 4000 points.
_BLOCK_ROWS = 10


def _scan_2d(law, cfg: ControllerConfig, p: BioParams, Fs, Mss, highest: bool = False, growth: bool = False):
    """(worst value, witness, max |value|, K) of ``law`` on the grid Fs x Mss, one block of F rows per call.

    The first point in row-major scan order wins a tie.  A NaN is worse than
    any number: the first one is the worst value and the witness, so the
    check fails.  With ``growth``, K is the largest (value - (delta_s - eta) Ms) / F
    over F > 0, else 0.0; the largest |value| and K skip NaNs.
    """
    worst, witness, scale, K = -np.inf if highest else np.inf, (float(Fs[0]), float(Mss[0])), 0.0, 0.0
    for i in range(0, len(Fs), _BLOCK_ROWS):
        F = Fs[i:i + _BLOCK_ROWS, None]
        block = law(F, Mss[None, :], cfg, p)
        r, j = np.unravel_index(np.argmax(block) if highest else np.argmin(block), block.shape)
        value = float(block[r, j])
        if not np.isnan(worst) and (np.isnan(value) or (value > worst if highest else value < worst)):
            worst, witness = value, (float(F[r, 0]), float(Mss[j]))
        scale = float(np.fmax.reduce(np.abs(block), axis=None, initial=scale))
        if growth:
            rows = F[:, 0] > 0.0
            slack = (block[rows] - (p.delta_s - cfg.eta) * Mss) / F[rows]
            K = float(np.fmax.reduce(slack, axis=None, initial=K))
    return worst, witness, scale, K


def audit_grid(cfg: ControllerConfig, p: BioParams, which: str, n_1d: int = 4000, n_2d: int = 400) -> AuditReport:
    """Evaluate one named controller inequality on its documented grid.

    Checks: 'nonneg_plus' (clipped law >= 0 on [0,F_hat] x [0,10 max ms*]),
    'lemma4' (ms* - F dms*/dF >= 0 plus its closed-form identity),
    'pi_sign' (mismatch rate nonpositive), 'mstar_identity'
    (g(F, ms*(F)) = eps F on a log grid), 'utilde_bound' (global law under
    a linear bound (delta_s - eta) Ms + K F, K estimated on the grid).
    The 1-D checks evaluate their whole grid at once; the 2-D checks a
    block of F rows at a time, which bounds the memory they use.  Both
    grid sizes must be at least 2.
    """
    for name, size in (("n_1d", n_1d), ("n_2d", n_2d)):
        if not size >= 2:
            raise ValueError(f"audit grid size {name} must be at least 2, got {size}")

    if which == "mstar_identity":
        Fs = np.logspace(-6, np.log10(cfg.F_hat), 1000)
        rel = np.abs(g(Fs, ms_star(Fs, cfg, p), p) - cfg.eps * Fs) / (cfg.eps * Fs)
        j = int(np.argmax(rel))
        worst, witness = (float(rel[j]), (float(Fs[j]),)) if rel[j] > 0.0 else (0.0, (0.0,))
        return AuditReport("mstar_identity", "1000 log-spaced F in (0..F_hat]", worst <= 1e-9, worst, witness, 1e-9)

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
        Mss = np.linspace(0.0, _grid_extent_ms(cfg, p, 10.0), n_2d)
        grid = f"{n_2d}x{n_2d} on [0..F_hat]x[0..10 max ms*]"
        if which == "pi_sign":
            worst, witness, _, _ = _scan_2d(pi, cfg, p, Fs, Mss, highest=True)
            return AuditReport("pi_sign", grid, worst <= 1e-12, worst, witness, 1e-12)
        worst, witness, scale, _ = _scan_2d(u_star_plus, cfg, p, Fs, Mss)
        return AuditReport("nonneg_plus", grid, worst >= -1e-9 * scale, worst, witness, 1e-9 * scale)

    if which == "utilde_bound":
        Fs = np.linspace(0.0, 3.0 * cfg.F_hat, n_2d)
        Mss = np.linspace(0.0, 1e5, n_2d)
        worst, witness, _, K = _scan_2d(u_tilde, cfg, p, Fs, Mss, growth=True)
        passed = worst >= 0.0 and bool(np.isfinite(K))
        grid = f"{n_2d}x{n_2d} on [0..3 F_hat]x[0..1e5]; K={K:.6g}"
        return AuditReport("utilde_bound", grid, passed, worst, witness, 0.0)

    raise ValueError(f"unknown audit check {which!r}; expected one of {AUDIT_CHECKS}")


def chi_sandwich(cfg: ControllerConfig, n: int = 1000) -> bool:
    """0 <= chi <= 1 and nonincreasing on a dense grid."""
    vals = chi(np.linspace(0.0, 2.0 * cfg.F_hat, n), cfg)
    return bool(np.all((0.0 <= vals) & (vals <= 1.0)) and np.all(vals[:-1] >= vals[1:]))
