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
    window: tuple  # (t_start, t_end) of the log-linear fit
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


def _fit_window(traj: Trajectory, values: np.ndarray, floor: float):
    """Sample mask excluding the initial transient and the float floor."""
    t = traj.times
    mask = (t >= 0.05 * t[-1]) & (values > floor)
    return mask


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
        return DecayReport(lambda_theory, float("nan"), 1.0, 0.0, (0.0, 0.0), True)
    max_violation = _max_envelope_ratio(V, t, lambda_theory)
    passed = max_violation <= 1.0 + tol

    mask = _fit_window(traj, V, 1e-12 * V0)
    if np.count_nonzero(mask) >= 10:
        lambda_fit, _ = fit_decay_rate(t[mask], V[mask])
        window = (float(t[mask][0]), float(t[mask][-1]))
    else:
        lambda_fit, window = float("nan"), (0.0, 0.0)

    # Squared-norm convergence estimate: smallest c0 making it hold everywhere.
    norm2 = traj.F**2 + traj.Ms**2
    c0_fit = _max_envelope_ratio(norm2, t, lambda_theory) if norm2[0] > 0 else 1.0

    return DecayReport(
        lambda_theory=lambda_theory,
        lambda_fit=lambda_fit,
        c0_fit=c0_fit,
        max_violation=max_violation,
        window=window,
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


@dataclass
class ControlBudget:
    """Trapezoidal release total over the horizon plus an exponential tail estimate."""

    total: float
    tail: float


def control_budget(traj: Trajectory) -> ControlBudget:
    """Integrate the release rate; estimate the post-horizon tail from the last decade."""
    total = float(np.trapezoid(traj.controls, traj.times))
    tail = 0.0
    n = len(traj.times)
    last = slice(max(0, n - max(10, n // 10)), n)
    u_last = traj.controls[last]
    if np.all(u_last > 0.0) and len(u_last) >= 10:
        rate, _ = fit_decay_rate(traj.times[last], u_last)
        if rate > 0.0:
            tail = float(traj.controls[-1] / rate)
    return ControlBudget(total=total, tail=tail)


def _grid_extent_ms(cfg: ControllerConfig, p: BioParams, factor: float) -> float:
    return factor * float(np.max(ms_star(np.linspace(0.0, cfg.F_hat, 2001), cfg, p)))


def _fold_row(row, F: float, Mss, worst: float, witness: tuple, highest: bool = False):
    """Fold one F row into the running worst value and witness; the first point in scan order wins a tie."""
    j = int(np.argmax(row) if highest else np.argmin(row))
    value = float(row[j])
    if (value > worst) if highest else (value < worst):
        return value, (F, float(Mss[j]))
    return worst, witness


def audit_grid(cfg: ControllerConfig, p: BioParams, which: str, n_1d: int = 4000, n_2d: int = 400) -> AuditReport:
    """Evaluate one named controller inequality on its documented grid.

    Checks: 'nonneg_plus' (clipped law >= 0 on [0,F_hat] x [0,10 max ms*]),
    'lemma4' (ms* - F dms*/dF >= 0 plus its closed-form identity),
    'pi_sign' (mismatch rate nonpositive), 'mstar_identity'
    (g(F, ms*(F)) = eps F on a log grid), 'utilde_bound' (global law under
    a linear bound (delta_s - eta) Ms + K F, K estimated on the grid).
    The 1-D checks evaluate their whole grid at once; the 2-D checks one
    F row of Ms values at a time, which bounds the memory they use.
    """
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
        closed = C * Fs * Fs * (p.beta_E * (2.0 * cfg.F_hat - Fs) + B) / (p.beta_E * Fs + B) ** 3
        worst_id = float(np.max(np.abs(lhs - closed) / np.maximum(1.0, np.abs(closed))))
        j = int(np.argmin(lhs))
        worst_gap, witness = float(lhs[j]), (float(Fs[j]),)
        passed = worst_gap >= -1e-12 * scale and worst_id <= 1e-9
        return AuditReport("lemma4", f"{n_1d} points on [0..F_hat]", passed, worst_gap, witness, 1e-12 * scale)

    if which == "pi_sign":
        Fs = np.linspace(0.0, cfg.F_hat, n_2d)
        Mss = np.linspace(0.0, _grid_extent_ms(cfg, p, 10.0), n_2d)
        worst, witness = -np.inf, (0.0, 0.0)
        for F in Fs.tolist():
            worst, witness = _fold_row(pi(F, Mss, cfg, p), F, Mss, worst, witness, highest=True)
        return AuditReport("pi_sign", f"{n_2d}x{n_2d} on [0..F_hat]x[0..10 max ms*]", worst <= 1e-12, worst, witness, 1e-12)

    if which == "nonneg_plus":
        Fs = np.linspace(0.0, cfg.F_hat, n_2d)
        Mss = np.linspace(0.0, _grid_extent_ms(cfg, p, 10.0), n_2d)
        worst, witness, scale = np.inf, (0.0, 0.0), 0.0
        for F in Fs.tolist():
            row = u_star_plus(F, Mss, cfg, p)
            scale = max(scale, float(np.max(np.abs(row))))
            worst, witness = _fold_row(row, F, Mss, worst, witness)
        return AuditReport(
            "nonneg_plus", f"{n_2d}x{n_2d} on [0..F_hat]x[0..10 max ms*]",
            worst >= -1e-9 * scale, worst, witness, 1e-9 * scale,
        )

    if which == "utilde_bound":
        Fs = np.linspace(0.0, 3.0 * cfg.F_hat, n_2d)
        Mss = np.linspace(0.0, 1e5, n_2d)
        worst, witness, K = np.inf, (0.0, 0.0), 0.0
        for F in Fs.tolist():
            row = u_tilde(F, Mss, cfg, p)
            worst, witness = _fold_row(row, F, Mss, worst, witness)
            if F > 0.0:
                K = max(K, float(np.max((row - (p.delta_s - cfg.eta) * Mss) / F)))
        passed = worst >= 0.0 and bool(np.isfinite(K))
        report = AuditReport("utilde_bound", f"{n_2d}x{n_2d} on [0..3 F_hat]x[0..1e5]", passed, worst, witness, 0.0)
        report.grid += f"; K={K:.6g}"
        return report

    raise ValueError(f"unknown audit check {which!r}; expected one of {AUDIT_CHECKS}")


def chi_sandwich(cfg: ControllerConfig, n: int = 1000) -> bool:
    """0 <= chi <= 1 and nonincreasing on a dense grid."""
    vals = chi(np.linspace(0.0, 2.0 * cfg.F_hat, n), cfg)
    return bool(np.all((0.0 <= vals) & (vals <= 1.0)) and np.all(vals[:-1] >= vals[1:]))
