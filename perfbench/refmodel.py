"""Independent reference for the benchmark's correctness checks.

The paper's formulas (recruitment ``g``, virtual feedback ``ms*`` and its
slope, mismatch rate ``pi``, ``cut2``, the cutoff ``chi``, the clipped and
global laws, both vector fields) are written here from the model
equations with numpy, without importing ``sitctl``.  Trajectories are
recomputed with scipy's DOP853 at tight tolerances.

The reference first checks itself against identities the theory asserts
(:func:`self_check`), so a slip in a formula here cannot pass a program
output silently.
"""
from __future__ import annotations

import math

import numpy as np

PARAM_KEYS = ("beta_E", "gamma_s", "nu_E", "nu", "delta_E", "delta_M", "delta_F", "delta_s", "k")

NOMINAL = dict(
    beta_E=10.0, gamma_s=1.0, nu_E=0.005, nu=0.49,
    delta_E=0.03, delta_M=0.1, delta_F=0.04, delta_s=0.12, k=212370.0,
)

# Relative band around ms* where pi uses the exact Ms-derivative of g
# instead of the divided difference (the same switch the law defines).
PI_SWITCH = 1e-8


class Params:
    """The nine biological rates and capacities, as plain floats."""

    def __init__(self, values: dict):
        for key in PARAM_KEYS:
            setattr(self, key, float(values[key]))


def r0(p: Params) -> float:
    return p.nu * p.beta_E * p.nu_E / (p.delta_F * (p.nu_E + p.delta_E))


def equilibrium(p: Params):
    """(F_bar, E_bar, M_bar) of the uncontrolled model."""
    factor = 1.0 - 1.0 / r0(p)
    E_bar = p.k * factor
    F_bar = p.nu * p.nu_E * E_bar / p.delta_F
    M_bar = (1.0 - p.nu) * p.nu_E * E_bar / p.delta_M
    return F_bar, E_bar, M_bar


def admissible(p: Params) -> bool:
    """The model assumptions: positive rates, nu in (0,1), frail sterile males, R0 > 1."""
    return (
        all(getattr(p, key) > 0.0 for key in PARAM_KEYS)
        and 0.0 < p.nu < 1.0
        and p.delta_s > max(p.delta_F, p.delta_M)
        and r0(p) > 1.0
    )


class Design:
    """Backstepping design constants, derived from the paper's formulas."""

    def __init__(self, p: Params, F_hat: float, eta: float, rho: float, cutoff: str = "quintic"):
        F_bar = equilibrium(p)[0]
        self.F_hat = float(F_hat)
        # Contraction offset the virtual feedback achieves at ceiling F_hat.
        self.eps = p.nu * p.k * p.beta_E * p.nu_E / (p.k * (p.nu_E + p.delta_E) + p.beta_E * self.F_hat)
        self.eta = float(eta)
        self.rho = float(rho)
        self.F2 = 0.5 * (F_bar + self.F_hat)
        self.cutoff = cutoff

    @classmethod
    def from_ratio(cls, p: Params, ratio: float, eta: float, rho: float, cutoff: str = "quintic"):
        return cls(p, ratio * equilibrium(p)[0], eta, rho, cutoff)

    @classmethod
    def from_eps(cls, p: Params, eps: float, eta: float, rho: float, cutoff: str = "quintic"):
        F_hat = (p.nu * p.beta_E * p.nu_E * p.k / eps - p.k * (p.nu_E + p.delta_E)) / p.beta_E
        return cls(p, F_hat, eta, rho, cutoff)


def decay_rate(p: Params, d: Design, global_law: bool) -> float:
    """lambda = 2 min(delta_F - eps, eta[, sigma(F2)])."""
    rate = min(p.delta_F - d.eps, d.eta)
    if global_law:
        sigma = p.delta_F - p.nu * p.beta_E * p.nu_E / (p.beta_E * d.F2 / p.k + p.nu_E + p.delta_E)
        rate = min(rate, sigma)
    return 2.0 * rate


# --- formulas: plain arithmetic, valid for floats and numpy arrays ---------

def _g_parts(F, Ms, p: Params):
    a = p.beta_E * F / p.k + p.nu_E + p.delta_E
    males = (1.0 - p.nu) * p.nu_E * p.beta_E * F + a * p.delta_M * p.gamma_s * Ms
    return a, males


def g_formula(F, Ms, p: Params):
    """nu (1-nu) beta_E^2 nu_E^2 F^2 / (alpha (F-term + alpha delta_M gamma_s Ms)), F > 0."""
    a, males = _g_parts(F, Ms, p)
    return p.nu * (1.0 - p.nu) * (p.beta_E * p.nu_E * F) ** 2 / (a * males)


def dg_dMs_formula(F, Ms, p: Params):
    _, males = _g_parts(F, Ms, p)
    return -p.nu * (1.0 - p.nu) * (p.beta_E * p.nu_E * F) ** 2 * p.delta_M * p.gamma_s / (males * males)


def ms_star(F, p: Params, d: Design):
    lin = p.beta_E * F + p.k * (p.nu_E + p.delta_E)
    return (1.0 - p.nu) * p.nu_E * p.beta_E**2 * p.k * F * (d.F_hat - F) / (p.gamma_s * p.delta_M * lin * lin)


def dms_star(F, p: Params, d: Design):
    lin = p.beta_E * F + p.k * (p.nu_E + p.delta_E)
    c = (1.0 - p.nu) * p.nu_E * p.beta_E**2 * p.k / (p.gamma_s * p.delta_M)
    return c * ((d.F_hat - 2.0 * F) / lin**2 - 2.0 * p.beta_E * F * (d.F_hat - F) / lin**3)


def chi_poly(s, cutoff: str):
    if cutoff == "cubic":
        return 1.0 - s * s * (3.0 - 2.0 * s)
    return 1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s * s)


# --- scalar law, for the ODE right-hand side --------------------------------

def g(F: float, Ms: float, p: Params) -> float:
    if F == 0.0:
        return 0.0
    return g_formula(F, Ms, p)


def law(F: float, Ms: float, p: Params, d: Design, variant: str) -> float:
    """Release rate of the 'plus' or 'global' law at one state."""
    gate = 1.0
    if variant == "global":
        if F >= d.F_hat:
            return 0.0
        if F > d.F2:
            gate = chi_poly((F - d.F2) / (d.F_hat - d.F2), d.cutoff)
    target = ms_star(F, p, d)
    gv = g(F, Ms, p)
    if F == 0.0 and Ms == 0.0:
        mismatch = 0.0
    elif abs(Ms - target) > PI_SWITCH * max(1.0, abs(target)):
        mismatch = F * (gv - d.eps * F) / (Ms - target)
    else:
        mismatch = F * dg_dMs_formula(F, Ms, p)
    slope, drift = dms_star(F, p, d), gv - p.delta_F * F
    last = 0.0 if (slope < 0.0 and drift > 0.0) else slope * drift
    return gate * ((p.delta_s - d.eta) * Ms + d.eta * target - d.rho * mismatch + last)


def lyapunov(F, Ms, p: Params, d: Design):
    gap = Ms - ms_star(F, p, d)
    return 0.5 * d.rho * F * F + 0.5 * gap * gap


# --- vector law, for the grid audits ----------------------------------------

def g_vec(F, Ms, p: Params):
    F, Ms = np.broadcast_arrays(np.asarray(F, float), np.asarray(Ms, float))
    pos = F != 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(pos, g_formula(np.where(pos, F, 1.0), Ms, p), 0.0)


def pi_vec(F, Ms, p: Params, d: Design):
    F, Ms = np.broadcast_arrays(np.asarray(F, float), np.asarray(Ms, float))
    target = ms_star(F, p, d)
    gap = Ms - target
    origin = (F == 0.0) & (Ms == 0.0)
    far = np.abs(gap) > PI_SWITCH * np.maximum(1.0, np.abs(target))
    with np.errstate(divide="ignore", invalid="ignore"):
        divided = F * (g_vec(F, Ms, p) - d.eps * F) / np.where(far, gap, 1.0)
        tangent = F * dg_dMs_formula(F, np.where(origin, 1.0, Ms), p)
    return np.where(origin, 0.0, np.where(far, divided, tangent))


def cut2_vec(x, y):
    return np.where((x < 0.0) & (y > 0.0), 0.0, x * y)


def chi_vec(F, d: Design):
    F = np.asarray(F, float)
    s = np.clip((F - d.F2) / (d.F_hat - d.F2), 0.0, 1.0)
    return np.where(F <= d.F2, 1.0, np.where(F >= d.F_hat, 0.0, chi_poly(s, d.cutoff)))


def plus_vec(F, Ms, p: Params, d: Design):
    F, Ms = np.broadcast_arrays(np.asarray(F, float), np.asarray(Ms, float))
    drift = g_vec(F, Ms, p) - p.delta_F * F
    return (
        (p.delta_s - d.eta) * Ms + d.eta * ms_star(F, p, d)
        - d.rho * pi_vec(F, Ms, p, d) + cut2_vec(dms_star(F, p, d), drift)
    )


def global_vec(F, Ms, p: Params, d: Design):
    c = chi_vec(F, d)
    return np.where(c == 0.0, 0.0, plus_vec(F, Ms, p, d) * c)


# --- closed loops and the reference integrator ------------------------------

def reduced_field(plant: Params, law_params: Params, d: Design, variant: str):
    def f(t, y):
        F, Ms = max(y[0], 0.0), max(y[1], 0.0)
        return (g(F, Ms, plant) - plant.delta_F * F, law(F, Ms, law_params, d, variant) - plant.delta_s * Ms)

    return f


def full_field(plant: Params, law_params: Params, d: Design, variant: str):
    def f(t, y):
        E, M, F, Ms = (max(x, 0.0) for x in y)
        males = M + plant.gamma_s * Ms
        mating = M / males if males > 0.0 else 0.0
        return (
            plant.beta_E * F * (1.0 - E / plant.k) - (plant.nu_E + plant.delta_E) * E,
            (1.0 - plant.nu) * plant.nu_E * E - plant.delta_M * M,
            plant.nu * plant.nu_E * E * mating - plant.delta_F * F,
            law(F, Ms, law_params, d, variant) - plant.delta_s * Ms,
        )

    return f


def solve(field, initial, times, rtol: float = 1e-13, atol: float = 1e-12) -> np.ndarray:
    """States at ``times`` (one row each) by DOP853 at tight tolerances."""
    from scipy.integrate import solve_ivp

    times = np.asarray(times, float)
    sol = solve_ivp(field, (0.0, float(times[-1])), list(initial), method="DOP853",
                    t_eval=times, rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y.T


# --- self-check -------------------------------------------------------------

def self_check(p: Params, d: Design) -> list[str]:
    """Identities of the construction, checked on the reference itself.

    Returns a list of failures (empty when the reference is sound):
    g(F, ms*(F)) = eps F on a log grid, ms* - F dms*/dF >= 0, the slope
    and Ms-derivative against complex-step derivatives, and the scalar
    law against the vector law.
    """
    problems = []
    Fs = np.logspace(-6, math.log10(d.F_hat), 1000)
    rel = np.abs(g_formula(Fs, ms_star(Fs, p, d), p) - d.eps * Fs) / (d.eps * Fs)
    if not rel.max() <= 1e-9:
        problems.append(f"g(F, ms*(F)) = eps F fails: worst rel {rel.max():.3e}")
    lin = np.linspace(0.0, d.F_hat, 4000)
    gap = ms_star(lin, p, d) - lin * dms_star(lin, p, d)
    if not gap.min() >= -1e-12 * ms_star(lin, p, d).max():
        problems.append(f"ms* - F dms*/dF >= 0 fails: min {gap.min():.3e}")
    h = 1e-20
    Fc = np.linspace(1.0, 3.0 * d.F_hat, 301)
    cs_slope = ms_star(Fc + 1j * h, p, d).imag / h
    if not np.allclose(dms_star(Fc, p, d), cs_slope, rtol=1e-9, atol=1e-12 * np.abs(cs_slope).max()):
        problems.append("dms*/dF disagrees with the complex-step derivative of ms*")
    Ms = np.linspace(0.0, 1e5, 301)
    cs_dg = g_formula(Fc, Ms + 1j * h, p).imag / h
    if not np.allclose(dg_dMs_formula(Fc, Ms, p), cs_dg, rtol=1e-9, atol=0.0):
        problems.append("dg/dMs disagrees with the complex-step derivative of g")
    FF, MM = np.meshgrid(np.linspace(0.0, 1.2 * d.F_hat, 41), np.linspace(0.0, 3.0 * ms_star(d.F_hat / 2, p, d), 41))
    diagonal = np.linspace(0.0, d.F_hat, 41)  # Ms = ms*(F): the tangent branch of pi
    FF = np.concatenate([FF.ravel(), diagonal])
    MM = np.concatenate([MM.ravel(), ms_star(diagonal, p, d)])
    scalar = np.array([law(F, Ms, p, d, "global") for F, Ms in zip(FF, MM)])
    if not np.allclose(scalar, global_vec(FF, MM, p, d), rtol=1e-12, atol=0.0):
        problems.append("scalar and vector forms of the global law differ")
    return problems
