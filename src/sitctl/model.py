"""Mosquito population dynamics: full and reduced compartmental models.

The full model tracks aquatic-phase density E, fertile males M, fertilized
females F and sterilized males Ms.  On the fast timescale of E and M the
dynamics collapse to a planar (F, Ms) system whose recruitment term is the
nonlinear mating function ``g``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

PARAM_KEYS = (
    "beta_E",
    "gamma_s",
    "nu_E",
    "nu",
    "delta_E",
    "delta_M",
    "delta_F",
    "delta_s",
    "k",
)

#: Largest accepted parameter value, initial-state component and F_hat; its
#: inverse 1e-30 is the smallest accepted parameter value.  The law's tightest
#: power is the cube of ``lin = beta_E*F + k*(nu_E + delta_E)``: at the bound
#: lin <= 3e60 and lin**3 <= 2.7e181, far below the 1.8e308 where the fused
#: law's float ``**`` raises OverflowError and ``dms_star_dF``'s ``lin * lin * lin``
#: overflows to inf.  The margin also covers ``ms_star``'s ``denom * denom``
#: and any product of up to nine bounded factors; at the floor a
#: product of up to nine parameters stays above 1e-270, a normal float.
MAX_MAGNITUDE = 1e30


class ParamError(ValueError):
    """A biological parameter set violates a model assumption."""


@dataclass(frozen=True)
class BioParams:
    """Biological rates and capacities of the compartmental model.

    All rates are per day, densities are head counts.  Instances may hold
    arbitrary positive values (the robustness sweep perturbs them freely);
    call :func:`validate_params` before feeding them to dynamics or
    controller code.
    """

    beta_E: float  # oviposition rate
    gamma_s: float  # female preference for sterile males
    nu_E: float  # egg hatching rate
    nu: float  # probability a pupa emerges female
    delta_E: float  # aquatic-phase death rate
    delta_M: float  # fertile-male death rate
    delta_F: float  # female death rate
    delta_s: float  # sterile-male death rate
    k: float  # environmental capacity for eggs

    def __post_init__(self):
        for name in PARAM_KEYS:
            object.__setattr__(self, name, float(getattr(self, name)))

    def replace(self, **changes) -> "BioParams":
        return replace(self, **changes)


@dataclass(frozen=True)
class EquilibriumSet:
    """Basic offspring number and the persistence equilibrium levels."""

    R0: float
    F_bar: float
    E_bar: float
    M_bar: float


def basic_offspring_number(p: BioParams) -> float:
    """Expected female offspring per female over its lifespan."""
    return p.nu * p.beta_E * p.nu_E / (p.delta_F * (p.nu_E + p.delta_E))


def validate_params(p: BioParams) -> BioParams:
    """Check each value lies in [1/MAX_MAGNITUDE, MAX_MAGNITUDE], nu in (0,1), sterile-male frailty and R0 > 1.

    Returns ``p`` unchanged on success; raises :class:`ParamError` naming
    the offending field otherwise.
    """
    for name in PARAM_KEYS:
        value = getattr(p, name)
        if not 0.0 < value < math.inf:
            raise ParamError(f"parameter {name} must be strictly positive and finite, got {value}")
        if value > MAX_MAGNITUDE:
            raise ParamError(f"parameter {name} = {value} exceeds MAX_MAGNITUDE = {MAX_MAGNITUDE:.0e}")
        if value < 1.0 / MAX_MAGNITUDE:
            raise ParamError(f"parameter {name} = {value} is below 1/MAX_MAGNITUDE = {1.0 / MAX_MAGNITUDE:.0e}")
    if not 0.0 < p.nu < 1.0:
        raise ParamError(f"nu must lie in (0, 1), got {p.nu}")
    if not p.delta_s > max(p.delta_F, p.delta_M):
        raise ParamError(
            "sterile-male death rate must exceed both adult death rates: "
            f"delta_s={p.delta_s} vs max(delta_F={p.delta_F}, delta_M={p.delta_M})"
        )
    r0 = basic_offspring_number(p)
    if not r0 > 1.0:
        raise ParamError(
            f"basic offspring number must exceed 1 for a persistent population, got R0={r0} "
            "(determined by beta_E, nu, nu_E, delta_E, delta_F)"
        )
    return p


def _plain(x):
    """A plain float for a 0-d result, the array itself otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def alpha(F: float, p: BioParams) -> float:
    """Egg-compartment turnover rate at female density F."""
    return p.beta_E * F / p.k + p.nu_E + p.delta_E


def g(F, Ms, p: BioParams):
    """Female recruitment rate under sterile-male competition.

    Defined as 0 at F = 0 (explicit branch; the formula is 0/0 there).
    Non-increasing in Ms, continuous on the nonnegative quadrant.
    Broadcasts over arrays; scalar inputs give a float.
    """
    a = alpha(F, p)
    denom = (1.0 - p.nu) * p.nu_E * p.beta_E * F + a * p.delta_M * p.gamma_s * Ms
    scale = a * denom
    with np.errstate(divide="ignore", invalid="ignore"):
        value = np.divide(p.nu * (1.0 - p.nu) * p.beta_E**2 * p.nu_E**2 * F * F, scale)
    # subnormal F underflows the denominator; the limit is 0 there too
    return _plain(np.where((F == 0.0) | (scale == 0.0), 0.0, value))


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


def persistence_equilibrium(p: BioParams) -> EquilibriumSet:
    """Closed-form positive equilibrium of the uncontrolled models.

    Raises :class:`ParamError` when R0 <= 1 (no positive equilibrium).
    The returned female level is cross-checked against the reduced-model
    balance g(F_bar, 0) = delta_F * F_bar.
    """
    r0 = basic_offspring_number(p)
    if not r0 > 1.0:
        raise ParamError(f"no persistence equilibrium: R0={r0} <= 1")
    factor = 1.0 - 1.0 / r0
    F_bar = p.nu * p.nu_E * p.k / p.delta_F * factor
    E_bar = p.k * factor
    M_bar = (1.0 - p.nu) * p.nu_E * E_bar / p.delta_M
    residual = g(F_bar, 0.0, p) - p.delta_F * F_bar
    assert abs(residual) <= 1e-9 * p.delta_F * F_bar, "equilibrium balance violated"
    return EquilibriumSet(R0=r0, F_bar=F_bar, E_bar=E_bar, M_bar=M_bar)


def capacity_from_E_bar(E_bar: float, p: BioParams) -> float:
    """Environmental capacity implied by an observed aquatic equilibrium."""
    return E_bar / (1.0 - p.delta_F * (p.nu_E + p.delta_E) / (p.beta_E * p.nu * p.nu_E))


def reduced_rhs(state, u: float, p: BioParams):
    """Time derivative of the reduced (F, Ms) model under release rate u."""
    F, Ms = state
    return (g(F, Ms, p) - p.delta_F * F, u - p.delta_s * Ms)


def reduced_field(p: BioParams, u):
    """Closed-loop reduced rates ``(F, Ms) -> (dF, dMs)`` under the feedback ``u(F, Ms)``, ``p`` bound once.

    Its recruitment term is ``g`` to the last bit; :func:`reduced_rhs` is the array reference.
    """
    beta_E, gamma_s, nu_E, nu = p.beta_E, p.gamma_s, p.nu_E, p.nu
    delta_E, delta_M, delta_F, delta_s, k = p.delta_E, p.delta_M, p.delta_F, p.delta_s, p.k
    A = nu * (1.0 - nu) * beta_E**2 * nu_E**2
    male_rate = (1.0 - nu) * nu_E * beta_E

    def field(F, Ms):
        a = beta_E * F / k + nu_E + delta_E
        scale = a * (male_rate * F + a * delta_M * gamma_s * Ms)
        gv = 0.0 if F == 0.0 or scale == 0.0 else A * F * F / scale
        return gv - delta_F * F, u(F, Ms) - delta_s * Ms

    return field


def full_field(p: BioParams, u):
    """Closed-loop full rates ``(E, M, F, Ms) -> (dE, dM, dF, dMs)`` under the feedback ``u(F, Ms)``, ``p`` bound once.

    The mating fraction M/(M + gamma_s*Ms) is taken as 0 when both male
    compartments are empty, so the extinct state stays a fixed point.
    """
    beta_E, gamma_s, nu_E, nu = p.beta_E, p.gamma_s, p.nu_E, p.nu
    delta_E, delta_M, delta_F, delta_s, k = p.delta_E, p.delta_M, p.delta_F, p.delta_s, p.k
    egg_loss = nu_E + delta_E
    male_birth = (1.0 - nu) * nu_E
    female_birth = nu * nu_E

    def field(E, M, F, Ms):
        males = M + gamma_s * Ms
        mating = M / males if males > 0.0 else 0.0
        return (
            beta_E * F * (1.0 - E / k) - egg_loss * E,
            male_birth * E - delta_M * M,
            female_birth * E * mating - delta_F * F,
            u(F, Ms) - delta_s * Ms,
        )

    return field


def full_rhs(state, u: float, p: BioParams):
    """Time derivative of the full (E, M, F, Ms) model under release rate u."""
    return full_field(p, lambda F, Ms: u)(*state)
