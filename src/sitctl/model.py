"""Mosquito population dynamics: full and reduced compartmental models.

The full model tracks aquatic-phase density E, fertile males M, fertilized
females F and sterilized males Ms.  On the fast timescale of E and M the
dynamics collapse to a planar (F, Ms) system whose recruitment term is the
nonlinear mating function ``g``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from textwrap import indent
from types import CodeType

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
#: product is the cube of ``lin = beta_E*F + k*(nu_E + delta_E)``: at the bound
#: lin <= 3e60 and ``lin * lin * lin`` <= 2.7e181, far below the 1.8e308 where
#: it overflows to inf (a float product never raises).  The margin also covers
#: ``ms_star``'s ``denom * denom``, the Python-level ``beta_E**2`` of the
#: constants ``C``, ``A`` and ``g``, which does raise OverflowError past 1.3e154,
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


def loss_rates(p: BioParams, model: str) -> dict[str, float]:
    """Each compartment's linear loss rate, by name: the plant's share of a fixed step's stability bound.

    The egg compartment's rate also grows with ``beta_E * F / k``, which depends on the state and is left out.
    """
    rates = {"delta_F": p.delta_F, "delta_s": p.delta_s}
    if model == "full":
        rates = {"nu_E + delta_E": p.nu_E + p.delta_E, "delta_M": p.delta_M, **rates}
    return rates


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


#: The recruitment ``gv = g(F, Ms)`` as statement text, to the last bit (``g`` is its array form); it also
#: leaves ``denom``, the mating denominator, which the law's derivative branch reuses.
RECRUITMENT = """\
a = beta_E * F / k + nu_E + delta_E
denom = male_rate * F + a * delta_M * gamma_s * Ms
scale = a * denom
gv = 0.0 if F == 0.0 or scale == 0.0 else A * F * F / scale
"""
#: The reduced model's female rate ``dF``; the law's drift is this text on the law's own params.
REDUCED_FEMALES = RECRUITMENT + "dF = gv - delta_F * F\n"
#: Sterile males, released at ``u`` and dying at ``delta_s``.
RELEASE = "dMs = u - delta_s * Ms\n"
#: Each model's field as statement text: it sets ``d<name>`` for each state name from the state and ``u``.
#: The mating fraction M/(M + gamma_s*Ms) is 0 when both male compartments are empty, so the extinct
#: state stays a fixed point of the full model.
FIELDS = {
    "reduced": REDUCED_FEMALES + RELEASE,
    "full": """\
males = M + gamma_s * Ms
mating = M / males if males > 0.0 else 0.0
dE = beta_E * F * (1.0 - E / k) - egg_loss * E
dM = male_birth * E - delta_M * M
dF = female_birth * E * mating - delta_F * F
""" + RELEASE,
}
#: Each model's state names in order; F and Ms come last in both.
STATE_NAMES = {"reduced": ("F", "Ms"), "full": ("E", "M", "F", "Ms")}

#: The compiled code of each generated function, by its source text (see :func:`define`).
_CODE: dict[str, CodeType] = {}


def source(name: str, args: str, body: str, constants) -> str:
    """The source text ``def name(args, <constant>=<constant>, ...): body`` that :func:`define` compiles."""
    return f"def {name}({', '.join([args, *(f'{c}={c}' for c in constants)])}):\n{indent(body, '    ')}"


def define(name: str, args: str, body: str, constants: dict):
    """The function ``def name(args): body``, each constant bound as one of its locals.

    The constants are default values of trailing parameters, read from ``constants`` when the ``def``
    runs.  The source (:func:`source`) names them but holds none of their values, so it depends only on
    the texts and the names, and one compiled code (held in :data:`_CODE`) serves every parameter set.
    """
    source_text = source(name, args, body, constants)
    code = _CODE.get(source_text)
    if code is None:
        code = _CODE[source_text] = compile(source_text, f"<sitctl {name}>", "exec")
    namespace = dict(constants)
    exec(code, namespace)
    return namespace[name]


def field_constants(p: BioParams) -> dict[str, float]:
    """The names the field texts read, bound to ``p``: its parameters and the products the fields precompute."""
    beta_E, nu_E, nu = p.beta_E, p.nu_E, p.nu
    return {
        **{name: getattr(p, name) for name in PARAM_KEYS},
        "A": nu * (1.0 - nu) * beta_E**2 * nu_E**2,
        "male_rate": (1.0 - nu) * nu_E * beta_E,
        "egg_loss": nu_E + p.delta_E,
        "male_birth": (1.0 - nu) * nu_E,
        "female_birth": nu * nu_E,
    }


def reduced_rhs(state, u: float, p: BioParams):
    """Time derivative of the reduced (F, Ms) model under release rate u."""
    return _rhs("reduced", p)(*state, u)


def full_rhs(state, u: float, p: BioParams):
    """Time derivative of the full (E, M, F, Ms) model under release rate u."""
    return _rhs("full", p)(*state, u)


@lru_cache(maxsize=8)
def _rhs(model: str, p: BioParams):
    """``FIELDS[model]`` on ``p`` as a function ``(<state>, u) -> rates``, cached for the last few models and ``p``."""
    names = STATE_NAMES[model]
    rates = ", ".join("d" + name for name in names)
    return define("rhs", ", ".join([*names, "u"]), FIELDS[model] + f"return {rates}\n", field_constants(p))
