"""Backstepping release-rate controllers for the reduced mosquito model.

Design chain: a virtual sterile-male level ``ms_star`` makes the female
compartment contract at rate delta_F - eps; the raw backstepping law drives
Ms onto that level; the clipped law zeroes its only sign-indefinite term,
the product of the ``ms_star`` slope and the female drift, where the slope
is negative and the drift positive; the global law gates the result with a
smooth cutoff so it is defined and nonnegative for arbitrarily large female
densities.

:data:`LAW` is the whole law as scalar statement text, the one place it is
written: :meth:`ControlLaw.evaluator` compiles it, the integration kernels
write it into every Runge-Kutta stage, and the grid audits evaluate it.
"""
from __future__ import annotations

from dataclasses import dataclass

from .model import (
    MAX_MAGNITUDE,
    REDUCED_FEMALES,
    BioParams,
    alpha,
    define,
    field_constants,
    persistence_equilibrium,
    validate_params,
)

VARIANTS = ("none", "raw", "plus", "global")

# Relative width of the near-diagonal band where the law's mismatch rate replaces the
# divided difference of g by its exact partial derivative (cancellation guard).
PI_SWITCH_TOL = 1e-8


#: The feedback law's scalar body: statement text that sets ``u`` and ``mismatch``, the mismatch rate times F,
#: from (F, Ms) and the constants of :meth:`ControlLaw.body`, flags ``gated`` and ``clip`` among them.  Its
#: drift is the reduced field's ``dF`` text on the law's params, whose ``gv`` and ``denom`` it reuses.  Only
#: constants that lead a left-associated product or sum are precomputed (``delta_s - eta``): folding ``nu_E +
#: delta_E`` in ``beta_E F / k + nu_E + delta_E`` would change the rounding.  A denominator that underflows to 0
#: takes the limit 0, as in ``g``.
LAW = REDUCED_FEMALES + """\
c = 1.0
if gated and F > F2:
    if F >= F_hat:
        c = 0.0
    else:
        s = (F - F2) * inv_span
        c = 1.0 - s * s * (3.0 - 2.0 * s) if cubic else 1.0 - s * s * s * (6.0 * s * s - 15.0 * s + 10.0)
if c <= 0.0:  # from F_hat on, and where the quintic ramp rounds below 0 just under it
    u = 0.0
    mismatch = 0.0  # u does not read it here; set so that the text defines the mismatch rate on every path
else:
    lin = beta_E * F + B
    room = F_hat - F
    target = C * F * room / (lin * lin)
    slope = C * ((F_hat - 2.0 * F) * lin - two_beta_E * F * room) / (lin * lin * lin)
    if F == 0.0 and Ms == 0.0:
        mismatch = 0.0
    else:
        gap = Ms - target
        size = abs(target)
        if abs(gap) > switch * (size if size > 1.0 else 1.0):
            mismatch = (gv - eps * F) / gap * F
        else:
            d2 = denom * denom
            mismatch = 0.0 if d2 == 0.0 else -A * F * F * delta_M * gamma_s / d2 * F
    last = 0.0 if clip and slope < 0.0 and dF > 0.0 else slope * dF
    u = (release_decay * Ms + eta * target - rho * mismatch + last) * c
"""


class ControllerError(ValueError):
    """A controller configuration violates a design constraint."""


def epsilon_for(F_hat: float, p: BioParams) -> float:
    """Contraction offset achieved by the virtual feedback with ceiling F_hat.

    Strictly decreasing in F_hat and vanishing as F_hat grows, so the
    achievable female decay rate approaches delta_F from below.
    """
    return p.nu * p.k * p.beta_E * p.nu_E / (p.nu_E * p.k + F_hat * p.beta_E + p.delta_E * p.k)


def f_hat_for(eps: float, p: BioParams) -> float:
    """Virtual-feedback ceiling whose achieved offset equals eps (inverse of epsilon_for)."""
    return p.k * (p.nu * p.beta_E * p.nu_E / eps - p.nu_E - p.delta_E) / p.beta_E


@dataclass(frozen=True)
class ControllerConfig:
    """Design constants of the backstepping family.

    ``eps`` is always the value implied by ``F_hat``; build instances via
    :meth:`design` so the coupling (and the admissibility checks against a
    parameter set) cannot be skipped.
    """

    F_hat: float  # virtual-feedback ceiling, > F_bar
    eps: float  # achieved contraction offset, < delta_F
    eta: float  # backstepping gain
    rho: float  # Lyapunov weight on F^2
    F2: float  # cutoff knee, in (F_bar, F_hat)
    cutoff_kind: str = "quintic"  # smoothstep family of the cutoff gate

    def __post_init__(self):
        for name in ("F_hat", "eps", "eta", "rho", "F2"):  # a numpy scalar would reach the law's constants
            object.__setattr__(self, name, float(getattr(self, name)))

    @classmethod
    def design(
        cls,
        p: BioParams,
        F_hat: float | None = None,
        F_hat_ratio: float | None = None,
        eps: float | None = None,
        eta: float = 0.1,
        rho: float = 0.5,
        F2: float | None = None,
        cutoff_kind: str = "quintic",
    ) -> "ControllerConfig":
        """Build a validated configuration for parameter set ``p``.

        Exactly one of ``F_hat``, ``F_hat_ratio`` (relative to the
        persistence level F_bar) or ``eps`` (ceiling solved from the
        offset) selects the virtual feedback.  ``F2`` defaults to the
        midpoint of (F_bar, F_hat).
        """
        validate_params(p)
        F_bar = persistence_equilibrium(p).F_bar
        given = [x is not None for x in (F_hat, F_hat_ratio, eps)]
        if sum(given) != 1:
            raise ControllerError("specify exactly one of F_hat, F_hat_ratio, eps")
        if F_hat_ratio is not None:
            F_hat = F_hat_ratio * F_bar
        elif eps is not None:
            if not eps > 0.0:
                raise ControllerError(f"offset eps must be positive, got {eps}")
            F_hat = f_hat_for(eps, p)
        assert F_hat is not None
        if not F_bar < F_hat <= MAX_MAGNITUDE:
            raise ControllerError(
                f"F_hat={F_hat} must exceed the persistence level F_bar={F_bar} "
                f"and be at most MAX_MAGNITUDE = {MAX_MAGNITUDE:.0e}"
            )
        eps_val = epsilon_for(F_hat, p)
        if not eps_val < p.delta_F:
            raise ControllerError(
                f"achieved offset eps={eps_val} must stay below delta_F={p.delta_F}; increase F_hat"
            )
        for name, gain in (("gain eta", eta), ("Lyapunov weight rho", rho)):
            if not 0.0 < gain <= MAX_MAGNITUDE:
                raise ControllerError(
                    f"{name} must be positive and at most MAX_MAGNITUDE = {MAX_MAGNITUDE:.0e}, got {gain}"
                )
        if F2 is None:
            F2 = 0.5 * (F_bar + F_hat)
        if not F_bar < F2 < F_hat:
            raise ControllerError(f"cutoff knee F2={F2} must lie in (F_bar={F_bar}, F_hat={F_hat})")
        if cutoff_kind not in ("quintic", "cubic"):
            raise ControllerError(f"unknown cutoff_kind {cutoff_kind!r}")
        return cls(F_hat=F_hat, eps=eps_val, eta=eta, rho=rho, F2=F2, cutoff_kind=cutoff_kind)

    def guarantees_nonnegativity(self, p: BioParams) -> bool:
        """Whether eta lies in the interval (delta_F, delta_s) that certifies u >= 0."""
        return p.delta_F < self.eta < p.delta_s


def ms_star_coefficients(p: BioParams) -> tuple[float, float]:
    """(B, C) with ms_star(F) = C F (F_hat - F) / (beta_E F + B)^2."""
    B = p.k * (p.nu_E + p.delta_E)
    C = (1.0 - p.nu) * p.nu_E * p.beta_E**2 * p.k / (p.gamma_s * p.delta_M)
    return B, C


def ms_star(F: float, cfg: ControllerConfig, p: BioParams) -> float:
    """Virtual sterile-male level; holding it makes F contract at delta_F - eps.

    Vanishes at F = 0 and F = F_hat, positive in between.  The closed form
    is evaluated for all F >= 0 (negative beyond F_hat); the global
    controller's cutoff owns the domain restriction.
    """
    denom = p.beta_E * F + p.k * (p.nu_E + p.delta_E)
    return (
        (1.0 - p.nu) * p.nu_E * p.beta_E**2 * p.k * F * (cfg.F_hat - F)
        / (p.gamma_s * p.delta_M * (denom * denom))
    )


def lyapunov_V(F: float, Ms: float, cfg: ControllerConfig, p: BioParams) -> float:
    """Backstepping Lyapunov value: weighted F^2 plus squared virtual mismatch."""
    gap = Ms - ms_star(F, cfg, p)
    return 0.5 * cfg.rho * F * F + 0.5 * gap * gap


def dms_star_dF(F: float, cfg: ControllerConfig, p: BioParams) -> float:
    """Closed-form slope of the virtual feedback (quotient rule)."""
    B, C = ms_star_coefficients(p)
    lin = p.beta_E * F + B
    return C * ((cfg.F_hat - 2.0 * F) * lin - 2.0 * p.beta_E * F * (cfg.F_hat - F)) / (lin * lin * lin)


def sigma(F2: float, p: BioParams) -> float:
    """Self-decay rate of F in the uncontrolled region above F2.

    Positive exactly when F2 exceeds the persistence level; raising an
    error otherwise keeps the global decay-rate bookkeeping honest.
    """
    F_bar = persistence_equilibrium(p).F_bar
    if not F2 > F_bar:
        raise ControllerError(f"sigma requires F2 > F_bar: got F2={F2}, F_bar={F_bar}")
    return p.delta_F - p.nu * p.beta_E * p.nu_E / alpha(F2, p)


@dataclass(frozen=True)
class ControlLaw:
    """A selected feedback variant bound to its design constants and plant data.

    ``variant`` is one of 'none' (u = 0), 'raw', 'plus' or 'global'.  Only
    the 'global' variant is guaranteed total and nonnegative on the whole
    quadrant.  Every variant carries a config, 'none' too: it gives the
    Lyapunov values along an open-loop run.
    """

    variant: str
    config: ControllerConfig
    params: BioParams

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ControllerError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.config is None:
            raise ControllerError(f"variant {self.variant!r} requires a ControllerConfig")
        validate_params(self.params)

    def __call__(self, F: float, Ms: float) -> float:
        """u at (F, Ms) from the law's text; each call makes an :meth:`evaluator`, which a loop should take once."""
        return self.evaluator()(F, Ms)

    def body(self) -> tuple[str, dict]:
        """The law's scalar body and the constants it reads: statement text that sets ``u`` (and, but for 'none',
        ``mismatch``) from ``F`` and ``Ms``.

        A feedback variant's body is :data:`LAW`; 'none' sets ``u = 0.0``.  :meth:`evaluator` compiles it,
        and so does every integration kernel, so the two cannot diverge.
        """
        if self.variant == "none":
            return "u = 0.0\n", {}
        cfg, p = self.config, self.params
        B, C = ms_star_coefficients(p)
        return LAW, {
            **field_constants(p),
            "F_hat": cfg.F_hat, "eps": cfg.eps, "eta": cfg.eta, "rho": cfg.rho, "F2": cfg.F2, "B": B, "C": C,
            "two_beta_E": 2.0 * p.beta_E, "release_decay": p.delta_s - cfg.eta, "inv_span": 1.0 / (cfg.F_hat - cfg.F2),
            "switch": PI_SWITCH_TOL, "cubic": cfg.cutoff_kind == "cubic",
            "gated": self.variant == "global",  # the cutoff gate above F2
            "clip": self.variant != "raw",  # the last term zeroed where slope < 0 < drift
        }

    def evaluator(self):
        """The law as a plain-float function u(F, Ms) for tight loops, compiled from :meth:`body`; its constants are
        locals of the function, so a call costs plain float arithmetic."""
        body, constants = self.body()
        return define("evaluate", "F, Ms", body + "return u\n", constants)
