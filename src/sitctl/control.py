"""Backstepping release-rate controllers for the reduced mosquito model.

Design chain: a virtual sterile-male level ``ms_star`` makes the female
compartment contract at rate delta_F - eps; the raw backstepping law
``u_star`` drives Ms onto that level; ``u_star_plus`` strips the only
sign-indefinite term via the second-quadrant-zeroed product ``cut2``;
``u_tilde`` gates the result with a smooth cutoff so the law is defined
and nonnegative for arbitrarily large female densities.

The composed functions broadcast over numpy arrays (scalar inputs give a
float); their integer powers are written as products, so an array rounds
exactly like its points passed one float at a time (numpy's vectorised
``power`` need not round like libm's ``pow``).  :meth:`ControlLaw.evaluator`
is the fused scalar version for the integration loop.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MAX_MAGNITUDE, BioParams, _plain, alpha, dg_dMs, g, persistence_equilibrium, validate_params

VARIANTS = ("none", "raw", "plus", "global")

# Relative width of the near-diagonal band where the divided difference in
# pi() is replaced by the exact partial derivative (cancellation guard).
PI_SWITCH_TOL = 1e-8


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
    cutoff_kind: str = "quintic"  # smoothstep family for chi

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


def pi(F, Ms, cfg: ControllerConfig, p: BioParams):
    """Mismatch rate between actual and virtual recruitment, times F.

    Divided difference of g between Ms and ms_star(F) away from the
    diagonal; the exact partial derivative on it.  Nonpositive on the
    whole nonnegative quadrant; 0 at the origin, where the derivative
    branch is undefined.
    """
    origin = (F == 0.0) & (Ms == 0.0)
    target = ms_star(F, cfg, p)
    gap = Ms - target
    with np.errstate(divide="ignore", invalid="ignore"):
        divided = np.divide(g(F, Ms, p) - cfg.eps * F, gap) * F
        # the origin is swapped for a harmless point; its value is discarded below
        on_diagonal = dg_dMs(np.where(origin, 1.0, F), Ms, p) * F
    off_diagonal = np.abs(gap) > PI_SWITCH_TOL * np.maximum(1.0, np.abs(target))
    return _plain(np.where(origin, 0.0, np.where(off_diagonal, divided, on_diagonal)))


def cut2(x, y):
    """Product x*y zeroed on the open second quadrant (x < 0, y > 0)."""
    return _plain(np.where((x < 0.0) & (y > 0.0), 0.0, x * y))


def _backstepping(F, Ms, cfg: ControllerConfig, p: BioParams, clip: bool):
    """The body of ``u_star`` and, with ``clip``, of ``u_star_plus``: cut2 on the last term."""
    gv = g(F, Ms, p)
    slope, drift = dms_star_dF(F, cfg, p), gv - p.delta_F * F
    return (
        (p.delta_s - cfg.eta) * Ms
        + cfg.eta * ms_star(F, cfg, p)
        - cfg.rho * pi(F, Ms, cfg, p)
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
    """Smooth nonincreasing gate: 1 below the knee F2, 0 above F_hat."""
    s = (F - cfg.F2) / (cfg.F_hat - cfg.F2)
    if cfg.cutoff_kind == "cubic":
        ramp = 1.0 - s * s * (3.0 - 2.0 * s)
    else:
        ramp = 1.0 - s * s * s * (6.0 * s * s - 15.0 * s + 10.0)
    return _plain(np.where(F <= cfg.F2, 1.0, np.where(F >= cfg.F_hat, 0.0, ramp)))


def u_tilde(F, Ms, cfg: ControllerConfig, p: BioParams):
    """Globally defined nonnegative law: the clipped controller gated by chi."""
    c = chi(F, cfg)
    with np.errstate(invalid="ignore", over="ignore"):
        gated = u_star_plus(F, Ms, cfg, p) * c
    return _plain(np.where(c == 0.0, 0.0, gated))


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
    quadrant; 'none' still carries a config when Lyapunov values are wanted
    along open-loop runs.
    """

    variant: str
    config: ControllerConfig | None
    params: BioParams

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ControllerError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.variant != "none" and self.config is None:
            raise ControllerError(f"variant {self.variant!r} requires a ControllerConfig")
        validate_params(self.params)

    def __call__(self, F: float, Ms: float) -> float:
        if self.variant == "none":
            return 0.0
        if self.variant == "raw":
            return u_star(F, Ms, self.config, self.params)
        if self.variant == "plus":
            return u_star_plus(F, Ms, self.config, self.params)
        return u_tilde(F, Ms, self.config, self.params)

    def evaluator(self):
        """Return a fused closure u(F, Ms) for tight integration loops.

        Algebraically identical to calling the law; parameters are unpacked
        into locals once so the per-step cost is plain float arithmetic
        (tests pin the closure against the composed functions on a grid,
        and its outputs bit for bit on fixed points).  The variant is
        resolved into two flags when the closure is built.  Only constants
        that lead a left-associated product or sum are precomputed
        (``delta_s - eta``, ``(1 - nu) nu_E beta_E``): folding a trailing
        pair such as ``nu_E + delta_E`` in ``beta_E F / k + nu_E + delta_E``
        would change the rounding.  Divisions whose denominator underflows
        to 0 near extinction take the limit 0, as in ``g`` and ``dg_dMs``.
        The same body gives :meth:`_reduced_rates`.
        """
        return self._fused(False)

    def _reduced_rates(self):
        """Closed-loop reduced rates ``(F, Ms) -> (dF, dMs)`` on the law's own params, not for 'none'.

        The law's drift ``gv - delta_F F`` is the field's ``dF`` to the last bit, so a stage computes ``g`` once.
        """
        return self._fused(True)

    def _fused(self, rates: bool):
        """u(F, Ms), or with ``rates`` the pair ``(drift, u - delta_s Ms)``."""
        if self.variant == "none":
            return lambda F, Ms: 0.0
        cfg, p = self.config, self.params
        gated = self.variant == "global"  # chi cutoff above F2
        clip = self.variant != "raw"  # cut2 on the last term
        beta_E, gamma_s, nu_E, nu = p.beta_E, p.gamma_s, p.nu_E, p.nu
        delta_E, delta_M, delta_F, delta_s, k = p.delta_E, p.delta_M, p.delta_F, p.delta_s, p.k
        F_hat, eps, eta, rho, F2 = cfg.F_hat, cfg.eps, cfg.eta, cfg.rho, cfg.F2
        cubic = cfg.cutoff_kind == "cubic"
        B, C = ms_star_coefficients(p)
        A = nu * (1.0 - nu) * beta_E**2 * nu_E**2
        male_rate = (1.0 - nu) * nu_E * beta_E
        two_beta_E = 2.0 * beta_E
        release_decay = delta_s - eta
        inv_span = 1.0 / (F_hat - F2)
        switch = PI_SWITCH_TOL

        def evaluate(F: float, Ms: float):
            a = beta_E * F / k + nu_E + delta_E
            denom = male_rate * F + a * delta_M * gamma_s * Ms
            scale = a * denom
            gv = 0.0 if F == 0.0 or scale == 0.0 else A * F * F / scale
            drift = gv - delta_F * F
            if gated:
                if F >= F_hat:
                    return (drift, 0.0 - delta_s * Ms) if rates else 0.0
                if F <= F2:
                    c = 1.0
                else:
                    s = (F - F2) * inv_span
                    c = 1.0 - s * s * (3.0 - 2.0 * s) if cubic else 1.0 - s**3 * (6.0 * s * s - 15.0 * s + 10.0)
            else:
                c = 1.0
            lin = beta_E * F + B
            room = F_hat - F
            target = C * F * room / (lin * lin)
            slope = C * ((F_hat - 2.0 * F) * lin - two_beta_E * F * room) / lin**3
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
            last = 0.0 if clip and slope < 0.0 and drift > 0.0 else slope * drift
            u = (release_decay * Ms + eta * target - rho * mismatch + last) * c
            return (drift, u - delta_s * Ms) if rates else u

        return evaluate
