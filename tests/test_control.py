"""Backstepping controllers: virtual feedback, mismatch rate, the law family."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sitctl as s
from sitctl.control import PI_SWITCH_TOL
from sitctl.model import define

from reference import chi, chi_sandwich, cut2, dg_dMs, pi, u_star, u_star_plus, u_tilde


# Exact outputs of ControlLaw.evaluator() for the study gains (cfg fixture;
# "global-cubic" swaps in the cubic cutoff), as float.hex.  The points cover
# the origin, the F = 0 axis, the pi derivative branch (Ms on or within
# PI_SWITCH_TOL of ms*(F)), the chi ramp (F2 < F < F_hat), the region at and
# beyond F_hat, two points where cut2 clips the last term, and two points
# where the rounding of beta_E*F/k + nu_E + delta_E or of the quintic ramp
# would change if their constants were regrouped.
GOLDEN_POINTS = [
    (0.0, 0.0), (0.0, 5000.0), (1.0, 0.0),
    (0.001, 0.01), (100.0, 3.0), (12264.3675, 0.0),
    (12264.3675, 8000.0), (5000.0, 30000.0), (6132.18375, 7323.297892987583),
    (12264.3675, 1684.9739187399268), (14901.206512500003, 545.8964169607443), (2000.0, 20950.14839636524),
    (3679.31025, 13118.309316988032), (14410.631812500002, 1000.0), (14947.197890625002, 1750.0),
    (15483.763968750001, 2500.0), (16020.330046875002, 3250.0), (16554.7498606875, 3997.0),
    (16556.896125000003, 500.0), (19868.275350000004, 100.0), (49670.68837500001, 20000.0),
    (735.8620500000001, 0.0), (2500.0, 50.0), (7935.89111328125, 28093.26171875),
    (16070.3310546875, 4585.95068359375),
]
GOLDEN_BITS = {
    "raw": [
        "0x0.0p+0", "0x1.9000000000001p+6", "0x1.ea3b68812b7cep+6", "0x1.d9a91d9f789bdp-5",
        "0x1.a2a55827b1347p+12", "0x1.31bdcc7556d64p+9", "0x1.47885af8a384ap+9", "0x1.d2fbd6fe53623p+10",
        "0x1.0042e7f42412ap+10", "0x1.2aee27e282209p+9", "0x1.6046d7428858fp+9", "0x1.4a0811ef60ce2p+11",
        "0x1.ab5855c3b85a5p+10", "0x1.4b9ae8ef9d3f7p+9", "0x1.48335f272ba54p+9", "0x1.45619232df3f0p+9",
        "0x1.432b600b5360dp+9", "0x1.4190ff7e26749p+9", "0x1.8ee037507a7e0p+9", "0x1.12ac867f25898p+10",
        "0x1.8c05cc1ca29c8p+10", "0x1.39fdf4cc2e9d3p+11", "0x1.2196ae0250b34p+8", "0x1.514e8d4a0570dp+10",
        "0x1.383a730ebd7bep+9",
    ],
    "plus": [
        "0x0.0p+0", "0x1.9000000000001p+6", "0x1.ea3b68812b7cep+6", "0x1.d9a91d9f789bdp-5",
        "0x1.a2a55827b1347p+12", "0x1.31bdcc7556d64p+9", "0x1.47885af8a384ap+9", "0x1.d2fbd6fe53623p+10",
        "0x1.0042e7f42412ap+10", "0x1.2aee27e282209p+9", "0x1.6046d7428858fp+9", "0x1.4a0811ef60ce2p+11",
        "0x1.ab5855c3b85a5p+10", "0x1.4b9ae8ef9d3f7p+9", "0x1.48335f272ba54p+9", "0x1.45619232df3f0p+9",
        "0x1.432b600b5360dp+9", "0x1.4190ff7e26749p+9", "0x1.8ee037507a7e0p+9", "0x1.12ac867f25898p+10",
        "0x1.8c05cc1ca29c8p+10", "0x1.68946a8ea6fd7p+11", "0x1.ca1d95b461cb8p+10", "0x1.514e8d4a0570dp+10",
        "0x1.383a730ebd7bep+9",
    ],
    "global": [
        "0x0.0p+0", "0x1.9000000000001p+6", "0x1.ea3b68812b7cep+6", "0x1.d9a91d9f789bdp-5",
        "0x1.a2a55827b1347p+12", "0x1.31bdcc7556d64p+9", "0x1.47885af8a384ap+9", "0x1.d2fbd6fe53623p+10",
        "0x1.0042e7f42412ap+10", "0x1.2aee27e282209p+9", "0x1.43503fc0e004bp+9", "0x1.4a0811ef60ce2p+11",
        "0x1.ab5855c3b85a5p+10", "0x1.4b9ae8ef9d3f7p+9", "0x1.263a0dcd9da09p+9", "0x1.45619232df3f9p+8",
        "0x1.0b9feb89610c8p+6", "0x1.aef3b28513dacp-18", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x1.68946a8ea6fd7p+11", "0x1.ca1d95b461cb8p+10", "0x1.514e8d4a0570dp+10",
        "0x1.921304b90fd23p+5",
    ],
    "global-cubic": [
        "0x0.0p+0", "0x1.9000000000001p+6", "0x1.ea3b68812b7cep+6", "0x1.d9a91d9f789bdp-5",
        "0x1.a2a55827b1347p+12", "0x1.31bdcc7556d64p+9", "0x1.47885af8a384ap+9", "0x1.d2fbd6fe53623p+10",
        "0x1.0042e7f42412ap+10", "0x1.2aee27e282209p+9", "0x1.3179eea068fd5p+9", "0x1.4a0811ef60ce2p+11",
        "0x1.ab5855c3b85a5p+10", "0x1.4b9ae8ef9d3f7p+9", "0x1.14eb58490cd36p+9", "0x1.45619232df3f8p+8",
        "0x1.93f6380e2839ap+6", "0x1.f9716a1685a6ep-10", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x1.68946a8ea6fd7p+11", "0x1.ca1d95b461cb8p+10", "0x1.514e8d4a0570dp+10",
        "0x1.46eab91f70139p+6",
    ],
}


#: Each feedback variant's law composed of numpy functions, the oracle of the law text.
COMPOSED = {"raw": u_star, "plus": u_star_plus, "global": u_tilde}


def floats_below(x, n):
    """The n floats just below the positive float x, nearest first."""
    return (np.float64(x).view(np.int64) - np.arange(1, n + 1)).view(np.float64)


class TestContractionOffset:
    def test_study_value(self, params, eq):
        F_hat = 27.0 / 20.0 * eq.F_bar
        assert s.epsilon_for(F_hat, params) == pytest.approx(0.03007518796992481, rel=1e-12)

    def test_below_female_death_rate(self, params, cfg):
        assert cfg.eps < params.delta_F

    def test_vanishes_for_large_ceiling(self, params):
        assert s.epsilon_for(1e12, params) < 1e-5

    def test_strictly_decreasing_in_ceiling(self, params):
        grid = np.linspace(1e3, 1e6, 50)
        vals = [s.epsilon_for(F, params) for F in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_ceiling_roundtrip(self, params):
        for eps in (0.01, 0.02, 0.03):
            assert s.epsilon_for(s.f_hat_for(eps, params), params) == pytest.approx(eps, rel=1e-12)

    def test_forced_offset_reading(self, params, cfg_strong, eq):
        assert cfg_strong.eps == pytest.approx(0.01, rel=1e-12)
        assert cfg_strong.F_hat == pytest.approx(4.1818181818 * eq.F_bar, rel=1e-9)


class TestConfigValidation:
    def test_ceiling_must_exceed_persistence_level(self, params, eq):
        with pytest.raises(s.ControllerError, match="F_hat"):
            s.ControllerConfig.design(params, F_hat=0.5 * eq.F_bar)

    @pytest.mark.parametrize("selector", [{"F_hat_ratio": 1e305}, {"eps": 1e-320}, {"F_hat": float("inf")}])
    def test_ceiling_must_be_finite(self, params, selector):
        # each makes F_hat = inf, which used to be reported as a bad knee F2
        with pytest.raises(s.ControllerError, match="^F_hat=inf must exceed the persistence level"):
            s.ControllerConfig.design(params, **selector)

    @pytest.mark.parametrize("selector", [{"F_hat": 1e31}, {"F_hat_ratio": 1e28}])
    def test_ceiling_within_magnitude_bound(self, params, selector):
        with pytest.raises(s.ControllerError, match="^F_hat=.* at most MAX_MAGNITUDE = 1e\\+30"):
            s.ControllerConfig.design(params, **selector)
        assert s.ControllerConfig.design(params, F_hat=1e30).F_hat == 1e30

    def test_exactly_one_selector(self, params):
        with pytest.raises(s.ControllerError, match="exactly one"):
            s.ControllerConfig.design(params, F_hat=2e4, eps=0.01)

    def test_positive_gains_required(self, params):
        with pytest.raises(s.ControllerError, match="eta"):
            s.ControllerConfig.design(params, F_hat_ratio=1.35, eta=-0.1)
        with pytest.raises(s.ControllerError, match="rho"):
            s.ControllerConfig.design(params, F_hat_ratio=1.35, rho=0.0)

    @pytest.mark.parametrize("gain", ["eta", "rho"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_finite_gains_required(self, params, gain, value):
        with pytest.raises(s.ControllerError, match=gain):
            s.ControllerConfig.design(params, F_hat_ratio=1.35, **{gain: value})

    def test_knee_inside_design_interval(self, params, eq):
        with pytest.raises(s.ControllerError, match="F2"):
            s.ControllerConfig.design(params, F_hat_ratio=1.35, F2=0.5 * eq.F_bar)

    def test_default_knee_is_midpoint(self, params, eq, cfg):
        assert cfg.F2 == pytest.approx(0.5 * (eq.F_bar + cfg.F_hat), rel=1e-12)

    def test_nonnegativity_interval_flag(self, params, cfg):
        assert cfg.guarantees_nonnegativity(params)
        low = s.ControllerConfig.design(params, F_hat_ratio=1.35, eta=0.01)
        assert not low.guarantees_nonnegativity(params)


class TestVirtualFeedback:
    def test_vanishes_at_endpoints(self, params, cfg):
        assert s.ms_star(0.0, cfg, params) == 0.0
        assert abs(s.ms_star(cfg.F_hat, cfg, params)) <= 1e-9

    def test_study_level(self, params, cfg, eq):
        assert s.ms_star(eq.F_bar, cfg, params) == pytest.approx(1684.9739185714295, rel=1e-12)

    def test_positive_inside_ceiling(self, params, cfg):
        for F in np.linspace(1.0, cfg.F_hat - 1.0, 500):
            assert s.ms_star(F, cfg, params) > 0.0

    def test_recruitment_identity(self, params, cfg, eq):
        for F in (1.0, 100.0, eq.F_bar, 0.99 * cfg.F_hat):
            target = s.ms_star(F, cfg, params)
            assert s.g(F, target, params) == pytest.approx(cfg.eps * F, rel=1e-9)

    def test_identity_on_log_grid(self, params, cfg):
        report = s.audit_grid(cfg, params, "mstar_identity")
        assert report.passed, report


class TestVirtualFeedbackSlope:
    def test_slope_at_origin(self, params, cfg):
        expected = (
            (1 - params.nu) * params.nu_E * params.beta_E**2 * cfg.F_hat
            / (params.gamma_s * params.delta_M * params.k * (params.nu_E + params.delta_E) ** 2)
        )
        assert s.dms_star_dF(0.0, cfg, params) == pytest.approx(expected, rel=1e-12)
        assert expected > 0.0

    @pytest.mark.parametrize("F_frac", [100.0, None, 0.9])
    def test_matches_central_difference(self, params, cfg, eq, F_frac):
        F = 100.0 if F_frac == 100.0 else (eq.F_bar if F_frac is None else 0.9 * cfg.F_hat)
        h = 1e-3 * F
        fd = (s.ms_star(F + h, cfg, params) - s.ms_star(F - h, cfg, params)) / (2 * h)
        assert s.dms_star_dF(F, cfg, params) == pytest.approx(fd, rel=1e-6)

    @pytest.mark.parametrize("design", ["nominal", "strong"])
    def test_law_text_slope_is_dms_star_dF_bit_for_bit(self, params, cfg, cfg_strong, design):
        # the law's slope and dms_star_dF are one quotient in one association, the cube written as a product
        c = cfg if design == "nominal" else cfg_strong
        body, constants = s.ControlLaw("plus", c, params).body()
        slope = define("evaluate", "F, Ms", body + "return slope\n", constants)
        Fs = [*np.linspace(0.0, 3.0 * c.F_hat, 2001).tolist(), *np.logspace(-6, 6, 500).tolist()]
        assert [F for F in Fs if slope(F, 0.0).hex() != s.dms_star_dF(F, c, params).hex()] == []

    def test_level_dominates_secant_from_origin(self, params, cfg):
        report = s.audit_grid(cfg, params, "lemma4")
        assert report.passed, report


class TestMismatchRate:
    def test_derivative_branch_on_diagonal(self, params, cfg, eq):
        F = eq.F_bar
        target = s.ms_star(F, cfg, params)
        assert pi(F, target, cfg, params) == pytest.approx(dg_dMs(F, target, params) * F, rel=1e-12)

    def test_zero_at_extinct_females(self, params, cfg):
        for Ms in (0.0, 1.0, 1e4):
            assert pi(0.0, Ms, cfg, params) == 0.0

    def test_continuous_across_branch_switch(self, params, cfg, eq):
        F = eq.F_bar
        target = s.ms_star(F, cfg, params)
        on_diag = pi(F, target, cfg, params)
        for delta in (1e-2, 1e-4):
            near = pi(F, target + delta, cfg, params)
            assert near == pytest.approx(on_diag, rel=1e-3)

    @given(st.floats(min_value=0.0, max_value=3e4), st.floats(min_value=0.0, max_value=1e5))
    @settings(max_examples=300)
    def test_nonpositive(self, F, Ms):
        p = s.NOMINAL_PARAMS
        cfg = s.nominal_controller(p)
        assert pi(F, Ms, cfg, p) <= 1e-12

    def test_switch_band_is_tight(self):
        assert PI_SWITCH_TOL == 1e-8


class TestCut2:
    def test_second_quadrant_zeroed(self):
        assert cut2(-1.0, 2.0) == 0.0

    def test_passthrough_elsewhere(self):
        assert cut2(2.0, 3.0) == 6.0
        assert cut2(-1.0, -2.0) == 2.0
        assert cut2(0.0, 5.0) == 0.0
        assert cut2(-3.0, 0.0) == 0.0

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32),
           st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_never_exceeds_product_magnitude(self, x, y):
        v = cut2(x, y)
        assert v == 0.0 or v == x * y


class TestRawLaw:
    def test_zero_at_origin(self, params, cfg):
        assert u_star(0.0, 0.0, cfg, params) == 0.0

    def test_initial_release_rate(self, params, cfg, eq):
        assert u_star(eq.F_bar, 0.0, cfg, params) == pytest.approx(611.482802073861, rel=1e-12)

    def test_terms_on_virtual_diagonal(self, params, cfg, eq):
        # with Ms = ms_star(F) the recruitment drift is (eps - delta_F) F
        for F in (500.0, eq.F_bar, 0.95 * cfg.F_hat):
            target = s.ms_star(F, cfg, params)
            expected = (
                params.delta_s * target
                - cfg.rho * pi(F, target, cfg, params)
                - s.dms_star_dF(F, cfg, params) * (params.delta_F - cfg.eps) * F
            )
            assert u_star(F, target, cfg, params) == pytest.approx(expected, rel=1e-9)


class TestClippedLaw:
    def test_zero_at_origin(self, params, cfg):
        assert u_star_plus(0.0, 0.0, cfg, params) == 0.0

    def test_nonnegative_on_grid(self, params, cfg):
        report = s.audit_grid(cfg, params, "nonneg_plus", n_2d=150)
        assert report.passed, report

    def test_equals_raw_off_second_quadrant(self, params, cfg):
        rng = np.random.default_rng(42)
        for _ in range(500):
            F = rng.uniform(0.0, cfg.F_hat)
            Ms = rng.uniform(0.0, 2e4)
            slope = s.dms_star_dF(F, cfg, params)
            drift = s.g(F, Ms, params) - params.delta_F * F
            if not (slope < 0.0 and drift > 0.0):
                assert u_star_plus(F, Ms, cfg, params) == u_star(F, Ms, cfg, params)

    def test_sufficient_condition_is_only_sufficient(self, params):
        # eta below delta_F voids the certificate; the grid outcome is
        # recorded, not asserted either way
        low = s.ControllerConfig.design(params, F_hat_ratio=1.35, eta=0.01)
        report = s.audit_grid(low, params, "nonneg_plus", n_2d=100)
        assert report.check == "nonneg_plus"
        assert np.isfinite(report.worst_value)


class TestCutoffGate:
    def test_plateau_values(self, params, cfg):
        assert chi(0.0, cfg) == 1.0
        assert chi(cfg.F2, cfg) == 1.0
        assert chi(cfg.F_hat, cfg) == 0.0
        assert chi(2 * cfg.F_hat, cfg) == 0.0

    def test_symmetric_midpoint(self, params, cfg):
        mid = 0.5 * (cfg.F2 + cfg.F_hat)
        assert chi(mid, cfg) == pytest.approx(0.5, rel=1e-12)

    def test_cubic_family(self, params, eq):
        cubic = s.ControllerConfig.design(params, F_hat_ratio=1.35, cutoff_kind="cubic")
        mid = 0.5 * (cubic.F2 + cubic.F_hat)
        assert chi(mid, cubic) == pytest.approx(0.5, rel=1e-12)

    def test_monotone_and_sandwiched(self, cfg):
        assert chi_sandwich(cfg)

    @pytest.mark.parametrize("design", ["nominal", "strong"])
    @pytest.mark.parametrize("k", [None, 1e30], ids=["table", "k=1e30"])
    def test_gate_and_global_law_nonnegative_just_below_ceiling(self, params, design, k):
        # the quintic ramp rounded to -1.55e-15 within about 20 floats below F_hat, and the global law
        # released a negative u there at Ms = 1e5: down to -3.5e-12 on the table parameters, -7.43e12 at k = 1e30
        p = params if k is None else params.replace(k=k)
        c = {"nominal": s.nominal_controller, "strong": s.strong_controller}[design](p)
        below = floats_below(c.F_hat, 200)
        fused = s.ControlLaw("global", c, p).evaluator()
        assert np.all(chi(below, c) >= 0.0)
        assert np.all(u_tilde(below, 1e5, c, p) >= 0.0)
        assert all(fused(F, 1e5) >= 0.0 for F in below.tolist())


class TestGlobalLaw:
    def test_zero_above_ceiling(self, params, cfg):
        for F in (cfg.F_hat, 1.5 * cfg.F_hat, 10 * cfg.F_hat):
            for Ms in (0.0, 1e4):
                assert u_tilde(F, Ms, cfg, params) == 0.0

    def test_matches_clipped_law_below_knee(self, params, cfg):
        for F in np.linspace(0.0, cfg.F2, 50):
            for Ms in (0.0, 500.0, 2e4):
                assert u_tilde(F, Ms, cfg, params) == u_star_plus(F, Ms, cfg, params)

    def test_nonnegative_everywhere(self, params, cfg):
        report = s.audit_grid(cfg, params, "utilde_bound", n_2d=150)
        assert report.passed, report

    def test_dominated_by_clipped_law_where_nonnegative(self, params, cfg):
        rng = np.random.default_rng(7)
        for _ in range(500):
            F, Ms = rng.uniform(0, 2 * cfg.F_hat), rng.uniform(0, 2e4)
            plus = u_star_plus(F, Ms, cfg, params)
            if plus >= 0.0:
                assert u_tilde(F, Ms, cfg, params) <= plus * (1 + 1e-12)


class TestSigma:
    def test_study_value(self, params, cfg):
        assert s.sigma(cfg.F2, params) == pytest.approx(0.005665236051502147, rel=1e-12)

    def test_zero_at_persistence_level(self, params, eq):
        residual = params.delta_F - params.nu * params.beta_E * params.nu_E / s.alpha(eq.F_bar, params)
        assert abs(residual) <= 1e-12

    def test_rejects_knee_at_or_below_persistence(self, params, eq):
        with pytest.raises(s.ControllerError):
            s.sigma(eq.F_bar, params)

    def test_increasing_in_knee(self, params, eq, cfg):
        grid = np.linspace(eq.F_bar * 1.001, cfg.F_hat, 100)
        vals = [s.sigma(F2, params) for F2 in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(v > 0.0 for v in vals)


class TestControlLaw:
    def test_all_variants_vanish_at_origin(self, params, cfg):
        for variant in ("none", "raw", "plus", "global"):
            law = s.ControlLaw(variant, cfg, params)
            assert law(0.0, 0.0) == 0.0

    def test_unknown_variant_rejected(self, params, cfg):
        with pytest.raises(s.ControllerError):
            s.ControlLaw("bang-bang", cfg, params)

    def test_config_required_for_feedback_variants(self, params):
        with pytest.raises(s.ControllerError):
            s.ControlLaw("plus", None, params)

    def test_config_required_for_none_too(self, params):
        # 'none' took None and then recorded no V along its run
        with pytest.raises(s.ControllerError, match="variant 'none' requires a ControllerConfig"):
            s.ControlLaw("none", None, params)

    @pytest.mark.parametrize("variant", ["raw", "plus", "global"])
    def test_fused_evaluator_matches_composition(self, params, cfg, variant):
        fast = s.ControlLaw(variant, cfg, params).evaluator()
        composed = COMPOSED[variant]
        rng = np.random.default_rng(3)
        for _ in range(800):
            F = rng.uniform(0.0, 3 * cfg.F_hat)
            Ms = rng.uniform(0.0, 3e4)
            assert fast(F, Ms) == pytest.approx(composed(F, Ms, cfg, params), rel=1e-12, abs=1e-9)

    @pytest.mark.parametrize("name", sorted(GOLDEN_BITS))
    def test_evaluator_golden_bits(self, params, name):
        variant, _, kind = name.partition("-")
        cfg = s.nominal_controller(params, cutoff_kind=kind or "quintic")
        u = s.ControlLaw(variant, cfg, params).evaluator()
        assert [u(F, Ms).hex() for F, Ms in GOLDEN_POINTS] == GOLDEN_BITS[name]

    @pytest.mark.parametrize("variant", ["raw", "plus", "global"])
    @pytest.mark.parametrize("F, Ms", [(1e-170, 1e-170), (1e-300, 0.0)])
    def test_fused_evaluator_finite_near_extinction(self, params, cfg, variant, F, Ms):
        # denom * denom and a * denom underflow to 0 here; the limit is taken
        law = s.ControlLaw(variant, cfg, params)
        assert law.evaluator()(F, Ms) == pytest.approx(COMPOSED[variant](F, Ms, cfg, params), rel=1e-12, abs=0.0)


class TestArrayEvaluation:
    """An F column against an Ms row rounds exactly like per-point float calls; the array oracles rely on it."""

    @pytest.mark.parametrize("design", ["nominal", "strong", "cubic"])
    def test_array_matches_scalar_bits(self, params, cfg, cfg_strong, design):
        c = {"nominal": cfg, "strong": cfg_strong, "cubic": s.nominal_controller(params, cutoff_kind="cubic")}[design]
        # the origin, F on pi's switch band (Ms at and within 1e-9 of ms*(F)), and the floats just below
        # F_hat, where the quintic ramp rounds below 0, are points where the law evaluates a subset
        grid = np.linspace(0.0, 3.0 * c.F_hat, 61)
        Fs = np.sort(np.concatenate([grid, [c.F2, c.F_hat], floats_below(c.F_hat, 4)]))
        Mss = np.sort(np.concatenate([
            np.linspace(0.0, 10.0 * float(np.max(s.ms_star(np.linspace(0.0, c.F_hat, 401), c, params))), 21),
            np.outer(s.ms_star(grid[[4, 10, 18]], c, params), [1.0, 1.0 + 1e-9, 1.0 - 1e-9]).ravel(),
        ]))
        one = {
            "ms_star": lambda F: s.ms_star(F, c, params),
            "dms_star_dF": lambda F: s.dms_star_dF(F, c, params),
            "chi": lambda F: chi(F, c),
        }
        two = {
            "g": lambda F, Ms: s.g(F, Ms, params),
            "dg_dMs": lambda F, Ms: dg_dMs(F, Ms, params),
            **{fn.__name__: (lambda fn: lambda F, Ms: fn(F, Ms, c, params))(fn)
               for fn in (pi, u_star, u_star_plus, u_tilde)},
        }
        cases = [(name, fn(Fs), [fn(F) for F in Fs.tolist()]) for name, fn in one.items()]
        for name, fn in two.items():
            Ms = Mss[1:] if name == "dg_dMs" else Mss  # dg_dMs is undefined at the origin
            cases.append((name, fn(Fs[:, None], Ms[None, :]), [[fn(F, M) for M in Ms.tolist()] for F in Fs.tolist()]))
        differing = {}
        for name, array, points in cases:
            points = np.array(points)
            if array.tobytes() != points.tobytes():
                differing[name] = f"{np.count_nonzero(array.view(np.int64) != points.view(np.int64))} of {points.size}"
        assert differing == {}
