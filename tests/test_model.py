"""Population model: parameters, the mating function g, equilibria, dynamics."""
import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sitctl as s
from sitctl.model import MAX_MAGNITUDE, PARAM_KEYS

from reference import dg_dMs


class TestValidation:
    def test_nominal_table_accepted(self, params):
        assert s.validate_params(params) is params

    def test_sterile_death_rate_below_male_rate_rejected(self, params):
        bad = params.replace(delta_s=0.03)
        with pytest.raises(s.ParamError, match="delta_s"):
            s.validate_params(bad)

    def test_subcritical_offspring_number_rejected(self, params):
        # beta_E below delta_F (nu_E + delta_E) / (nu nu_E) = 0.5714... puts R0 under 1
        bad = params.replace(beta_E=0.5)
        assert s.basic_offspring_number(bad) < 1.0
        with pytest.raises(s.ParamError, match="offspring"):
            s.validate_params(bad)

    @pytest.mark.parametrize("field", PARAM_KEYS)
    def test_nonpositive_field_rejected(self, params, field):
        with pytest.raises(s.ParamError, match=field):
            s.validate_params(params.replace(**{field: 0.0}))

    @pytest.mark.parametrize("field", PARAM_KEYS)
    def test_infinite_field_rejected(self, params, field):
        # k = inf used to pass and then trip the equilibrium balance assertion
        with pytest.raises(s.ParamError, match=f"parameter {field} must be strictly positive and finite"):
            s.validate_params(params.replace(**{field: float("inf")}))

    @pytest.mark.parametrize("field", PARAM_KEYS)
    def test_field_beyond_magnitude_bound_rejected(self, params, field):
        # beta_E = 1e120 used to raise OverflowError in lin**3, k = 1e200 an AssertionError
        with pytest.raises(s.ParamError, match=f"parameter {field} = 1e\\+31 exceeds MAX_MAGNITUDE"):
            s.validate_params(params.replace(**{field: 1e31}))

    def test_magnitude_bound_is_inclusive(self, params):
        assert s.validate_params(params.replace(k=MAX_MAGNITUDE, beta_E=MAX_MAGNITUDE)).k == MAX_MAGNITUDE

    def test_nu_outside_unit_interval_rejected(self, params):
        with pytest.raises(s.ParamError, match="nu"):
            s.validate_params(params.replace(nu=1.0))


class TestOffspringNumber:
    def test_nominal_value_exact(self, params):
        # independent oracle: exact rational arithmetic on the Table values
        oracle = (
            Fraction(49, 100) * Fraction(10) * Fraction(5, 1000)
            / (Fraction(4, 100) * (Fraction(5, 1000) + Fraction(3, 100)))
        )
        assert oracle == Fraction(35, 2)
        assert s.basic_offspring_number(params) == pytest.approx(17.5, rel=1e-12)

    def test_symmetric_cancellation(self, params):
        p = params.replace(nu=0.5, beta_E=params.delta_F, nu_E=params.delta_E)
        assert s.basic_offspring_number(p) == pytest.approx(0.25, rel=1e-12)

    def test_linear_in_oviposition_rate(self, params):
        doubled = params.replace(beta_E=2 * params.beta_E)
        assert s.basic_offspring_number(doubled) == pytest.approx(
            2 * s.basic_offspring_number(params), rel=1e-12
        )


class TestAlpha:
    def test_at_zero(self, params):
        assert s.alpha(0.0, params) == pytest.approx(0.035, rel=1e-12)

    def test_at_capacity(self, params):
        assert s.alpha(params.k, params) == pytest.approx(params.beta_E + 0.035, rel=1e-12)

    def test_at_persistence_level(self, params, eq):
        assert s.alpha(eq.F_bar, params) == pytest.approx(0.6125, rel=1e-9)

    @given(st.floats(min_value=0.0, max_value=1e6), st.floats(min_value=0.0, max_value=1e6))
    def test_strictly_increasing(self, F1, F2):
        p = s.NOMINAL_PARAMS
        lo, hi = sorted((F1, F2))
        if hi - lo > 1e-6:  # below this the slope beta_E/k falls under float resolution
            assert s.alpha(lo, p) < s.alpha(hi, p)
        else:
            assert s.alpha(lo, p) <= s.alpha(hi, p)


class TestMatingFunction:
    def test_zero_at_extinct_females(self, params):
        assert s.g(0.0, 1000.0, params) == 0.0

    def test_persistence_balance(self, params, eq):
        assert s.g(eq.F_bar, 0.0, params) == pytest.approx(params.delta_F * eq.F_bar, rel=1e-12)

    @given(
        st.floats(min_value=1e-3, max_value=3e4),
        st.floats(min_value=0.0, max_value=1e5),
        st.floats(min_value=0.0, max_value=1e5),
    )
    @settings(max_examples=200)
    def test_nonincreasing_in_sterile_males(self, F, Ms1, Ms2):
        p = s.NOMINAL_PARAMS
        lo, hi = sorted((Ms1, Ms2))
        assert s.g(F, hi, p) <= s.g(F, lo, p) + 1e-12

    @given(st.floats(min_value=0.0, max_value=4e4), st.floats(min_value=0.0, max_value=1e5))
    @settings(max_examples=200)
    def test_nonnegative_and_below_zero_release_level(self, F, Ms):
        p = s.NOMINAL_PARAMS
        val = s.g(F, Ms, p)
        assert val >= 0.0
        # sterile males only suppress recruitment
        assert val <= s.g(F, 0.0, p) * (1 + 1e-12)

    def test_growth_bound_before_cutoff_region(self, params, cfg):
        # g(F, Ms) - delta_F F <= (nu beta_E nu_E / alpha(F) - delta_F) F
        for F in np.linspace(1.0, 2 * cfg.F_hat, 200):
            for Ms in (0.0, 100.0, 1e4):
                bound = (params.nu * params.beta_E * params.nu_E / s.alpha(F, params) - params.delta_F) * F
                assert s.g(F, Ms, params) - params.delta_F * F <= bound + 1e-9 * abs(bound)

    def test_continuity_at_extinction(self, params):
        assert s.g(1e-12, 50.0, params) == pytest.approx(0.0, abs=1e-12)


class TestMatingSlope:
    def test_sign_at_persistence(self, params, eq):
        assert dg_dMs(eq.F_bar, 0.0, params) < 0.0

    def test_undefined_at_origin(self, params):
        with pytest.raises(ValueError):
            dg_dMs(0.0, 0.0, params)

    def test_matches_central_difference(self, params, eq):
        h = 1e-3
        fd = (s.g(eq.F_bar, 100.0 + h, params) - s.g(eq.F_bar, 100.0 - h, params)) / (2 * h)
        exact = dg_dMs(eq.F_bar, 100.0, params)
        assert abs(exact - fd) <= 1e-6 * abs(exact)

    def test_central_difference_on_grid(self, params, cfg):
        worst = 0.0
        for F in np.linspace(1.0, 2 * cfg.F_hat, 100):
            for Ms in np.linspace(1.0, 1e5, 100):
                h = 1e-3 * max(1.0, Ms)
                fd = (s.g(F, Ms + h, params) - s.g(F, Ms - h, params)) / (2 * h)
                exact = dg_dMs(F, Ms, params)
                worst = max(worst, abs(exact - fd) / max(1e-300, abs(exact)))
        assert worst <= 1e-6

    def test_bounded_on_quadrant(self, params, cfg):
        sup = max(
            abs(dg_dMs(F, Ms, params))
            for F in np.linspace(1e-6, 2 * cfg.F_hat, 200)
            for Ms in np.linspace(0.0, 1e5, 50)
        )
        assert np.isfinite(sup)


class TestPersistenceEquilibrium:
    def test_reported_levels(self, eq):
        assert eq.F_bar == pytest.approx(12264.0, rel=5e-4)
        assert eq.E_bar == pytest.approx(200240.0, rel=5e-4)
        assert eq.M_bar == pytest.approx(5106.0, rel=5e-4)

    def test_internal_consistency(self, params, eq):
        assert eq.F_bar == pytest.approx(params.nu * params.nu_E * eq.E_bar / params.delta_F, rel=1e-12)
        assert eq.M_bar == pytest.approx((1 - params.nu) * params.nu_E * eq.E_bar / params.delta_M, rel=1e-12)

    def test_capacity_roundtrip(self, params):
        assert s.capacity_from_E_bar(200240.0, params) == pytest.approx(212370.0, rel=1e-4)

    def test_vanishes_as_offspring_number_reaches_one(self, params):
        # scale beta_E so R0 = 1 + 1e-6
        p = params.replace(beta_E=params.beta_E * (1 + 1e-6) / 17.5)
        eq = s.persistence_equilibrium(p)
        assert 0.0 < eq.F_bar < 0.02 * s.persistence_equilibrium(params).F_bar

    def test_error_when_subcritical(self, params):
        with pytest.raises(s.ParamError):
            s.persistence_equilibrium(params.replace(beta_E=0.5))


class TestReducedRhs:
    def test_persistence_fixed_point(self, params, eq):
        dF, dMs = s.reduced_rhs((eq.F_bar, 0.0), 0.0, params)
        assert abs(dF) <= 1e-9 * params.delta_F * eq.F_bar
        assert dMs == 0.0

    def test_extinction_fixed_point(self, params):
        assert s.reduced_rhs((0.0, 0.0), 0.0, params) == (0.0, 0.0)

    def test_decoupled_sterile_dynamics_at_extinction(self, params):
        dF, dMs = s.reduced_rhs((0.0, 500.0), 30.0, params)
        assert dF == 0.0
        assert dMs == pytest.approx(30.0 - params.delta_s * 500.0, rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=1e5), st.floats(min_value=0.0, max_value=1e3))
    @settings(max_examples=100)
    def test_boundary_signs_preserve_quadrant(self, Ms, u):
        p = s.NOMINAL_PARAMS
        dF, _ = s.reduced_rhs((0.0, Ms), u, p)
        assert dF == 0.0
        _, dMs = s.reduced_rhs((123.0, 0.0), u, p)
        assert dMs >= 0.0


class TestFullRhs:
    def test_equilibrium_residual(self, params, eq):
        rhs = s.full_rhs((eq.E_bar, eq.M_bar, eq.F_bar, 0.0), 0.0, params)
        scales = (eq.E_bar, eq.M_bar, eq.F_bar, 1.0)
        for r, scale in zip(rhs, scales):
            assert abs(r) <= 1e-6 * scale

    def test_origin_with_release_only(self, params):
        assert s.full_rhs((0.0, 0.0, 0.0, 0.0), 7.5, params) == (0.0, 0.0, 0.0, 7.5)

    def test_capacity_saturation(self, params):
        dE = s.full_rhs((params.k, 100.0, 5000.0, 0.0), 0.0, params)[0]
        assert dE < 0.0

    def test_mating_fraction_convention_at_male_extinction(self, params):
        # no males of either kind: recruitment is zero, not NaN
        rhs = s.full_rhs((100.0, 0.0, 50.0, 0.0), 0.0, params)
        assert rhs[2] == pytest.approx(-params.delta_F * 50.0, rel=1e-12)

    def test_golden_bits_on_scattered_states(self):
        # sha256 of float.hex of full_rhs at 2000 points spread over eight
        # decades, recorded when the field had a second, independent spelling
        # in simulate.py; a regrouped term changes it
        points = 10.0 ** np.random.default_rng(2024).uniform(-3.0, 5.0, size=(2000, 5))
        digest = hashlib.sha256()
        for *state, u in points.tolist():
            digest.update("".join(x.hex() for x in s.full_rhs(tuple(state), u, s.NOMINAL_PARAMS)).encode())
        assert digest.hexdigest() == "e8f95e1ad51bfee85d07185b9e78fa0cb11210efbfa298382c8eb009fbe80948"
