"""Certificate verification: Lyapunov values, decay fits, grid audits."""
import math

import numpy as np
import pytest

import sitctl as s
import sitctl.native as native
from sitctl import verify
from sitctl.model import define
from sitctl.simulate import Trajectory
from sitctl.verify import AUDIT_CHECKS

from reference import chi, chi_sandwich, pi, u_star_plus, u_tilde

#: Each 2-D check's composed oracle, by name, and the law variant and output of the law text it audits.
LAW_OUTPUTS = {"u_star_plus": ("plus", 0), "pi": ("plus", 1), "u_tilde": ("global", 0)}


def _synthetic_reduced(times, F, Ms, u=None, V=None):
    times = np.asarray(times, dtype=float)
    states = np.column_stack([F, Ms]).astype(float)
    controls = np.zeros_like(times) if u is None else np.asarray(u, dtype=float)
    lyap = None if V is None else np.asarray(V, dtype=float)
    return Trajectory(model="reduced", times=times, states=states, controls=controls, lyapunov=lyap)


def _pointwise_audit(cfg, p, which, n_1d, n_2d):
    """Reference for audit_grid: the composed law of the tests' reference, one grid point at a time.

    Returns (passed, worst value, witness, tolerance, grid label), the
    fields an AuditReport must reproduce bit for bit.
    """
    extent = 10.0 * max(s.ms_star(float(F), cfg, p) for F in np.linspace(0.0, cfg.F_hat, 2001))
    if which == "mstar_identity":
        worst, witness = -np.inf, None  # the first grid point wins a tie
        for F in np.logspace(-6, np.log10(cfg.F_hat), 1000).tolist():
            rel = abs(s.g(F, s.ms_star(F, cfg, p), p) - cfg.eps * F) / (cfg.eps * F)
            if rel > worst:
                worst, witness = rel, (F,)
        return worst <= 1e-9, worst, witness, 1e-9, "1000 log-spaced F in (0..F_hat]"
    if which == "lemma4":
        B = p.k * (p.nu_E + p.delta_E)
        C = (1.0 - p.nu) * p.nu_E * p.beta_E**2 * p.k / (p.gamma_s * p.delta_M)
        Fs = np.linspace(0.0, cfg.F_hat, n_1d).tolist()
        scale = max(s.ms_star(F, cfg, p) for F in Fs)
        worst, witness, worst_id = np.inf, (0.0,), 0.0
        for F in Fs:
            lhs = s.ms_star(F, cfg, p) - F * s.dms_star_dF(F, cfg, p)
            closed = C * F * F * (p.beta_E * (2.0 * cfg.F_hat - F) + B) / (p.beta_E * F + B) ** 3
            worst_id = max(worst_id, abs(lhs - closed) / max(1.0, abs(closed)))
            if lhs < worst:
                worst, witness = lhs, (F,)
        passed = worst >= -1e-12 * scale and worst_id <= 1e-9
        return passed, worst, witness, 1e-12 * scale, f"{n_1d} points on [0..F_hat]"
    F_top, Ms_top = (3.0 * cfg.F_hat, 1e5) if which == "utilde_bound" else (cfg.F_hat, extent)
    fn = {"pi_sign": pi, "nonneg_plus": u_star_plus, "utilde_bound": u_tilde}[which]
    sign = -1.0 if which == "pi_sign" else 1.0  # pi_sign looks for the largest value
    worst, witness, scale, K = np.inf, (0.0, 0.0), 0.0, 0.0
    for F in np.linspace(0.0, F_top, n_2d).tolist():
        for Ms in np.linspace(0.0, Ms_top, n_2d).tolist():
            v = fn(F, Ms, cfg, p)
            scale = max(scale, abs(v))
            if sign * v < worst:
                worst, witness = sign * v, (F, Ms)
            if F > 0.0:
                K = max(K, (v - (p.delta_s - cfg.eta) * Ms) / F)
    worst *= sign
    if which == "pi_sign":
        return worst <= 1e-12, worst, witness, 1e-12, f"{n_2d}x{n_2d} on [0..F_hat]x[0..10 max ms*]"
    if which == "nonneg_plus":
        return worst >= -1e-9 * scale, worst, witness, 1e-9 * scale, f"{n_2d}x{n_2d} on [0..F_hat]x[0..10 max ms*]"
    return worst >= 0.0 and np.isfinite(K), worst, witness, 0.0, f"{n_2d}x{n_2d} on [0..3 F_hat]x[0..1e5]; K={K:.6g}"


def _spoil(monkeypatch, lines: str, **constants):
    """Make the 2-D audits scan the law text with ``lines`` appended, which also read ``constants``."""

    class Spoiled(s.ControlLaw):
        def body(self):
            body, real = super().body()
            return body + lines, {**real, **constants}

    monkeypatch.setattr(verify, "ControlLaw", Spoiled)


def _both_paths(monkeypatch, audit):
    """``audit()`` on the scan as it builds here, which must equal ``audit()`` on the Python law: the report."""
    report = audit()
    monkeypatch.setattr(native, "compiler", lambda: None)
    monkeypatch.setattr(native, "_BUILT", {})
    assert repr(audit()) == repr(report)
    return report


class TestLyapunovValue:
    def test_zero_only_at_origin(self, params, cfg):
        assert s.lyapunov_V(0.0, 0.0, cfg, params) == 0.0
        assert s.lyapunov_V(1.0, 0.0, cfg, params) > 0.0
        assert s.lyapunov_V(0.0, 1.0, cfg, params) > 0.0

    def test_mismatch_term_vanishes_on_diagonal(self, params, cfg):
        for F in (10.0, 5000.0):
            target = s.ms_star(F, cfg, params)
            assert s.lyapunov_V(F, target, cfg, params) == pytest.approx(0.5 * cfg.rho * F * F, rel=1e-12)

    def test_initial_study_value(self, params, cfg, eq, nominal_plus_run):
        expected = 0.25 * eq.F_bar**2 + 0.5 * s.ms_star(eq.F_bar, cfg, params) ** 2
        assert expected == pytest.approx(39023246.09689704, rel=1e-10)
        assert nominal_plus_run.lyapunov[0] == pytest.approx(expected, rel=1e-12)


class TestFitDecayRate:
    def test_pure_exponential(self):
        t = np.linspace(0.0, 100.0, 200)
        rate, pref = s.fit_decay_rate(t, np.exp(-0.1 * t))
        assert abs(rate - 0.1) <= 1e-10
        assert pref == pytest.approx(1.0, rel=1e-10)

    def test_prefactor_recovered(self):
        t = np.linspace(0.0, 50.0, 100)
        rate, pref = s.fit_decay_rate(t, 3.0 * np.exp(-0.2 * t))
        assert rate == pytest.approx(0.2, abs=1e-10)
        assert pref == pytest.approx(3.0, rel=1e-9)

    def test_rejects_short_or_nonpositive_series(self):
        with pytest.raises(ValueError):
            s.fit_decay_rate([0, 1, 2], [1, 1, 1])
        t = np.linspace(0, 10, 20)
        v = np.exp(-t)
        v[5] = 0.0
        with pytest.raises(ValueError):
            s.fit_decay_rate(t, v)


class TestVerifyDecay:
    def test_synthetic_pass(self):
        t = np.linspace(0.0, 500.0, 300)
        V = 7.0 * np.exp(-0.05 * t)
        traj = _synthetic_reduced(t, np.sqrt(V), np.zeros_like(t), V=V)
        report = s.verify_decay(traj, lambda_theory=0.02)
        assert report.passed
        assert report.lambda_fit == pytest.approx(0.05, abs=1e-8)
        assert report.max_violation <= 1.0 + 1e-12

    def test_synthetic_violation(self):
        t = np.linspace(0.0, 500.0, 300)
        V = np.exp(-0.01 * t)
        traj = _synthetic_reduced(t, np.sqrt(V), np.zeros_like(t), V=V)
        report = s.verify_decay(traj, lambda_theory=0.02)
        assert not report.passed
        assert report.max_violation > 1.0 + 1e-3

    def test_long_decay_does_not_underflow_the_envelope(self):
        # lambda t reaches 1000: V(0) e^{-lambda t} underflows to 0 long before the horizon
        t = np.linspace(0.0, 50000.0, 2001)
        V = np.exp(-0.03 * t)
        traj = _synthetic_reduced(t, np.sqrt(V), np.zeros_like(t), V=V)
        report = s.verify_decay(traj, lambda_theory=0.02)
        assert report.passed
        assert report.max_violation == 1.0
        assert report.c0_fit == 1.0

    def test_degenerate_start_passes_trivially(self):
        t = np.linspace(0.0, 10.0, 50)
        traj = _synthetic_reduced(t, np.zeros_like(t), np.zeros_like(t), V=np.zeros_like(t))
        assert s.verify_decay(traj, 0.02).passed

    def test_nominal_run_certificate(self, nominal_plus_run, params, cfg):
        lam = 2 * min(params.delta_F - cfg.eps, cfg.eta)
        assert lam == pytest.approx(0.01984962406015038, rel=1e-12)
        report = s.verify_decay(nominal_plus_run, lam)
        assert report.passed
        assert report.c0_fit >= 1.0

    def test_requires_lyapunov_samples(self, full_strong_run):
        with pytest.raises(ValueError):
            s.verify_decay(full_strong_run, 0.01)

    def test_run_that_blew_up_fails_without_warning(self):
        # F^2 + Ms^2 overflowed with a RuntimeWarning on a run whose Ms passed 1e154
        t = np.linspace(0.0, 40.0, 5)
        Ms = np.array([0.0, 1e100, 1e200, 1e300, 1e305])
        traj = _synthetic_reduced(t, np.full_like(t, 0.5), Ms, V=np.exp(-0.03 * t))
        assert s.verify_decay(traj, lambda_theory=0.02).c0_fit == np.inf


class TestVdotCheck:
    def test_nominal_closed_loop_passes(self, nominal_plus_run, params, cfg):
        lam = 2 * min(params.delta_F - cfg.eps, cfg.eta)
        assert s.vdot_check(nominal_plus_run, lam).passed

    def test_global_run_passes_with_global_rate(self, global_high_run, params, cfg):
        lam = 2 * min(params.delta_F - cfg.eps, cfg.eta, s.sigma(cfg.F2, params))
        assert s.vdot_check(global_high_run, lam).passed

    def test_open_loop_fails(self, open_loop_run, params, cfg):
        lam = 2 * min(params.delta_F - cfg.eps, cfg.eta)
        report = s.vdot_check(open_loop_run, lam)
        assert not report.passed

    def test_fewer_than_three_samples_rejected(self, params, cfg, eq):
        # two samples used to end in numpy's "attempt to get argmax of an empty sequence"
        law = s.ControlLaw("plus", cfg, params)
        spec = s.SimSpec(model="reduced", law=law, initial=(eq.F_bar, 0.0), t_end=1.0, dt=0.01, record_every=100)
        traj = s.integrate(spec)
        assert len(traj.times) == 2
        with pytest.raises(ValueError, match="need at least 3 samples for the vdot check, got 2"):
            s.vdot_check(traj, 0.01)

    def test_raw_variant_passes(self, params, cfg, eq):
        law = s.ControlLaw("raw", cfg, params)
        spec = s.SimSpec(model="reduced", law=law, initial=(eq.F_bar, 0.0), t_end=500.0, dt=0.01, record_every=100)
        traj = s.integrate(spec)
        lam = 2 * min(params.delta_F - cfg.eps, cfg.eta)
        assert s.vdot_check(traj, lam).passed


class TestControlBudget:
    def test_zero_control(self, open_loop_run):
        assert s.control_budget(open_loop_run) == 0.0

    def test_total_past_the_float_range_is_inf_without_warning(self):
        # the trapezoid sum overflowed with a RuntimeWarning on a sweep trial whose u reached 1.76e308
        t = np.array([0.0, 1.0, 2.0])
        traj = _synthetic_reduced(t, np.ones_like(t), np.zeros_like(t), u=np.array([1.0, 1.7e308, 1.7e308]))
        assert s.control_budget(traj) == np.inf

    def test_constant_control_exact(self):
        t = np.linspace(0.0, 40.0, 81)
        traj = _synthetic_reduced(t, np.ones_like(t), np.zeros_like(t), u=np.full_like(t, 2.5))
        assert s.control_budget(traj) == pytest.approx(2.5 * 40.0, rel=1e-12)

    def test_nominal_budget_integrable(self, nominal_plus_run):
        total = s.control_budget(nominal_plus_run)
        assert np.isfinite(total) and total > 0.0
        # doubling the horizon barely moves the total: tail is integrable
        half = np.searchsorted(nominal_plus_run.times, 1000.0)
        partial = np.trapezoid(nominal_plus_run.controls[: half + 1], nominal_plus_run.times[: half + 1])
        assert abs(total - partial) / total < 0.05


class TestAuditGrid:
    @pytest.mark.parametrize("check", AUDIT_CHECKS)
    def test_all_checks_pass_for_nominal_gains(self, params, cfg, check):
        report = s.audit_grid(cfg, params, check, n_1d=1000, n_2d=120)
        assert report.passed, report

    @pytest.mark.parametrize("design", ["nominal", "strong", "cubic"])
    @pytest.mark.parametrize("check", AUDIT_CHECKS)
    def test_matches_pointwise_scan(self, params, cfg, cfg_strong, design, check):
        design_cfg = {
            "nominal": cfg,
            "strong": cfg_strong,
            "cubic": s.ControllerConfig.design(params, F_hat=cfg.F_hat, eta=cfg.eta, rho=cfg.rho, cutoff_kind="cubic"),
        }[design]
        for n_2d in (25, 23):
            report = s.audit_grid(design_cfg, params, check, n_1d=200, n_2d=n_2d)
            fields = (report.passed, report.worst_value, report.witness, report.tolerance, report.grid)
            assert fields == _pointwise_audit(design_cfg, params, check, n_1d=200, n_2d=n_2d)
            assert type(report.worst_value) is float

    @pytest.mark.parametrize("check, law, bad", [("nonneg_plus", "u_star_plus", -1.0), ("pi_sign", "pi", 1.0)])
    def test_nan_fails_with_first_nan_as_witness(self, params, cfg, monkeypatch, check, law, bad):
        # row F = 0 violates the check everywhere; NaNs at its 8th point, at the
        # 3rd point of the next row and in a later row must not hide the violation
        extent = 10.0 * float(np.max(s.ms_star(np.linspace(0.0, cfg.F_hat, 2001), cfg, params)))
        Fs, Mss = np.linspace(0.0, cfg.F_hat, 50), np.linspace(0.0, extent, 50)
        assert verify._GRID_VALUES[check] == LAW_OUTPUTS[law]
        name = ("u", "mismatch")[LAW_OUTPUTS[law][1]]
        nan_at = "(F == 0.0 and Ms == M7) or (F == F1 and Ms == M2) or (F == F30 and Ms == 0.0)"
        _spoil(monkeypatch, f"{name} = bad if F == 0.0 else {name}\n{name} = nan if {nan_at} else {name}\n",
               bad=bad, nan=math.nan, M7=float(Mss[7]), F1=float(Fs[1]), M2=float(Mss[2]), F30=float(Fs[30]))
        report = _both_paths(monkeypatch, lambda: s.audit_grid(cfg, params, check, n_2d=50))
        assert not report.passed
        assert np.isnan(report.worst_value)
        assert report.witness == (0.0, float(Mss[7]))

    def test_mstar_identity_nan_fails_with_first_nan_as_witness(self, params, cfg, monkeypatch):
        # a NaN at grid index 500 used to pass, with worst value 0 and witness F = 0, which is off the grid
        Fs = np.logspace(-6, np.log10(cfg.F_hat), 1000)
        real = verify.g

        def spoiled(F, Ms, p):
            value = np.array(real(F, Ms, p))
            value[[500, 700]] = np.nan
            return value

        monkeypatch.setattr(verify, "g", spoiled)
        report = s.audit_grid(cfg, params, "mstar_identity")
        assert not report.passed
        assert np.isnan(report.worst_value)
        assert report.witness == (float(Fs[500]),)

    def test_mstar_identity_witness_is_a_grid_point(self, params, cfg, monkeypatch):
        monkeypatch.setattr(verify, "g", lambda F, Ms, p: cfg.eps * F)  # the identity holds exactly everywhere
        report = s.audit_grid(cfg, params, "mstar_identity")
        assert (report.passed, report.worst_value, report.witness) == (True, 0.0, (1e-6,))

    @pytest.mark.parametrize(
        "check, law", [("nonneg_plus", "u_star_plus"), ("pi_sign", "pi"), ("utilde_bound", "u_tilde")],
    )
    def test_tie_goes_to_first_point_in_scan_order(self, params, cfg, monkeypatch, check, law):
        assert verify._GRID_VALUES[check] == LAW_OUTPUTS[law]
        _spoil(monkeypatch, "u = 0.0\nmismatch = 0.0\n")
        report = _both_paths(monkeypatch, lambda: s.audit_grid(cfg, params, check, n_2d=23))
        assert (report.worst_value, report.witness) == (0.0, (0.0, 0.0))

    @pytest.mark.parametrize("highest", [False, True])
    def test_the_reference_scan_takes_the_first_nan_else_the_first_of_a_tie(self, highest):
        # the Python reference of the C scan, on the values given; -0.0 ties 0.0
        Fs, Mss = np.array([-1.0, 0.0, 2.0]), np.array([0.0, 5.0])
        grid = np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0]])
        assert verify._scan_2d(grid, Fs, Mss, highest) == (0.0, (-1.0, 0.0), 0.0, 0.0)
        grid[1:] = [[3.0, np.nan], [np.nan, -np.inf]]
        worst, witness, scale, K = verify._scan_2d(grid, Fs, Mss, highest, slope=1.0)
        assert (math.isnan(worst), witness, scale, K) == (True, (0.0, 5.0), math.inf, 0.0)
        grid[1:] = [[3.0, 1.0], [8.0, -2.0]]
        # K: (8 - 1 * 0) / 2 = 4 on the one row of F > 0; the row F = 0 is skipped
        assert verify._scan_2d(grid, Fs, Mss, highest, slope=1.0) == (
            (8.0, (2.0, 0.0), 8.0, 4.0) if highest else (-2.0, (2.0, 5.0), 8.0, 4.0))

    @pytest.mark.parametrize("check", AUDIT_CHECKS)
    @pytest.mark.parametrize("name", ["n_1d", "n_2d"])
    @pytest.mark.parametrize("size", [0, 1])
    def test_grid_smaller_than_two_points_rejected(self, params, cfg, check, name, size):
        with pytest.raises(ValueError, match=f"{name} must be at least 2"):
            s.audit_grid(cfg, params, check, **{name: size})

    def test_chi_sandwich_matches_pointwise_scan(self, cfg):
        vals = [chi(float(F), cfg) for F in np.linspace(0.0, 2.0 * cfg.F_hat, 1000)]
        assert chi_sandwich(cfg) == (all(0.0 <= v <= 1.0 for v in vals) and all(a >= b for a, b in zip(vals, vals[1:])))

    def test_unknown_check_rejected(self, params, cfg):
        with pytest.raises(ValueError):
            s.audit_grid(cfg, params, "frobnicate")

    def test_csv_row_shape(self, params, cfg):
        report = s.audit_grid(cfg, params, "mstar_identity")
        row = report.csv_row()
        assert row.startswith("mstar_identity,")
        assert len(row.split(",")) == 6


class TestAuditLaw:
    """The 2-D audits evaluate the law text that every run integrates, in C with a compiler, else in Python."""

    @pytest.fixture(params=["native", "python"])
    def path(self, request, monkeypatch):
        if request.param == "python":
            monkeypatch.setattr(native, "compiler", lambda: None)
            monkeypatch.setattr(native, "_BUILT", {})
        elif native.compiler() is None:
            pytest.skip("no C compiler on PATH")
        return request.param

    @staticmethod
    def _law_text(check, c, p):
        """The law text's value that ``check`` audits, as a Python function ``(F, Ms)``."""
        variant, output = verify._GRID_VALUES[check]
        body, constants = s.ControlLaw(variant, c, p).body()
        return define("evaluate", "F, Ms", body + f"return {('u', 'mismatch')[output]}\n", constants)

    @pytest.mark.parametrize("design", ["nominal", "eta-past-delta_s"])
    @pytest.mark.parametrize("check", ["nonneg_plus", "pi_sign", "utilde_bound"])
    def test_worst_value_is_the_law_text_at_the_witness(self, params, cfg, path, design, check):
        # with eta past delta_s the release term (delta_s - eta) Ms is negative: the checks on u fail, at Ms > 0
        c = cfg if design == "nominal" else s.ControllerConfig.design(params, F_hat_ratio=1.35, eta=0.2)
        report = s.audit_grid(c, params, check, n_2d=60)
        assert report.passed == (design == "nominal" or check == "pi_sign")
        assert report.worst_value.hex() == self._law_text(check, c, params)(*report.witness).hex()

    @pytest.mark.parametrize("design", ["nominal", "strong", "cubic"])
    @pytest.mark.parametrize("check", ["nonneg_plus", "pi_sign", "utilde_bound"])
    def test_values_are_the_law_text_at_every_point(self, params, cfg, cfg_strong, path, design, check):
        c = {"nominal": cfg, "strong": cfg_strong, "cubic": s.nominal_controller(params, cutoff_kind="cubic")}[design]
        # F from 0 to past F_hat, with the knee F2, F_hat and the floats just below F_hat, where the quintic ramp
        # rounds below 0
        Fs = np.sort(np.concatenate([np.linspace(0.0, 1.5 * c.F_hat, 23), [c.F2, c.F_hat],
                                     (np.float64(c.F_hat).view(np.int64) - np.arange(1, 5)).view(np.float64)]))
        # Ms also on the mismatch rate's switch band of two F rows, where it takes the derivative branch
        Mss = np.sort(np.concatenate([np.linspace(0.0, 4e4, 31), s.ms_star(Fs[[3, 8]], c, params)]))
        law = self._law_text(check, c, params)
        expected = np.array([[law(F, Ms) for Ms in Mss.tolist()] for F in Fs.tolist()])
        scan = verify._scanner(check, c, params)  # a scan of one point gives its value, bit for bit
        values = np.array([[scan([F], [Ms])[0] for Ms in Mss.tolist()] for F in Fs.tolist()])
        assert values.tobytes() == expected.tobytes()

    def test_a_design_of_numpy_scalars_audits_as_plain_floats(self, params, cfg, path):
        # numpy scalars used to reach the law's C constants, which raised TypeError with a compiler and ran numpy
        # scalar arithmetic without one
        c = s.ControllerConfig.design(params, F_hat=np.float64(cfg.F_hat), eta=np.float64(cfg.eta),
                                      rho=np.float64(cfg.rho), F2=np.float64(cfg.F2))
        assert [type(getattr(c, name)) for name in ("F_hat", "eps", "eta", "rho", "F2")] == [float] * 5
        assert c == cfg
        for check in AUDIT_CHECKS:
            assert repr(s.audit_grid(c, params, check, n_1d=200, n_2d=40)) == repr(
                s.audit_grid(cfg, params, check, n_1d=200, n_2d=40))

    def test_audits_build_one_library_and_match_the_python_law(self, params, cfg, cfg_strong, counting_compiler,
                                                              monkeypatch):
        # the three audit designs x the three 2-D checks; gated, clip and cubic are values of the one law text
        cubic = s.ControllerConfig.design(params, F_hat=cfg.F_hat, eta=cfg.eta, rho=cfg.rho, cutoff_kind="cubic")
        audits = [(c, check) for c in (cfg, cfg_strong, cubic) for check in ("nonneg_plus", "pi_sign", "utilde_bound")]
        reports = [s.audit_grid(c, params, check, n_2d=100) for c, check in audits]
        assert counting_compiler.read_text() == "run\n"
        monkeypatch.setattr(native, "compiler", lambda: None)
        monkeypatch.setattr(native, "_BUILT", {})
        assert [s.audit_grid(c, params, check, n_2d=100) for c, check in audits] == reports
