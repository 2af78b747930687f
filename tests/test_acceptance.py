"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they are produced.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

import sitctl as s
from sitctl.configio import read_trajectory_csv, write_trajectory_csv
from sitctl.harness import RobustnessConfig, preset_scenario, run_robustness

from reference import dg_dMs


def _report(criterion: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_equilibrium_reproduction(params, eq):
    r0_oracle = Fraction(49, 100) * 10 * Fraction(5, 1000) / (Fraction(4, 100) * Fraction(35, 1000))
    ok = (
        abs(eq.R0 - float(r0_oracle)) <= 1e-9 * float(r0_oracle)
        and abs(eq.M_bar - 5106.0) <= 1e-3 * 5106.0
        and abs(eq.E_bar - 200240.0) <= 1e-3 * 200240.0
        and abs(eq.F_bar - 12264.0) <= 1e-3 * 12264.0
    )
    _report(
        "criterion 1: equilibrium reproduction", ok,
        f"R0={eq.R0}, M_bar={eq.M_bar:.1f}, E_bar={eq.E_bar:.1f}, F_bar={eq.F_bar:.1f}",
    )


def test_criterion_2_virtual_feedback_identity(params, cfg):
    worst = 0.0
    for F in np.logspace(-6, math.log10(cfg.F_hat), 1000):
        F = float(F)
        worst = max(worst, abs(s.g(F, s.ms_star(F, cfg, params), params) - cfg.eps * F) / (cfg.eps * F))
    _report("criterion 2: virtual-feedback identity", worst <= 1e-9, f"worst rel error {worst:.3e}")


def test_criterion_3_clipped_law_nonnegativity(params):
    cfg = s.ControllerConfig.design(params, F_hat_ratio=1.35, eta=params.delta_s - 0.02, rho=0.5)
    report = s.audit_grid(cfg, params, "nonneg_plus", n_2d=400)
    _report(
        "criterion 3: clipped-law nonnegativity on audit grid", report.passed,
        f"min u = {report.worst_value:.3e} at {report.witness}",
    )


def test_criterion_4_slope_inequality_audit(params, cfg):
    report = s.audit_grid(cfg, params, "lemma4", n_1d=4000)
    _report(
        "criterion 4: virtual-feedback slope inequality + closed-form identity", report.passed,
        f"min gap = {report.worst_value:.3e}",
    )


def test_criterion_5_lyapunov_decay(params, cfg, nominal_plus_run, global_high_run):
    lam = 2 * min(params.delta_F - cfg.eps, cfg.eta)
    rep_plus = s.verify_decay(nominal_plus_run, lam)
    vdot_plus = s.vdot_check(nominal_plus_run, lam)
    lam_g = 2 * min(params.delta_F - cfg.eps, cfg.eta, s.sigma(cfg.F2, params))
    rep_global = s.verify_decay(global_high_run, lam_g)
    vdot_global = s.vdot_check(global_high_run, lam_g)
    ok = rep_plus.passed and vdot_plus.passed and rep_global.passed and vdot_global.passed
    _report(
        "criterion 5: Lyapunov exponential-decay certificates", ok,
        f"plus max ratio {rep_plus.max_violation:.6f}, global max ratio {rep_global.max_violation:.6f}",
    )


def test_criterion_6_squared_norm_envelope_and_rate(params, cfg, nominal_plus_run):
    lam = 2 * min(params.delta_F - cfg.eps, cfg.eta)
    report = s.verify_decay(nominal_plus_run, lam)
    traj = nominal_plus_run
    norm2 = traj.F**2 + traj.Ms**2
    envelope_ok = bool(
        np.all(norm2 <= report.c0_fit * np.exp(-lam * traj.times) * norm2[0] * (1 + 1e-9))
    )
    mask = (traj.times >= 100.0) & (traj.F > 0)
    rate, _ = s.fit_decay_rate(traj.times[mask], traj.F[mask])
    lo, hi = params.delta_F - cfg.eps - 0.002, params.delta_F + 1e-6
    ok = envelope_ok and report.c0_fit >= 1.0 and lo <= rate <= hi
    _report(
        "criterion 6: squared-norm envelope and female decay-rate bracket", ok,
        f"c0 = {report.c0_fit:.1f}, fitted F rate = {rate:.6f} in [{lo:.6f}, {hi:.6f}]",
    )


def test_criterion_7_open_loop_dichotomy(params, cfg, eq, open_loop_run):
    near_ok = abs(open_loop_run.F[-1] - eq.F_bar) <= 0.01 * eq.F_bar
    law = s.ControlLaw("none", cfg, params)
    spec = s.SimSpec(model="reduced", law=law, initial=(0.01 * eq.F_bar, 0.0), t_end=100.0, dt=0.01, record_every=100)
    low = s.integrate(spec)
    away_ok = low.F[-1] > low.F[0]
    _report(
        "criterion 7: open-loop dichotomy (persistence stable, extinction unstable)",
        near_ok and away_ok,
        f"F(2000)={open_loop_run.F[-1]:.1f} vs F_bar={eq.F_bar:.1f}; F(100)/F(0)={low.F[-1] / low.F[0]:.3f}",
    )


def test_criterion_8_full_model_extinction(full_strong_run, reduced_strong_run):
    extinct = full_strong_run.F[-1] < 1.0
    nonneg = bool(np.all(full_strong_run.controls >= 0.0))
    mask = reduced_strong_run.times >= 0.75 * reduced_strong_run.times[-1]
    ratio_ok = bool(np.all(full_strong_run.controls[mask] >= reduced_strong_run.controls[mask]))
    ok = extinct and nonneg and ratio_ok
    _report(
        "criterion 8: full-model extinction with slower control decay", ok,
        f"F(2000)={full_strong_run.F[-1]:.3e}, min u={full_strong_run.controls.min():.3e}",
    )


def test_criterion_9_robustness_study():
    outcomes = {}
    for preset in ("robust-reduced", "robust-full"):
        base = preset_scenario(preset)
        result = run_robustness(RobustnessConfig(base=base, trials=20, uncertainty=0.10, seed=2024))
        outcomes[preset] = result
        zero = run_robustness(RobustnessConfig(base=base, trials=1, uncertainty=0.0, seed=2024))
        nominal = s.integrate(base.sim_spec())
        outcomes[preset + "-identical"] = (
            zero.trials[0].max_control == float(np.max(nominal.controls))
            and zero.trials[0].total_control == s.control_budget(nominal)
            and zero.trials[0].extinction_time == s.detect_extinction(nominal, base.extinction_threshold)
        )
    ok = all(
        outcomes[p].n_extinct == 20 and outcomes[p].n_nonneg == 20 and outcomes[p].n_decreasing == 20
        for p in ("robust-reduced", "robust-full")
    ) and outcomes["robust-reduced-identical"] and outcomes["robust-full-identical"]
    _report(
        "criterion 9: 20-trial 10%-uncertainty robustness, zero-uncertainty identity", ok,
        "; ".join(
            f"{p}: {outcomes[p].n_extinct}/20 extinct, resample rate {outcomes[p].resample_rate:.3f}"
            for p in ("robust-reduced", "robust-full")
        ),
    )


def test_criterion_10_numerical_hygiene(params, cfg, eq, tmp_path, nominal_plus_run):
    # RK4 order on the nominal scenario (Richardson triple)
    law = s.ControlLaw("plus", cfg, params)

    def end_state(dt):
        spec = s.SimSpec(model="reduced", law=law, initial=(eq.F_bar, 0.0), t_end=100.0, dt=dt, record_every=10**6)
        return np.asarray(s.integrate(spec).states[-1])

    coarse, mid, fine = end_state(0.1), end_state(0.05), end_state(0.025)
    ratio = float(np.linalg.norm(coarse - mid) / np.linalg.norm(mid - fine))
    order_ok = 13.0 <= ratio <= 19.0

    # derivative implementations vs Richardson-extrapolated central differences
    def richardson(f, x, h):
        d = lambda step: (f(x + step) - f(x - step)) / (2 * step)
        return (4.0 * d(h / 2) - d(h)) / 3.0

    worst_g = 0.0
    for F in np.linspace(1.0, 2 * cfg.F_hat, 60):
        for Ms in np.linspace(1.0, 1e5, 60):
            h = 1e-3 * max(1.0, Ms)
            fd = richardson(lambda m: s.g(F, m, params), Ms, h)
            worst_g = max(worst_g, abs(dg_dMs(F, Ms, params) - fd) / abs(dg_dMs(F, Ms, params)))
    grid_F = np.linspace(1.0, cfg.F_hat, 200)
    scale_m = max(abs(s.dms_star_dF(float(F), cfg, params)) for F in grid_F)
    worst_m = 0.0
    for F in grid_F:
        F = float(F)
        fd = richardson(lambda x: s.ms_star(x, cfg, params), F, 1e-3 * F)
        worst_m = max(worst_m, abs(s.dms_star_dF(F, cfg, params) - fd) / scale_m)
    deriv_ok = worst_g <= 1e-6 and worst_m <= 1e-6

    # lossless artifact round-trips
    path = tmp_path / "roundtrip.csv"
    write_trajectory_csv(nominal_plus_run, path)
    _, rows = read_trajectory_csv(path)
    data = np.array(rows)
    csv_ok = (
        np.array_equal(data[:, 0], nominal_plus_run.times)
        and np.array_equal(data[:, 1], nominal_plus_run.F)
        and np.array_equal(data[:, 4], nominal_plus_run.lyapunov)
    )
    cfg_ok = s.params_from_text(s.params_to_text(params)) == params

    ok = order_ok and deriv_ok and csv_ok and cfg_ok
    _report(
        "criterion 10: RK4 order, derivative cross-checks, lossless round-trips", ok,
        f"order ratio {ratio:.2f}, dg err {worst_g:.2e}, dms err {worst_m:.2e}",
    )
