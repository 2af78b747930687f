"""Correctness checks of each workload's outputs against :mod:`refmodel`.

Every check compares the program's output with a computation made apart
from the program, or with a property the method must have; none compares
with a stored copy of an earlier output.  Each check returns a list of
problems (empty when the outputs are correct) and the accuracy it saw.
"""
from __future__ import annotations

import math

import numpy as np

import refmodel as ref
import workloads

# Stated accuracy of the study check: every CSV state sample x satisfies
# |x - x_ref| <= STATE_RTOL |x_ref| + STATE_ATOL.  Measured agreement of
# the dt = 0.01 runs with the reference is about 5e-9 relative.
STATE_RTOL = 1e-6
STATE_ATOL = 1e-12
# The u and V columns against the reference formulas at the CSV state.
FORMULA_RTOL = 1e-9
# The decay certificate's own slack: V <= V(0) e^{-lambda t} (1 + 1e-3).
DECAY_SLACK = 1e-3
# Sweep: extinction time within one recording interval, total release within this share.
RELEASE_RTOL = 1e-6
# Audit: a worst value matches the reference within the check's own
# tolerance plus this share of its size.
AUDIT_RTOL = 1e-9

PERTURBED_KEYS = ("beta_E", "gamma_s", "nu_E", "nu", "delta_E", "delta_M", "delta_F", "delta_s")


def _nominal():
    return ref.Params(ref.NOMINAL)


def study_design(name: str, p):
    """(model, variant, design, initial state) of one study config, from the config's values."""
    F_bar, E_bar, M_bar = ref.equilibrium(p)
    if name == "reduced_plus":
        return "reduced", "plus", ref.Design.from_ratio(p, 1.35, 0.1, 0.5), (F_bar, 0.0)
    if name == "full_global":
        return "full", "global", ref.Design.from_eps(p, 0.01, 0.1, 0.5), (E_bar, M_bar, F_bar, 0.0)
    if name == "reduced_global_high":
        return "reduced", "global", ref.Design.from_ratio(p, 1.35, 0.1, 0.5), (2.0 * F_bar, 0.0)
    raise KeyError(name)


def _read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_study(w, outputs, pass_dirs):
    problems, seen = [], {}
    p = _nominal()
    for i, op in enumerate(w.ops):
        name = op.label
        first = outputs[0][i]
        if first is None or first.exit_code != 0:
            problems.append(f"study/{name}: exit code {None if first is None else first.exit_code}, expected 0")
            continue
        csv_path = pass_dirs[0] / f"{name}.csv"
        raw = csv_path.read_bytes()
        for k in range(1, len(outputs)):
            again = outputs[k][i]
            if again is None or again.stdout != first.stdout or (pass_dirs[k] / f"{name}.csv").read_bytes() != raw:
                problems.append(f"study/{name}: pass {k} differs from pass 0 (runs must be deterministic)")
        header, rows = _read_csv(csv_path)
        model, variant, d, initial = study_design(name, p)
        expected = ["t", "F", "Ms"] + (["E", "M"] if model == "full" else []) + ["u"] + (["V"] if model == "reduced" else [])
        if header != expected:
            problems.append(f"study/{name}: header {header}, expected {expected}")
            continue
        col = {key: rows[:, j] for j, key in enumerate(header)}
        t = col["t"]
        if model == "reduced":
            field = ref.reduced_field(p, p, d, variant)
            ref_states = ref.solve(field, initial, t)
            pairs = {"F": ref_states[:, 0], "Ms": ref_states[:, 1]}
        else:
            field = ref.full_field(p, p, d, variant)
            ref_states = ref.solve(field, initial, t)
            pairs = {"E": ref_states[:, 0], "M": ref_states[:, 1], "F": ref_states[:, 2], "Ms": ref_states[:, 3]}
        # error as a share of the allowed error: <= 1 is within the stated accuracy
        worst = max(
            float(np.max(np.abs(col[key] - x_ref) / (STATE_RTOL * np.abs(x_ref) + STATE_ATOL)))
            for key, x_ref in pairs.items()
        )
        seen[f"study/{name} state error / allowed"] = worst
        if worst > 1.0:
            problems.append(f"study/{name}: states differ from the reference beyond the stated accuracy (x{worst:.3g})")
        u = col["u"]
        if np.any(u < 0.0):
            problems.append(f"study/{name}: u < 0 in {int(np.sum(u < 0.0))} rows")
        F, Ms = col["F"], col["Ms"]
        u_ref = np.array([ref.law(float(a), float(b), p, d, variant) for a, b in zip(F, Ms)])
        u_scale = float(np.max(np.abs(u_ref))) or 1.0
        if np.any(np.abs(u - u_ref) > FORMULA_RTOL * (np.abs(u_ref) + 1e-6 * u_scale)):
            problems.append(f"study/{name}: u column differs from the reference law at the recorded states")
        if model == "reduced":
            V = ref.lyapunov(F, Ms, p, d)
            if np.any(np.abs(col["V"] - V) > FORMULA_RTOL * V + 1e-300):
                problems.append(f"study/{name}: V column differs from the reference Lyapunov function")
            lam = ref.decay_rate(p, d, variant == "global")
            with np.errstate(divide="ignore"):
                excess = np.log(V) - math.log(V[0]) + lam * t
            seen[f"study/{name} max log(V/envelope)"] = float(np.max(excess))
            if np.any(excess > math.log1p(DECAY_SLACK)):
                problems.append(
                    f"study/{name}: V exceeds V(0) e^(-{lam:.6g} t) (1 + {DECAY_SLACK}) "
                    f"at t = {float(t[int(np.argmax(excess))])}"
                )
        elif not F[-1] < 1.0:
            problems.append(f"study/{name}: F(t_end) = {F[-1]!r}, expected < 1 (extinction)")
    return problems, seen


def perturbed_plant(seed: int, trial: int, fraction: float):
    """Trial ``trial``'s plant, drawn as documented: a PCG64 stream spawned
    from (seed, trial), one uniform factor in [1-f, 1+f] per perturbed rate,
    redrawn until the model assumptions hold."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(trial,))))
    for _ in range(100):
        factors = rng.uniform(1.0 - fraction, 1.0 + fraction, size=len(PERTURBED_KEYS))
        values = dict(ref.NOMINAL)
        for key, factor in zip(PERTURBED_KEYS, factors):
            values[key] = values[key] * float(factor)
        plant = ref.Params(values)
        if ref.admissible(plant):
            return plant
    raise RuntimeError("no admissible perturbation")


def reference_trial(preset: str, seed: int, trial: int = 0):
    """(sample times, F, u) of the nominal law on the trial's plant."""
    p = _nominal()
    plant = perturbed_plant(seed, trial, workloads.SWEEP_UNCERTAINTY)
    d = ref.Design.from_eps(p, 0.01, p.delta_s - 0.02, 0.5)
    F_bar, E_bar, M_bar = ref.equilibrium(p)
    times = np.arange(0, 40001, 20) * 0.05  # dt 0.05, a sample every 20 steps, 2000 days
    if preset == "robust-reduced":
        states = ref.solve(ref.reduced_field(plant, p, d, "global"), (F_bar, 0.0), times)
        F, Ms = states[:, 0], states[:, 1]
    else:
        states = ref.solve(ref.full_field(plant, p, d, "global"), (E_bar, M_bar, F_bar, 0.0), times)
        F, Ms = states[:, 2], states[:, 3]
    u = np.array([ref.law(max(float(a), 0.0), max(float(b), 0.0), p, d, "global") for a, b in zip(F, Ms)])
    return times, F, u


def check_sweep(w, outputs, pass_dirs):
    problems, seen = [], {}
    for i, op in enumerate(w.ops):
        name = op.label
        first = outputs[0][i]
        if first is None:
            problems.append(f"sweep/{name}: no result")
            continue
        for k in range(1, len(outputs)):
            again = outputs[k][i]
            if again is None or again.summary_lines() != first.summary_lines():
                problems.append(f"sweep/{name}: pass {k} differs from pass 0 (same seed, same result)")
        if len(first.trials) != workloads.SWEEP_TRIALS:
            problems.append(f"sweep/{name}: {len(first.trials)} trials, expected {workloads.SWEEP_TRIALS}")
        for trial in first.trials:
            if not (trial.extinct and trial.control_nonneg):
                problems.append(f"sweep/{name}: trial {trial.trial} extinct={trial.extinct} u_nonneg={trial.control_nonneg}")
        times, F, u = reference_trial(name, w.seed)
        above = np.nonzero(F >= 1.0)[0]
        t_ext = None if F[-1] >= 1.0 else float(times[0 if len(above) == 0 else above[-1] + 1])
        got = first.trials[0]
        interval = 20 * 0.05
        if t_ext is None or got.extinction_time is None or abs(t_ext - got.extinction_time) > interval + 1e-9:
            problems.append(f"sweep/{name}: trial 0 extinction at {got.extinction_time}, reference {t_ext}")
        total = float(np.trapezoid(u, times))
        rel = abs(got.total_control - total) / total
        seen[f"sweep/{name} trial 0 release rel err"] = rel
        seen[f"sweep/{name} trial 0 extinction (program, reference)"] = (got.extinction_time, t_ext)
        if not rel <= RELEASE_RTOL:
            problems.append(f"sweep/{name}: trial 0 total release {got.total_control!r}, reference {total!r} (rel {rel:.3g})")
    return problems, seen


def _audit_reference(check: str, p, d):
    """(values over the check's grid, value at a point, 'min' or 'max', extra figures)."""
    if check == "mstar_identity":
        Fs = np.logspace(-6, np.log10(d.F_hat), 1000)

        def value(F, Ms=None):
            F = np.asarray(F, float)
            return np.abs(ref.g_vec(F, ref.ms_star(F, p, d), p) - d.eps * F) / (d.eps * F)

        return value(Fs), value, "max", {}
    if check == "lemma4":
        Fs = np.linspace(0.0, d.F_hat, 4000)

        def value(F, Ms=None):
            F = np.asarray(F, float)
            return ref.ms_star(F, p, d) - F * ref.dms_star(F, p, d)

        return value(Fs), value, "min", {}
    if check in ("pi_sign", "nonneg_plus"):
        extent = 10.0 * float(np.max(ref.ms_star(np.linspace(0.0, d.F_hat, 2001), p, d)))
        FF, MM = np.meshgrid(np.linspace(0.0, d.F_hat, 400), np.linspace(0.0, extent, 400), indexing="ij")
        if check == "pi_sign":
            return ref.pi_vec(FF, MM, p, d), lambda F, Ms: ref.pi_vec(F, Ms, p, d), "max", {}
        vals = ref.plus_vec(FF, MM, p, d)
        return vals, lambda F, Ms: ref.plus_vec(F, Ms, p, d), "min", {"scale": float(np.max(np.abs(vals)))}
    if check == "utilde_bound":
        FF, MM = np.meshgrid(np.linspace(0.0, 3.0 * d.F_hat, 400), np.linspace(0.0, 1e5, 400), indexing="ij")
        vals = ref.global_vec(FF, MM, p, d)
        pos = FF > 0.0
        K = float(np.max((vals[pos] - (p.delta_s - d.eta) * MM[pos]) / FF[pos]))
        return vals, lambda F, Ms: ref.global_vec(F, Ms, p, d), "min", {"K": K, "scale": float(np.max(np.abs(vals)))}
    raise KeyError(check)


def audit_reference_design(name: str, cfg):
    """Reference design with the program design's ceiling and gains."""
    return ref.Design(_nominal(), cfg.F_hat, cfg.eta, cfg.rho, "cubic" if name.endswith("cubic") else "quintic")


def check_audit(w, outputs, pass_dirs):
    problems, seen = [], {}
    p = _nominal()
    for i, op in enumerate(w.ops):
        design_name, check = op.label.split("/")
        report = outputs[0][i]
        if report is None:
            problems.append(f"audit/{op.label}: no report")
            continue
        key = (report.check, report.grid, bool(report.passed), report.worst_value, report.witness)
        for k in range(1, len(outputs)):
            again = outputs[k][i]
            if again is None or (again.check, again.grid, bool(again.passed), again.worst_value, again.witness) != key:
                problems.append(f"audit/{op.label}: pass {k} differs from pass 0")
        if not report.passed:
            problems.append(f"audit/{op.label}: report failed (worst {report.worst_value!r} at {report.witness})")
        cfg = w.inputs["designs"][design_name]
        d = audit_reference_design(design_name, cfg)
        if abs(d.eps - cfg.eps) > 1e-12 * cfg.eps:
            problems.append(f"audit/{op.label}: design eps {cfg.eps!r} differs from the reference {d.eps!r}")
        values, at, sense, extra = _audit_reference(check, p, d)
        worst_ref = float(np.max(values) if sense == "max" else np.min(values))
        tol = max(report.tolerance, AUDIT_RTOL * extra.get("scale", 0.0)) + AUDIT_RTOL * abs(worst_ref)
        seen[f"audit/{op.label} |worst - reference|"] = abs(report.worst_value - worst_ref)
        if not abs(report.worst_value - worst_ref) <= tol:
            problems.append(f"audit/{op.label}: worst {report.worst_value!r}, reference {worst_ref!r}")
        at_witness = float(np.asarray(at(*report.witness)).reshape(-1)[0])
        if not abs(at_witness - worst_ref) <= tol:
            problems.append(f"audit/{op.label}: reference value {at_witness!r} at witness {report.witness} "
                            f"does not attain the worst value {worst_ref!r}")
        if "K" in extra:
            reported_K = float(report.grid.rsplit("K=", 1)[1])
            if abs(reported_K - extra["K"]) > 1e-5 * abs(extra["K"]):
                problems.append(f"audit/{op.label}: growth constant K={reported_K}, reference {extra['K']!r}")
    return problems, seen


def check_reference() -> list:
    """The reference's own identities on every design the workloads use."""
    p = _nominal()
    designs = [study_design(name, p)[2] for name in workloads.STUDY_CONFIGS]
    designs.append(ref.Design.from_ratio(p, 1.35, 0.1, 0.5, "cubic"))
    return [problem for d in designs for problem in ref.self_check(p, d)]


CHECKS = {"study": check_study, "sweep": check_sweep, "audit": check_audit}
