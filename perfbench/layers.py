"""Traced run: each workload's work repeated as layer calls inside spans.

A span is recorded by this file around a call into one of sitctl's
modules (``cli``, ``configio``, ``harness``, ``simulate``, ``control``,
``model``, ``verify``).  Calls that a layer makes into another layer are
seen by wrapping the module attribute the caller looks the callee up by
(for example ``sitctl.harness.integrate``); the wrappers live only in this
process and are removed before the run ends.  A span's self time is its
duration minus the time its child spans cover.  Spans are kept in memory
and written out as JSON when the run ends.

A traced run covers all three workloads, so it reports every per-layer
metric.  Its passes go through :func:`workloads.measure`, each operation
inside one top-level span.  The program is
single-threaded and has no queues, so no waiting time is reported.
"""
from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
from pathlib import Path

import workloads

# Grid points each audit check evaluates (its documented grid).
AUDIT_POINTS = {
    "nonneg_plus": 400 * 400,
    "lemma4": 4000,
    "pi_sign": 400 * 400,
    "mstar_identity": 1000,
    "utilde_bound": 400 * 400,
}
PERTURB_DRAWS = 200
MICRO_REPEATS = 7


class Tracer:
    """Spans kept in memory: id, parent, name, start, end (and optional tags)."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list = []
        self._origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, **tags):
        record = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                  "name": name, "start": time.perf_counter(), "end": None, **tags}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str, keep=None):
        """Record a span around every call made through ``module.attr``."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
            if keep is not None:
                keep(record, args, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def restore(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    @staticmethod
    def duration(record) -> float:
        return record["end"] - record["start"]

    def named(self, name: str, **tags) -> list[dict]:
        return [s for s in self.spans if s["name"] == name and all(s.get(k) == v for k, v in tags.items())]

    def children(self, record) -> list[dict]:
        return [s for s in self.spans if s["parent"] == record["id"]]

    def self_time(self, record) -> float:
        return self.duration(record) - sum(self.duration(c) for c in self.children(record))

    def dump(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [{**s, "start": s["start"] - self._origin, "end": s["end"] - self._origin} for s in self.spans]
        path.write_text(json.dumps(rows))


def _per_call_us(fn, calls) -> float:
    """Median over repeats of the time of one sweep through ``calls``, per call, in microseconds."""
    times = []
    for _ in range(MICRO_REPEATS):
        t0 = time.perf_counter()
        for args in calls:
            fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / len(calls) * 1e6


def _median_ms(fn, repeats: int = 21) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def run(seed: int, seconds: float, workdir: Path, trace_out: Path) -> dict:
    from sitctl import cli, harness, model, simulate, verify
    from sitctl.control import ControlLaw, ControllerConfig

    tracer = Tracer()
    study = workloads.build("study", seed, workdir / "study-inputs")
    sweep = workloads.build("sweep", seed, workdir / "sweep-inputs")
    audit = workloads.build("audit", seed, workdir / "audit-inputs")
    warm = workdir / "warmup"
    warm.mkdir(parents=True)
    for w in (study, sweep, audit):
        w.warmup(warm)

    current = {"op": None}
    runs = {}  # study config -> (SimSpec, Trajectory) of its integrate call

    def keep_run(record, args, traj):
        record["op"] = current["op"]
        if current["op"] in study.inputs["configs"]:
            runs[current["op"]] = (args[0], traj)

    tracer.wrap(cli, "read_config", "configio.parse")
    tracer.wrap(cli, "params_from_mapping", "configio.parse")
    tracer.wrap(cli, "run_scenario", "harness.run_scenario")
    tracer.wrap(harness, "integrate", "simulate.integrate", keep=keep_run)
    tracer.wrap(harness, "detect_extinction", "simulate.detect_extinction")
    tracer.wrap(harness, "verify_decay", "verify.decay")
    tracer.wrap(harness, "control_budget", "verify.budget")
    tracer.wrap(harness, "write_trajectory_csv", "configio.csv_write")
    tracer.wrap(harness, "perturb_params", "harness.perturb")

    def traced(op, span_name):
        def run_op(pass_dir):
            current["op"] = op.label
            with tracer.span(span_name, op=op.label):
                return op.run(pass_dir)

        return workloads.Op(op.label, run_op, op.ok)

    groups = ((study, "cli.simulate"), (sweep, "harness.run_robustness"), (audit, "verify.audit"))
    ops = [traced(op, span_name) for w, span_name in groups for op in w.ops]
    try:
        passes, pass_dirs, _, attempted, failed = workloads.measure(ops, seconds, workdir)
    finally:
        tracer.restore()
    outputs, first = {}, 0  # each workload's slice of every pass
    for w, _ in groups:
        outputs[w.name] = [results[first:first + len(w.ops)] for results in passes]
        first += len(w.ops)

    metrics = {}

    def put(name, value, unit):
        metrics[name] = [value, unit]

    med = statistics.median
    dur = tracer.duration
    cli_spans = tracer.named("cli.simulate")
    put("cli.simulate_s", med(dur(s) for s in cli_spans), "s")
    put("cli.self_s", med(tracer.self_time(s) for s in cli_spans), "s")
    put("configio.parse_s", med(
        sum(dur(c) for c in tracer.children(s) if c["name"] == "configio.parse") for s in cli_spans), "s")
    put("configio.csv_write_s", med(dur(s) for s in tracer.named("configio.csv_write")), "s")
    put("configio.csv_bytes", sum((pass_dirs[-1] / f"{name}.csv").stat().st_size for name in study.inputs["configs"]),
        "bytes")
    scenario_spans = tracer.named("harness.run_scenario")
    put("harness.run_scenario_s", med(dur(s) for s in scenario_spans), "s")
    put("harness.scenario_self_s", med(tracer.self_time(s) for s in scenario_spans), "s")

    robust_spans = tracer.named("harness.run_robustness")
    put("harness.trial_s", med(dur(s) / workloads.SWEEP_TRIALS for s in robust_spans), "s")

    p = harness.NOMINAL_PARAMS
    draws, tries = [], 0
    for rng in [harness.trial_rng(seed, i) for i in range(PERTURB_DRAWS)]:
        t0 = time.perf_counter()
        _, n = harness.perturb_params(p, workloads.SWEEP_UNCERTAINTY, rng)
        draws.append(time.perf_counter() - t0)
        tries += n
    put("harness.perturb_us", med(draws) * 1e6, "us")
    put("harness.resample_rate", (tries - PERTURB_DRAWS) / PERTURB_DRAWS, "ratio")

    study_integrations = [s for s in tracer.named("simulate.integrate") if s.get("op") in study.inputs["configs"]]
    reduced = [dur(s) for s in study_integrations if runs[s["op"]][0].model == "reduced"]
    full = [dur(s) for s in study_integrations if runs[s["op"]][0].model == "full"]
    put("simulate.integrate_reduced_s", med(reduced), "s")
    put("simulate.integrate_full_s", med(full), "s")
    days = sum(runs[s["op"]][0].t_end for s in study_integrations)
    put("simulate.days_per_s", days / sum(dur(s) for s in study_integrations), "days/s")
    put("simulate.samples", sum(len(traj.times) for _, traj in runs.values()), "count")

    base = sweep.inputs["configs"]["robust-reduced"].base
    plant, _ = harness.perturb_params(p, workloads.SWEEP_UNCERTAINTY, harness.trial_rng(seed, 0))
    perturbed = simulate.SimSpec(
        model=base.model, law=ControlLaw(base.variant, base.controller, plant),
        initial=base.resolve_initial(), t_end=base.t_end, dt=base.dt, record_every=base.record_every,
    )
    with tracer.span("simulate.integrate_perturbed") as record:
        simulate.integrate(perturbed)
    put("simulate.integrate_perturbed_s", dur(record), "s")

    plus_spec, plus_traj = runs["reduced_plus"]
    global_spec, global_traj = runs["reduced_global_high"]
    _, full_traj = runs["full_global"]
    plus_states = [(float(F), float(Ms)) for F, Ms in plus_traj.states]
    global_states = [(float(F), float(Ms)) for F, Ms in global_traj.states]
    put("control.fused_plus_us", _per_call_us(plus_spec.law.evaluator(), plus_states), "us")
    put("control.fused_global_us", _per_call_us(global_spec.law.evaluator(), global_states), "us")
    put("control.composed_plus_us", _per_call_us(plus_spec.law, plus_states), "us")
    put("control.composed_global_us", _per_call_us(global_spec.law, global_states), "us")
    cfg = plus_spec.law.config
    put("control.design_ms", _median_ms(lambda: ControllerConfig.design(
        p, F_hat_ratio=27.0 / 20.0, eta=cfg.eta, rho=cfg.rho)), "ms")

    put("model.g_us", _per_call_us(model.g, [(F, Ms, p) for F, Ms in plus_states]), "us")
    put("model.reduced_rhs_us", _per_call_us(
        model.reduced_rhs, [((F, Ms), float(u), p) for (F, Ms), u in zip(plus_states, plus_traj.controls)]), "us")
    put("model.full_rhs_us", _per_call_us(
        model.full_rhs, [(tuple(map(float, s)), float(u), p) for s, u in zip(full_traj.states, full_traj.controls)]),
        "us")

    lam = harness.guaranteed_rate(cfg, p, False)
    put("verify.decay_ms", _median_ms(lambda: verify.verify_decay(plus_traj, lam)), "ms")
    put("verify.vdot_ms", _median_ms(lambda: verify.vdot_check(plus_traj, lam)), "ms")
    put("verify.budget_ms", _median_ms(lambda: verify.control_budget(plus_traj)), "ms")

    audit_spans = tracer.named("verify.audit")
    for check in audit.inputs["checks"]:
        mine = [dur(s) for s in audit_spans if s["op"].endswith("/" + check)]
        put(f"verify.audit_{check}_s", statistics.fmean(mine), "s")
    points = sum(AUDIT_POINTS[s["op"].split("/")[1]] for s in audit_spans)
    put("verify.audit_points_per_s", points / sum(dur(s) for s in audit_spans), "points/s")

    tracer.dump(trace_out)
    traced_pass = {w.name: sum(dur(s) for s in tracer.named(span_name)) / len(pass_dirs) for w, span_name in groups}
    print("traced pass (s): " + ", ".join(f"{k} {v:.4f}" for k, v in traced_pass.items()), file=sys.stderr)

    import checks

    problems = checks.check_reference()
    for w in (study, sweep, audit):
        found, _ = checks.CHECKS[w.name](w, outputs[w.name], pass_dirs)
        problems += found
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics,
            "problems": problems}
