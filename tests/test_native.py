"""The native kernel: each generated RK4 kernel translated to C, built once, bit for bit the Python kernel's; and the
native record, which runs a record in one C call, or the Python record function on the whole run where the C call
stops early, bit for bit the Python record function's; and the audits' scan of a law over a grid, built with the
kernel's flags and ``-fno-trapping-math``, bit for bit the Python reference scan of the Python law's values.  The
kernel's chunks on the C driver and its translation are reached through the tests' reference (``native_kernel``,
``translate``)."""
import ast
import contextlib
import dataclasses
import dis
import hashlib
import importlib
import inspect
import math
import re
import subprocess
import sys
import textwrap
import tracemalloc
import types
from functools import partial
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import sitctl as s
import sitctl.harness
import sitctl.native as native
import sitctl.simulate
import sitctl.verify
from sitctl.configio import params_from_mapping, parse_config_text
from sitctl.harness import PRESETS, RobustnessConfig, perturb_params, preset_scenario, scenario_from_config, trial_rng
from sitctl.model import PARAM_KEYS, ParamError, define
from sitctl.simulate import TERMINATION_HORIZON, _advance, _kernel

from reference import native_kernel, python_record, translate

needs_cc = pytest.mark.skipif(native.compiler() is None, reason="no C compiler on PATH")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _study_specs(**overrides):
    """The perfbench study configs, with ``overrides`` as for ``scenario_from_config``."""
    sys.path.insert(0, str(PERFBENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))
    specs = {}
    for name in workloads.STUDY_CONFIGS:
        sections = parse_config_text(workloads.study_config_text(name))
        params = params_from_mapping(sections["params"])
        specs[name] = scenario_from_config(sections, name, params, **overrides).sim_spec()
    return specs


def _shape_specs():
    """Every kernel shape that a preset, a robust preset's perturbed plant, a study config or a kernel-source test runs."""
    plant, _ = perturb_params(s.NOMINAL_PARAMS, 0.1, trial_rng(2024, 0))
    specs = {name: preset_scenario(name, t_end=20.0).sim_spec() for name in PRESETS}
    specs.update({f"{name}/perturbed": preset_scenario(name, t_end=20.0).sim_spec(plant)
                  for name in ("robust-reduced", "robust-full")})
    specs.update(_study_specs(t_end=20.0))
    for model in ("reduced", "full"):
        for plant_name, draw in (("own", None), ("perturbed", plant)):
            specs[f"{model}/{plant_name}/global"] = preset_scenario(
                "nominal-full", model=model, variant="global", t_end=1.0, dt=0.05).sim_spec(draw)
    return specs


SHAPE_SPECS = _shape_specs()

#: The sha256 of each library's C source and build flags, by the SHAPE_SPECS shapes and the audit law that build it.
LIBRARY_PINS = {
    "192daaa64b144a26afa972e7e8b479e4566dcc60e153b2cee60c83af9dc5136b": [
        "nominal-reduced", "robust-reduced", "reduced_plus", "reduced_global_high", "reduced/own/global"],
    "2b8d7455dde8098b6ad902a4af6477f4ed1f6df14149419c2ad2bfb04eafc18e": [
        "robust-reduced/perturbed", "reduced/perturbed/global"],
    "ec09898357223d073c40b166154f90c52df8f922b701ec89e808b7aee6ca0f15": [
        "nominal-full", "robust-full", "robust-full/perturbed", "full_global", "full/own/global",
        "full/perturbed/global"],
    "ec79827d38e4d9c45129a397e42ed3d5cddab7433c142fcdc68f21c359cf25f6": ["open-loop"],
    "3faa277b707b18b593e4318bd0c4456df3ae670abce9440536de23e4a7e57fbd": ["audit law"],
}


def _audit_law(params, cfg):
    """The law text that the 2-D audits scan, as :func:`~sitctl.model.define`'s arguments."""
    body, constants = s.ControlLaw("plus", cfg, params).body()
    return "evaluate", "F, Ms", body + "descent = -mismatch\nreturn u, descent\n", constants


def _outcome(advance, state, n):
    """``advance(state, n)`` as float.hex, or the error it raised: type, message and, from _clamp, max_clamp."""
    try:
        nxt, worst, u = advance(state, n)
    except ArithmeticError as err:  # NonFiniteError, ZeroDivisionError
        return type(err), str(err), getattr(err, "max_clamp", None)
    except s.NonnegativityError as err:
        return type(err), str(err), err.max_clamp
    return [x.hex() for x in nxt], worst.hex(), u.hex()


def _translates(expression: str) -> bool:
    """Whether a law that sets ``u`` to ``expression``, or that tests it, translates to C."""
    for body in (f"u = {expression}\n", f"u = 1.0 if {expression} else 0.0\n"):
        try:
            native._Translator("F, Ms", body + "return u\n", {}).law()
            return True
        except native.TranslationError:
            pass
    return False


def _edited(function: tuple, old: str, new: str) -> tuple:
    """``function``, ``define``'s arguments, with the first ``old`` of its body replaced by ``new``."""
    name, args, body, constants = function
    assert old in body
    return name, args, body.replace(old, new, 1), constants


class TestTranslation:
    KERNEL = _advance(SHAPE_SPECS["robust-full/perturbed"])

    def test_every_identifier_is_prefixed(self):
        # the law reads the constant ``switch``, a C keyword
        c = translate(self.KERNEL)
        assert "v_switch" in c and " switch " not in c and "(switch " not in c

    def test_values_and_literals_reach_the_c_only_as_exact_hex(self):
        c = translate(self.KERNEL)
        assert "0x1.e000000000000p+3" in c  # the 15.0 of the quintic ramp
        assert "pow(" not in c and "fabs(" in c

    @pytest.mark.parametrize("old, new", [
        ("size = abs(target)", "size = max(target, -target)"),  # a call other than abs
        ("lin * lin * lin", "lin**3"),  # a power: the texts write a cube as a product
        ("lin * lin * lin", "lin % lin"),  # an operator outside + - * /
        ("c = 1.0\n", "c = 1.0\n    while c:\n        c = 0.0\n"),  # a statement outside the subset
        ("room = F_hat - F", "room = F_hat - F_unknown"),  # a name that is neither a constant nor assigned
        ("gap = Ms - target", "gap = Ms - target if slope else 1e999"),  # an infinite literal
        ("worst = 0.0", "worst = 1.0"),  # a clamp accumulator that does not start at 0
        ("last = 0.0 if", "last = (F and Ms) * 0.0 if"),  # and/or as a value
        ("for _ in range(n):", "for _ in range(n + 1):"),  # another loop
        ("clamp_tol, worst)", "2.0 * clamp_tol, worst)"),  # another clamp statement
        ("return (y0, y1, y2, y3), worst", "return (y0, y1, y2, y3), 0.0"),  # another return
    ])
    def test_a_construct_outside_the_subset_raises(self, old, new):
        with pytest.raises(native.TranslationError):
            translate(_edited(self.KERNEL, old, new))

    def test_a_read_before_assignment_raises(self):
        # Python would raise UnboundLocalError where C would read an undefined double
        with pytest.raises(native.TranslationError, match="read before it is assigned"):
            translate(_edited(self.KERNEL, "        u = 0.0\n", "        u = u\n"))

    def test_after_the_loop_a_name_that_only_the_loop_assigns_is_unset(self):
        # the loop may run no step, and then Python raises UnboundLocalError where C would read an undefined double
        assert self.KERNEL[2].count("\nF = y2\n") == 1  # the F that the law reads after the loop
        with pytest.raises(native.TranslationError, match="'F' is read before it is assigned"):
            translate(_edited(self.KERNEL, "\nF = y2\n", "\n"))

    def test_the_real_texts_use_the_whole_subset(self, params, cfg):
        # every preset shape's kernel and the audit law run each line of _Translator that raises nothing, and use
        # each operator that it translates; a construct that no text uses is left out of the subset
        functions = [_advance(spec) for spec in SHAPE_SPECS.values()]
        functions.append(_audit_law(params, cfg))
        lines, first = inspect.getsourcelines(native._Translator)
        raising = {line + first - 1 for node in ast.walk(ast.parse(textwrap.dedent("".join(lines))))
                   if isinstance(node, ast.Raise) for line in range(node.lineno, node.end_lineno + 1)}
        codes, owned = [f.__code__ for f in vars(native._Translator).values() if inspect.isfunction(f)], set()
        while codes:  # the methods and the comprehensions in them
            code = codes.pop()
            owned.add(code)
            codes += [const for const in code.co_consts if isinstance(const, types.CodeType)]
        runnable = {line for code in owned for _, line in dis.findlinestarts(code)
                    if line not in (None, code.co_firstlineno)}
        ran = set()

        def trace(frame, event, arg):
            if frame.f_code not in owned:
                return None
            if event == "line":
                ran.add(frame.f_lineno)
            return trace

        sys.settrace(trace)
        try:
            for function in functions:
                native._library(function)
        finally:
            sys.settrace(None)
        assert sorted(runnable - raising - ran) == []
        used = set()
        for node in (node for function in functions for node in ast.walk(ast.parse(function[2]))):
            if isinstance(node, ast.Compare):
                used.update(map(type, node.ops))
            elif isinstance(node, (ast.BinOp, ast.UnaryOp, ast.BoolOp)):
                used.add(type(node.op))
        F, Ms, three = ast.Name("F"), ast.Name("Ms"), ast.Constant(3)
        probes = {op: ast.BinOp(F, op(), three) for op in ast.operator.__subclasses__()}
        probes |= {op: ast.UnaryOp(op(), F) for op in ast.unaryop.__subclasses__()}
        probes |= {op: ast.Compare(F, [op()], [Ms]) for op in ast.cmpop.__subclasses__()}
        probes |= {op: ast.BoolOp(op(), [F, Ms]) for op in ast.boolop.__subclasses__()}
        accepted = {op for op, node in probes.items() if _translates(ast.unparse(node))}
        assert {*native._ARITHMETIC, *native._COMPARE} <= accepted and accepted <= used

    @pytest.mark.parametrize("old, new", [
        ("room = F_hat - F", "room = F_hat - F + slope"),  # in the F-only part: slope is set two lines on
        ("gap = Ms - target", "gap = Ms - gap"),  # in the part that reads Ms
    ], ids=["row", "point"])
    def test_a_read_before_assignment_in_either_part_raises(self, params, cfg, old, new):
        with pytest.raises(native.TranslationError, match="read before it is assigned"):
            native._Translator(*_edited(_audit_law(params, cfg), old, new)[1:]).law()

    @pytest.mark.parametrize("found", [False, True], ids=["no-compiler", "compiler"])
    def test_translation_errors_do_not_fall_back(self, params, monkeypatch, found):
        if not found:
            monkeypatch.setattr(native, "compiler", lambda: None)
        kernel = _kernel("reduced", "u = F % 2.0\n", {}, params, 0.1, 1e-9)
        with pytest.raises(native.TranslationError, match="unsupported expression"):
            native_kernel(kernel)


@pytest.fixture
def entries(monkeypatch):
    """What each entry into a C driver returned, for the drivers built before and from here on."""
    returns, build = [], native._build

    def counted(driver):
        def count(*args):
            returns.append(driver(*args))
            return returns[-1]

        return driver and count

    def counting_build(c_source, name, flags):
        driver = build(c_source, name, flags)
        return counted(driver)

    monkeypatch.setattr(native, "_BUILT", {key: (counted(driver), size)
                                           for key, (driver, size) in native._BUILT.items()})
    monkeypatch.setattr(native, "_build", counting_build)
    return returns


class TestBuild:
    @needs_cc
    @pytest.mark.parametrize("name", list(SHAPE_SPECS))
    def test_every_shape_builds_natively(self, name):
        kernel = _advance(SHAPE_SPECS[name])
        assert native_kernel(kernel).__code__ is not define(*kernel).__code__

    @needs_cc
    @pytest.mark.parametrize("name", list(SHAPE_SPECS))
    def test_every_shape_records_natively(self, name, entries):
        traj = s.integrate(SHAPE_SPECS[name])
        assert entries == [len(traj.times)]

    @pytest.mark.parametrize("start", ["initial", "off it"])
    @pytest.mark.parametrize("name", list(SHAPE_SPECS))
    def test_no_step_gives_the_state_and_the_law_there(self, name, start):
        # in Python and, where it builds, on the C driver
        spec = SHAPE_SPECS[name]
        state = tuple(float(x) if start == "initial" else 1.5 * x + 0.25 for x in spec.initial)
        kernel = _advance(spec)
        expected = [x.hex() for x in state], 0.0.hex(), spec.law.evaluator()(*state[-2:]).hex()
        for advance in (define(*kernel), native_kernel(kernel)):
            assert _outcome(advance, state, 0) == expected

    def test_the_generated_c_is_pinned(self, params, cfg):
        # the sha256 of each library's C source and build flags: a change to the generated C fails here until it is
        # re-pinned on purpose; no compiler is needed
        def pin(function):
            c_source, _, flags, _ = native._library(function)
            return hashlib.sha256(f"{c_source}\n{' '.join(flags)}".encode()).hexdigest()

        pins = {name: pin(_advance(spec)) for name, spec in SHAPE_SPECS.items()}
        pins["audit law"] = pin(_audit_law(params, cfg))
        assert pins == {name: digest for digest, names in LIBRARY_PINS.items() for name in names}

    def test_a_kernel_library_holds_no_law_beside_its_kernel(self):
        c_source = native._library(_advance(SHAPE_SPECS["nominal-full"]))[0]
        assert "sitctl_record" in c_source and "evaluate" not in c_source

    def test_a_law_library_is_one_function_beside_its_driver(self, params, cfg):
        c_source = native._library(_audit_law(params, cfg))[0]
        assert re.findall(r"^\w[\w ]* \**(\w+)\(", c_source, re.M) == ["py_div", "evaluate", "sitctl_scan"]
        assert "evaluate_row" not in c_source and "noinline" not in c_source

    def test_a_run_and_every_audit_build_two_libraries(self, params, cfg, counting_compiler):
        # the run's kernel and the audits' law; the run no longer builds the law beside its kernel
        s.integrate(SHAPE_SPECS["nominal-reduced"])
        for check in sitctl.verify.AUDIT_CHECKS:
            s.audit_grid(cfg, params, check, n_1d=400, n_2d=40)
        assert counting_compiler.read_text() == "run\n" * 2

    @needs_cc
    def test_a_kernel_builds_with_the_flags_and_a_law_adds_no_trapping_math(self, params, cfg, monkeypatch):
        # the law's F-only values are hoisted out of the loop over Ms only where no division may trap; a kernel has
        # nothing to hoist and runs slower with the flag
        commands, run = [], subprocess.run

        def logging_run(command, *args, **kwargs):
            commands.append(command[1:command.index("-o")])
            return run(command, *args, **kwargs)

        monkeypatch.setattr(native, "_BUILT", {})
        monkeypatch.setattr(subprocess, "run", logging_run)
        s.integrate(SHAPE_SPECS["nominal-reduced"])
        s.audit_grid(cfg, params, "nonneg_plus", n_2d=40)
        assert commands == [list(native.FLAGS), [*native.FLAGS, "-fno-trapping-math"]]

    @needs_cc
    @pytest.mark.parametrize("name", [*SHAPE_SPECS, "audit scan"])
    def test_no_value_is_read_unset(self, params, cfg, tmp_path, name):
        # each local is read only on paths that set it, under the flags of the library's real build
        function = _audit_law(params, cfg) if name == "audit scan" else _advance(SHAPE_SPECS[name])
        c_source, _, build_flags, _ = native._library(function)
        (tmp_path / "law.c").write_text(c_source)
        flags = [*build_flags, "-Werror=uninitialized", "-Werror=maybe-uninitialized"]
        result = subprocess.run([native.compiler(), *flags, "-o", "law.so", "law.c", "-lm"], cwd=tmp_path,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_no_compiler_runs_the_python_kernel_with_the_same_bits(self, monkeypatch):
        specs = [SHAPE_SPECS["nominal-reduced"], SHAPE_SPECS["robust-full/perturbed"]]
        native_runs = [s.integrate(spec) for spec in specs]
        monkeypatch.setattr(native, "compiler", lambda: None)
        monkeypatch.setattr(native, "_BUILT", {})
        for spec, fast in zip(specs, native_runs):
            kernel = _advance(spec)
            assert native_kernel(kernel).__code__ is define(*kernel).__code__
            slow = s.integrate(spec)
            assert slow.states.tobytes() == fast.states.tobytes()
            assert (slow.termination, slow.max_clamp) == (fast.termination, fast.max_clamp)

    def test_a_failed_build_warns_and_runs_the_python_kernel(self, monkeypatch):
        monkeypatch.setattr(native, "compiler", lambda: sys.executable)  # rejects every compiler flag
        monkeypatch.setattr(native, "_BUILT", {})
        kernel = _advance(SHAPE_SPECS["nominal-reduced"])
        python = define(*kernel).__code__
        with pytest.warns(RuntimeWarning, match="building a native kernel failed"):
            assert native_kernel(kernel).__code__ is python
        assert native_kernel(kernel).__code__ is python  # decided once: no second build, no second warning

    @needs_cc
    def test_a_build_leaves_no_file(self, monkeypatch, tmp_path):
        monkeypatch.setattr(native.tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(native, "_BUILT", {})
        kernel = _advance(SHAPE_SPECS["nominal-full"])
        assert native_kernel(kernel).__code__ is not define(*kernel).__code__
        assert list(tmp_path.iterdir()) == []

    @needs_cc
    def test_a_two_worker_sweep_builds_once(self, monkeypatch, counting_compiler):
        monkeypatch.setattr(sitctl.harness, "_usable_cpus", lambda: 2)
        config = RobustnessConfig(base=preset_scenario("robust-reduced", t_end=20.0), trials=2)
        result = s.run_robustness(config)
        assert len(result.trials) == 2
        assert counting_compiler.read_text() == "run\n"


def _scaled(factors, base=s.NOMINAL_PARAMS):
    params = base.replace(**{name: getattr(base, name) * f for name, f in zip(PARAM_KEYS, factors)})
    try:
        return s.validate_params(params)
    except ParamError:
        assume(False)


FACTORS = st.lists(st.floats(0.5, 2.0), min_size=len(PARAM_KEYS), max_size=len(PARAM_KEYS))


@st.composite
def closed_loops(draw):
    """A law, a plant and a start: rates times U[0.5, 2], a design, a variant, a model and a chunk length."""
    params = _scaled(draw(FACTORS))
    variant, cutoff_kind = draw(st.sampled_from(
        [("none", "quintic"), ("raw", "quintic"), ("plus", "quintic"), ("global", "quintic"), ("global", "cubic")]))
    try:
        cfg = s.ControllerConfig.design(params, F_hat_ratio=draw(st.floats(1.05, 6.0)), eta=draw(st.floats(0.01, 1.0)),
                                        rho=draw(st.floats(0.1, 2.0)), cutoff_kind=cutoff_kind)
    except s.ControllerError:
        assume(False)
    model = draw(st.sampled_from(["reduced", "full"]))
    plant = _scaled(draw(FACTORS), params) if draw(st.booleans()) else None
    F_bar = s.persistence_equilibrium(params).F_bar
    near = [cfg.F2, cfg.F_hat, F_bar]
    F = draw(st.one_of(
        st.sampled_from([0.0, 5e-324, 1e-310, 2.2e-308]),
        st.sampled_from(near).flatmap(lambda x: st.sampled_from([math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)])),
        st.floats(0.0, 10.0 * cfg.F_hat),
    ))
    target = s.ms_star(F, cfg, params)
    Ms = draw(st.one_of(
        st.sampled_from([0.0, 5e-324]),
        st.floats(-1e-8, 1e-8).map(lambda d: max(0.0, target * (1.0 + d))),  # the pi switch band
        st.floats(0.0, 1e6),
    ))
    aquatic = tuple(draw(st.one_of(st.sampled_from([0.0, 5e-324]), st.floats(0.0, 1e7))) for _ in range(2))
    initial = (F, Ms) if model == "reduced" else (*aquatic, F, Ms)
    dt, every = draw(st.sampled_from([0.01, 0.05, 0.1])), draw(st.integers(1, 40))
    try:
        return s.SimSpec(model=model, law=s.ControlLaw(variant, cfg, params), initial=initial, t_end=3 * every * dt,
                         dt=dt, record_every=every, plant=plant)
    except ValueError:
        assume(False)


@given(closed_loops())
@settings(max_examples=150, deadline=None)
def test_native_kernel_matches_python_chunk_by_chunk(spec):
    kernel = _advance(spec)
    python, fast = define(*kernel), native_kernel(kernel)
    assert (fast.__code__ is python.__code__) == (native.compiler() is None)
    state = spec.initial
    for _ in range(3):
        expected = _outcome(python, state, spec.record_every)
        assert _outcome(fast, state, spec.record_every) == expected
        if not isinstance(expected[0], list):
            break
        state = tuple(float.fromhex(x) for x in expected[0])


@st.composite
def whole_runs(draw):
    """``(spec, body)``: a closed loop of :func:`closed_loops` run for ``n_steps``, with record_every 1, beyond
    ``n_steps`` or not dividing it; ``body`` is None for the loop's own law, or a release that is ``-release`` only
    where F is the F after step ``k - 1`` of the loop released nothing.  From Ms = 0 it undershoots Ms at step
    ``k``, mid-chunk or at a chunk's last step, within the clamp tolerance or beyond it."""
    spec = draw(closed_loops())
    n_steps = draw(st.integers(1, 60))
    records = draw(st.sampled_from(["every step", "beyond the horizon", "ragged"]))
    if records == "every step":
        every = 1
    elif records == "beyond the horizon":
        every = draw(st.integers(n_steps + 1, n_steps + 10))
    else:
        ragged = [every for every in range(2, n_steps) if n_steps % every]
        assume(ragged)
        every = draw(st.sampled_from(ragged))
    stop = draw(st.sampled_from([None, "mid-chunk", "last step of a chunk"]))
    if stop is None:
        return dataclasses.replace(spec, t_end=n_steps * spec.dt, record_every=every), None
    spec = dataclasses.replace(spec, initial=(*spec.initial[:-1], 0.0), t_end=n_steps * spec.dt, record_every=every,
                               plant=spec.plant or spec.law.params.replace())  # a plant: the law sets no dF
    steps = [k for k in range(1, n_steps + 1) if (k % every == 0 or k == n_steps) == (stop != "mid-chunk")]
    assume(steps)
    k = draw(st.sampled_from(steps))
    tol = 1e-9 * math.sqrt(sum(x * x for x in spec.initial))
    try:
        advance = define(*_kernel(spec.model, "u = 0.0\n", {}, spec.plant, spec.dt, tol))
        state = advance(spec.initial, k - 1)[0]
    except (ArithmeticError, s.NonnegativityError):
        assume(False)
    release = draw(st.sampled_from([0.5, 10.0])) * 6.0 * tol / spec.dt  # Ms undershoots by about dt/6 of it
    return spec, ("u = -release if F == Fk else 0.0\n", {"release": release, "Fk": state[-2]})


def _whole_run(spec):
    """``integrate(spec)`` as bytes, its termination and max_clamp, or the error it raised: type and message."""
    try:
        traj = s.integrate(spec)
    except ArithmeticError as err:  # ZeroDivisionError
        return type(err), str(err)
    lyapunov = None if traj.lyapunov is None else traj.lyapunov.tobytes()
    return (traj.times.tobytes(), traj.states.tobytes(), traj.controls.tobytes(), lyapunov, traj.termination,
            traj.max_clamp.hex())


@given(whole_runs())
@settings(max_examples=150, deadline=None)
def test_native_recorder_matches_python_whole_run(run):
    spec, body = run
    with contextlib.ExitStack() as stack:
        if body is not None:
            stack.enter_context(patch.object(s.ControlLaw, "body", lambda law: body))
        driver, _ = native._built(_advance(spec))
        assert (driver is None) == (native.compiler() is None)
        fast = _whole_run(spec)
        with patch.object(native, "record", python_record):
            python = _whole_run(spec)
    assert fast == python


@needs_cc
class TestOneCall:
    """A run enters the C driver once: up to its end, or up to its first irregular record, after which Python records
    the whole run; and a grid audit enters the C scan once."""

    def test_a_clean_run_is_one_call_and_maps_no_python_law(self, entries, monkeypatch):
        made = []
        evaluator = s.ControlLaw.evaluator
        monkeypatch.setattr(s.ControlLaw, "evaluator", lambda law: made.append(law) or evaluator(law))
        traj = s.integrate(preset_scenario("nominal-reduced").sim_spec())
        assert (len(traj.times), traj.termination, traj.max_clamp) == (2001, TERMINATION_HORIZON, 0.0)
        assert entries == [2001] and made == []

    def test_a_stop_enters_the_driver_once_and_python_records_the_rest(self, entries, params, cfg, eq, monkeypatch):
        # from Ms = 0, a release of -1e-7 undershoots Ms within the clamp tolerance at every step: the first chunk
        # stops in C at its first step, so the driver returns record 0, and the Python record rule records the whole run
        spec = s.SimSpec(model="reduced", law=s.ControlLaw("plus", cfg, params), initial=(eq.F_bar, 0.0), t_end=2.0,
                         dt=0.1, record_every=5, plant=params.replace())
        monkeypatch.setattr(s.ControlLaw, "body", lambda law: ("u = -1e-7\n", {}))
        native_run = _whole_run(spec)
        assert entries == [0]
        monkeypatch.setattr(native, "record", python_record)
        assert native_run == _whole_run(spec)
        traj = s.integrate(spec)
        assert (len(traj.times), traj.termination) == (5, TERMINATION_HORIZON) and traj.max_clamp > 0.0

    def test_a_grid_audit_is_one_call_that_holds_no_grid(self, entries, params, cfg, monkeypatch):
        # the C scan reduces the 400 x 400 grid as it computes it: no Python law, no reference, no grid-sized array
        s.audit_grid(cfg, params, "nonneg_plus", n_2d=8)  # the build, before memory is traced
        entries.clear()
        monkeypatch.setattr(sitctl.verify, "_scan_2d", None)
        monkeypatch.setattr(sitctl.model, "define", None)
        tracemalloc.start()
        try:
            for check in ("nonneg_plus", "pi_sign", "utilde_bound"):
                assert s.audit_grid(cfg, params, check).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert entries == [0, 0, 0]
        assert peak < 400 * 400 * 8 // 10, peak

    def test_every_real_run_stays_in_c(self, entries):
        # the premise that makes all-or-nothing free: a run that stopped in C would run again, whole, in Python,
        # about 20 times slower
        runs = {name: preset_scenario(name).sim_spec() for name in PRESETS} | _study_specs()
        for name, spec in runs.items():
            traj = s.integrate(spec)
            assert entries == [len(traj.times)], name
            entries.clear()
        for name in ("robust-reduced", "robust-full"):
            base = preset_scenario(name)
            s.run_robustness(RobustnessConfig(base=base, trials=20, seed=2024))
            assert entries == [1 + -(-round(base.t_end / base.dt) // base.record_every)] * 20, name
            entries.clear()


def _scans(scan, Fs, Mss, outputs: int):
    """Each of ``outputs`` values of a law at each point of Fs x Mss, from a scan of that point alone, which gives the
    value, bit for bit: ``[F][Ms][n]``."""
    return [[[scan([F], [Ms], n)[0] for n in range(outputs)] for Ms in Mss] for F in Fs]


@needs_cc
class TestMap:
    """A law on a grid, its F-only values hoisted out of the loop over Ms by the compiler: at each point the Python
    law's values, and over the grid the Python reference scan of them; where the law raises, in an F-only value or
    elsewhere, the Python law's error, from the Python law run at the first point in row-major order where it
    raises."""

    FS, MSS = [0.5 * i for i in range(6)], [0.25 * j for j in range(8)]

    def test_a_row_name_set_again_is_read_at_each_of_its_values(self):
        # x reads c before the F-only branch sets it again; u reads it after
        law = ("evaluate", "F, Ms", "c = 1.0\nx = c * Ms\nif F > F2:\n    c = 0.5\nu = x + c * Ms\nreturn u, x\n",
               {"F2": 1.2})
        python = define(*law)
        expected = [[list(python(F, Ms)) for Ms in self.MSS] for F in self.FS]
        scan = partial(native.scan, law, sitctl.verify._scan_2d)
        assert _scans(scan, self.FS, self.MSS, 2) == expected
        # and in one scan of the whole grid, whose loop over Ms is the one the compiler hoists from
        for output in (0, 1):
            grid = np.array([[point[output] for point in row] for row in expected])
            reference = sitctl.verify._scan_2d(grid, np.array(self.FS), np.array(self.MSS))
            assert scan(self.FS, self.MSS, output) == reference

    @pytest.mark.parametrize("body, constants, first", [
        ("a = 1.0 / (F - F3)\nu = a * Ms\n", {"F3": FS[3]}, (3, 0)),
        ("b = 1.0 / (Ms - M5)\nu = b * F\n", {"M5": MSS[5]}, (0, 5)),
    ], ids=["row-part", "point-part"])
    def test_the_python_law_raises_at_the_first_point(self, body, constants, first):
        law = ("evaluate", "F, Ms", body + "return u\n", constants)
        with pytest.raises(ZeroDivisionError, match="float division by zero") as raised:
            native.scan(law, sitctl.verify._scan_2d, self.FS, self.MSS, 0)
        where = raised.traceback[-1].frame.f_locals  # the frame of the Python law, where it raised
        assert raised.traceback[-1].frame.code.name == "evaluate"
        assert (where["F"], where["Ms"]) == (self.FS[first[0]], self.MSS[first[1]])


@pytest.mark.parametrize("found", [False, True], ids=["no-compiler", "compiler"])
@pytest.mark.parametrize("Fs, Mss", [([TestMap.FS[3]], []), ([], [1.0])], ids=["no-Ms", "no-F"])
def test_an_empty_axis_maps_to_an_empty_grid(monkeypatch, found, Fs, Mss):
    # the law's F-only part raises at F3, and no point runs it: the scan of no point has no witness
    law = ("evaluate", "F, Ms", "a = 1.0 / (F - F3)\nu = a * Ms\nreturn u\n", {"F3": TestMap.FS[3]})
    if not found:
        monkeypatch.setattr(native, "compiler", lambda: None)
        monkeypatch.setattr(native, "_BUILT", {})
    elif native.compiler() is None:
        pytest.skip("no C compiler on PATH")
    assert (native._built(law)[0] is None) == (not found)
    scan = partial(native.scan, law, sitctl.verify._scan_2d)
    assert scan(Fs, Mss, 0) == scan(Fs, Mss, 0, slope=1.0) == (math.inf, None, 0.0, 0.0)


#: The inputs and constants of a drawn law: signed zeros, infinities, NaN, subnormals, 1e+-300, and small whole numbers
#: and ordinary floats, so that comparisons meet ties and divisors meet zero.
NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310, 1e300, -1e300, 1e-300]),
    st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0, 3.0]),
    st.sampled_from([-2.0, -1.0, 0.5, 1.0, 2.0]),
    st.floats(-1e3, 1e3),
)
LITERALS = ["0.0", "0.5", "1.0", "2.0", "3.0", "1e-300", "5e-324"]


@st.composite
def law_expressions(draw, atoms, depth=2):
    """A law's value expression over ``atoms``: + - * /, unary -, abs and conditional values."""
    operators = ["+", "-", "*", "/", "-x", "abs", "if"] if depth > 0 else []
    kind = draw(st.sampled_from(["atom"] * 3 + ["literal"] + operators))
    if kind == "atom":
        return draw(st.sampled_from(atoms))
    if kind == "literal":
        return draw(st.sampled_from(LITERALS))
    term = law_expressions(atoms, depth - 1)
    if kind == "-x":
        return f"(-{draw(term)})"
    if kind == "abs":
        return f"abs({draw(term)})"
    if kind == "if":
        return f"({draw(term)} if ({draw(law_tests(atoms, depth - 1))}) else {draw(term)})"
    return f"({draw(term)} {kind} {draw(term)})"


@st.composite
def law_tests(draw, atoms, depth=1):
    """A law's test over ``atoms``: a comparison, chained or not, ``and``/``or``/``not`` of tests, or a bare value."""
    kind = draw(st.sampled_from(["compare", "compare", "chain", "value"] + ["and", "or", "not"] * (depth > 0)))
    term = st.one_of(law_expressions(atoms, 0), law_expressions(atoms, 0), law_expressions(atoms, 1))
    op = st.sampled_from(["==", "<", "<=", ">", ">="])
    if kind == "compare":
        return f"{draw(term)} {draw(op)} {draw(term)}"
    if kind == "chain":
        return f"{draw(term)} {draw(op)} {draw(term)} {draw(op)} {draw(term)}"
    if kind == "value":
        return draw(term)
    if kind == "not":
        return f"not ({draw(law_tests(atoms, depth - 1))})"
    return f"({draw(law_tests(atoms, depth - 1))}) {kind} ({draw(law_tests(atoms, depth - 1))})"


@st.composite
def law_statements(draw, names, point, under_point, pad=""):
    """Statements that assign names of ``a b c d``, each set before: a literal, an F-only value or a value of ``Ms``,
    and ``if``/``else`` on a test of F alone or of ``Ms``.  ``names`` are the names to assign first, in order, and
    ``point`` the names that may depend on ``Ms``, updated in place; returns the lines."""
    lines = []
    for index in range(len(names) + draw(st.integers(1, 2 if pad else 4))):
        nested = index >= len(names) and len(pad) < 8  # not among the opening assignments, nor past depth 2
        kind = draw(st.sampled_from(["value", "value", "literal"] + ["if"] * 3 * nested))
        on_ms = draw(st.booleans()) if kind == "if" else draw(st.integers(0, 3)) == 0
        atoms = ["F", "k0", "k1", "k2", *sorted(set("abcd"[:index] if names else "abcd") - (set() if on_ms else point)),
                 *(["Ms"] * 12 if on_ms else [])]
        if kind == "if":
            lines.append(f"{pad}if {draw(law_tests(atoms))}:")
            lines += draw(law_statements("", point, under_point or on_ms, pad + "    "))
            if draw(st.booleans()):
                lines += [f"{pad}else:", *draw(law_statements("", point, under_point or on_ms, pad + "    "))]
            continue
        name = names[index] if index < len(names) else draw(st.sampled_from("abcd"))
        value = draw(st.sampled_from(LITERALS) if kind == "literal" else law_expressions(atoms))
        lines.append(f"{pad}{name} = {value}")
        if under_point or on_ms and kind != "literal":
            point.add(name)
    return lines


@st.composite
def law_maps(draw):
    """A law text on ``F, Ms`` and the constants ``k0 k1 k2`` that sets and returns ``a b c d``, and twelve grids, each
    with its own constants, whose points take the constants' values too, so that tests tie.  Ms ascends along a row,
    as in an audit's grid (NaN last), so a test of Ms often changes its branch after a row's first point."""
    body = "\n".join([*draw(law_statements("abcd", set(), False)), "return a, b, c, d", ""])
    grids = []
    for _ in range(12):
        constants = dict(zip(("k0", "k1", "k2"), draw(st.tuples(NUMBERS, NUMBERS, NUMBERS))))
        axis = st.lists(st.one_of(NUMBERS, st.sampled_from(list(constants.values()))), min_size=2, max_size=5)
        grids.append((constants, draw(axis), sorted(draw(axis), key=lambda Ms: (math.isnan(Ms), Ms))))
    return body, grids


def _raised_at(err):
    """The type of ``err`` and the point where the Python law raised it, from the law's frame, as float.hex."""
    frame = err.__traceback__
    while frame.tb_next:
        frame = frame.tb_next
    where = frame.tb_frame.f_locals  # the Python law's frame, where it raised
    return type(err), where["F"].hex(), where["Ms"].hex()


def _pointwise(function, Fs, Mss):
    """The law's values at each point, in row-major order, as float.hex (NaN as 'nan'), or the error where it first
    raises: its type and the point."""
    points = []
    for F in Fs:
        for Ms in Mss:
            try:
                points.append([x.hex() for x in function(F, Ms)])
            except ArithmeticError as err:  # ZeroDivisionError
                return type(err), F.hex(), Ms.hex()
    return points


@needs_cc
@given(law_maps())
@settings(max_examples=20, derandomize=True, deadline=None)
def test_the_law_map_matches_the_python_law_point_by_point(law_map):
    # each point's values from scans of that point alone, in row-major order
    body, grids = law_map
    for constants, Fs, Mss in grids:
        law = ("evaluate", "F, Ms", body, constants)
        expected = _pointwise(define(*law), Fs, Mss)
        try:
            out = _scans(partial(native.scan, law, sitctl.verify._scan_2d), Fs, Mss, 4)
        except ArithmeticError as err:
            assert _raised_at(err) == expected
            continue
        assert [[x.hex() for x in point] for row in out for point in row] == expected


@st.composite
def law_scans(draw):
    """A law text on ``F, Ms`` and the constants ``k0 k1 k2`` that returns two drawn values, and eight grids, each with
    its own constants and growth slope.  An axis holds each float once (by float.hex, so -0.0 beside 0.0), from
    NaN, infinities, signed zeros, subnormals and ordinary floats, and the constants' values, so that values tie."""
    atoms = ["F", "Ms", "k0", "k1", "k2"]
    body = f"u = {draw(law_expressions(atoms))}\nv = {draw(law_expressions(atoms))}\nreturn u, v\n"
    grids = []
    for _ in range(8):
        constants = dict(zip(("k0", "k1", "k2"), draw(st.tuples(NUMBERS, NUMBERS, NUMBERS))))
        axis = st.lists(st.one_of(NUMBERS, st.sampled_from(list(constants.values()))), min_size=1, max_size=6,
                        unique_by=float.hex)
        grids.append((constants, draw(axis), draw(axis), draw(NUMBERS)))
    return body, grids


def _scanned(scan):
    """The outcome of ``scan()``: worst value, witness, largest |value| and K as float.hex (NaN as 'nan'), or the
    error and the point where the Python law first raised it."""
    try:
        worst, witness, scale, K = scan()
    except ArithmeticError as err:  # ZeroDivisionError
        return _raised_at(err)
    return worst.hex(), [x.hex() for x in witness], scale.hex(), K.hex()


def _python_scan(law, Fs, Mss, output, slope):
    """The scan as the Python law and the reference give it, computed here: the law at every point in row-major
    order, and :func:`sitctl.verify._scan_2d` of the grid of its value number ``output``."""
    function = define(*law)
    grid = np.array([[function(F, Ms)[output] for Ms in Mss] for F in Fs])
    return sitctl.verify._scan_2d(grid, np.array(Fs), np.array(Mss), slope)


#: A scan of each outcome, whatever the draws: ties of 0.0 with -0.0 over the whole grid, a NaN after a lower value,
#: a growth slack K > 0, and a zero divisor at the grid's second row.
SCAN_OUTCOMES = ("u = k0 if (F < k1) else Ms\nv = F * Ms / k2\nreturn u, v\n", [
    ({"k0": 0.0, "k1": 2.0, "k2": 1.0}, [1.0, -0.0, 3.0], [-0.0, 0.0], -1.0),
    ({"k0": 0.0, "k1": 2.0, "k2": 1.0}, [1.0, -0.0, 3.0], [-1.0, math.nan], 0.5),
    ({"k0": 0.0, "k1": 5.0, "k2": 0.0}, [0.0, 1.0], [-0.0, 2.0], 1.0),
])


@needs_cc
def test_the_scan_matches_the_python_law_and_the_reference_scan_on_drawn_laws():
    # the scan half of the translator's differential test: one C call per grid and output, with and without growth,
    # against the Python law's grid reduced by the Python reference; the C call must not fall back
    seen = set()

    @given(law_scans())
    @example(SCAN_OUTCOMES)
    @settings(max_examples=19, derandomize=True, deadline=None)
    def check(law_scan):
        body, grids = law_scan
        for constants, Fs, Mss, drawn_slope in grids:
            law = ("evaluate", "F, Ms", body, constants)
            fallbacks = []

            def reference(*args):
                fallbacks.append(args)
                return sitctl.verify._scan_2d(*args)

            scan = partial(native.scan, law, reference)
            for output in (0, 1):
                for slope in (None, drawn_slope):
                    expected = _scanned(partial(_python_scan, law, Fs, Mss, output, slope))
                    assert _scanned(partial(scan, Fs, Mss, output, slope)) == expected
                    assert fallbacks == []
                    seen.add(expected[0] if isinstance(expected[0], type) else (
                        "nan" if expected[0] == "nan" else "number", expected[1] != [Fs[0].hex(), Mss[0].hex()],
                        slope is not None and float.fromhex(expected[3]) > 0.0))

    check()
    assert {ZeroDivisionError, ("nan", True, False), ("number", False, False), ("number", True, True)} <= seen


#: The starts of a drawn kernel's runs: (F, Ms) from zero, a subnormal, large and ordinary values.
STARTS = st.one_of(st.sampled_from([0.0, 5e-324, 1.0, 1e300]), st.floats(0.0, 1e4))


@st.composite
def kernel_runs(draw):
    """A reduced kernel whose law is ``u = <expr>`` on ``F, Ms`` and the constants ``k0 k1 k2``, on the table
    parameters' field, and eight runs of it, each with its own constants, start and clamp tolerance.  A start may take
    a constant's value, so that a test ties at the first stage.  A negative u undershoots Ms, which the tolerance
    1e300 clamps and 1e-9 stops; an infinite or NaN u makes Ms non-finite; a divisor that is 0 raises."""
    law = f"u = {draw(law_expressions(['F', 'Ms', 'k0', 'k1', 'k2']))}\n"
    runs = []
    for _ in range(8):
        constants = dict(zip(("k0", "k1", "k2"), draw(st.tuples(NUMBERS, NUMBERS, NUMBERS))))
        ties = [x for x in constants.values() if 0.0 <= x < math.inf]  # a start at a constant ties a test at once
        start = st.one_of(STARTS, st.sampled_from(ties)) if ties else STARTS
        runs.append((constants, draw(st.tuples(start, start)), draw(st.sampled_from([1e-9, 1e300]))))
    return law, runs


def _recorded(record, kernel, initial):
    """``record(kernel, _record, initial, 15, 5)``, three records of five steps: states and controls as float.hex (NaN
    as 'nan'), termination and max_clamp, or the type of the error it raised."""
    try:
        states, controls, termination, max_clamp = record(kernel, sitctl.simulate._record, initial, 15, 5)
    except ArithmeticError as err:  # ZeroDivisionError
        return type(err)
    hexes = [["nan" if math.isnan(x) else x.hex() for x in xs] for xs in (states.ravel().tolist(), controls.tolist())]
    return *hexes, termination, max_clamp.hex()


#: A kernel run of each outcome, whatever the draws: from F = 1, a test ``F <= k1`` that ties (from Ms = 2, where its
#: branches differ and no state is 0), a release of -1 from Ms = 0 that the tolerance 1e300 clamps at every step, an
#: infinite release, a division by zero in a test whose value reaches no state, and a release that changes from record
#: to record.
KERNEL_OUTCOMES = ("u = k0 if (F <= k1) else (k0 * Ms if (F / k2 >= 0.0) else 0.5)\n", [
    ({"k0": 0.5, "k1": 1.0, "k2": 1.0}, (1.0, 2.0), 1e-9),
    ({"k0": -1.0, "k1": 1e4, "k2": 1.0}, (1.0, 0.0), 1e300),
    ({"k0": math.inf, "k1": 1e4, "k2": 1.0}, (1.0, 0.0), 1e-9),
    ({"k0": 0.5, "k1": 0.0, "k2": 0.0}, (1.0, 0.0), 1e-9),
    ({"k0": 0.5, "k1": 0.0, "k2": 1.0}, (1.0, 1.0), 1e-9),
])


@needs_cc
def test_the_native_recorder_matches_the_python_record_on_drawn_laws():
    # the kernel half of the translator's differential test: a drawn law in every RK4 stage and after the loop, run
    # by the C driver and by the Python record rule; the runs meet clamps, non-finite states and zero divisors
    seen = set()

    @given(kernel_runs())
    @example(KERNEL_OUTCOMES)
    @settings(max_examples=19, derandomize=True, deadline=None)
    def check(kernel_run):
        law, runs = kernel_run
        for constants, initial, clamp_tol in runs:
            kernel = _kernel("reduced", law, constants, s.NOMINAL_PARAMS, 0.1, clamp_tol)
            expected = _recorded(python_record, kernel, initial)
            assert _recorded(native.record, kernel, initial) == expected
            seen.add(expected if isinstance(expected, type) else expected[2])
            if not isinstance(expected, type) and float.fromhex(expected[3]) > 0.0:
                seen.add("clamp")

    check()
    assert {"clamp", sitctl.simulate.TERMINATION_NONFINITE, ZeroDivisionError} <= seen


class TestPythonErrors:
    """Where Python raises inside a chunk, the native kernel raises the same error."""

    def test_pow_overflow(self, params, cfg):
        # the law's lin * lin * lin overflows to inf at this state and raises nothing
        spec = s.SimSpec(model="reduced", law=s.ControlLaw("plus", cfg, params), initial=(1.0, 0.0), t_end=1.0, dt=0.1)
        kernel = _advance(spec)
        outcomes = [_outcome(advance, (1e120, 0.0), 1) for advance in (define(*kernel), native_kernel(kernel))]
        assert outcomes[0][0] is not OverflowError and outcomes[1] == outcomes[0]

    def test_division_by_zero_after_a_clamp_in_the_same_chunk(self, params, eq):
        # step 1 undershoots Ms within the clamp tolerance and is clamped; step 2 divides by zero at its first
        # stage, the only one with F == F1 (as in test_simulate's clamp carried within a chunk)
        initial, tol = (2.0 * eq.F_bar, 0.0), 2e-9 * eq.F_bar
        (F1, _), clamp1, _ = define(*_kernel("reduced", "u = -1e-7\n", {}, params, 0.1, tol))(initial, 1)
        assert clamp1 > 0.0
        law = "u = 1.0 / (F - F1) if F == F1 else -1e-7\n"
        kernel = _kernel("reduced", law, {"F1": F1}, params, 0.1, tol)
        outcomes = [_outcome(advance, initial, 3) for advance in (define(*kernel), native_kernel(kernel))]
        assert outcomes[0][0] is ZeroDivisionError and outcomes[1] == outcomes[0]

    @needs_cc
    @pytest.mark.parametrize("record", [0, -1], ids=["first", "last"])
    def test_the_law_raises_at_a_record(self, params, cfg, eq, monkeypatch, entries, record):
        # u divides by zero where F is the record's F: at the first record the law at the initial state raises, in
        # Python; at the last, the law that the last chunk runs at the state it reached does
        spec = s.SimSpec(model="reduced", law=s.ControlLaw("plus", cfg, params), initial=(2.0 * eq.F_bar, 0.0),
                         t_end=2.0, dt=0.1, record_every=5, plant=params.replace())
        monkeypatch.setattr(s.ControlLaw, "body", lambda law: ("u = 0.0\n", {}))
        F = float(s.integrate(spec).F[record])
        monkeypatch.setattr(s.ControlLaw, "body", lambda law: ("u = 1.0 / (F - F1) if F == F1 else 0.0\n", {"F1": F}))
        entries.clear()
        native_run = _whole_run(spec)
        assert entries == [{0: 0, -1: 3}[record]]  # in C up to the record where the law raised, of 5
        monkeypatch.setattr(native, "record", python_record)
        assert native_run == _whole_run(spec) == (ZeroDivisionError, "float division by zero")

    def test_an_overflow_in_the_law_at_the_last_record_records_inf(self, params, cfg, eq, monkeypatch):
        # the last chunk runs the law at the state it reached, where a product overflows to inf: the run reaches its
        # horizon with u = inf at the last sample, in C and in Python
        spec = s.SimSpec(model="reduced", law=s.ControlLaw("plus", cfg, params), initial=(2.0 * eq.F_bar, 0.0),
                         t_end=2.0, dt=0.1, record_every=5, plant=params.replace())
        monkeypatch.setattr(s.ControlLaw, "body", lambda law: ("u = 0.0\n", {}))
        F = float(s.integrate(spec).F[-1])
        monkeypatch.setattr(s.ControlLaw, "body",
                            lambda law: ("u = big * big * big if F == F1 else 0.0\n", {"F1": F, "big": 1e200}))
        traj = s.integrate(spec)
        assert (traj.termination, len(traj.times)) == (TERMINATION_HORIZON, 5)
        assert traj.controls.tolist() == [0.0] * 4 + [math.inf]
        native_run = _whole_run(spec)
        monkeypatch.setattr(native, "record", python_record)
        assert native_run == _whole_run(spec)
