"""The record of a whole run, and the scan of a law over a grid, as compiled C, bit for bit.

:func:`record` takes a kernel ``advance(state, n) -> (state, largest clamp, u)``
as :func:`sitctl.model.define`'s arguments, and records a run by the record
rule :func:`sitctl.simulate._record` in one call of a fixed C driver, which runs
every chunk and writes every sample's state and ``u``.  :func:`scan` takes a
law's text and gives the grid audits' scan (:func:`sitctl.verify._scan_2d`)
of one of its values over a grid of (F, Ms) points, in one call of a second
fixed driver, which reduces each value as it computes it and keeps no grid.
Each library translates one function, a kernel or a law, beside its driver.
:class:`_Translator` writes the C from the function's body text, node by node
over the fixed subset that the RK4 template, the law and the field texts use,
and takes its inputs and constants from ``define``'s other arguments; any
other construct raises :class:`TranslationError`.  Each C operation is
the IEEE operation that Python's float performs, on the same operands in the same order: the build
turns FMA contraction off, and the arithmetic is ``+ - * /``, unary ``-`` and
``abs`` as ``fabs``, with no power (the texts write a cube as a product), so
a zero divisor is the only operation that raises.  So the states and the
controls are the Python kernel's and law's to the last bit, except for a NaN's
sign and payload: where both operands of ``+`` or ``*`` are NaN, the result
keeps one operand's, and the C compiler may commute the operands.  A law's
library is also built with ``-fno-trapping-math``, which changes no value and
lets the C compiler compute the law's values of F alone once per row of the
grid (:func:`_library`).

A native call is all C or all Python, and this module alone chooses.  A C call
counts only where it was regular throughout: a run where the law raises at no
record and no chunk raises or clamps, a grid where the law raises at no point.
Else, and with no C compiler on ``PATH`` or a failed build, Python redoes the
whole call, so its errors, clamps, termination and scan are Python's own.
"""
from __future__ import annotations

import ast
import ctypes
import os
import re
import shutil
import tempfile
import threading
import warnings
from functools import cache

import numpy as np

from . import model
from .simulate import TERMINATION_HORIZON

#: The build: no contraction into FMA (it would change the bits), no fast-math, no host-specific code.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-pipe")
_ARITHMETIC = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*"}
_COMPARE = {ast.Eq: "==", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}
_PRELUDE = """\
#include <float.h>
#include <math.h>
#if FLT_EVAL_METHOD != 0
#error "double arithmetic would round through a wider type"
#endif

/* float.__truediv__: a zero divisor raises ZeroDivisionError */
static double py_div(double x, double y, int *raised)
{
    if (y == 0.0)
        *raised = 1;
    return x / y;
}

"""


class TranslationError(ValueError):
    """The kernel text uses a construct outside the subset that translates to C."""


def _name(identifier: str) -> str:
    """``identifier`` as a C name: prefixed, so no Python name is a C keyword (the law reads ``switch``)."""
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", identifier):
        raise TranslationError(f"identifier {identifier!r} is not ASCII")
    return "v_" + identifier


def _literal(value) -> str:
    """A float or int literal as an exact C99 hex float."""
    if type(value) not in (int, float) or not abs(value) < float("inf") or float(value) != value:
        raise TranslationError(f"literal {value!r} is not a finite float")
    return float(value).hex()


def _names(node) -> list[str]:
    """The names of a tuple of plain names."""
    if not isinstance(node, ast.Tuple) or not all(isinstance(e, ast.Name) for e in node.elts):
        raise TranslationError(f"expected a tuple of names, got {ast.unparse(node)!r}")
    return [e.id for e in node.elts]


class _Translator:
    """The C function of one generated function, an RK4 kernel ``advance`` or a law ``evaluate``, from
    :func:`~sitctl.model.define`'s arguments: the inputs named in ``args``, the statements of ``body``, and the
    names of ``constants``, in the mapping's order.

    A kernel's inputs are ``state, n``, and its body is the unpack ``<ys> = state``, the accumulator
    ``<worst> = 0.0``, one ``for _ in range(n)`` loop whose last statement is ``if <test>: (<ys>), <worst> =
    _clamp((<ys>), <tol>, <worst>)``, statements, and ``return (<ys>), <worst>, <u>``.  So the state is carried
    from step to step in ``<ys>`` alone, and the C stops where that ``_clamp`` would run.  The statements after
    the loop read only names assigned before the loop or after it, since the loop may run no step.  Its C is
    ``static int sitctl_advance(double *state, long n, const double *values, double *out)``: it returns 0 after
    ``n`` steps and the statements, with the state in ``state`` and ``<u>`` in ``*out``, or 1, a stop, where a step
    reaches that ``_clamp`` or Python would have raised in some step or in the statements; the caller then drops
    ``state`` and ``*out``.

    A law's inputs are ``F, Ms``, and its body is statements and then ``return <name>, ...``.  Its C is ``static int
    evaluate(double F, double Ms, const double *values, double *out)``, which a grid's driver calls at each point: it
    writes the names to ``out[0]``, ``out[1]``, ..., and returns 1 where Python would have raised, else 0.  Every
    statement is translated in place; the C compiler hoists the values of F alone out of the driver's loop over Ms
    (:func:`_library`).

    The constants other than ``_clamp`` are ``values``, in the mapping's order, as :func:`_doubles` writes them.  An
    expression has no ``**``, so ``py_div``'s zero divisor is the one place where Python raises.
    """

    def __init__(self, args: str, body: str, constants):
        self.inputs, self.constants = [name.strip() for name in args.split(",")], list(constants)
        self.body = ast.parse(body).body
        self.values = [name for name in self.constants if name != "_clamp"]
        self.locals, self.assigned, self.lines, self.worst = set(), set(self.inputs), [], None

    def advance(self) -> str:
        """The C of a kernel (see the class)."""
        body, end = self.body, self.body[-1]
        if self.inputs != ["state", "n"]:
            raise TranslationError("a kernel's inputs must be 'state, n'")
        if not (isinstance(end, ast.Return) and isinstance(end.value, ast.Tuple) and len(end.value.elts) == 3
                and isinstance(end.value.elts[1], ast.Name)):
            raise TranslationError("the body must end with 'return (<state names>), <accumulator>, <control>'")
        self.state, self.worst = _names(end.value.elts[0]), end.value.elts[1].id
        ys = ", ".join(self.state)
        opening = [f"{ys} = state", f"{self.worst} = 0.0"]
        if len(body) < 4 or [ast.unparse(node) for node in body[:2]] != opening:
            raise TranslationError(f"the body must be {opening}, one loop, statements and the return")
        self.clamp_stop = re.compile(rf"\({ys}\), {self.worst} = _clamp\(\({ys}\), \w+, {self.worst}\)")
        self.locals.update(self.state)
        self.assigned.update(self.state)
        self.lines = [f"{_name(y)} = state[{i}];" for i, y in enumerate(self.state)]
        before = set(self.assigned)
        self.loop(body[2])
        self.assigned = before  # the loop may run no step
        self.block(body[3:-1], "")
        self.lines += [*(f"state[{i}] = {_name(y)};" for i, y in enumerate(self.state)),
                       f"*out = {self.expr(end.value.elts[2])};", "return raised;"]
        return self.c_function("static int sitctl_advance(double *state, long n, const double *values, double *out)")

    def law(self) -> str:
        """The C of a law (see the class)."""
        *statements, end = self.body
        if self.inputs != ["F", "Ms"]:
            raise TranslationError("a law's inputs must be 'F, Ms'")
        if not isinstance(end, ast.Return) or not isinstance(end.value, (ast.Name, ast.Tuple)):
            raise TranslationError("a law's body must end with 'return <name>, ...'")
        self.outputs = [end.value.id] if isinstance(end.value, ast.Name) else _names(end.value)
        self.block(statements, "")
        self.lines += [*(f"out[{i}] = {self.expr(ast.Name(name))};" for i, name in enumerate(self.outputs)),
                       "return raised;"]
        return self.c_function("static int evaluate(double v_F, double v_Ms, const double *values, double *out)")

    def c_function(self, signature: str) -> str:
        reads = [f"    const double {_name(name)} = values[{i}];" for i, name in enumerate(self.values)]
        return "\n".join([
            signature,
            "{",
            *reads,
            *([f"    double {', '.join(map(_name, sorted(self.locals)))};"] if self.locals else []),
            "    int raised = 0;",
            *("    " + line for line in self.lines),
            "}",
            "",
        ])

    def loop(self, node):
        """``for _ in range(n)``, whose last ``if <test>: <the clamp>`` becomes a stop, and Python redoes the run."""
        if not (isinstance(node, ast.For) and ast.unparse(node.target) == "_" and ast.unparse(node.iter) == "range(n)"
                and not node.orelse):
            raise TranslationError("the third statement must be the loop 'for _ in range(n)'")
        *body, last = node.body
        if not (isinstance(last, ast.If) and not last.orelse and len(last.body) == 1 and "_clamp" in self.constants
                and self.clamp_stop.fullmatch(ast.unparse(last.body[0]))):
            raise TranslationError("the loop must end with 'if <test>: (<state names>), <accumulator> = _clamp(...)'")
        self.lines.append("for (long i = 0; i < n; i++) {")
        self.block(body, "    ")
        self.lines += [f"    if ({self.test(last.test)})", "        return 1;", "}"]

    def block(self, statements, pad: str):
        for node in statements:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                name = node.targets[0].id
                if name in self.constants or name in self.inputs or name in ("_", self.worst):
                    raise TranslationError(f"assignment to {name!r}")
                self.locals.add(name)
                self.lines.append(f"{pad}{_name(name)} = {self.expr(node.value)};")
                self.assigned.add(name)
            elif isinstance(node, ast.If):
                self.lines.append(f"{pad}if ({self.test(node.test)}) {{")
                before = set(self.assigned)
                self.block(node.body, pad + "    ")
                after, self.assigned = self.assigned, before
                if node.orelse:
                    self.lines.append(f"{pad}}} else {{")
                    self.block(node.orelse, pad + "    ")
                self.assigned &= after  # assigned on both branches
                self.lines.append(f"{pad}}}")
            else:
                raise TranslationError(f"unsupported statement {ast.unparse(node)!r}")

    def test(self, node) -> str:
        """``node`` as a C condition: Python's truth value of a float is C's of a double (nonzero, or NaN)."""
        if isinstance(node, ast.BoolOp):
            op = " && " if isinstance(node.op, ast.And) else " || "
            return "(" + op.join(self.test(value) for value in node.values) + ")"
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            return f"(!{self.test(node.operand)})"
        if isinstance(node, ast.Compare):
            terms = [self.expr(node.left), *map(self.expr, node.comparators)]
            pairs = []
            for op, left, right in zip(node.ops, terms, terms[1:]):
                if type(op) not in _COMPARE:
                    raise TranslationError(f"unsupported comparison in {ast.unparse(node)!r}")
                pairs.append(f"({left} {_COMPARE[type(op)]} {right})")
            return "(" + " && ".join(pairs) + ")"
        return self.expr(node)

    def expr(self, node) -> str:
        """``node`` as a C double expression, parenthesised as the tree is."""
        if isinstance(node, ast.Constant):
            return _literal(node.value)
        if isinstance(node, ast.Name):
            if node.id in self.values or node.id in self.assigned:
                return _name(node.id)
            raise TranslationError(f"{node.id!r} is read before it is assigned, or is no constant")
        if isinstance(node, ast.BinOp):
            left, right = self.expr(node.left), self.expr(node.right)
            if isinstance(node.op, ast.Div):
                return f"py_div({left}, {right}, &raised)"
            if type(node.op) in _ARITHMETIC:
                return f"({left} {_ARITHMETIC[type(node.op)]} {right})"
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return f"(-{self.expr(node.operand)})"
        elif isinstance(node, ast.IfExp):
            return f"({self.test(node.test)} ? {self.expr(node.body)} : {self.expr(node.orelse)})"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "abs"
              and "abs" not in self.constants and len(node.args) == 1 and not node.keywords):
            return f"fabs({self.expr(node.args[0])})"
        raise TranslationError(f"unsupported expression {ast.unparse(node)!r}")


#: The whole run's record, in C beside a kernel's ``advance`` (see :func:`record`).
_RECORD = """\
/* The record of a run of n steps from states[0], a sample after each `every` steps and at the end: states[j] (size
   doubles) and controls[j], the u that sitctl_advance gives at states[j] (after no step for record 0).  Returns
   `records` when all are written, else less: the law raised at a record, or a chunk stopped (sitctl_advance
   returned 1), and the caller drops the arrays. */
long sitctl_record(double *restrict states, double *restrict controls, long records, long size, long n, long every,
                   const double *restrict values)
{
    if (sitctl_advance(states, 0, values, controls))
        return 0;
    for (long j = 0; j + 1 < records; j++) {
        double *y = states + j * size;
        for (long i = 0; i < size; i++)
            y[size + i] = y[i];
        if (sitctl_advance(y + size, n - j * every < every ? n - j * every : every, values, controls + j + 1))
            return j;
    }
    return records;
}
"""
#: The law's scan over a grid, in C beside a law's ``evaluate`` (see :func:`scan`); ``OUTPUTS`` is the number of values
#: the law returns.
_SCAN = """\
/* One pass over the grid F x Ms in row-major order (i < rows, j < cols), reducing the law's value number `output`
   into result: [0] the lowest value, where the first NaN is the lowest and the first point wins a tie; [1] and [2]
   its point F[wi], Ms[wj]; [3] the largest |value|; [4] with `growth` the largest (value - slope Ms[j]) / F[i] over
   F[i] > 0, or 0.0, else 0.0.  The largest two skip NaNs.  Inlined here, the law's values of F alone are invariant
   in the loop over j, and the compiler computes them once per i.  Returns 0, or 1 where the law raised at a point;
   the caller then drops result.  The grid has a point. */
long sitctl_scan(const double *restrict F, long rows, const double *restrict Ms, long cols, long output, long growth,
                 double slope, const double *restrict values, double *restrict result)
{
    double out[OUTPUTS], worst = INFINITY, scale = 0.0, K = 0.0;
    long wi = 0, wj = 0;
    for (long i = 0; i < rows; i++)
        for (long j = 0; j < cols; j++) {
            if (evaluate(F[i], Ms[j], values, out))
                return 1;
            double value = out[output], magnitude = fabs(value);
            if (!isnan(worst) && (isnan(value) || value < worst)) {
                worst = value;
                wi = i;
                wj = j;
            }
            if (magnitude > scale)
                scale = magnitude;
            if (growth && F[i] > 0.0) {
                double slack = (value - slope * Ms[j]) / F[i];
                if (slack > K)
                    K = slack;
            }
        }
    result[0] = worst;
    result[1] = F[wi];
    result[2] = Ms[wj];
    result[3] = scale;
    result[4] = K;
    return 0;
}
"""
_DOUBLES = ctypes.POINTER(ctypes.c_double)
#: The ctypes signature of each exported C function.  Their names are prefixed: the C library exports a legacy
#: ``advance`` (regexp.h), and a plain name could take another library's symbol.
_SIGNATURES = {
    "sitctl_record": (ctypes.c_void_p, ctypes.c_void_p, *[ctypes.c_long] * 4, _DOUBLES),
    "sitctl_scan": (ctypes.c_void_p, ctypes.c_long, ctypes.c_void_p, *[ctypes.c_long] * 3, ctypes.c_double, _DOUBLES,
                    _DOUBLES),
}


@cache
def compiler() -> str | None:
    """The C compiler on ``PATH`` (``cc``, else ``gcc`` or ``clang``), looked up once per process; None if none."""
    return next(filter(None, map(shutil.which, ("cc", "gcc", "clang"))), None)


#: Each build, by a kernel's or a law's ``(args, body, constant names)``: the loaded C function (None without a
#: compiler or where the build failed) and its size, the kernel's state length or the number of values the law returns.
_BUILT: dict[tuple, tuple] = {}
_BUILDING = threading.Lock()  # held while _built checks and builds


def _build(c_source: str, name: str, flags: tuple):
    """Compile ``c_source`` with ``flags`` in a private temporary directory and load it: its function ``name``; None
    on failure."""
    import subprocess  # imported here: ``import sitctl`` starts no process and need not pay for it

    with tempfile.TemporaryDirectory(prefix="sitctl-", ignore_cleanup_errors=True) as tmp:
        c_path, path = os.path.join(tmp, "kernel.c"), os.path.join(tmp, "kernel.so")
        with open(c_path, "w") as out:
            out.write(c_source)
        command = [compiler(), *flags, "-o", path, c_path, "-lm"]
        try:  # TMPDIR: what the compiler writes stays in the private directory too
            result = subprocess.run(command, capture_output=True, text=True, env={**os.environ, "TMPDIR": tmp})
            library = ctypes.CDLL(path) if result.returncode == 0 else None
        except OSError as err:
            result, library = err, None
    if library is None:
        warnings.warn(f"building a native kernel failed, the Python kernel runs: {result}", RuntimeWarning)
        return None
    function = getattr(library, name)
    function.argtypes, function.restype = _SIGNATURES[name], ctypes.c_long
    return function


def _library(function: tuple) -> tuple:
    """The C library of ``function``, :func:`~sitctl.model.define`'s arguments of a kernel (``sitctl_record``) or a
    law (``sitctl_scan``): ``(C source, driver name, build flags, size)``, the size as in :data:`_BUILT`.

    A law builds with ``-fno-trapping-math`` beside :data:`FLAGS`, so that the compiler may compute a division of F
    alone once per row of the grid, even where it sits in a branch that a point may not take.  The flag allows no
    transformation that changes a value (those are ``-funsafe-math-optimizations`` and ``-ffinite-math-only``, which
    stay off): it only lets the compiler ignore the FP status flags and traps, which no code here reads or enables;
    ``py_div`` tests its divisor itself.  A kernel builds with :data:`FLAGS` alone: its law reads a new state at each
    step, so nothing in it is invariant across the loop, and the flag made the reduced kernels about a fifth slower.
    """
    translator = _Translator(*function[1:])
    if translator.inputs == ["state", "n"]:
        return "\n".join([_PRELUDE, translator.advance(), _RECORD]), "sitctl_record", FLAGS, len(translator.state)
    c_source = "\n".join([_PRELUDE, translator.law(), f"#define OUTPUTS {len(translator.outputs)}", _SCAN])
    return c_source, "sitctl_scan", (*FLAGS, "-fno-trapping-math"), len(translator.outputs)


def _built(function: tuple) -> tuple:
    """The build of ``function`` (:func:`_library`), once per process (:data:`_BUILT`): ``(driver, size)``.
    Under a lock: threads that ask at once, as a sweep's workers do, share the first one's build."""
    key = function[1], function[2], tuple(function[3])  # args, body and the constants' names
    with _BUILDING:
        if key not in _BUILT:
            c_source, name, flags, size = _library(function)
            _BUILT[key] = None if compiler() is None else _build(c_source, name, flags), size
        return _BUILT[key]


def _doubles(constants: dict):
    """The constants other than ``_clamp``, in order, as the C array ``values`` of doubles."""
    numbers = [_value(name, value) for name, value in constants.items() if name != "_clamp"]
    return (ctypes.c_double * len(numbers))(*numbers)


def _value(name: str, value) -> float:
    """A constant as the double the C reads: a float, a bool as 0.0 or 1.0, or an int that a double holds exactly."""
    if type(value) in (float, bool) or type(value) is int and float(value) == value:
        return float(value)
    raise TypeError(f"constant {name} = {value!r} is not a float")


def record(kernel: tuple, reference, initial: tuple, n_steps: int, every: int):
    """``reference(chunk, initial, n_steps, every) -> (states, controls, termination, max_clamp)``, the record rule
    in Python (:func:`sitctl.simulate._record`), on the kernel ``kernel``, bit for bit, in one C call where it can.

    ``kernel`` is :func:`~sitctl.model.define`'s arguments of ``advance(state, n) -> (state, largest clamp, u)``
    (:func:`sitctl.simulate._kernel`).  Where it builds, one call of the C driver (``sitctl_record`` in
    :data:`_RECORD`) writes each sample's state and ``u`` into preallocated arrays.  With no build, or where the
    driver returns early (the law raised at a record, or a chunk clamped or raised), ``reference`` records the whole
    run on the Python kernel, compiled only then.

    One build per kernel text and per process (:func:`_built`).  ``record`` may run on several threads at once:
    ctypes releases the GIL for the driver's call, and the driver writes only the arrays it is given and its locals.
    A construct outside the translated subset raises :class:`TranslationError`, with or without a compiler.
    """
    driver, size = _built(kernel)
    if driver is not None:
        records = 1 + -(-n_steps // every)
        states, controls = np.empty((records, size)), np.empty(records)
        states[0] = initial
        values = _doubles(kernel[3])
        if driver(states.ctypes.data, controls.ctypes.data, records, size, n_steps, every, values) == records:
            return states, controls, TERMINATION_HORIZON, 0.0
    return reference(model.define(*kernel), initial, n_steps, every)


def scan(law: tuple, reference, Fs, Mss, output: int, slope: float | None = None):
    """The scan ``reference`` of the law ``law``'s value number ``output`` over the grid Fs x Mss, bit for bit, in one
    C call where it can.

    ``law`` is :func:`~sitctl.model.define`'s arguments of a function ``(F, Ms)`` that returns names.  ``reference(grid,
    Fs, Mss, slope) -> (lowest, witness, largest |value|, K)`` reduces the grid of one of the law's values, ``grid[i,
    j]`` at ``(Fs[i], Mss[j])`` (:func:`sitctl.verify._scan_2d`); with ``slope`` None, K is 0.0.  The scan raises where
    the law does.  An empty grid has no witness: its scan is ``(inf, None, 0.0, 0.0)``, and runs the law nowhere.

    In C where it builds: one build (``sitctl_scan`` in :data:`_SCAN`) per law text and per process serves every
    value of the constants, and one call reduces the whole grid as it goes, holding no grid in memory.  Where there is
    no build, or the C law raised anywhere on the grid, the Python law runs at every point in row-major order, and so
    raises at the first point where it raises, and ``reference`` reduces the grid of its values.
    """
    driver, outputs = _built(law)
    values = _doubles(law[3])
    Fs, Mss = np.ascontiguousarray(Fs, dtype=float), np.ascontiguousarray(Mss, dtype=float)
    if output not in range(outputs):
        raise ValueError(f"the law returns {outputs} values, not a value number {output!r}")
    if not (len(Fs) and len(Mss)):
        return np.inf, None, 0.0, 0.0
    if driver is not None:
        result = (ctypes.c_double * 5)()
        if not driver(Fs.ctypes.data, len(Fs), Mss.ctypes.data, len(Mss), output, slope is not None,
                      0.0 if slope is None else slope, values, result):
            worst, F, Ms, scale, K = result
            return worst, (F, Ms), scale, K
    evaluate = model.define(*law)
    points = (evaluate(F, Ms) for F in Fs.tolist() for Ms in Mss.tolist())
    grid = np.fromiter((point[output] if type(point) is tuple else point for point in points), float,
                       len(Fs) * len(Mss))
    return reference(grid.reshape(len(Fs), len(Mss)), Fs, Mss, slope)
